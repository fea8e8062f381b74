import io
import itertools

import pytest

from morphogen import data as d
from morphogen.errors import DataError
from morphogen.vocab import BOS, EOS, EPS, UNK, N_SPECIAL, CharVocab


def test_special_ids_fixed():
    assert (BOS, EOS, EPS, UNK) == (0, 1, 2, 3)
    assert N_SPECIAL == 4


def test_vocab_sorts_data_chars_by_codepoint():
    v = CharVocab("bca")
    assert v.data_chars == ("a", "b", "c")
    assert v.id_of("a") == 4 and v.id_of("b") == 5 and v.id_of("c") == 6
    assert len(v) == 7
    assert list(v.data_ids()) == [4, 5, 6]


def test_vocab_duplicates_collapse_and_order_independent():
    assert CharVocab("aabbc") == CharVocab("cba")
    assert CharVocab("xy") != CharVocab("xz")


def test_vocab_unseen_maps_to_unk():
    v = CharVocab("ab")
    assert v.id_of("z") == UNK
    assert v.encode("az") == [4, UNK]


def test_vocab_decode_round_trip_and_special_rendering():
    v = CharVocab("ab")
    assert v.decode(v.encode("abba")) == "abba"
    assert v.decode([BOS, 4, EOS]) == "<s>a</s>"
    assert v.token_of(EPS) == "<eps>"


def test_vocab_rejects_multicharacter_tokens():
    with pytest.raises(DataError, match="single character"):
        CharVocab(["ab"])


def test_example_rejects_empty_fields():
    with pytest.raises(DataError):
        d.Example("", "case=inessive", "talossa")
    with pytest.raises(DataError):
        d.Example("talo", "", "talossa")
    with pytest.raises(DataError):
        d.Example("talo", "case=inessive", "")


def test_parse_lines_three_columns():
    got = d.parse_dataset_lines(io.StringIO("Kalb\tcase=dative,number=plural\tKälbern\n"))
    assert got == [d.Example("Kalb", "case=dative,number=plural", "Kälbern")]


def test_parse_lines_skips_blanks_and_comments():
    text = "\n# header comment\n  \t\na\tt\tb\n   # indented comment\nc\tt\td\n"
    got = d.parse_dataset_lines(io.StringIO(text))
    assert [e.lemma for e in got] == ["a", "c"]


def test_parse_lines_column_error_carries_line_number():
    with pytest.raises(DataError, match=r"<input>:2: expected 3"):
        d.parse_dataset_lines(io.StringIO("a\tt\tb\na\tb\n"))
    with pytest.raises(DataError, match=r"stuff:1"):
        d.parse_dataset_lines(io.StringIO("a\tt\tb\textra\n"), source="stuff")


def test_parse_lines_empty_field_error_carries_line_number():
    with pytest.raises(DataError, match=r"<input>:3"):
        d.parse_dataset_lines(io.StringIO("a\tt\tb\nc\tt\td\n\tt\tx\n"))


def test_parse_applies_nfc_normalization():
    # decomposed a + combining diaeresis becomes the composed character
    got = d.parse_dataset_lines(io.StringIO("Kalb\tt\tKälber\n"))
    assert got[0].inflected == "K\xe4lber"


def test_every_text_reader_applies_nfc_normalization(tmp_path):
    # split_fields serves every tab-separated reader; read_wordlist reads lines
    fields = list(d.split_fields(io.StringIO("ka\u0308l\tt\n"), (2,)))
    assert fields == [(1, ["k\xe4l", "t"])]
    p = tmp_path / "words.txt"
    p.write_text("ka\u0308la\n", encoding="utf-8")
    assert d.read_wordlist(p) == ["k\xe4la"]


def test_parse_dataset_missing_file():
    with pytest.raises(DataError, match="cannot read dataset"):
        d.parse_dataset("/nonexistent/path.tsv")


def test_parse_dataset_rejects_non_utf8(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_bytes(b"a\tt\t\xff\n")
    with pytest.raises(DataError, match="UTF-8"):
        d.parse_dataset(p)


def test_serialize_parse_round_trip(tmp_path):
    examples = [d.Example("Kalb", "case=dative,number=plural", "Kälbern"),
                d.Example("talo", "case=inessive", "talossa")]
    p = tmp_path / "data.tsv"
    d.write_dataset(examples, p)
    assert d.parse_dataset(p) == examples


def test_build_vocab_collects_lemma_and_form_chars():
    v = d.build_vocab([d.Example("ab", "t", "cd")])
    assert v.data_chars == ("a", "b", "c", "d")
    # tag characters stay out of the vocabulary
    assert v.id_of("t") == UNK


def test_build_vocab_deterministic_and_order_independent():
    e1 = [d.Example("ba", "t", "dc"), d.Example("xy", "u", "zw")]
    assert d.build_vocab(e1) == d.build_vocab(list(reversed(e1)))
    with pytest.raises(DataError, match="no examples"):
        d.build_vocab([])


def test_table_examples_round_trip():
    t = d.InflectionTable("go", {"past": "went", "gerund": "going"})
    exs = t.examples()
    assert exs == [d.Example("go", "past", "went"), d.Example("go", "gerund", "going")]
    assert d.InflectionTable("go", {e.tag: e.inflected for e in exs}) == t


def test_split_tables_sizes_and_disjointness():
    tables = [d.InflectionTable(f"l{i}", {"t": f"f{i}"}) for i in range(20)]
    split = d.split_tables(tables, seed=0)
    assert (len(split.train), len(split.dev), len(split.test)) == (16, 2, 2)
    lemmas = [t.lemma for part in (split.train, split.dev, split.test) for t in part]
    assert sorted(lemmas) == sorted(t.lemma for t in tables)
    assert len(set(lemmas)) == 20


def test_split_tables_seed_determinism():
    tables = [d.InflectionTable(f"l{i}", {"t": f"f{i}"}) for i in range(30)]
    a = d.split_tables(tables, seed=5)
    b = d.split_tables(tables, seed=5)
    c = d.split_tables(tables, seed=6)
    assert [t.lemma for t in a.train] == [t.lemma for t in b.train]
    assert [t.lemma for t in a.train] != [t.lemma for t in c.train]


def test_split_tables_validation_errors():
    tables = [d.InflectionTable(f"l{i}", {"t": "f"}) for i in range(20)]
    with pytest.raises(DataError, match="duplicate lemmas"):
        d.split_tables(tables + [d.InflectionTable("l0", {"t": "f"})])
    with pytest.raises(DataError, match="empty"):
        d.split_tables(tables[:5])   # 0.1 of 5 tables rounds to an empty dev split


def test_tables_to_examples_flattens_in_order():
    tables = [d.InflectionTable("a", {"t1": "x", "t2": "y"}),
              d.InflectionTable("b", {"t1": "z"})]
    exs = d.tables_to_examples(tables)
    assert exs == [d.Example("a", "t1", "x"), d.Example("a", "t2", "y"),
                   d.Example("b", "t1", "z")]


def test_wordlist_round_trip(tmp_path):
    p = tmp_path / "words.txt"
    d.write_wordlist(["talossa", "kylässä"], p)
    assert d.read_wordlist(p) == ["talossa", "kylässä"]
    with pytest.raises(DataError, match="cannot read wordlist"):
        d.read_wordlist(tmp_path / "missing.txt")


def test_harmony_rule_back_and_front_fixtures():
    spec = d.default_synth_spec()
    assert d.apply_harmony_rule(spec, "talo", "case=inessive") == "talossa"
    assert d.apply_harmony_rule(spec, "teli", "case=inessive") == "telissä"
    assert d.apply_harmony_rule(spec, "tölö", "case=adessive") == "tölöllä"
    assert d.apply_harmony_rule(spec, "kusi", "case=elative") == "kusista"
    assert d.apply_harmony_rule(spec, "nei", "case=ablative") == "neiltä"


def test_synth_spec_validation():
    spec = d.default_synth_spec()
    spec.validate()
    with pytest.raises(DataError, match="suffix"):
        d.SynthSpec().validate()
    bad = d.default_synth_spec()
    bad.stem_len = (0, 3)
    with pytest.raises(DataError, match="stem length"):
        bad.validate()
    bad = d.default_synth_spec()
    bad.suffixes["case=comitative"] = ("xine", "xina")
    with pytest.raises(DataError, match="outside the alphabet"):
        bad.validate()


def test_synth_language_shape_and_determinism():
    spec = d.default_synth_spec()
    tables = d.synth_language(spec, 25, seed=3)
    assert len(tables) == 25
    lemmas = [t.lemma for t in tables]
    assert len(set(lemmas)) == 25
    again = d.synth_language(spec, 25, seed=3)
    assert [t.lemma for t in again] == lemmas
    assert all(t.forms == u.forms for t, u in zip(tables, again))
    assert [t.lemma for t in d.synth_language(spec, 25, seed=4)] != lemmas


def test_synth_language_every_form_obeys_rule():
    # independent evaluator: recompute each form from the stem
    spec = d.default_synth_spec()
    for table in d.synth_language(spec, 40, seed=1):
        stem = table.lemma
        assert spec.stem_len[0] <= len(stem) <= spec.stem_len[1]
        assert set(stem) <= spec.alphabet()
        has_back = any(ch in spec.back_vowels for ch in stem)
        has_front = any(ch in spec.front_vowels for ch in stem)
        assert not (has_back and has_front)  # stems are harmony-pure
        assert set(table.forms) == set(spec.suffixes)
        for tag, form in table.forms.items():
            front, back = spec.suffixes[tag]
            assert form == stem + (back if has_back else front)


def test_synth_language_alternating_cv_shape():
    spec = d.default_synth_spec()
    vowels = set(spec.back_vowels + spec.front_vowels + spec.neutral_vowels)
    for table in d.synth_language(spec, 15, seed=2):
        for i, ch in enumerate(table.lemma):
            if i % 2 == 0:
                assert ch in spec.consonants
            else:
                assert ch in vowels


def _tiny_spec(neutral="e"):
    return d.SynthSpec(consonants="kt", back_vowels="a", front_vowels="ä",
                       neutral_vowels=neutral, stem_len=(1, 4),
                       suffixes={"case=inessive": ("tä", "ta")})


def _every_stem(spec):
    """Every stem the drawing rule can make, by enumeration."""
    stems = set()
    for vowels in (spec.back_vowels + spec.neutral_vowels,
                   spec.front_vowels + spec.neutral_vowels, spec.neutral_vowels):
        for length in range(spec.stem_len[0], spec.stem_len[1] + 1):
            slots = [spec.consonants if i % 2 == 0 else vowels for i in range(length)]
            stems |= {"".join(p) for p in itertools.product(*slots)}
    return stems


@pytest.mark.parametrize("neutral", ("e", "", "ei"))
def test_synth_stem_count_matches_enumeration(neutral):
    spec = _tiny_spec(neutral)
    assert spec.stem_count() == len(_every_stem(spec))
    count = spec.stem_count()
    tables = d.synth_language(spec, count, seed=0)
    assert {t.lemma for t in tables} == _every_stem(spec)
    with pytest.raises(DataError, match=rf"size {count + 1} .* {count} distinct stems"):
        d.synth_language(spec, count + 1, seed=0)


def test_synth_stem_count_of_the_default_spec():
    assert d.default_synth_spec().stem_count() == 141475


@pytest.mark.parametrize("size", (0, -4))
def test_synth_language_rejects_a_size_below_one(size):
    with pytest.raises(DataError, match=rf"size must be >= 1, got {size}"):
        d.synth_language(_tiny_spec(), size, seed=0)


def test_synth_wordlist_unique_and_deterministic():
    spec = d.default_synth_spec()
    words = d.synth_wordlist(spec, 30, seed=5)
    assert len(words) == len(set(words))
    assert words == d.synth_wordlist(spec, 30, seed=5)
    suffix_variants = tuple(v for pair in spec.suffixes.values() for v in pair)
    assert all(w.endswith(suffix_variants) for w in words)


def test_open_text_write_is_atomic(tmp_path):
    path = tmp_path / "out.tsv"
    path.write_bytes(b"old\tcontents\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        with d.open_text(path, "w") as f:
            f.write("new\tpartial")
            f.flush()
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"old\tcontents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]
    d.write_dataset([d.Example("ab", "t", "aba")], path)
    assert path.read_bytes() == b"ab\tt\taba\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]


def test_open_text_write_errors_leave_nothing(tmp_path):
    with pytest.raises(DataError, match=r"^cannot write dataset .*missing.*: No such file"):
        d.write_dataset([d.Example("ab", "t", "aba")], tmp_path / "missing" / "out.tsv")
    with pytest.raises(DataError, match="cannot write dataset"):
        d.write_dataset([d.Example("ab", "t", "aba")], tmp_path)
    assert list(tmp_path.iterdir()) == []
