import itertools
import shutil
import unicodedata

import numpy as np
import pytest

from helpers import models_equal
from morphogen import cli
from morphogen import evaluate as ev
from morphogen import search as se
from morphogen import trainer
from morphogen.charlm import load_lm
from morphogen.data import DatasetSplit, Example, parse_dataset
from morphogen.errors import DataError, SearchError
from morphogen.model import load_model, save_model
from morphogen.reranker import load_weights
from morphogen.search import read_nbest
from morphogen.trainer import TrainConfig, train_factored

INESSIVE = "case=inessive"


# --- analysis helpers -------------------------------------------------------


def test_bin_of_length_boundaries():
    assert ev.LENGTH_BIN_LABELS == ("<5", "[5,10)", "[10,15)", ">=15")
    assert ev.bin_of_length(0) == "<5"
    assert ev.bin_of_length(4) == "<5"
    assert ev.bin_of_length(5) == "[5,10)"
    assert ev.bin_of_length(9) == "[5,10)"
    assert ev.bin_of_length(10) == "[10,15)"
    assert ev.bin_of_length(14) == "[10,15)"
    assert ev.bin_of_length(15) == ">=15"
    assert ev.bin_of_length(40) == ">=15"


def test_accuracy_by_length_matches_brute_force():
    golds = ["abc", "abcd", "abcde", "a" * 9, "a" * 10, "a" * 14, "a" * 15, "a" * 20]
    preds = ["abc", "xxxx", "abcde", "a" * 9, "wrong", "a" * 14, "a" * 15, "nope"]
    got = ev.accuracy_by_length(preds, golds)
    want_hits, want_counts = {}, {}
    for p, g in zip(preds, golds):
        label = ev.bin_of_length(len(g))
        want_counts[label] = want_counts.get(label, 0) + 1
        want_hits[label] = want_hits.get(label, 0) + (p == g)
    assert got == {k: want_hits[k] / want_counts[k] for k in want_counts}
    assert list(got) == [k for k in ev.LENGTH_BIN_LABELS if k in want_counts]


def test_accuracy_by_length_omits_absent_bins():
    got = ev.accuracy_by_length(["ab"], ["ab"])
    assert got == {"<5": 1.0}


def test_accuracy_by_length_mismatched_inputs():
    with pytest.raises(DataError, match="2 predictions vs 1"):
        ev.accuracy_by_length(["a", "b"], ["a"])


def test_is_harmonic_fixtures():
    assert ev.is_harmonic("fasisteissa")            # back + neutral
    assert not ev.is_harmonic("fasisteissä")        # back stem, front suffix
    assert not ev.is_harmonic("tärkkelyspitoisissa")  # front + back compound
    assert ev.is_harmonic("kylässä")
    assert ev.is_harmonic("teline")                 # neutral only
    assert ev.is_harmonic("krk")                    # no vowels at all
    assert ev.is_harmonic("")


def test_vowel_harmony_check_fraction_and_verdicts():
    words = ["talossa", "kylässä", "talossä"]
    fraction, verdicts = ev.vowel_harmony_check(words)
    assert verdicts == [True, True, False]
    assert abs(fraction - 2.0 / 3.0) < 1e-12
    assert ev.vowel_harmony_check([]) == (1.0, [])


# --- accuracy over a model that memorized one pattern -----------------------


@pytest.fixture(scope="module")
def memorizer():
    ex = Example("talo", INESSIVE, "talossa")
    ds = DatasetSplit(train=[ex] * 50, dev=[ex], test=[])
    model = train_factored(ds, INESSIVE, TrainConfig(hidden=16, epochs=30, seed=0))
    return ex, model


def test_evaluate_accuracy_hit_and_miss(memorizer):
    ex, model = memorizer
    report = ev.evaluate_accuracy({INESSIVE: model}, [ex])
    assert report.per_tag == {INESSIVE: 1.0}
    assert report.counts == {INESSIVE: 1}
    assert report.macro == 1.0
    assert report.predictions == (("talo", INESSIVE, "talossa", "talossa"),)
    wrong = Example("talo", INESSIVE, "talolla")
    report = ev.evaluate_accuracy({INESSIVE: model}, [wrong])
    assert report.per_tag == {INESSIVE: 0.0}
    assert report.macro == 0.0


def test_evaluate_accuracy_macro_averages_tags(memorizer):
    ex, model = memorizer
    other = Example("talo", "case=adessive", "talolla")
    report = ev.evaluate_accuracy({INESSIVE: model, "case=adessive": model},
                                  [ex, other])
    assert report.per_tag[INESSIVE] == 1.0
    assert report.per_tag["case=adessive"] == 0.0
    assert report.macro == 0.5


def test_evaluate_accuracy_accepts_ensemble_lists(memorizer):
    ex, model = memorizer
    report = ev.evaluate_accuracy({INESSIVE: [model, model]}, [ex])
    assert report.per_tag == {INESSIVE: 1.0}


def test_evaluate_accuracy_validation(memorizer):
    ex, model = memorizer
    with pytest.raises(DataError, match="no examples"):
        ev.evaluate_accuracy({INESSIVE: model}, [])
    with pytest.raises(DataError, match="case=elative"):
        ev.evaluate_accuracy({INESSIVE: model},
                             [Example("talo", "case=elative", "talosta")])


def test_decode_lemmas_beam_and_greedy_agree_when_confident(memorizer):
    ex, model = memorizer
    [[greedy]] = ev.decode_lemmas([model], ["talo"])
    assert greedy.text(model.vocab) == "talossa"
    [nbest] = ev.decode_lemmas([model], ["talo"], beam_width=4)
    assert 1 <= len(nbest) <= 4
    assert nbest[0].text(model.vocab) == "talossa"


@pytest.mark.parametrize("kwargs", ({}, {"beam_width": 3}), ids=("greedy", "beam"))
def test_evaluate_accuracy_decodes_each_lemma_once_per_shared_model_list(workspace, monkeypatch,
                                                                         kwargs):
    examples = parse_dataset(workspace["test.tsv"])
    tags = sorted({ex.tag for ex in examples})
    model = load_model(workspace["model.ckpt"])
    shared, other = [model], [load_model(workspace["model.ckpt"])]
    # one list per tag: the report every grouping must give
    want = ev.evaluate_accuracy({tag: [model] for tag in tags}, examples, **kwargs)
    real, calls = ev.decode_lemmas, []

    def spy(models, lemmas, **kw):
        calls.append((models, list(lemmas)))
        return real(models, lemmas, **kw)

    monkeypatch.setattr(ev, "decode_lemmas", spy)
    for models_by_tag in ({tag: shared for tag in tags},
                          {tag: shared if tag != tags[1] else other for tag in tags},
                          {tag: model for tag in tags}):
        calls.clear()
        assert ev.evaluate_accuracy(models_by_tag, examples, **kwargs) == want
        # one call per distinct list (or model), each of its lemmas once, in file order
        lists = list({id(m): m for m in models_by_tag.values()}.values())
        assert [models for models, _ in calls] == [ev._as_ensemble(m) for m in lists]
        for m, (_, lemmas) in zip(lists, calls):
            assert lemmas == list(dict.fromkeys(ex.lemma for ex in examples
                                                if models_by_tag[ex.tag] is m))


def test_evaluate_accuracy_rerank_checks_run_before_decoding(memorizer, monkeypatch):
    ex, model = memorizer
    from morphogen.reranker import RerankModel

    def no_decode(*args, **kwargs):
        raise AssertionError("decoded before the reranker's inputs were checked")

    monkeypatch.setattr(ev, "decode_lemmas", no_decode)
    with pytest.raises(DataError, match="language model"):
        ev.evaluate_accuracy({INESSIVE: model}, [ex], beam_width=4,
                             rerank_model=RerankModel(np.zeros(8)))
    with pytest.raises(DataError, match="beam width"):
        ev.evaluate_accuracy({INESSIVE: model}, [ex], lm=object(),
                             rerank_model=RerankModel(np.zeros(8)))


def test_decoding_with_no_model_is_a_search_error(memorizer):
    ex, _ = memorizer
    with pytest.raises(SearchError, match="decoding needs at least one model"):
        ev.evaluate_accuracy({INESSIVE: []}, [ex])
    with pytest.raises(SearchError, match="decoding needs at least one model"):
        trainer.exact_match_accuracy([], [ex], 5)


def test_export_embeddings_round_trip(tmp_path, memorizer):
    _, model = memorizer
    path = tmp_path / "emb.tsv"
    ev.export_embeddings(model, "alo", path)
    got = ev.read_embeddings(path)
    assert list(got) == ["a", "l", "o"]
    for ch, vec in got.items():
        assert np.array_equal(np.array(vec),
                              model.embed.value[model.vocab.id_of(ch)])


def test_export_embeddings_unknown_char(tmp_path, memorizer):
    _, model = memorizer
    with pytest.raises(DataError, match="'z'"):
        ev.export_embeddings(model, "az", tmp_path / "emb.tsv")


def test_read_embeddings_malformed(tmp_path):
    p = tmp_path / "emb.tsv"
    p.write_text("a\n", encoding="utf-8")
    with pytest.raises(DataError, match="malformed"):
        ev.read_embeddings(p)
    p.write_text("a\t0.5\tnot-a-float\n", encoding="utf-8")
    with pytest.raises(DataError, match="malformed"):
        ev.read_embeddings(p)
    p.write_bytes(b"a\t0.5\xff\n")
    with pytest.raises(DataError, match="UTF-8"):
        ev.read_embeddings(p)
    with pytest.raises(DataError, match="cannot read embedding file"):
        ev.read_embeddings(tmp_path / "missing.tsv")


# --- command-line flows ------------------------------------------------------


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth-data + factored/joint/interpolated training + LM, beams, weights."""
    root = tmp_path_factory.mktemp("cliflow")
    w = {name: str(root / name) for name in
         ("train.tsv", "dev.tsv", "test.tsv", "words.txt", "model.ckpt",
          "joint", "lm.txt", "beams.tsv", "weights.tsv", "interp.ckpt")}
    assert cli.main(["synth-data", "--size", "20", "--wordlist-size", "60",
                     "--out-dir", str(root), "--seed", "3"]) == 0
    assert cli.main(["train", "--data", w["train.tsv"], "--dev", w["dev.tsv"],
                     "--tag", INESSIVE, "--out", w["model.ckpt"],
                     "--hidden", "10", "--epochs", "3", "--seed", "0"]) == 0
    assert cli.main(["train", "--mode", "joint", "--data", w["train.tsv"],
                     "--dev", w["dev.tsv"], "--out-dir", w["joint"],
                     "--hidden", "8", "--epochs", "2", "--seed", "0"]) == 0
    assert cli.main(["lm-train", "--words", w["words.txt"], "--data", w["train.tsv"],
                     "--order", "4", "--out", w["lm.txt"]]) == 0
    assert cli.main(["beam", "--model", w["model.ckpt"], "--data", w["dev.tsv"],
                     "--beam-width", "4", "--out", w["beams.tsv"]]) == 0
    assert cli.main(["rerank-train", "--nbest", w["beams.tsv"], "--data", w["dev.tsv"],
                     "--lm", w["lm.txt"], "--out", w["weights.tsv"], "--seed", "0"]) == 0
    assert cli.main(["train", "--mode", "interpolated", "--data", w["train.tsv"],
                     "--tag", INESSIVE, "--lm", w["lm.txt"], "--out", w["interp.ckpt"],
                     "--hidden", "6", "--epochs", "1", "--seed", "0"]) == 0
    return w


def test_cli_synth_data_files(workspace):
    train = parse_dataset(workspace["train.tsv"])
    dev = parse_dataset(workspace["dev.tsv"])
    test = parse_dataset(workspace["test.tsv"])
    assert (len(train), len(dev), len(test)) == (64, 8, 8)  # 16/2/2 tables, 4 tags
    lemmas = {ex.lemma for ex in train} | {ex.lemma for ex in dev} | {ex.lemma for ex in test}
    assert len(lemmas) == 20
    with open(workspace["words.txt"], encoding="utf-8") as f:
        words = [line.strip() for line in f if line.strip()]
    assert words and len(words) == len(set(words))


def test_cli_train_writes_loadable_checkpoint(workspace):
    model = load_model(workspace["model.ckpt"])
    assert model.hidden == 10
    assert model.variant == "full"


def test_cli_joint_writes_one_checkpoint_per_tag(workspace):
    import os
    tags = sorted({ex.tag for ex in parse_dataset(workspace["train.tsv"])})
    assert len(tags) == 4
    for tag in tags:
        assert os.path.exists(os.path.join(workspace["joint"], f"{tag}.ckpt"))


def test_cli_joint_checks_every_checkpoint_path_before_training(workspace, tmp_path, capsys):
    # a directory where one tag's checkpoint goes stops the run before any epoch
    out_dir = tmp_path / "joint"
    (out_dir / f"{INESSIVE}.ckpt").mkdir(parents=True)
    rc = cli.main(["train", "--mode", "joint", "--data", workspace["train.tsv"],
                   "--out-dir", str(out_dir), "--hidden", "2", "--epochs", "2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("morphogen: error: cannot write") and INESSIVE in lines[0]
    assert [p.name for p in out_dir.iterdir()] == [f"{INESSIVE}.ckpt"]


def test_cli_lm_is_loadable_and_filtered(workspace):
    lm = load_lm(workspace["lm.txt"])
    assert lm.order == 4
    vocab_chars = set()
    for ex in parse_dataset(workspace["train.tsv"]):
        vocab_chars |= set(ex.lemma) | set(ex.inflected)
    assert set(lm.alphabet) <= vocab_chars


def test_cli_beam_output_shape(workspace):
    rows = read_nbest(workspace["beams.tsv"])
    dev_keys = [(ex.lemma, ex.tag) for ex in parse_dataset(workspace["dev.tsv"])]
    seen = {}
    for lemma, tag, cand, lp in rows:
        assert (lemma, tag) in dev_keys
        assert np.isfinite(lp) and lp <= 0.0
        seen.setdefault((lemma, tag), []).append(cand)
    assert set(seen) == set(dev_keys)
    for cands in seen.values():
        assert 1 <= len(cands) <= 4
        assert len(cands) == len(set(cands))


def test_cli_rerank_weights_loadable(workspace, capsys):
    model = load_weights(workspace["weights.tsv"])
    assert model.weights.shape == (8,)
    rc = cli.main(["rerank-train", "--nbest", workspace["beams.tsv"],
                   "--data", workspace["dev.tsv"], "--lm", workspace["lm.txt"],
                   "--out", workspace["weights.tsv"], "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("pairwise-accuracy\t")]
    assert len(line) == 1
    assert 0.0 <= float(line[0].split("\t")[1]) <= 1.0


def test_cli_interpolated_checkpoint_carries_lambda(workspace):
    model = load_model(workspace["interp.ckpt"])
    assert model.lm_lambda is not None
    assert model.lm_lambda >= 0.0


def test_cli_predict_writes_triples(workspace, tmp_path):
    out = tmp_path / "preds.tsv"
    rc = cli.main(["predict", "--model", workspace["model.ckpt"],
                   "--data", workspace["dev.tsv"], "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    dev = parse_dataset(workspace["dev.tsv"])
    assert len(lines) == len(dev)
    for line, ex in zip(lines, dev):
        lemma, tag, pred = line.split("\t")
        assert (lemma, tag) == (ex.lemma, ex.tag)
        assert pred  # a nonempty hypothesis string


def test_cli_predict_with_lm_flags(workspace, tmp_path):
    out = tmp_path / "preds.tsv"
    rc = cli.main(["predict", "--model", workspace["model.ckpt"],
                   "--data", workspace["dev.tsv"], "--lm", workspace["lm.txt"],
                   "--interp-lambda", "0.5", "--out", str(out)])
    assert rc == 0
    assert out.read_text(encoding="utf-8").strip()


def test_cli_evaluate_report_shape(workspace, capsys):
    rc = cli.main(["evaluate", "--model", workspace["model.ckpt"],
                   "--data", workspace["test.tsv"]])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    tag_lines = [l for l in lines if l.startswith("tag\t")]
    macro_lines = [l for l in lines if l.startswith("macro\t")]
    assert len(tag_lines) == 4 and len(macro_lines) == 1
    for line in tag_lines:
        _, tag, acc, count = line.split("\t")
        assert tag.startswith("case=")
        assert 0.0 <= float(acc) <= 1.0
        assert int(count) == 2
    assert 0.0 <= float(macro_lines[0].split("\t")[1]) <= 1.0


def test_cli_evaluate_models_dir(workspace, capsys):
    rc = cli.main(["evaluate", "--models-dir", workspace["joint"],
                   "--data", workspace["test.tsv"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("tag\t") == 4
    assert "macro\t" in out


def test_cli_evaluate_rejects_model_with_models_dir(workspace, tmp_path, capsys):
    # the --model entry would be left unread, so naming both is a usage error
    missing = tmp_path / "missing.ckpt"
    rc = cli.main(["evaluate", "--models-dir", workspace["joint"], "--model", str(missing),
                   "--data", workspace["test.tsv"]])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "--model or --models-dir, not both" in captured.err


def test_cli_evaluate_tag_equals_path_syntax(workspace, tmp_path, capsys):
    # a tag without '=' works as well as the synthetic data's case=...
    data = tmp_path / "simple.tsv"
    data.write_text("talo\tpast\ttalossa\n", encoding="utf-8")
    rc = cli.main(["evaluate", "--model", f"past={workspace['model.ckpt']}",
                   "--data", str(data)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("tag\tpast\t")


def test_cli_evaluate_tag_with_equals_sign(workspace, tmp_path, capsys):
    # TAG=PATH takes the longest tag of the data that the entry starts with:
    # "case=inessive=PATH" is the tag case=inessive, not the tag case
    data = tmp_path / "two-tags.tsv"
    data.write_text("".join(f"{ex.lemma}\t{ex.tag}\t{ex.inflected}\n"
                            for ex in parse_dataset(workspace["test.tsv"])
                            if ex.tag == INESSIVE) + "talo\tcase\ttalossa\n",
                    encoding="utf-8")
    rc = cli.main(["evaluate", "--model", f"{INESSIVE}={workspace['model.ckpt']}",
                   "--model", f"case={workspace['model.ckpt']}", "--data", str(data)])
    assert rc == 0
    tags = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()
            if line.startswith("tag\t")]
    assert tags == ["case", INESSIVE]


def test_cli_evaluate_plain_path_with_equals_sign(workspace, tmp_path, monkeypatch, capsys):
    # a file named as joint training names it: "case=inessive." is no tag's "<tag>="
    monkeypatch.chdir(tmp_path)
    shutil.copyfile(workspace["model.ckpt"], tmp_path / f"{INESSIVE}.ckpt")
    for path in (f"{INESSIVE}.ckpt", str(tmp_path / f"{INESSIVE}.ckpt")):
        rc = cli.main(["evaluate", "--model", path, "--data", workspace["test.tsv"]])
        assert rc == 0
        assert capsys.readouterr().out.count("tag\t") == 4


@pytest.mark.parametrize("extra", ([], ["--beam", "--beam-width", "3"]), ids=("greedy", "beam"))
def test_cli_evaluate_decodes_each_tag_with_its_own_lambda(workspace, tmp_path, monkeypatch,
                                                           capsys, extra):
    examples = parse_dataset(workspace["test.tsv"])
    tags = sorted({ex.tag for ex in examples})[:2]
    data = tmp_path / "two-tags.tsv"
    data.write_text("".join(f"{ex.lemma}\t{ex.tag}\t{ex.inflected}\n"
                            for tag in tags for ex in examples if ex.tag == tag),
                    encoding="utf-8")
    models_dir = tmp_path / "models"
    models_dir.mkdir()
    for tag, lam in zip(tags, (0.1, 3.0)):
        model = load_model(workspace["model.ckpt"])
        model.lm_lambda = lam
        save_model(model, models_dir / f"{tag}.ckpt")
    real, lams = se.ensemble_next_dist, []

    def spy(scores, lm_dist, lam):
        lams.append(lam)
        return real(scores, lm_dist, lam)

    monkeypatch.setattr(se, "ensemble_next_dist", spy)
    base = ["evaluate", "--models-dir", str(models_dir), "--data", str(data),
            "--lm", workspace["lm.txt"], *extra]
    assert cli.main(base) == 0
    assert [lam for lam, _ in itertools.groupby(lams)] == [0.1, 3.0]
    lams.clear()
    assert cli.main(base + ["--interp-lambda", "0.5"]) == 0
    assert lams and set(lams) == {0.5}
    capsys.readouterr()


def test_cli_evaluate_beam_rerank_and_analyses(workspace, tmp_path, capsys):
    pred_out = tmp_path / "preds.tsv"
    rc = cli.main(["evaluate", "--model", workspace["model.ckpt"],
                   "--data", workspace["test.tsv"], "--beam", "--beam-width", "4",
                   "--rerank", workspace["weights.tsv"], "--lm", workspace["lm.txt"],
                   "--by-length", "--harmony", "--pred-out", str(pred_out)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "macro\t" in out
    length_lines = [l for l in out.splitlines() if l.startswith("length\t")]
    assert length_lines
    for line in length_lines:
        _, label, acc = line.split("\t")
        assert label in ev.LENGTH_BIN_LABELS
        assert 0.0 <= float(acc) <= 1.0
    harm = [l for l in out.splitlines() if l.startswith("harmonic-fraction\t")]
    assert len(harm) == 1
    assert pred_out.read_text(encoding="utf-8").splitlines()


def test_cli_evaluate_rerank_without_lm_fails(workspace, capsys):
    rc = cli.main(["evaluate", "--model", workspace["model.ckpt"],
                   "--data", workspace["test.tsv"],
                   "--rerank", workspace["weights.tsv"]])
    assert rc == 2
    assert "language model" in capsys.readouterr().err


def test_cli_analyze_length_and_harmony(workspace, tmp_path, capsys):
    pred_out = tmp_path / "preds.tsv"
    assert cli.main(["evaluate", "--model", workspace["model.ckpt"],
                     "--data", workspace["test.tsv"],
                     "--pred-out", str(pred_out)]) == 0
    capsys.readouterr()
    rc = cli.main(["analyze-length", "--pred", str(pred_out),
                   "--data", workspace["test.tsv"]])
    assert rc == 0
    for line in capsys.readouterr().out.splitlines():
        label, acc = line.split("\t")
        assert label in ev.LENGTH_BIN_LABELS
        assert 0.0 <= float(acc) <= 1.0
    rc = cli.main(["analyze-harmony", "--pred", str(pred_out)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("harmonic-fraction\t")
    assert len(out) == 1 + len(pred_out.read_text(encoding="utf-8").splitlines())


def test_cli_analyze_harmony_on_synth_words_is_pure(workspace, capsys):
    rc = cli.main(["analyze-harmony", "--words", workspace["words.txt"]])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "harmonic-fraction\t1.0"


def test_cli_analyze_length_missing_prediction(workspace, tmp_path, capsys):
    pred = tmp_path / "partial.tsv"
    pred.write_text("talo\tcase=inessive\ttalossa\n", encoding="utf-8")
    rc = cli.main(["analyze-length", "--pred", str(pred),
                   "--data", workspace["test.tsv"]])
    assert rc == 2
    assert "no prediction" in capsys.readouterr().err


def test_cli_export_embeddings(workspace, tmp_path):
    out = tmp_path / "emb.tsv"
    rc = cli.main(["export-embeddings", "--model", workspace["model.ckpt"],
                   "--chars", "aeiou", "--out", str(out)])
    assert rc == 0
    emb = ev.read_embeddings(out)
    assert list(emb) == ["a", "e", "i", "o", "u"]
    model = load_model(workspace["model.ckpt"])
    assert len(emb["a"]) == model.embed_dim
    rc = cli.main(["export-embeddings", "--model", workspace["model.ckpt"],
                   "--chars", "z", "--out", str(out)])
    assert rc == 2


# Command-line text is NFC-normalized as file text is: a decomposed "ä"
# ("a" + U+0308) names the same character or tag as the composed one.
NFD_A = unicodedata.normalize("NFD", "ä")


def _with_tag(src, dst, tag, keep=None):
    """src's examples (only those tagged keep, if given) with INESSIVE
    renamed to tag, written to dst."""
    rows = [f"{ex.lemma}\t{tag if ex.tag == INESSIVE else ex.tag}\t{ex.inflected}\n"
            for ex in parse_dataset(src) if keep is None or ex.tag == keep]
    dst.write_text("".join(rows), encoding="utf-8")
    return str(dst)


def test_cli_export_embeddings_chars_in_nfc(workspace, tmp_path):
    out = tmp_path / "emb.tsv"
    assert cli.main(["export-embeddings", "--model", workspace["model.ckpt"],
                     "--chars", f"a{NFD_A}", "--out", str(out)]) == 0
    assert list(ev.read_embeddings(out)) == ["a", "ä"]


def test_cli_train_tag_in_nfc(workspace, tmp_path):
    train = _with_tag(workspace["train.tsv"], tmp_path / "train.tsv", "case=ä")
    out = tmp_path / "m.ckpt"
    assert cli.main(["train", "--data", train, "--tag", f"case={NFD_A}", "--out", str(out),
                     "--hidden", "2", "--epochs", "1"]) == 0
    assert load_model(out).hidden == 2


def test_cli_evaluate_tag_entry_in_nfc_path_as_given(workspace, tmp_path, capsys):
    test = _with_tag(workspace["test.tsv"], tmp_path / "test.tsv", "case=ä", keep=INESSIVE)
    path = tmp_path / f"m{NFD_A}.ckpt"     # a decomposed file name, used as given
    shutil.copyfile(workspace["model.ckpt"], path)
    assert not (tmp_path / "mä.ckpt").exists()
    capsys.readouterr()
    assert cli.main(["evaluate", "--model", f"case={NFD_A}={path}", "--data", test]) == 0
    assert capsys.readouterr().out.startswith("tag\tcase=ä\t")


def test_cli_usage_errors(workspace, tmp_path, capsys):
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["train", "--bogus-flag"]) == 1
    assert cli.main(["train", "--data", workspace["train.tsv"]]) == 1  # no --tag
    # found before the data is read: the file does not exist
    assert cli.main(["train", "--data", str(tmp_path / "missing.tsv")]) == 1
    assert cli.main(["train", "--mode", "joint", "--data", workspace["train.tsv"]]) == 1
    assert cli.main(["evaluate", "--data", workspace["test.tsv"]]) == 1  # no models
    rc = cli.main(["evaluate", "--model", workspace["model.ckpt"],
                   "--model", f"{INESSIVE}={workspace['model.ckpt']}",
                   "--data", workspace["test.tsv"]])
    assert rc == 1  # mixing plain and TAG=PATH entries
    capsys.readouterr()
    for mode, extra in (("joint", ["--out-dir", str(tmp_path / "joint")]),
                        ("interpolated", ["--tag", INESSIVE, "--lm", workspace["lm.txt"],
                                          "--out", str(tmp_path / "i.ckpt")])):
        argv = ["train", "--mode", mode, "--data", workspace["train.tsv"], "--hidden", "2",
                "--epochs", "1", "--ensemble-k", "3"] + extra
        assert cli.main(argv) == 1, mode
        assert "--ensemble-k" in capsys.readouterr().err.splitlines()[-1]
    assert not list(tmp_path.iterdir())


def test_train_lm_flags_outside_interpolated_mode_are_usage_errors(workspace, tmp_path, capsys):
    # only interpolated training reads --lm and --lambda-init; elsewhere they
    # would be dropped without a word, so they are usage errors
    for mode, extra in (("factored", ["--tag", INESSIVE, "--out", str(tmp_path / "f.ckpt")]),
                        ("joint", ["--out-dir", str(tmp_path / "joint")])):
        for flag, value in (("--lm", workspace["lm.txt"]), ("--lambda-init", "3")):
            argv = ["train", "--mode", mode, "--data", workspace["train.tsv"], "--hidden", "2",
                    "--epochs", "1", flag, value] + extra
            assert cli.main(argv) == 1, (mode, flag)
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and flag in err[0], (mode, flag)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mode, extra", [
    ("factored", ["--tag", INESSIVE, "--out", "{tmp}/f.ckpt", "--out-dir", "{tmp}/ignored"]),
    ("interpolated", ["--tag", INESSIVE, "--lm", "{lm}", "--out", "{tmp}/i.ckpt",
                      "--out-dir", "{tmp}/ignored"]),
    ("joint", ["--out-dir", "{tmp}/joint", "--tag", INESSIVE]),
    ("joint", ["--out-dir", "{tmp}/joint", "--out", "{tmp}/j.ckpt"]),
], ids=("factored --out-dir", "interpolated --out-dir", "joint --tag", "joint --out"))
def test_train_flags_the_mode_ignores_are_usage_errors(workspace, tmp_path, capsys, mode, extra):
    # checked before any data loads: the data file does not exist
    argv = ["train", "--mode", mode, "--data", str(tmp_path / "missing.tsv")]
    argv += [a.format(tmp=tmp_path, lm=workspace["lm.txt"]) for a in extra]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    flag = extra[-2]    # the ignored flag comes last
    assert len(err) == 1 and err[0].startswith("morphogen: error: ") and flag in err[0]
    assert not list(tmp_path.iterdir())


def test_decomposed_input_decodes_as_its_composed_form(workspace, tmp_path, capsys):
    with open(workspace["dev.tsv"], encoding="utf-8") as f:
        text = f.read()
    nfd = unicodedata.normalize("NFD", text)
    # some lemma, which every decode command reads, is decomposed
    assert {ln.split("\t")[0] for ln in nfd.splitlines()} != \
        {ln.split("\t")[0] for ln in text.splitlines()}
    dev_nfd = tmp_path / "nfd-dev.tsv"
    dev_nfd.write_text(nfd, encoding="utf-8")
    model = ["--model", workspace["model.ckpt"]]
    outs = {name: tmp_path / f"{name}.tsv" for name in ("p-nfc", "p-nfd", "e-nfd")}
    assert cli.main(["predict", *model, "--data", workspace["dev.tsv"],
                     "--out", str(outs["p-nfc"])]) == 0
    assert cli.main(["predict", *model, "--data", str(dev_nfd),
                     "--out", str(outs["p-nfd"])]) == 0
    assert cli.main(["evaluate", *model, "--data", str(dev_nfd),
                     "--pred-out", str(outs["e-nfd"])]) == 0
    want = outs["p-nfc"].read_bytes()
    assert outs["p-nfd"].read_bytes() == want and outs["e-nfd"].read_bytes() == want
    # an n-best file beamed from the decomposed file finds its gold forms there
    nbest = str(tmp_path / "b.tsv")
    assert cli.main(["beam", *model, "--data", str(dev_nfd), "--beam-width", "2",
                     "--out", nbest]) == 0
    assert cli.main(["rerank-train", "--nbest", nbest, "--data", str(dev_nfd),
                     "--lm", workspace["lm.txt"], "--iterations", "5",
                     "--out", str(tmp_path / "w.tsv")]) == 0
    capsys.readouterr()


# One valid command line per subcommand and mode. "<name" is a workspace
# file the command reads, ">name" a path it writes; the matrix below breaks one
# of them at a time.
_FILE_ARGV = [
    ["train", "--data", "<train.tsv", "--dev", "<dev.tsv", "--tag", INESSIVE,
     "--out", ">m.ckpt", "--hidden", "2", "--epochs", "1"],
    ["train", "--mode", "joint", "--data", "<train.tsv", "--out-dir", ">joint",
     "--hidden", "2", "--epochs", "1"],
    ["train", "--mode", "interpolated", "--data", "<train.tsv", "--tag", INESSIVE,
     "--lm", "<lm.txt", "--out", ">i.ckpt", "--hidden", "2", "--epochs", "1"],
    ["lm-train", "--words", "<words.txt", "--data", "<train.tsv", "--out", ">lm.txt"],
    ["predict", "--model", "<model.ckpt", "--data", "<dev.tsv", "--lm", "<lm.txt",
     "--out", ">p.tsv"],
    ["beam", "--model", "<model.ckpt", "--data", "<dev.tsv", "--beam-width", "2",
     "--out", ">b.tsv"],
    ["rerank-train", "--nbest", "<beams.tsv", "--data", "<dev.tsv", "--lm", "<lm.txt",
     "--iterations", "1", "--out", ">w.tsv"],
    ["evaluate", "--model", "<model.ckpt", "--data", "<dev.tsv", "--rerank", "<weights.tsv",
     "--lm", "<lm.txt", "--beam-width", "2", "--pred-out", ">p.tsv"],
    ["analyze-length", "--pred", "<dev.tsv", "--data", "<dev.tsv"],
    ["analyze-harmony", "--words", "<words.txt"],
    ["analyze-harmony", "--pred", "<dev.tsv"],
    ["export-embeddings", "--model", "<model.ckpt", "--chars", "a", "--out", ">e.tsv"],
    ["synth-data", "--size", "4", "--out-dir", ">s"],
]


def _file_cases():
    for argv in _FILE_ARGV:
        name = " ".join(argv[:3] if argv[1] == "--mode" else argv[:1])
        for i, arg in enumerate(argv):
            if argv[i - 1] == "--out-dir":     # created with its parents
                failures = ("through-a-file",)
            elif arg.startswith(">"):
                failures = ("through-a-file", "missing-parent")
            elif arg == "<words.txt":    # any line is a word: no malformed wordlist
                failures = ("missing", "invalid-utf8")
            elif arg == "<model.ckpt":
                failures = ("missing", "invalid-utf8", "malformed", "json-list")
            elif arg == "<beams.tsv":
                failures = ("missing", "invalid-utf8", "malformed", "nan-logprob", "inf-logprob")
            elif arg.startswith("<"):
                failures = ("missing", "invalid-utf8", "malformed")
            else:
                failures = ()
            for failure in failures:
                yield pytest.param(argv, i, failure, id=f"{name} {argv[i - 1]} {failure}")


@pytest.mark.parametrize("argv, i, failure", _file_cases())
def test_cli_file_error_matrix_exits_two(workspace, tmp_path, capsys, argv, i, failure):
    (tmp_path / "invalid-utf8").write_bytes(b"ab\xff\tt\n")
    (tmp_path / "malformed").write_text("only-one-column\n", encoding="utf-8")
    (tmp_path / "regular").write_text("x\n", encoding="utf-8")
    (tmp_path / "json-list").write_text("[1, 2]\n", encoding="utf-8")
    beams = open(workspace["beams.tsv"], encoding="utf-8").read().splitlines()
    for value in ("nan", "inf"):     # a non-finite log-prob on the first n-best row
        first = "\t".join(beams[0].split("\t")[:3] + [value])
        (tmp_path / f"{value}-logprob").write_text("\n".join([first] + beams[1:]) + "\n",
                                                  encoding="utf-8")

    def fill(arg):
        if arg.startswith("<"):
            return workspace[arg[1:]]
        return str(tmp_path / arg[1:]) if arg.startswith(">") else arg

    args = [fill(arg) for arg in argv]
    paths = {"through-a-file": "regular/out", "missing-parent": "missing-parent/out"}
    args[i] = str(tmp_path / paths.get(failure, failure))
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("morphogen: error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


# Larger than a process's address space: the first allocation fails at once,
# touching no memory.
HUGE = str(10 ** 15)


@pytest.mark.parametrize("command, flag", [("train", "--hidden"), ("train", "--embed-dim"),
                                           ("lm-train", "--order")])
def test_cli_unallocatable_size_exits_two(workspace, tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    inputs = {"train": ["--data", workspace["train.tsv"], "--tag", INESSIVE, "--epochs", "1"],
              "lm-train": ["--words", workspace["words.txt"]]}[command]
    assert cli.main([command, flag, HUGE, "--out", str(out)] + inputs) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("morphogen: error: ") and captured.err.count("\n") == 1
    assert flag in captured.err
    assert captured.out == ""
    assert not list(tmp_path.iterdir())     # no checkpoint, LM or temporary file


@pytest.mark.parametrize("command, flag, value", [("rerank-train", "--iterations", "0"),
                                                 ("rerank-train", "--iterations", "-1"),
                                                 ("synth-data", "--wordlist-size", "-1"),
                                                 ("export-embeddings", "--chars", "")])
def test_cli_nothing_to_do_exits_two_without_output(workspace, tmp_path, capsys,
                                                    command, flag, value):
    out = tmp_path / "out"
    inputs = {"rerank-train": ["--nbest", workspace["beams.tsv"], "--data", workspace["dev.tsv"],
                               "--lm", workspace["lm.txt"], "--out", str(out)],
              "synth-data": ["--size", "20", "--out-dir", str(out)],
              "export-embeddings": ["--model", workspace["model.ckpt"], "--out", str(out)]}
    assert cli.main([command, flag, value] + inputs[command]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("morphogen: error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_cli_seed_env_fallback(tmp_path, monkeypatch):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    monkeypatch.delenv("MORPHOGEN_SEED", raising=False)
    assert cli.main(["synth-data", "--size", "12", "--wordlist-size", "20",
                     "--out-dir", str(a), "--seed", "7"]) == 0
    monkeypatch.setenv("MORPHOGEN_SEED", "7")
    assert cli.main(["synth-data", "--size", "12", "--wordlist-size", "20",
                     "--out-dir", str(b)]) == 0
    for name in ("train.tsv", "dev.tsv", "test.tsv", "words.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # an explicit --seed beats the environment
    monkeypatch.setenv("MORPHOGEN_SEED", "5")
    assert cli.main(["synth-data", "--size", "12", "--wordlist-size", "20",
                     "--out-dir", str(c), "--seed", "7"]) == 0
    assert (a / "train.tsv").read_bytes() == (c / "train.tsv").read_bytes()


def test_cli_seed_env_invalid(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MORPHOGEN_SEED", "seven")
    rc = cli.main(["synth-data", "--size", "12", "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    assert "MORPHOGEN_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-1")],
                         ids=["flag", "env"])
def test_cli_train_rejects_a_negative_seed(workspace, tmp_path, capsys, monkeypatch, flag, env):
    if env is None:
        monkeypatch.delenv("MORPHOGEN_SEED", raising=False)
    else:
        monkeypatch.setenv("MORPHOGEN_SEED", env)
    out = tmp_path / "m.ckpt"
    assert cli.main(["train", "--data", workspace["train.tsv"], "--tag", INESSIVE,
                     "--hidden", "4", "--epochs", "1", "--out", str(out)] + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "morphogen: error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_cli_train_checks_out_before_training(workspace, tmp_path, capsys):
    missing_dir = str(tmp_path / "no-such-dir" / "m.ckpt")
    base = ["train", "--data", workspace["train.tsv"], "--tag", INESSIVE,
            "--hidden", "4", "--epochs", "1", "--seed", "0"]
    for extra in (["--out", missing_dir],
                  ["--out", missing_dir, "--ensemble-k", "2"],
                  ["--out", str(tmp_path)],
                  ["--mode", "interpolated", "--lm", workspace["lm.txt"], "--out", missing_dir]):
        assert cli.main(base + extra) == 2, extra
        captured = capsys.readouterr()
        assert captured.out == "", extra       # no epoch line: nothing was trained
        assert captured.err.startswith("morphogen: error: cannot write ")
        assert captured.err.count("\n") == 1
    assert not (tmp_path / "no-such-dir").exists()


@pytest.mark.parametrize("command, flag", [("predict", "--out"), ("beam", "--out"),
                                           ("evaluate", "--pred-out")])
def test_cli_decode_checks_its_output_path_before_decoding(workspace, tmp_path, capsys,
                                                           monkeypatch, command, flag):
    real_session, decoded = se.DecodeSession, []

    def spy(*args):
        decoded.append(args)
        return real_session(*args)

    monkeypatch.setattr(se, "DecodeSession", spy)
    base = [command, "--model", workspace["model.ckpt"], "--data", workspace["dev.tsv"]]
    for out in (str(tmp_path), str(tmp_path / "no-such-dir" / "out.tsv")):
        assert cli.main(base + [flag, out]) == 2, out
        captured = capsys.readouterr()
        assert decoded == [], out
        assert captured.out == "", out      # no report line
        assert captured.err.startswith(f"morphogen: error: cannot write {out}")
        assert captured.err.count("\n") == 1
    assert not (tmp_path / "no-such-dir").exists()


def test_cli_ensemble_training_writes_numbered_checkpoints(workspace, tmp_path):
    out = tmp_path / "ens.ckpt"
    rc = cli.main(["train", "--data", workspace["train.tsv"], "--tag", INESSIVE,
                   "--out", str(out), "--hidden", "6", "--epochs", "1",
                   "--ensemble-k", "2", "--seed", "0"])
    assert rc == 0
    m1 = load_model(str(out) + ".1")
    m2 = load_model(str(out) + ".2")
    assert not models_equal(m1, m2)


@pytest.mark.parametrize("flag, value", [("--l2", "nan"), ("--l2", "inf"),
                                         ("--lambda-init", "nan"), ("--lambda-init", "-inf")])
def test_cli_train_rejects_non_finite_hyperparameters(workspace, tmp_path, capsys, flag, value):
    field = flag[2:].replace("-", "_")
    base = ["train", "--data", workspace["train.tsv"], "--hidden", "4", "--epochs", "1",
            "--seed", "0", f"{flag}={value}"]
    for extra in (["--tag", INESSIVE, "--out", str(tmp_path / "m.ckpt")],
                  ["--mode", "joint", "--out-dir", str(tmp_path / "joint")],
                  ["--mode", "interpolated", "--tag", INESSIVE, "--lm", workspace["lm.txt"],
                   "--out", str(tmp_path / "m.ckpt")]):
        assert cli.main(base + extra) == 2, extra
        captured = capsys.readouterr()
        assert captured.out == "", extra       # no epoch line: nothing was trained
        assert captured.err.startswith(f"morphogen: error: {field} must be a finite number")
        assert captured.err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("mode", ["factored", "joint"])
def test_cli_interrupt_exits_130_without_traceback(workspace, tmp_path, capsys, monkeypatch,
                                                   mode):
    real_step, calls = trainer.adadelta_step, []

    def step(*args, **kwargs):
        calls.append(1)
        if len(calls) > 5:
            raise KeyboardInterrupt
        return real_step(*args, **kwargs)

    monkeypatch.setattr(trainer, "adadelta_step", step)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    where = (["--tag", INESSIVE, "--out", str(out_dir / "m.ckpt")] if mode == "factored"
             else ["--out-dir", str(out_dir)])
    rc = cli.main(["train", "--mode", mode, "--data", workspace["train.tsv"],
                   "--hidden", "4", "--epochs", "3", "--seed", "0"] + where)
    assert rc == 130
    captured = capsys.readouterr()
    assert captured.err == "morphogen: interrupted\n"
    assert captured.out == ""
    assert len(calls) == 6
    assert list(out_dir.iterdir()) == []


# --- decode arguments rejected before anything is written ----------------------

DECODE_COMMANDS = ("predict", "beam", "evaluate")
# (command, extra arguments, exit code, what the error line names); "{lm}" and
# "{weights}" stand for the workspace's LM and reranker weights
BAD_DECODE_ARGS = (
    [(cmd, ["--lm", "{lm}", "--interp-lambda", lam], 2, "interpolation weight")
     for cmd in DECODE_COMMANDS for lam in ("nan", "inf", "-1")]
    + [(cmd, ["--max-len-slack", "-1"], 1, "--max-len-slack") for cmd in DECODE_COMMANDS]
    + [("beam", ["--beam-width", "0"], 2, "beam width"),
       ("evaluate", ["--beam", "--beam-width", "0"], 2, "beam width"),
       ("evaluate", ["--rerank", "{weights}", "--lm", "{lm}", "--beam-width", "0"], 2,
        "beam width"),
       ("evaluate", ["--beam-width", "0"], 2, "beam width"),
       ("predict", ["--interp-lambda", "nan"], 2, "interpolation weight"),
       ("evaluate", ["--rerank", "{weights}", "--lm", "{lm}", "--interp-lambda", "nan"], 2,
        "interpolation weight")]
    # a weight with no LM to weigh would go unread
    + [(cmd, ["--interp-lambda", "0.5"], 1, "--interp-lambda") for cmd in DECODE_COMMANDS]
    # and so would a weight for reranking, which beams without the LM, and a
    # width for greedy evaluation
    + [("evaluate", ["--rerank", "{weights}", "--lm", "{lm}", "--interp-lambda", "0.5"], 1,
        "--interp-lambda"),
       ("evaluate", ["--beam-width", "3"], 1, "--beam-width")])


@pytest.mark.parametrize("command, extra, code, names", BAD_DECODE_ARGS,
                         ids=[f"{c} {' '.join(e)}" for c, e, _, _ in BAD_DECODE_ARGS])
def test_cli_rejects_bad_decode_arguments(workspace, tmp_path, capsys, command, extra,
                                          code, names):
    out = tmp_path / "out.tsv"
    argv = [command, "--model", workspace["model.ckpt"], "--data", workspace["dev.tsv"],
            "--pred-out" if command == "evaluate" else "--out", str(out)]
    argv += [a.format(lm=workspace["lm.txt"], weights=workspace["weights.tsv"]) for a in extra]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    if code == 1:
        assert err.startswith(f"usage: morphogen {command} ")
        assert sum("morphogen: error: " in line for line in lines) == 1
    else:
        assert len(lines) == 1
    assert lines[-1].startswith("morphogen: error: ") and names in lines[-1]
    assert not out.exists()


def test_cli_evaluate_rerank_beams_at_the_given_width(workspace, monkeypatch, capsys):
    real_beam, widths = ev.beam_decode, []

    def spy(models, x_ids, width, max_len, **kwargs):
        widths.append(width)
        return real_beam(models, x_ids, width, max_len, **kwargs)

    monkeypatch.setattr(ev, "beam_decode", spy)
    base = ["evaluate", "--model", workspace["model.ckpt"], "--data", workspace["dev.tsv"],
            "--rerank", workspace["weights.tsv"], "--lm", workspace["lm.txt"]]
    for extra, width in (([], 20), (["--beam-width", "3"], 3)):
        widths.clear()
        assert cli.main(base + extra) == 0
        assert widths and set(widths) == {width}
    capsys.readouterr()


def test_decode_commands_decode_a_run_through_decode_lemmas(workspace, tmp_path, monkeypatch,
                                                            capsys):
    # predict and beam decode the whole file in one call; evaluate --model PATH
    # gives every tag one model list, so it decodes each distinct lemma once,
    # in file order, in one call
    real, calls = ev.decode_lemmas, []

    def spy(models, lemmas, **kwargs):
        calls.append(list(lemmas))
        return real(models, lemmas, **kwargs)

    monkeypatch.setattr(ev, "decode_lemmas", spy)
    dev = parse_dataset(workspace["dev.tsv"])
    assert len({ex.tag for ex in dev}) > 1
    base = ["--model", workspace["model.ckpt"], "--data", workspace["dev.tsv"]]
    whole, distinct = [[ex.lemma for ex in dev]], [list(dict.fromkeys(ex.lemma for ex in dev))]
    assert len(distinct[0]) < len(whole[0])
    rerank = ["--rerank", workspace["weights.tsv"], "--lm", workspace["lm.txt"]]
    for argv, want in ((["predict", *base, "--out", str(tmp_path / "p.tsv")], whole),
                       (["beam", *base, "--beam-width", "3", "--out", str(tmp_path / "b.tsv")],
                        whole),
                       (["evaluate", *base], distinct),
                       (["evaluate", *base, *rerank, "--beam-width", "3"], distinct)):
        calls.clear()
        assert cli.main(argv) == 0
        assert calls == want, argv[0]
    capsys.readouterr()
