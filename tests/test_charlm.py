import math
import random

import pytest

from morphogen import charlm as cl
from morphogen.errors import DataError
from morphogen.search import lm_next_dist
from morphogen.vocab import CharVocab


def test_boundary_symbols_are_control_chars():
    assert cl.BOW == "\x02" and cl.EOW == "\x03"
    assert cl.DEFAULT_ORDER == 5


def test_order_validation_and_boundary_exclusion():
    with pytest.raises(DataError, match="order"):
        cl.WittenBellLM(0, "ab")
    with pytest.raises(DataError, match="boundary"):
        cl.WittenBellLM(2, "a" + cl.BOW)
    with pytest.raises(DataError, match="boundary"):
        cl.WittenBellLM(2, cl.EOW)


def test_base_distribution_uniform_over_alphabet_plus_end():
    lm = cl.WittenBellLM(3, "abc")
    assert lm.base_prob == 1.0 / 4.0
    # untrained model backs off all the way to the base case
    assert lm.prob("ab", "c") == 0.25
    assert lm.prob("", cl.EOW) == 0.25


def test_witten_bell_hand_computed_bigram():
    # history "a" saw b twice and c once: c(a)=3, T(a)=2, base=1/3 over {b,c}+EOW
    # P(b|a) = (2 + 2*(1/3)) / (3 + 2) = 8/15
    lm = cl.WittenBellLM.from_counts(2, "bc", {"a": {"b": 2, "c": 1}})
    assert abs(lm.prob("a", "b") - 8.0 / 15.0) < 1e-12
    assert abs(lm.prob("a", "c") - (1.0 + 2.0 / 3.0) / 5.0) < 1e-12
    # unseen successor gets exactly the smoothing share T/(c+T) * base
    assert abs(lm.prob("a", cl.EOW) - (2.0 / 3.0) / 5.0) < 1e-12


def test_smoothing_shrinks_toward_but_stays_above_backoff():
    lm = cl.WittenBellLM.from_counts(2, "bc", {"a": {"b": 2, "c": 1}})
    # raw MLE would give 2/3 for b; smoothing pulls it down but keeps it
    # above the uniform backoff
    assert 1.0 / 3.0 < lm.prob("a", "b") < 2.0 / 3.0


def test_history_longer_than_order_is_truncated():
    lm = cl.WittenBellLM.from_counts(2, "bc", {"a": {"b": 2, "c": 1}})
    assert lm.prob("xyza", "b") == lm.prob("a", "b")


def test_train_counts_and_type_semantics():
    # duplicates collapse: training is over word types
    lm1 = cl.train_lm(["ab", "ab", "ac"], order=2)
    lm2 = cl.train_lm(["ac", "ab"], order=2)
    assert lm1._succ == lm2._succ
    assert lm1._succ["a"] == {"b": 1, "c": 1}
    assert lm1._total["a"] == 2
    for ch in "abc" + cl.EOW:
        assert lm1.prob("a", ch) == lm2.prob("a", ch)


def test_train_empty_corpus_rejected():
    with pytest.raises(DataError, match="empty corpus"):
        cl.train_lm([])


def test_from_counts_rejects_nonpositive():
    with pytest.raises(DataError, match="positive"):
        cl.WittenBellLM.from_counts(2, "ab", {"a": {"b": 0}})
    with pytest.raises(DataError, match="positive"):
        cl.WittenBellLM.from_counts(2, "ab", {"a": {"b": -1}})


def test_distributions_normalize_over_alphabet_plus_end():
    words = ["talossa", "talosta", "kylässä", "kylältä", "teillä"]
    lm = cl.train_lm(words, order=4)
    symbols = list(lm.alphabet) + [cl.EOW]
    rng = random.Random(0)
    pool = lm.alphabet + cl.BOW
    for _ in range(300):
        h = "".join(rng.choice(pool) for _ in range(rng.randint(0, 5)))
        total = sum(lm.prob(h, s) for s in symbols)
        assert abs(total - 1.0) < 1e-9, h


def test_score_word_is_sum_of_transition_logs():
    lm = cl.train_lm(["aba", "bab"], order=3)
    word = "ab"
    seq = cl.BOW * 2 + word + cl.EOW
    want = sum(math.log(lm.prob(seq[i - 2:i], seq[i])) for i in range(2, len(seq)))
    assert abs(cl.lm_score_word(lm, word) - want) < 1e-12


def test_score_empty_word_is_end_transition():
    lm = cl.train_lm(["ab"], order=3)
    want = math.log(lm.prob(cl.BOW * 2, cl.EOW))
    assert abs(cl.lm_score_word(lm, "") - want) < 1e-12


def test_corpus_words_outscore_random_strings():
    rng = random.Random(9)
    words = sorted({"".join(rng.choice("klnst") + rng.choice("aouei")
                            for _ in range(rng.randint(1, 2)))
                    + "".join(rng.choice("klnst") + rng.choice("aouei"))
                    for _ in range(130)})[:100]
    lm = cl.train_lm(words, order=5)
    in_corpus = cl.lm_score_word(lm, words[17])
    random_word = "".join(random.Random(4).choice(lm.alphabet)
                          for _ in range(len(words[17])))
    assert in_corpus > cl.lm_score_word(lm, random_word)


def test_filter_wordlist_drops_unknown_chars():
    vocab = CharVocab("alost")
    words = ["talo", "talossa", "kylä", "salat", "sz"]
    assert cl.filter_wordlist(words, vocab) == ["talo", "talossa", "salat"]
    assert cl.filter_wordlist([], vocab) == []


def test_save_load_round_trip_with_umlauts(tmp_path):
    lm = cl.train_lm(["kylässä", "kylältä", "talossa"], order=3)
    path = tmp_path / "model.lm"
    cl.save_lm(lm, path)
    loaded = cl.load_lm(path)
    assert loaded.order == lm.order
    assert loaded.alphabet == lm.alphabet
    assert loaded._succ == lm._succ
    assert loaded._total == lm._total
    for h in ("", "ä", "yl", cl.BOW * 2):
        for c in list(lm.alphabet) + [cl.EOW]:
            assert loaded.prob(h, c) == lm.prob(h, c)


def test_save_is_deterministic(tmp_path):
    lm = cl.train_lm(["abc", "acb", "bca"], order=3)
    a, b = tmp_path / "a.lm", tmp_path / "b.lm"
    cl.save_lm(lm, a)
    cl.save_lm(lm, b)
    assert a.read_bytes() == b.read_bytes()


def test_load_header_errors(tmp_path):
    p = tmp_path / "bad.lm"
    p.write_text("nonsense\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        cl.load_lm(p)
    p.write_text("ngram-order x\nalphabet ab\n", encoding="utf-8")
    with pytest.raises(DataError, match="bad order"):
        cl.load_lm(p)
    for alphabet in ("\\x", "ä"):  # a truncated escape, a non-ASCII character
        p.write_text(f"ngram-order 2\nalphabet {alphabet}\n", encoding="utf-8")
        with pytest.raises(DataError, match="bad alphabet"):
            cl.load_lm(p)
    with pytest.raises(DataError, match="cannot read"):
        cl.load_lm(tmp_path / "missing.lm")


def test_load_entry_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.lm"
    p.write_text("ngram-order 2\nalphabet ab\n1\t\ta\t1\n2\ta\tb\t1\n", encoding="utf-8")
    lm = cl.load_lm(p)  # well-formed two entries
    assert lm._succ[""] == {"a": 1}
    p.write_text("ngram-order 2\nalphabet ab\n1\t\ta\tnot-int\n", encoding="utf-8")
    with pytest.raises(DataError, match=":3"):
        cl.load_lm(p)
    p.write_text("ngram-order 2\nalphabet ab\n1\t\ta\t1\n3\ta\tb\t1\n", encoding="utf-8")
    with pytest.raises(DataError, match=":4.*disagrees"):
        cl.load_lm(p)
    p.write_text("ngram-order 2\nalphabet ab\n1\t\ta\n", encoding="utf-8")
    with pytest.raises(DataError, match=":3: expected 4"):
        cl.load_lm(p)


def test_load_rejects_fields_save_lm_never_writes(tmp_path):
    p = tmp_path / "bad.lm"
    # a non-integer order field, then two escapes _escape never writes
    for line in ("x\t\ta\t1", "2\t\\ \ta\t1", "1\t\t\\q\t1"):
        p.write_text(f"ngram-order 2\nalphabet ab\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError, match=":3: "):
            cl.load_lm(p)
    p.write_text("ngram-order 2\nalphabet \\ a\n", encoding="utf-8")
    with pytest.raises(DataError, match="bad alphabet"):
        cl.load_lm(p)


def test_an_order_far_above_the_recursion_limit_equals_its_counts_order():
    """prob interpolates the orders in a loop, not one call per history
    character: an order-2000 LM whose only counts are the empty history's
    scores every word and every bridge vector as the order-1 LM with those
    counts, bit for bit."""
    counts = {"": {"a": 2, "b": 1}}
    high, low = (cl.WittenBellLM.from_counts(order, "ab", counts) for order in (2000, 1))
    vocab = CharVocab("ab")
    for word in ("", "ab", "ba" * 700):
        assert cl.lm_score_word(high, word).hex() == cl.lm_score_word(low, word).hex()
    for prefix in ((), vocab.encode("ab"), vocab.encode("ba" * 700)):
        assert lm_next_dist(high, vocab, prefix).tobytes() == \
            lm_next_dist(low, vocab, prefix).tobytes()
