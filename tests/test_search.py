import math

import numpy as np
import pytest
from scipy.special import logsumexp

from helpers import exhaustive_decode, one_state, randomize_params
from morphogen import autodiff as ad
from morphogen import search as se
from morphogen.charlm import EOW, train_lm
from morphogen.errors import DataError, SearchError
from morphogen.model import DecodeSession, init_model
from morphogen.vocab import BOS, EOS, EPS, UNK, CharVocab

VOCAB = CharVocab("ab")


def _search_model(seed=5):
    m = init_model(VOCAB, "full", hidden=6, embed_dim=5, seed=0)
    return randomize_params(m, seed)


def _uniform_model():
    m = init_model(VOCAB, "full", hidden=6, embed_dim=5, seed=0)
    m.out_W.value[...] = 0.0
    m.out_b.value[...] = 0.0
    return m


def test_ensemble_requires_members():
    with pytest.raises(SearchError, match="at least one"):
        se.ensemble_next_dist([])


def test_ensemble_single_member_is_one_log_softmax():
    # one member without an LM: exactly autodiff.log_softmax of its scores
    d = np.array([0.3, -np.inf, 1.7, -2.0])
    out = se.ensemble_next_dist([d])
    assert np.array_equal(out, ad.log_softmax(d))
    assert out is not d


def test_ensemble_identical_members_unchanged():
    d = np.log([0.1, 0.2, 0.7])
    for k in (2, 3, 5):
        out = se.ensemble_next_dist([d] * k)
        assert np.max(np.abs(out - d)) < 1e-12


def test_ensemble_symmetric_pair_averages_to_half():
    out = np.exp(se.ensemble_next_dist([np.log([0.8, 0.2]), np.log([0.2, 0.8])]))
    assert np.max(np.abs(out - 0.5)) < 1e-12


def test_ensemble_hand_value_geometric_mean():
    # p0 proportional to sqrt(0.9 * 0.25), p1 to sqrt(0.1 * 0.75);
    # the ratio is sqrt(3), so p0 = (3 - sqrt(3)) / 2
    out = np.exp(se.ensemble_next_dist([np.log([0.9, 0.1]), np.log([0.25, 0.75])]))
    want0 = (3.0 - math.sqrt(3.0)) / 2.0
    assert abs(out[0] - want0) < 1e-12
    assert abs(out[1] - (1.0 - want0)) < 1e-12


def test_ensemble_preserves_zeros():
    out = se.ensemble_next_dist([np.array([np.log(0.5), np.log(0.5), -np.inf]),
                                 np.log([0.2, 0.4, 0.4])])
    assert out[2] == -np.inf
    assert abs(np.exp(out).sum() - 1.0) < 1e-12


def test_ensemble_disjoint_support_rejected():
    with pytest.raises(SearchError, match="disjoint"):
        se.ensemble_next_dist([np.array([0.0, -np.inf]), np.array([-np.inf, 0.0])])
    # the true case, past underflow: no id has a finite log-prob in both
    with pytest.raises(SearchError, match="disjoint"):
        se.ensemble_next_dist([np.array([0.0, -800.0, -np.inf]),
                               np.array([-np.inf, -np.inf, 0.0])])


def _masked_log_softmax(logits, masked):
    z = np.array(logits, dtype=float)
    z[list(masked)] = -np.inf
    return z - logsumexp(z)


def test_ensemble_keeps_tails_that_probabilities_underflow():
    # exp(-800) underflows to 0.0: in probability space these two members,
    # id 2 masked, share no support; their geometric mean is [0.5, 0.5, 0]
    members = [_masked_log_softmax([0.0, -800.0, 0.0], (2,)),
               _masked_log_softmax([-800.0, 0.0, 0.0], (2,))]
    assert np.exp(members[0][1]) == 0.0 and np.exp(members[1][0]) == 0.0
    out = se.ensemble_next_dist(members)
    assert np.all(np.isfinite(out[:2])) and out[2] == -np.inf
    assert np.max(np.abs(np.exp(out) - [0.5, 0.5, 0.0])) < 1e-12
    # a member stack [K, B, V] takes the same path
    rows = se.ensemble_next_dist(np.array(members)[:, None])
    assert np.array_equal(rows[0], out)


def _bad_lambda_decodes(lam):
    """A greedy and a beam decode with an LM at weight lam; the searches
    check the weight once per call."""
    m, lm, x = _search_model(), train_lm(["abab", "baba"], order=2), VOCAB.encode("ab")
    return (lambda: se.greedy_decode([m], x, 4, lm=lm, lam=lam),
            lambda: se.beam_decode([m], x, 2, 4, lm=lm, lam=lam))


def test_interpolation_negative_lambda_rejected():
    for decode in _bad_lambda_decodes(-0.5):
        with pytest.raises(SearchError, match=">= 0"):
            decode()


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_interpolation_non_finite_lambda_rejected(lam):
    for decode in _bad_lambda_decodes(lam):
        with pytest.raises(SearchError, match="interpolation weight must be a finite number"):
            decode()


def test_interpolation_lambda_zero_forms_no_lm_term():
    # a -inf LM log-prob at lam = 0 would make 0 * -inf = NaN (and warn)
    d, lm = np.log([0.3, 0.7]), np.array([0.0, -np.inf])
    for members in ([d], [d, np.log([0.6, 0.4])]):
        out = se.ensemble_next_dist(members, lm, 0.0)
        assert np.array_equal(out, se.ensemble_next_dist(members))


def test_interpolation_hand_values():
    model = np.log([0.9, 0.1])
    lm = np.log([0.25, 0.75])
    out1 = np.exp(se.ensemble_next_dist([model], lm, 1.0))
    assert np.max(np.abs(out1 - [0.75, 0.25])) < 1e-12
    # at lambda=2 the products tie: 0.9*0.0625 == 0.1*0.5625
    out2 = np.exp(se.ensemble_next_dist([model], lm, 2.0))
    assert np.max(np.abs(out2 - 0.5)) < 1e-12


def test_interpolation_zero_mass_rejected():
    with pytest.raises(SearchError, match="zero mass"):
        se.ensemble_next_dist([np.array([0.0, -np.inf])], np.array([-np.inf, 0.0]), 1.0)


def test_lm_history_padding_window_and_specials():
    from morphogen.charlm import BOW
    assert se.lm_history(VOCAB, 3, []) == BOW * 2
    assert se.lm_history(VOCAB, 3, [4]) == BOW + "a"
    assert se.lm_history(VOCAB, 3, [4, 5, 4]) == "ba"
    assert se.lm_history(VOCAB, 3, [UNK]) == BOW + "\x00"
    assert se.lm_history(VOCAB, 1, [4, 5]) == ""


def test_lm_next_dist_bridges_probabilities():
    lm = train_lm(["ab", "ba", "aab"], order=3)
    prefix = [4]
    d = se.lm_next_dist(lm, VOCAB, prefix)
    h = se.lm_history(VOCAB, lm.order, prefix)
    assert d[BOS] == 0.0 and d[EPS] == 0.0    # log 1: the model's scores mask them
    assert d[EOS] == np.log(lm.prob(h, EOW))
    assert d[UNK] == np.log(lm.prob(h, "\x00"))
    assert d[4] == np.log(lm.prob(h, "a"))
    assert d[5] == np.log(lm.prob(h, "b"))


def test_decode_validates_arguments():
    m = _search_model()
    with pytest.raises(SearchError, match="at least one model"):
        se.greedy_decode([], VOCAB.encode("a"), 5)
    with pytest.raises(SearchError, match="max_len"):
        se.greedy_decode([m], VOCAB.encode("a"), 0)
    with pytest.raises(SearchError, match="width"):
        se.beam_decode([m], VOCAB.encode("a"), 0, 5)
    with pytest.raises(SearchError, match="max_len"):
        se.beam_decode([m], VOCAB.encode("a"), 2, 0)
    other = init_model(CharVocab("abc"), "full", hidden=6, embed_dim=5, seed=0)
    with pytest.raises(SearchError, match="vocabulary"):
        se.greedy_decode([m, other], VOCAB.encode("a"), 5)


def test_greedy_uniform_logits_stop_immediately():
    # zeroed output layer: every unmasked id gets 0.25 and the argmax tie
    # breaks toward the lowest id, which is EOS
    m = _uniform_model()
    res = se.greedy_decode([m], VOCAB.encode("ab"), 8)
    assert res.ids == ()
    assert res.truncated is False
    assert abs(res.logprob - math.log(0.25)) < 1e-12


def test_greedy_without_eos_truncates_at_max_len():
    m = _uniform_model()
    m.out_b.value[EOS] = -1e9  # underflows to probability zero
    res = se.greedy_decode([m], VOCAB.encode("ab"), 4)
    assert len(res.ids) == 4
    assert res.truncated is True


def test_beam_without_eos_all_truncated():
    m = _uniform_model()
    m.out_b.value[EOS] = -1e9
    results = se.beam_decode([m], VOCAB.encode("ab"), 3, 4)
    assert len(results) == 3
    assert all(r.truncated and len(r.ids) == 4 for r in results)


def test_beam_wide_enough_equals_exhaustive_search():
    m = _search_model()
    x = VOCAB.encode("ab")
    max_len = 3
    want = exhaustive_decode(m, x, max_len)
    got = se.beam_decode([m], x, 64, max_len)
    assert len(got) == len(want) == 40  # 13 EOS leaves + 27 truncated paths
    for g, w in zip(got, want):
        assert g.ids == w.ids
        assert g.truncated == w.truncated
        assert abs(g.logprob - w.logprob) < 1e-12


def test_beam_width_one_is_greedy():
    m = _search_model()
    rng = np.random.default_rng(11)
    for _ in range(15):
        length = int(rng.integers(1, 7))
        word = "".join(rng.choice(["a", "b"]) for _ in range(length))
        x = VOCAB.encode(word)
        max_len = length + 4
        g = se.greedy_decode([m], x, max_len)
        b = se.beam_decode([m], x, 1, max_len)
        assert len(b) == 1
        assert b[0].ids == g.ids
        assert b[0].truncated == g.truncated
        assert abs(b[0].logprob - g.logprob) < 1e-12


def test_beam_top1_monotone_in_width():
    m = _search_model()
    x = VOCAB.encode("ba")
    best = -np.inf
    for width in (1, 2, 3, 5, 8, 16):
        results = se.beam_decode([m], x, width, 6)
        assert len(results) <= width
        top = results[0].logprob
        assert top >= best - 1e-12
        best = max(best, top)


def test_beam_results_sorted_unique_and_finite():
    m = _search_model()
    results = se.beam_decode([m], VOCAB.encode("ab"), 10, 5)
    lps = [r.logprob for r in results]
    assert lps == sorted(lps, reverse=True)
    assert len({r.ids for r in results}) == len(results)
    for r in results:
        assert np.isfinite(r.logprob) and r.logprob <= 0.0
        assert all(i not in (BOS, EPS) for i in r.ids)


def test_beam_deterministic():
    m = _search_model()
    a = se.beam_decode([m], VOCAB.encode("ab"), 6, 5)
    b = se.beam_decode([m], VOCAB.encode("ab"), 6, 5)
    assert a == b


def _replay_logprob(models, x_ids, result, lm=None, lam=1.0):
    """Recompute a result's score from public per-step distributions."""
    sessions = [DecodeSession(m, [x_ids]) for m in models]
    states = [one_state(s) for s in sessions]
    chosen = list(result.ids) if result.truncated else list(result.ids) + [EOS]
    prefix = []
    total = 0.0
    for t, choice in enumerate(chosen):
        dists = []
        for j, sess in enumerate(sessions):
            h, c, scores = sess.step(*states[j], prefix[-1] if prefix else BOS, t)
            states[j] = (h, c)
            dists.append(ad.log_softmax(scores))
        lm_dist = None if lm is None else se.lm_next_dist(lm, models[0].vocab, prefix)
        dist = se.ensemble_next_dist(dists, lm_dist, lam)
        total += float(dist[choice])
        prefix.append(choice)
    return total


def test_scores_are_sums_of_step_logs():
    m = _search_model()
    x = VOCAB.encode("aab")
    for r in se.beam_decode([m], x, 5, 5):
        assert abs(r.logprob - _replay_logprob([m], x, r)) < 1e-12


def test_lm_interpolated_decode_scores_replay():
    m = _search_model()
    lm = train_lm(["abab", "baba", "aabb"], order=3)
    x = VOCAB.encode("ab")
    for lam in (0.5, 1.0, 2.0):
        res = se.greedy_decode([m], x, 6, lm=lm, lam=lam)
        assert abs(res.logprob - _replay_logprob([m], x, res, lm=lm, lam=lam)) < 1e-12
        for r in se.beam_decode([m], x, 4, 6, lm=lm, lam=lam):
            assert abs(r.logprob - _replay_logprob([m], x, r, lm=lm, lam=lam)) < 1e-12


def test_lm_lambda_zero_equals_plain_decode(monkeypatch):
    # at lam = 0 the search drops the LM: no bridge lookup, the plain decode's bits
    lm = train_lm(["abab", "baba"], order=3)
    x = VOCAB.encode("ba")
    bridge, calls = se.lm_next_dist, []

    def counted(*args):
        calls.append(args)
        return bridge(*args)

    monkeypatch.setattr(se, "lm_next_dist", counted)
    for models in ([_search_model()], [_search_model(5), _search_model(6)]):
        assert se.greedy_decode(models, x, 6) == se.greedy_decode(models, x, 6, lm=lm, lam=0.0)
        assert se.beam_decode(models, x, 4, 6) == se.beam_decode(models, x, 4, 6, lm=lm,
                                                                 lam=0.0)
        models[0].lm_lambda = 0.0    # a learned weight of 0 as well
        assert se.beam_decode(models, x, 4, 6) == se.beam_decode(models, x, 4, 6, lm=lm)
    assert calls == []
    se.greedy_decode(models, x, 6, lm=lm, lam=0.5)
    assert calls


def test_decode_defaults_to_the_first_members_learned_lambda():
    models = [_search_model(5), _search_model(6)]
    lm = train_lm(["abab", "baba"], order=3)
    x = VOCAB.encode("ba")
    assert se.greedy_decode(models, x, 6, lm=lm) == se.greedy_decode(models, x, 6, lm=lm, lam=1.0)
    models[0].lm_lambda, models[1].lm_lambda = 2.5, 0.5
    for ms in (models[:1], models):
        assert se.greedy_decode(ms, x, 6, lm=lm) == se.greedy_decode(ms, x, 6, lm=lm, lam=2.5)
        beam = se.beam_decode(ms, x, 4, 6, lm=lm)
        assert beam == se.beam_decode(ms, x, 4, 6, lm=lm, lam=2.5)
        assert beam != se.beam_decode(ms, x, 4, 6, lm=lm, lam=1.0)
        # a given weight wins, 0 included
        assert se.beam_decode(ms, x, 4, 6, lm=lm, lam=0.0) == se.beam_decode(ms, x, 4, 6)


def test_ensemble_decode_matches_replay():
    models = [_search_model(5), _search_model(6), _search_model(7)]
    x = VOCAB.encode("ab")
    res = se.greedy_decode(models, x, 6)
    assert abs(res.logprob - _replay_logprob(models, x, res)) < 1e-12


def test_result_text_rendering():
    r = se.DecodeResult((4, 5, 4), -1.0, False)
    assert r.text(VOCAB) == "aba"


def test_nbest_round_trip(tmp_path):
    rows = [("talo", "case=inessive", "talossa", -0.125),
            ("talo", "case=inessive", "talosta", -2.5),
            ("kylä", "case=adessive", "kylällä", -0.0625)]
    path = tmp_path / "beam.tsv"
    se.write_nbest(path, rows)
    assert se.read_nbest(path) == rows


def test_nbest_read_errors(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("a\tt\tx\t-1.0\na\tt\tx\n", encoding="utf-8")
    with pytest.raises(DataError, match=r":2: expected 4"):
        se.read_nbest(p)
    p.write_text("a\tt\tx\tnot-a-number\n", encoding="utf-8")
    with pytest.raises(DataError, match=r":1: bad log-probability"):
        se.read_nbest(p)
    with pytest.raises(DataError, match="cannot read"):
        se.read_nbest(tmp_path / "missing.tsv")
