"""The batched beam path against the per-hypothesis one: DecodeSession.step on
one state and on B rows against the taped training step, the row-wise
combiners against their 1-D forms, the memoised LM bridge against a fresh
computation, and beam_decode, with its early stop, against the fully sorted
reference beam in helpers.py, which runs until no hypothesis is live."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (LSTMState, affine, constant, decoder_step, node_encode, randomize_params,
                     reference_beam_decode)
from morphogen import autodiff as ad
from morphogen import model as mod
from morphogen import search as se
from morphogen.charlm import EOW, WittenBellLM, train_lm
from morphogen.errors import SearchError
from morphogen.model import VARIANTS, DecodeSession, init_model
from morphogen.vocab import BOS, EOS, UNK, CharVocab

VOCAB = CharVocab("abc")
TOL = 1e-12
LM_WORDS = ["abca", "bacab", "cab", "ab", "cca"]


def _model(variant, seed=3, hidden=4):
    return randomize_params(init_model(VOCAB, variant, hidden=hidden, embed_dim=3, seed=0), seed)


def _training_step(m, source, h, c, y_prev, t):
    """The per-op training path run untaped: decoder_step, the output affine,
    the log of the softmax with the masked ids at -inf."""
    state = decoder_step(None, m, source, LSTMState(constant(h), constant(c)), y_prev, t)
    logits = affine(None, m.out_W, state.h, m.out_b).value
    logits[list(mod.MASKED_OUTPUT_IDS)] = -np.inf
    with np.errstate(divide="ignore"):
        logprobs = np.log(ad.softmax(logits))
    return state.h.value, state.c.value, logprobs


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("B", (1, 3, 8))
def test_step_many_rows_equal_step(variant, B):
    """DecodeSession.step on many rows, and on one state, equals the training
    step, its scores read through autodiff.log_softmax."""
    m = _model(variant)
    x = VOCAB.encode("abca")
    sess = DecodeSession(m, [x])
    source = node_encode(None, m, x)
    rng = np.random.default_rng(B)
    n = m.hidden
    for t in (0, 2, 6):   # t = 6 is past the source end: x_t is EPS
        H, C = rng.normal(size=(B, n)), rng.normal(size=(B, n))
        y_prev = rng.integers(0, len(VOCAB), size=B)
        H2, C2, scores = sess.step(H, C, y_prev, t)
        dist = ad.log_softmax(scores)
        assert H2.shape == C2.shape == (B, n) and dist.shape == (B, len(VOCAB))
        for r in range(B):
            want = _training_step(m, source, H[r], C[r], int(y_prev[r]), t)
            h1, c1, s1 = sess.step(H[r], C[r], int(y_prev[r]), t)
            one = (h1, c1, ad.log_softmax(s1))
            assert one[0].shape == one[1].shape == (n,) and one[2].shape == (len(VOCAB),)
            for got_row, got_one, w in zip((H2[r], C2[r], dist[r]), one, want):
                np.testing.assert_allclose(got_row, w, rtol=0, atol=TOL)
                np.testing.assert_allclose(got_one, w, rtol=0, atol=TOL)


def _rows(rng, B, V, zero=()):
    """B rows of log-probs over V ids, -inf at the zero ids."""
    d = rng.random((B, V))
    d[:, list(zero)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(d / d.sum(axis=1, keepdims=True))


def test_row_wise_combiners_equal_one_dimensional():
    rng = np.random.default_rng(0)
    members = [_rows(rng, 5, 7, zero=(0, 2)) for _ in range(3)]
    members[1][3, 4] = -np.inf      # a zero in one member's row only
    lm = _rows(rng, 5, 7, zero=(0,))
    ens = se.ensemble_next_dist(members)
    assert np.array_equal(se.ensemble_next_dist(np.array(members)), ens)   # one [K, B, V] array
    for r in range(5):
        assert np.array_equal(ens[r], se.ensemble_next_dist([d[r] for d in members]))
        for lam in (0.0, 0.5, 1.0, 2.5):
            got = se.ensemble_next_dist(members, lm, lam)[r]
            assert np.array_equal(got, se.ensemble_next_dist([d[r] for d in members], lm[r], lam))
    assert np.array_equal(se.ensemble_next_dist(members[:1]), ad.log_softmax(members[0]))


def test_row_wise_combiners_reject_a_bad_row():
    half, inf = np.log(0.5), np.inf
    good = np.array([[half, half], [half, half]])
    with pytest.raises(SearchError, match="disjoint"):
        se.ensemble_next_dist([good, np.array([[half, half], [-inf, 0.0]]),
                               np.array([[half, half], [0.0, -inf]])])
    with pytest.raises(SearchError, match="zero mass"):
        se.ensemble_next_dist([good], np.array([[half, half], [-inf, -inf]]), 1.0)


def _two_stage_next_dist(scores, lm, lam):
    """The combine as two normalizations: a log-softmax per member, their
    mean renormalized, then lam * lm added and renormalized again."""
    lps = [ad.log_softmax(S) for S in scores]
    lp = lps[0] if len(lps) == 1 else ad.log_softmax(sum(lps[1:], lps[0]) / len(lps))
    return lp if lm is None or lam == 0 else ad.log_softmax(lp + lam * lm)


@settings(deadline=None, max_examples=200)
@given(k=st.integers(1, 5), B=st.integers(1, 8), lam=st.sampled_from((0.0, 0.5, 1.0, 2.5)),
       lm_kind=st.sampled_from(("none", "bridge", "extra-inf")), seed=st.integers(0, 2**32 - 1))
def test_one_normalization_equals_the_two_stage_combine(k, B, lam, lm_kind, seed):
    rng = np.random.default_rng(seed)
    V = len(VOCAB)
    scores = rng.normal(0.0, 3.0, size=(k, B, V))
    scores[..., list(mod.MASKED_OUTPUT_IDS)] = -np.inf     # as DecodeSession.step emits
    lm = None
    if lm_kind != "none":
        lm = _rows(rng, B, V)
        lm[:, list(mod.MASKED_OUTPUT_IDS)] = 0.0     # as the LM bridge gives
        if lm_kind == "extra-inf":     # one more id the LM rules out in each row
            lm[np.arange(B), rng.choice([EOS, UNK, 4, 5, 6], size=B)] = -np.inf
    got = se.ensemble_next_dist(list(scores), lm, lam)
    want = _two_stage_next_dist(scores, lm, lam)
    assert np.array_equal(got == -np.inf, want == -np.inf)
    finite = want > -np.inf
    assert np.max(np.abs(got[finite] - want[finite])) <= TOL
    top2 = np.sort(want, axis=-1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 1e-9
    assert np.array_equal(got.argmax(axis=-1)[clear], want.argmax(axis=-1)[clear])


def _bridge_uncached(lm, vocab, prefix_ids):
    history = se.lm_history(vocab, lm.order, prefix_ids)
    dist = np.ones(len(vocab))     # BOS and EPS stay at log 1 = 0.0
    dist[EOS] = lm.prob(history, EOW)
    dist[UNK] = lm.prob(history, "\x00")
    for i in vocab.data_ids():
        dist[i] = lm.prob(history, vocab.token_of(i))
    return np.log(dist)


def test_lm_bridge_memo_exact_read_only_and_per_vocab():
    lm = train_lm(["abca", "bacab", "cab", "ab"], order=3)
    wide = CharVocab("abcd")
    for prefix in ([], [4], [4, 5], [6, 5, 4, UNK]):
        got = se.lm_next_dist(lm, VOCAB, prefix)
        assert np.array_equal(got, _bridge_uncached(lm, VOCAB, prefix))
        assert se.lm_next_dist(lm, VOCAB, prefix) is got   # served from the memo
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[EOS] = -0.5
        other = se.lm_next_dist(lm, wide, prefix)
        assert len(other) == len(wide) != len(got)
        assert np.array_equal(other, _bridge_uncached(lm, wide, prefix))
    # four histories, each under two vocabularies
    assert len(lm.bridge_cache) == 8


def test_lm_bridge_memo_dropped_when_counts_change():
    lm = WittenBellLM(2, "ab")
    before = se.lm_next_dist(lm, CharVocab("ab"), [4])
    lm._observe("a", "b")
    assert lm.bridge_cache == {}
    after = se.lm_next_dist(lm, CharVocab("ab"), [4])
    assert not np.array_equal(before, after)


def test_lm_bridge_memo_keyed_by_the_last_order_minus_one_ids():
    lm = train_lm(["abca", "bacab", "cab", "ab"], order=3)
    got = se.lm_next_dist(lm, VOCAB, (6, 4, 5))
    assert se.lm_next_dist(lm, VOCAB, [5, 5, 6, 4, 5]) is got
    assert se.lm_next_dist(lm, VOCAB, (4, 5)) is got
    assert se.lm_next_dist(lm, VOCAB, (5,)) is not got   # history BOW b, not ab
    assert len(lm.bridge_cache) == 2


def test_lm_bridge_memo_of_order_one_has_one_entry_per_vocabulary():
    """prefix[-0:] is the whole prefix; an order-1 window is empty."""
    lm = train_lm(["abca", "bacab", "cab", "ab"], order=1)
    wide = CharVocab("abcd")
    for prefix in ((), (4,), (4, 5, 6), (6, 5, 4, UNK, 4)):
        for vocab in (VOCAB, wide):
            assert np.array_equal(se.lm_next_dist(lm, vocab, prefix),
                                  _bridge_uncached(lm, vocab, ()))
    assert len(lm.bridge_cache) == 2


def test_lm_bridge_memo_with_unk_in_the_window():
    lm = train_lm(["abca", "bacab", "cab", "ab"], order=3)
    for prefix in ([UNK], [4, UNK], [UNK, 5], [6, UNK, UNK]):
        assert np.array_equal(se.lm_next_dist(lm, VOCAB, prefix),
                              _bridge_uncached(lm, VOCAB, prefix))


def _tied_model(bias):
    """Output layer zeroed but for a bias: every step gives one fixed
    distribution, so candidates tie whenever they hold the same ids in another
    order (ab and ba), and across parents whose own scores differ."""
    m = init_model(CharVocab("ab"), "full", hidden=3, embed_dim=2, seed=0)
    m.out_W.value[...] = 0.0
    m.out_b.value[...] = bias
    return m


@pytest.mark.parametrize("bias", ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                                  [0.0, -0.5, 0.0, 0.3, 0.3, 0.3],
                                  [0.0, 0.2, 0.0, -1.0, 0.2, 0.2],
                                  [0.0, -0.2, 0.0, -1.0, 0.1, 0.6]),
                         ids=("uniform", "three-way-tie", "eos-ties-content",
                              "likelier-b"))
# 40 is more than the 31 results of length <= 4 over "ab": nothing is cut
@pytest.mark.parametrize("width", (1, 2, 3, 4, 5, 40))
def test_ties_across_the_width_boundary_match_the_full_sort(bias, width):
    m = _tied_model(bias)
    x = m.vocab.encode("ab")
    want = reference_beam_decode([m], x, width, 4)
    got = se.beam_decode([m], x, width, 4)
    assert [(r.ids, r.truncated) for r in got] == [(r.ids, r.truncated) for r in want]
    for g, w in zip(got, want):
        assert abs(g.logprob - w.logprob) < TOL


def test_beam_matches_reference_on_mixed_ensemble_with_lm():
    # members differ in variant and hidden size; the LM joins in
    models = [_model("full", 5), _model("attention", 6, hidden=5),
              _model("plain-encdec", 7, hidden=2), _model("no-encoder", 8)]
    lm = train_lm(["abca", "bacab", "cab", "ab", "cca"], order=3)
    for word, width in (("a", 3), ("abc", 8), ("cabba", 5)):
        x = VOCAB.encode(word)
        for members, lm_, lam in ((models, lm, 1.0), (models[1:3], None, 1.0),
                                  (models[:1], lm, 0.5)):
            want = reference_beam_decode(members, x, width, len(x) + 3, lm=lm_, lam=lam)
            got = se.beam_decode(members, x, width, len(x) + 3, lm=lm_, lam=lam)
            assert [(r.ids, r.truncated) for r in got] == [(r.ids, r.truncated) for r in want]
            for g, w in zip(got, want):
                assert abs(g.logprob - w.logprob) < TOL
                assert type(g.logprob) is float and all(type(i) is int for i in g.ids)


def test_beam_stops_once_the_n_best_is_settled(monkeypatch):
    """A stacked ensemble with an LM at width 8, as the paper decodes: the
    reference beam, which has no stop, steps all max_len times; beam_decode
    stops earlier and returns the same n-best."""
    models = [_model("full", seed) for seed in (5, 6, 7)]
    lm = train_lm(LM_WORDS, order=3)
    real_step, real_next_dist = DecodeSession.step, se._next_dist
    for word in ("a", "abc", "cabba"):
        x = VOCAB.encode(word)
        max_len = len(x) + 6
        assert len(se._runs(models)) == 1      # one stack of three
        ref_steps, steps = [], []

        def ref_step(self, H, C, y_prev, t):
            ref_steps.append(t)
            return real_step(self, H, C, y_prev, t)

        def next_dist(sessions, states, y_prev, t, lm_dist, lam):
            steps.append(t)
            return real_next_dist(sessions, states, y_prev, t, lm_dist, lam)

        with monkeypatch.context() as mp:
            mp.setattr(DecodeSession, "step", ref_step)
            want = reference_beam_decode(models, x, 8, max_len, lm=lm)
        with monkeypatch.context() as mp:
            mp.setattr(se, "_next_dist", next_dist)
            got = se.beam_decode(models, x, 8, max_len, lm=lm, lam=1.0)
        assert max(ref_steps) + 1 == max_len
        assert steps == list(range(len(steps))) and len(steps) < max_len
        assert [(r.ids, r.truncated) for r in got] == [(r.ids, r.truncated) for r in want]
        for g, w in zip(got, want):
            assert abs(g.logprob - w.logprob) < TOL


@pytest.mark.parametrize("members", ((("full", 4),), (("full", 4),) * 3,
                                     (("full", 4), ("full", 4), ("attention", 5),
                                      ("no-encoder", 4))),
                         ids=("single", "stack", "mixed"))
@pytest.mark.parametrize("lam", (0.0, 0.5, 1.0, 2.5))
@pytest.mark.parametrize("with_lm", (False, True), ids=("no-lm", "lm"))
def test_next_dist_rows_are_nonpositive_with_a_finite_entry(members, lam, with_lm):
    """The early stop rests on this: every step's log-probs are <= 0, so a
    score never rises as its hypothesis grows."""
    rng = np.random.default_rng(17)
    lm = train_lm(LM_WORDS, order=3) if with_lm else None
    B = 6
    for seed in range(3):
        models = [_model(v, seed + j, hidden=h) for j, (v, h) in enumerate(members)]
        x = VOCAB.encode("abcab"[:seed + 2])
        sessions = [DecodeSession(params, [x]) for params in se._runs(models)]
        states = [(rng.normal(size=(*h.shape[:-2], B, h.shape[-1])),
                   rng.normal(size=(*c.shape[:-2], B, c.shape[-1])))
                  for h, c in (s.initial_state() for s in sessions)]
        for t in range(len(x) + 3):
            prefixes = [tuple(rng.integers(4, len(VOCAB), size=rng.integers(0, 4)).tolist())
                        for _ in range(B)]
            y_prev = np.array([p[-1] if p else BOS for p in prefixes])
            lm_dist = np.array([se.lm_next_dist(lm, VOCAB, p) for p in prefixes]) \
                if lm is not None else None
            states, dist = se._next_dist(sessions, states, y_prev, t, lm_dist, lam)
            assert dist.shape == (B, len(VOCAB))
            assert (dist <= 0).all()
            assert np.isfinite(dist).any(axis=1).all()


@settings(deadline=None, max_examples=60)
@given(chars=st.sampled_from(("ab", "abc")), hidden=st.integers(2, 4),
       variants=st.lists(st.sampled_from(VARIANTS), min_size=1, max_size=3),
       seed=st.integers(0, 2**16), width=st.integers(1, 6), max_len=st.integers(1, 6),
       word=st.text(alphabet="abc", min_size=1, max_size=4), with_lm=st.booleans())
def test_beam_with_its_stop_equals_the_reference_beam(chars, hidden, variants, seed, width,
                                                      max_len, word, with_lm):
    vocab = CharVocab(chars)
    models = [randomize_params(init_model(vocab, v, hidden=hidden, embed_dim=2, seed=0),
                               seed + j)
              for j, v in enumerate(variants)]
    lm = train_lm(LM_WORDS, order=3) if with_lm else None
    x = vocab.encode(word)
    want = reference_beam_decode(models, x, width, max_len, lm=lm, lam=1.0)
    got = se.beam_decode(models, x, width, max_len, lm=lm, lam=1.0)
    assert [(r.ids, r.truncated) for r in got] == [(r.ids, r.truncated) for r in want]
    for g, w in zip(got, want):
        assert abs(g.logprob - w.logprob) < TOL
