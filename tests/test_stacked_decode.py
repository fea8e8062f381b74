"""Adjacent ensemble members that share (variant, hidden, embed_dim) step as one stack.

greedy_decode and beam_decode must give the per-member search's results
(helpers.per_member_greedy_decode / per_member_beam_decode) bit for bit:
the same ids, truncation flags and log-prob bytes, for every variant,
homogeneous and mixed ensembles, with and without the LM. DecodeSession keeps
a single model's shapes and steps a stack's rows with a leading member axis.
Rows step lstm.rows_step, so the oracles step an ensemble's members as rows
too, greedy's as rows of one."""

import struct

import numpy as np
import pytest

from helpers import (assert_within_ulp, per_member_beam_decode, per_member_greedy_decode,
                     randomize_params, reference_beam_decode)
from morphogen import model as mod
from morphogen import search as se
from morphogen.charlm import train_lm
from morphogen.errors import DimensionError
from morphogen.model import VARIANTS, DecodeSession, init_model
from morphogen.vocab import CharVocab

VOCAB = CharVocab("abcd")
LM_WORDS = ["abca", "bacab", "cab", "ab", "cca", "dab", "adda"]
LM = train_lm(LM_WORDS, order=3)
WORDS = ("a", "abc", "cabba", "dacdbab")


def _model(variant, seed, hidden=4, embed_dim=3):
    m = init_model(VOCAB, variant, hidden=hidden, embed_dim=embed_dim, seed=0)
    return randomize_params(m, seed)


def _bits(results):
    if isinstance(results, se.DecodeResult):
        results = [results]
    return [(r.ids, struct.pack("<d", r.logprob), r.truncated) for r in results]


def _assert_same_as_per_member(models, lm=None, lam=1.0):
    for word, width in zip(WORDS, (3, 8, 5, 4)):
        x = VOCAB.encode(word)
        for max_len in (1, len(x) + 3):    # max_len 1 truncates
            got = se.greedy_decode(models, x, max_len, lm=lm, lam=lam)
            want = per_member_greedy_decode(models, x, max_len, lm=lm, lam=lam)
            assert _bits(got) == _bits(want)
            got = se.beam_decode(models, x, width, max_len, lm=lm, lam=lam)
            want = per_member_beam_decode(models, x, width, max_len, lm=lm, lam=lam)
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("with_lm", (False, True), ids=("plain", "lm"))
@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("variant", VARIANTS)
def test_homogeneous_stack_equals_per_member_search(variant, k, with_lm):
    models = [_model(variant, seed) for seed in range(k)]
    sessions = se._sessions(models, VOCAB.encode("ab"))
    assert len(sessions) == 1 and sessions[0].stacked
    _assert_same_as_per_member(models, LM if with_lm else None, lam=0.7)


@pytest.mark.parametrize("order", (1, 12), ids=("order-1", "order-past-max-len"))
def test_lm_orders_at_the_edges(order):
    """An order-1 LM conditions on no history (lm_history's empty window); an
    order longer than max_len start-pads every history it is asked for."""
    lm = train_lm(LM_WORDS, order=order)
    models = [_model("full", 1), _model("full", 2), _model("attention", 3)]
    for members in (models[:1], models):
        _assert_same_as_per_member(members, lm, lam=0.8)
        for word, width in zip(WORDS, (3, 8, 5, 4)):
            x = VOCAB.encode(word)
            max_len = len(x) + 3
            assert order == 1 or order > max_len
            got = se.beam_decode(members, x, width, max_len, lm=lm, lam=0.8)
            want = reference_beam_decode(members, x, width, max_len, lm=lm, lam=0.8)
            greedy = se.greedy_decode(members, x, max_len, lm=lm, lam=0.8)
            want_greedy = reference_beam_decode(members, x, 1, max_len, lm=lm, lam=0.8)
            for got, want in ((got, want), ([greedy], want_greedy)):
                assert [(r.ids, r.truncated) for r in got] == [(r.ids, r.truncated) for r in want]
                for g, w in zip(got, want):
                    assert abs(g.logprob - w.logprob) < 1e-12


MIXED = {
    # two members of one configuration around a member of another: three sessions
    "full-attention-full": [("full", 1, 4), ("attention", 2, 4), ("full", 3, 4)],
    "hidden-sizes": [("full", 1, 4), ("full", 2, 5), ("full", 3, 4)],
    "all-variants": [(v, s, 4) for s, v in enumerate(VARIANTS)],
    "two-stacks": [("attention", 1, 3), ("attention", 4, 3), ("no-encoder", 2, 4),
                   ("no-encoder", 3, 4)],
    "stack-between-singles": [("attention", 1, 3), ("no-encoder", 2, 4), ("no-encoder", 3, 4),
                              ("attention", 4, 3)],
    "one-model-per-variant-pair": [("full", 1, 4), ("attention", 2, 4)],
}


@pytest.mark.parametrize("with_lm", (False, True), ids=("plain", "lm"))
@pytest.mark.parametrize("name", MIXED)
def test_mixed_ensemble_equals_per_member_search(name, with_lm):
    models = [_model(v, seed, hidden=n) for v, seed, n in MIXED[name]]
    _assert_same_as_per_member(models, LM if with_lm else None)


@pytest.mark.parametrize("name, stacked", [("two-stacks", [True, True]),
                                           ("stack-between-singles", [False, True, False]),
                                           ("full-attention-full", [False, False, False])])
def test_sessions_stack_runs_of_adjacent_members(name, stacked):
    models = [_model(v, seed, hidden=n) for v, seed, n in MIXED[name]]
    sessions = se._sessions(models, VOCAB.encode("ab"))
    assert [s.stacked for s in sessions] == stacked
    single = se._sessions(models[:1], VOCAB.encode("ab"))
    assert len(single) == 1 and not single[0].stacked


@pytest.mark.parametrize("variant", VARIANTS)
def test_single_model_session_keeps_its_shapes(variant):
    m = _model(variant, 1)
    n, V = m.hidden, len(VOCAB)
    sess = DecodeSession(m, VOCAB.encode("abc"))
    assert not sess.stacked
    h, c = sess.initial_state()
    assert h.shape == c.shape == (n,)
    h2, c2, dist = sess.step(h, c, 2, 0)
    assert h2.shape == c2.shape == (n,) and dist.shape == (V,)
    H = np.stack([h2] * 5)
    H2, C2, dist = sess.step(H, H.copy(), np.arange(5) % V, 1)
    assert H2.shape == C2.shape == (5, n) and dist.shape == (5, V)


@pytest.mark.parametrize("variant", VARIANTS)
def test_stack_step_is_each_members_step(variant):
    models = [_model(variant, seed) for seed in (1, 2, 3)]
    x = VOCAB.encode("dcab")
    stack = DecodeSession(mod._stack(models), x)
    alone = [DecodeSession(m, x) for m in models]
    n, V = models[0].hidden, len(VOCAB)
    H, C = stack.initial_state()
    assert H.shape == C.shape == (3, n)
    for k, sess in enumerate(alone):
        for got, want in zip((H[k], C[k]), sess.initial_state()):
            assert np.array_equal(got, want)
    rng = np.random.default_rng(0)
    for t in (0, 3, 6):    # t = 6 is past the source end: x_t is EPS
        # B rows per member
        for B in (1, 8):
            H, C = rng.normal(size=(3, B, n)), rng.normal(size=(3, B, n))
            y = rng.integers(0, V, size=B)
            out = stack.step(H, C, y, t)
            assert [a.shape for a in out] == [(3, B, n), (3, B, n), (3, B, V)]
            for k, sess in enumerate(alone):
                # at B = 1 too: greedy's row of one is the member's row of one
                for got, want in zip(out, sess.step(H[k], C[k], y, t)):
                    assert np.array_equal(got[k], want)
                if B == 1:     # and the member's one state (lstm_step's expit) to rounding
                    for got, want in zip(out, sess.step(H[k, 0], C[k, 0], int(y[0]), t)):
                        assert_within_ulp(got[k, 0], want)


def test_stack_steps_rows_only():
    stack = DecodeSession(mod._stack([_model("full", seed) for seed in (1, 2)]),
                          VOCAB.encode("ab"))
    H, C = stack.initial_state()
    with pytest.raises(DimensionError, match="rows"):
        stack.step(H, C, 2, 0)
    H, C, dist = stack.step(H[:, None], C[:, None], [2], 0)
    assert dist.shape == (2, 1, len(VOCAB))


@pytest.mark.parametrize("variant", VARIANTS)
def test_stacked_tensors_are_aligned_contiguous_copies(variant):
    """Each stacked tensor starts on a 64-byte boundary, as theta does, so
    its layout does not change from one run or word to the next."""
    models = [_model(variant, seed) for seed in (1, 2, 3)]
    stack = mod._stack(models)
    for p, *members in zip(stack.parameters(), *(m.parameters() for m in models)):
        assert p.value.ctypes.data % 64 == 0 and p.value.flags.c_contiguous
        assert p.value.shape[0] == 3
        for k, member in enumerate(members):
            assert np.array_equal(p.value[k].reshape(member.value.shape), member.value)


def test_stack_reads_the_members_current_values():
    models = [_model("full", seed) for seed in (1, 2)]
    x = VOCAB.encode("abc")
    before = se.beam_decode(models, x, 4, 6)
    models[1].out_b.value[:] += np.arange(len(VOCAB))     # as a training step would, in place
    after = se.beam_decode(models, x, 4, 6)
    assert _bits(after) == _bits(per_member_beam_decode(models, x, 4, 6))
    assert _bits(after) != _bits(before)

