import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (assert_within_ulp, cell_step, concat, constant, gradient_check,
                     run_sequence, taped_encode_bidirectional, taped_lstm_step, usum,
                     zero_state)
from morphogen import autodiff as ad
from morphogen import lstm
from morphogen import model as mod
from morphogen.errors import DimensionError
from morphogen.vocab import CharVocab


def _model_with_cells(input_size, hidden_size, seed=0):
    """A seeded `full` model; its encoder cells read input_size-wide inputs."""
    return mod.init_model(CharVocab("ab"), "full", hidden=hidden_size,
                          embed_dim=input_size, seed=seed)


def _const_params(name, input_size, hidden_size, weight, bias=0.0):
    n = hidden_size
    return lstm.LSTMParams(
        name,
        ad.Parameter(f"{name}.W_x", np.full((4 * n, input_size), weight)),
        ad.Parameter(f"{name}.W_h", np.full((4 * n, n), weight)),
        ad.Parameter(f"{name}.b", np.full(4 * n, bias)),
    )


def _random_params(name, input_size, hidden_size, seed):
    rng = np.random.default_rng(seed)
    p = _model_with_cells(input_size, hidden_size, seed).enc_fwd
    p.name = name
    for t in p.parameters():
        t.value = rng.normal(0.0, 0.5, size=t.value.shape)
    return p


def test_scalar_cell_hand_computed():
    # 1-unit cell, unit weights, zero bias, x=[1], zero state:
    # all four preactivations are 1, so c' = sigmoid(1)*tanh(1) and
    # h' = sigmoid(1)*tanh(c')
    p = _const_params("cell", 1, 1, 1.0)
    h, c = cell_step(p, np.array([1.0]), np.zeros(1), np.zeros(1))[:2]
    assert abs(c[0] - 0.5567699411459397) < 1e-12
    assert abs(h[0] - 0.36960635293570576) < 1e-12


def test_zero_weights_give_zero_hidden_state():
    p = _const_params("cell", 2, 3, 0.0)
    h, c = cell_step(p, np.array([5.0, -5.0]), np.zeros(3), np.zeros(3))[:2]
    assert np.array_equal(h, np.zeros(3))
    assert np.array_equal(c, np.zeros(3))


def test_hidden_state_bounded_below_one():
    p = _random_params("cell", 4, 6, seed=0)
    rng = np.random.default_rng(1)
    h = c = np.zeros(6)
    for _ in range(20):
        h, c = cell_step(p, rng.normal(0.0, 3.0, 4), h, c)[:2]
        assert np.all(np.abs(h) < 1.0)


def test_run_sequence_matches_manual_fold():
    # run_cached and the taped oracle both fold the cell from the zero state
    p = _random_params("cell", 3, 4, seed=2)
    vs = list(np.random.default_rng(3).normal(size=(5, 3)))
    states = run_sequence(None, p, [constant(v) for v in vs])
    hs, cache = lstm.run_cached(p, vs)
    assert len(states) == len(hs) == len(cache) == 5
    h = c = np.zeros(4)
    for x, got, got_h, step in zip(vs, states, hs, cache):
        # each cache entry keeps the state its step started from
        assert np.array_equal(step[1], h) and np.array_equal(step[2], c)
        h, c = cell_step(p, x, h, c)[:2]
        assert np.array_equal(h, got.h.value)
        assert np.array_equal(c, got.c.value)
        assert np.array_equal(h, got_h)


def test_run_sequence_rejects_empty_input():
    p = _const_params("cell", 2, 2, 0.1)
    with pytest.raises(DimensionError, match="empty"):
        run_sequence(None, p, [])


def test_step_rejects_wrong_input_size():
    p = _const_params("enc", 3, 2, 0.1)
    with pytest.raises(DimensionError, match="enc"):
        taped_lstm_step(None, p, constant([1.0, 2.0]), zero_state(2))


def test_init_shapes_scale_and_forget_bias():
    m = _model_with_cells(7, 5)
    for p, input_size in ((m.enc_fwd, 7), (m.enc_bwd, 7), (m.dec, m.decoder_input_size())):
        assert p.W_x.value.shape == (20, input_size)
        assert p.W_h.value.shape == (20, 5)
        assert p.b.value.shape == (20,)
        assert np.all(np.abs(p.W_x.value) <= mod.INIT_SCALE)
        assert np.all(np.abs(p.W_h.value) <= mod.INIT_SCALE)
        # forget gate block starts at 1 so early training does not erase memory
        assert np.array_equal(p.b.value[5:10], np.ones(5))
        assert np.array_equal(p.b.value[:5], np.zeros(5))
        assert np.array_equal(p.b.value[10:], np.zeros(10))
    assert [t.name for t in m.enc_fwd.parameters()] == [
        "enc_fwd.W_x", "enc_fwd.W_h", "enc_fwd.b"]


def test_params_shape_validation():
    with pytest.raises(DimensionError, match="W_x"):
        lstm.LSTMParams("bad",
                        ad.Parameter("bad.W_x", np.zeros((7, 3))),
                        ad.Parameter("bad.W_h", np.zeros((8, 2))),
                        ad.Parameter("bad.b", np.zeros(8)))
    with pytest.raises(DimensionError, match="b has shape"):
        lstm.LSTMParams("bad",
                        ad.Parameter("bad.W_x", np.zeros((8, 3))),
                        ad.Parameter("bad.W_h", np.zeros((8, 2))),
                        ad.Parameter("bad.b", np.zeros(7)))


def test_bidirectional_shapes_and_pairing():
    fwd = _random_params("enc.fwd", 3, 4, seed=4)
    bwd = _random_params("enc.bwd", 3, 4, seed=5)
    xs = list(np.random.default_rng(6).normal(size=(5, 3)))
    fwd_hs, bwd_hs, fwd_cache, bwd_cache = lstm.encode_bidirectional(fwd, bwd, xs)
    assert len(fwd_hs) == len(bwd_hs) == len(fwd_cache) == len(bwd_cache) == 5
    nodes = [constant(x) for x in xs]
    fwd_states = run_sequence(None, fwd, nodes)
    bwd_states = run_sequence(None, bwd, nodes[::-1])
    # the final states that model._encode_source joins into e_raw
    assert np.array_equal(fwd_hs[-1], fwd_states[-1].h.value)
    assert np.array_equal(bwd_hs[0], bwd_states[-1].h.value)
    positions = taped_encode_bidirectional(None, fwd, bwd, nodes)
    for t in range(5):
        assert np.array_equal(fwd_hs[t], fwd_states[t].h.value)
        assert np.array_equal(bwd_hs[t], bwd_states[4 - t].h.value)
        assert np.array_equal(fwd_hs[t], positions[t][0].value)
        assert np.array_equal(bwd_hs[t], positions[t][1].value)


def test_bidirectional_length_one_halves():
    fwd = _random_params("enc.fwd", 2, 3, seed=7)
    bwd = _random_params("enc.bwd", 2, 3, seed=8)
    x = np.array([0.4, -1.1])
    fwd_hs, bwd_hs = lstm.encode_bidirectional(fwd, bwd, [x])[:2]
    hf = cell_step(fwd, x, np.zeros(3), np.zeros(3))[0]
    hb = cell_step(bwd, x, np.zeros(3), np.zeros(3))[0]
    assert len(fwd_hs) == len(bwd_hs) == 1
    assert np.array_equal(fwd_hs[0], hf)
    assert np.array_equal(bwd_hs[0], hb)


def test_bidirectional_reversal_swaps_halves_with_shared_params():
    p = _random_params("enc", 2, 3, seed=9)
    xs = list(np.random.default_rng(10).normal(size=(4, 2)))
    fwd = lstm.encode_bidirectional(p, p, xs)
    rev = lstm.encode_bidirectional(p, p, xs[::-1])
    # e_raw = [fwd h_T ; bwd h_1]: reversing the input swaps its halves
    assert np.array_equal(fwd[0][-1], rev[1][0])
    assert np.array_equal(fwd[1][0], rev[0][-1])


def test_bidirectional_rejects_empty_input():
    p = _const_params("enc", 2, 2, 0.1)
    with pytest.raises(DimensionError, match="empty"):
        lstm.encode_bidirectional(p, p, [])


def test_gradient_check_through_sequence():
    p = _random_params("cell", 2, 3, seed=11)
    xs = [constant(v) for v in np.random.default_rng(12).normal(size=(3, 2))]

    def loss_fn(tape):
        states = run_sequence(tape, p, xs)
        return usum(tape, concat(tape, [states[-1].h, states[-1].c]))

    assert gradient_check(loss_fn, p.parameters()) < 1e-4


def _decoder_params(n, members, rng):
    """A cell whose W_h is N(0, 0.5); rows_step and lstm_step read no other
    weight. members > 0 gives a stack of that many cells."""
    lead = (members,) if members else ()
    return lstm.LSTMParams(
        "dec",
        ad.Parameter("dec.W_x", np.zeros((*lead, 4 * n, 1))),
        ad.Parameter("dec.W_h", rng.normal(0.0, 0.5, (*lead, 4 * n, n))),
        ad.Parameter("dec.b", np.zeros((*lead, 1, 4 * n) if lead else 4 * n)),
    )


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 40), rows=st.integers(1, 9), members=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_rows_step_is_lstm_step_to_rounding(n, rows, members, seed):
    """The decode cell's NumPy-exp sigmoid differs from expit by a few ULP
    in some gates; the states stay within 4 ULP (1e-15 near 0), on rows
    [B, n] and on a stack's [K, B, n]."""
    rng = np.random.default_rng(seed)
    p = _decoder_params(n, members, rng)
    shape = (members, rows) if members else (rows,)
    ZX = rng.normal(0.0, 3.0, (*shape, 4 * n))
    H, C = rng.uniform(-1.0, 1.0, (*shape, n)), rng.normal(0.0, 2.0, (*shape, n))
    got = lstm.rows_step(p, ZX, H, C)
    want = lstm.lstm_step(p, ZX, H, C)[:2]
    assert len(got) == 2
    for g, w in zip(got, want):
        assert g.shape == w.shape == H.shape
        assert_within_ulp(g, w)


def test_rows_step_saturates_its_gates_at_750():
    """exp(750) overflows to inf and gives a sigmoid of exactly 0, and
    exp(-750) gives exactly 1; the overflow raises no warning."""
    n = 3
    p = _decoder_params(n, 0, np.random.default_rng(0))
    p.W_h.value[...] = 0.0
    g = np.array([0.5, -2.0, 7.0])
    big = np.full(n, 750.0)
    # row 0: i = 1, f = 0, o = 1; row 1: i = 0, f = 1, o = 0
    ZX = np.array([np.concatenate((big, -big, big, g)), np.concatenate((-big, big, -big, g))])
    H, C = np.zeros((2, n)), np.array([[1.5, -0.25, 3.0], [0.75, -4.0, 2.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H2, C2 = lstm.rows_step(p, ZX, H, C)
    assert np.array_equal(C2[0], np.tanh(g)) and np.array_equal(H2[0], np.tanh(np.tanh(g)))
    assert np.array_equal(C2[1], C[1]) and np.array_equal(H2[1], np.zeros(n))
