"""The one-record LSTM step and attention record against their composed
references in helpers.py: values to 1e-12, gradients to 1e-10."""

import numpy as np
import pytest

import helpers
from helpers import (LSTMState, Tape, attention_record, backward, constant, dot,
                     forward_record, node_source, per_op_loss, randomize_params,
                     reference_attention_context, reference_lstm_step, taped_lstm_step, total)
from morphogen import autodiff as ad
from morphogen import lstm
from morphogen import model as mod
from morphogen.vocab import CharVocab

VALUE_TOL = 1e-12
GRAD_TOL = 1e-10


def _close(a, b, tol):
    np.testing.assert_allclose(a, b, rtol=0.0, atol=tol)


def _cell_case(input_size, hidden_size, seed):
    """Random cell weights, input and state, all leaves that take a gradient."""
    rng = np.random.default_rng(seed)
    n, l = hidden_size, input_size

    def leaf(name, shape, scale=0.8):
        return ad.Parameter(name, rng.normal(0.0, scale, shape))

    params = lstm.LSTMParams("cell", leaf("cell.W_x", (4 * n, l)),
                             leaf("cell.W_h", (4 * n, n)), leaf("cell.b", (4 * n,)))
    x = leaf("x", (l,), 1.5)
    prev = LSTMState(h=leaf("h0", (n,)), c=leaf("c0", (n,), 1.5))
    weights = (constant(rng.normal(size=n)), constant(rng.normal(size=n)))
    leaves = params.parameters() + [x, prev.h, prev.c]
    return params, x, prev, weights, leaves


def _cell_loss(tape, step, params, x, prev, weights, consume):
    """Two chained steps; the loss reads h, c or both of the second."""
    state = step(tape, params, x, step(tape, params, x, prev))
    terms = []
    if consume in ("both", "h"):
        terms.append(dot(tape, state.h, weights[0]))
    if consume in ("both", "c"):
        terms.append(dot(tape, state.c, weights[1]))
    return terms[0] if len(terms) == 1 else total(tape, terms)


CELL_SHAPES = [(1, 1), (3, 1), (1, 4), (5, 3)]


@pytest.mark.parametrize("input_size, hidden_size", CELL_SHAPES)
def test_lstm_step_values_match_reference(input_size, hidden_size):
    params, x, prev, _, _ = _cell_case(input_size, hidden_size, seed=input_size)
    fused, ref = prev, prev
    for _ in range(3):
        fused = taped_lstm_step(None, params, x, fused)
        ref = reference_lstm_step(None, params, x, ref)
        _close(fused.h.value, ref.h.value, VALUE_TOL)
        _close(fused.c.value, ref.c.value, VALUE_TOL)


@pytest.mark.parametrize("consume", ["both", "h", "c"])
@pytest.mark.parametrize("input_size, hidden_size", CELL_SHAPES)
def test_lstm_step_gradients_match_reference(input_size, hidden_size, consume):
    params, x, prev, weights, leaves = _cell_case(input_size, hidden_size, seed=hidden_size)
    grads = []
    for step in (taped_lstm_step, reference_lstm_step, taped_lstm_step):
        tape = Tape()
        loss = _cell_loss(tape, step, params, x, prev, weights, consume)
        grads.append(backward(tape, loss, leaves))
    fused, ref, again = grads       # a second sweep over a fresh tape repeats the first
    for leaf in leaves:
        _close(fused[leaf], ref[leaf], GRAD_TOL)
        assert np.array_equal(again[leaf], fused[leaf])


def test_lstm_step_is_one_record():
    params, x, prev, _, _ = _cell_case(2, 3, seed=0)
    tape = Tape()
    state = taped_lstm_step(tape, params, x, prev)
    assert len(tape) == 1
    taped_lstm_step(tape, params, x, state)
    assert len(tape) == 2


def _attention_case(length, hidden_size, seed):
    m = randomize_params(mod.init_model(CharVocab("ab"), "attention", hidden=hidden_size,
                                        embed_dim=2, seed=seed), seed)
    rng = np.random.default_rng(seed)
    positions = [(ad.Parameter(f"f{t}", rng.normal(size=hidden_size)),
                  ad.Parameter(f"b{t}", rng.normal(size=hidden_size)))
                 for t in range(length)]
    s_prev = ad.Parameter("s", rng.normal(size=hidden_size))
    weights = constant(rng.normal(size=2 * hidden_size))
    leaves = [m.attn_W_enc, m.attn_W_dec, m.attn_v, s_prev] + [h for p in positions for h in p]
    return m, positions, s_prev, weights, leaves


ATTENTION_SHAPES = [(1, 1), (1, 3), (4, 1), (5, 3)]


@pytest.mark.parametrize("length, hidden_size", ATTENTION_SHAPES)
def test_attention_context_matches_reference(length, hidden_size):
    m, positions, s_prev, weights, leaves = _attention_case(length, hidden_size, seed=length)
    values, grads = {}, {}
    source = node_source(m, [], positions)
    for fn in (attention_record, reference_attention_context):
        tape = Tape()
        ctx = fn(tape, m, source, s_prev)
        values[fn] = ctx.value
        grads[fn] = backward(tape, dot(tape, ctx, weights), leaves)
    _close(values[attention_record], values[reference_attention_context], VALUE_TOL)
    for leaf in leaves:
        _close(grads[attention_record][leaf],
               grads[reference_attention_context][leaf], GRAD_TOL)


def test_attention_context_is_one_record():
    m, positions, s_prev, _, _ = _attention_case(4, 2, seed=0)
    tape = Tape()
    attention_record(tape, m, node_source(m, [], positions), s_prev)
    assert len(tape) == 1


@pytest.mark.parametrize("variant", mod.VARIANTS)
def test_model_gradients_match_composed_model(monkeypatch, variant):
    vocab = CharVocab("ab")
    m = randomize_params(mod.init_model(vocab, variant, hidden=3, embed_dim=2, seed=1), 2)
    x_ids, y_ids = vocab.encode("abba"), vocab.encode("bab")

    def run(loss_fn):
        tape = Tape()
        loss = loss_fn(tape, m, x_ids, y_ids)
        return loss.value[0], backward(tape, loss, m.parameters())

    fused_loss, fused = run(forward_record)
    monkeypatch.setattr(helpers, "taped_lstm_step", reference_lstm_step)
    monkeypatch.setattr(helpers, "attention_record", reference_attention_context)
    ref_loss, ref = run(per_op_loss)
    assert abs(fused_loss - ref_loss) < VALUE_TOL
    for p in m.parameters():
        _close(fused[p], ref[p], GRAD_TOL)
