import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (GraphSweep, Node, Tape, affine, backward, concat, constant, dot,
                     gradient_check, matvec, mul, output_loss, pick, row, sigmoid, softmax, softmax_op,
                     softplus, sub, tanh, total, usum, weighted_sum)
from morphogen import autodiff as ad
from morphogen import model as mod
from morphogen.errors import DimensionError
from morphogen.optim import Block
from morphogen.vocab import CharVocab


def test_affine_identity():
    W = ad.Parameter("W", np.eye(3))
    b = ad.Parameter("b", np.zeros(3))
    x = constant([1.5, -2.0, 0.25])
    out = affine(None, W, x, b)
    assert np.array_equal(out.value, [1.5, -2.0, 0.25])


def test_affine_hand_values():
    W = ad.Parameter("W", [[1.0, 2.0], [3.0, 4.0]])
    b = ad.Parameter("b", [0.0, 1.0])
    x = constant([1.0, 1.0])
    out = affine(None, W, x, b)
    assert np.array_equal(out.value, [3.0, 8.0])


def test_affine_shape_error_names_shapes():
    W = ad.Parameter("W", np.zeros((2, 3)))
    b = ad.Parameter("b", np.zeros(2))
    x = constant(np.zeros(4))
    with pytest.raises(DimensionError, match=r"affine.*\(2, 3\).*\(4,\)"):
        affine(None, W, x, b)


def test_matvec_value_and_error():
    W = ad.Parameter("W", [[1.0, 0.0], [0.0, -2.0]])
    out = matvec(None, W, constant([3.0, 4.0]))
    assert np.array_equal(out.value, [3.0, -8.0])
    with pytest.raises(DimensionError, match="matvec"):
        matvec(None, W, constant([1.0, 2.0, 3.0]))


def test_elementwise_ops_values():
    a = constant([1.0, 2.0])
    b = constant([3.0, 5.0])
    assert np.array_equal(total(None, [a, b]).value, [4.0, 7.0])
    assert np.array_equal(sub(None, a, b).value, [-2.0, -3.0])
    assert np.array_equal(mul(None, a, b).value, [3.0, 10.0])


def test_elementwise_shape_mismatch_error():
    with pytest.raises(DimensionError, match=r"total: shapes \(3,\) and \(2,\)"):
        total(None, [constant([1.0, 2.0, 3.0]), constant([1.0, 2.0])])


def test_concat_values_and_gradient_slices():
    a = ad.Parameter("a", [1.0, 2.0])
    b = ad.Parameter("b", [3.0])
    tape = Tape()
    cat = concat(tape, [a, b])
    assert np.array_equal(cat.value, [1.0, 2.0, 3.0])
    loss = dot(tape, cat, constant([10.0, 20.0, 30.0]))
    grads = backward(tape, loss, [a, b])
    assert np.array_equal(grads[a], [10.0, 20.0])
    assert np.array_equal(grads[b], [30.0])


def test_scalar_nonlinearities_at_zero():
    z = constant([0.0])
    assert sigmoid(None, z).value[0] == 0.5
    assert tanh(None, z).value[0] == 0.0
    assert softplus(None, z).value[0] == pytest.approx(np.log(2.0), abs=1e-15)


def test_nonlinearities_stable_on_tails():
    big = constant([1000.0, -1000.0])
    s = sigmoid(None, big).value
    assert np.array_equal(s, [1.0, 0.0])
    sp = softplus(None, big).value
    assert sp[0] == 1000.0 and sp[1] == 0.0
    assert np.all(np.isfinite(sp))


def test_row_lookup_and_gradient():
    E = ad.Parameter("E", np.arange(12.0).reshape(4, 3))
    tape = Tape()
    r = row(tape, E, 2)
    assert np.array_equal(r.value, [6.0, 7.0, 8.0])
    loss = usum(tape, r)
    grads = backward(tape, loss, [E])
    want = np.zeros((4, 3))
    want[2] = 1.0
    assert np.array_equal(grads[E], want)


def test_row_out_of_range():
    E = ad.Parameter("E", np.zeros((4, 3)))
    with pytest.raises(DimensionError, match="row"):
        row(None, E, 4)
    with pytest.raises(DimensionError, match="row"):
        row(None, E, -1)


def test_pick_usum_dot_values():
    x = constant([5.0, 7.0, 9.0])
    assert pick(None, x, 1).value.shape == (1,)
    assert pick(None, x, 1).value[0] == 7.0
    assert usum(None, x).value[0] == 21.0
    y = constant([1.0, 0.0, 2.0])
    assert dot(None, x, y).value[0] == 23.0
    with pytest.raises(DimensionError, match="dot"):
        dot(None, x, constant([1.0]))


def test_softmax_uniform():
    p = softmax([3.0, 3.0, 3.0, 3.0])
    assert np.max(np.abs(p - 0.25)) < 1e-15


def test_softmax_hand_values():
    # exp(log 2) : exp(0) = 2 : 1
    p = softmax([np.log(2.0), 0.0])
    assert abs(p[0] - 2.0 / 3.0) < 1e-12
    assert abs(p[1] - 1.0 / 3.0) < 1e-12


def test_softmax_empty_error():
    with pytest.raises(DimensionError, match="softmax"):
        softmax([])


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=8),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_softmax_shift_invariance_and_normalization(v, c):
    p = softmax(v)
    q = softmax([x + c for x in v])
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.max(np.abs(p - q)) < 1e-12


def test_masked_softmax_zeroes_and_renormalizes():
    # a masked id is a -inf logit
    logits = np.array([-np.inf, 2.0, -np.inf, 4.0])
    p = ad.softmax(logits)
    assert p[0] == 0.0 and p[2] == 0.0
    assert abs(p.sum() - 1.0) < 1e-12
    sub = softmax(logits[[1, 3]])
    assert abs(p[1] - sub[0]) < 1e-12 and abs(p[3] - sub[1]) < 1e-12
    # over the last axis: each row of a 2-D input equals its 1-D result
    rows = np.random.default_rng(0).normal(size=(3, 4))
    rows[:, [0, 2]] = -np.inf
    P = ad.softmax(rows)
    for r in range(3):
        assert np.array_equal(P[r], ad.softmax(rows[r]))


def test_backward_linear_gradient_is_input():
    w = ad.Parameter("w", [1.0, -1.0, 2.0])
    x = constant([4.0, 5.0, 6.0])
    tape = Tape()
    loss = dot(tape, w, x)
    grads = backward(tape, loss, [w])
    assert np.array_equal(grads[w], x.value)


def test_backward_unreached_parameter_gets_zeros():
    w = ad.Parameter("w", [1.0])
    other = ad.Parameter("other", np.ones((2, 2)))
    tape = Tape()
    loss = usum(tape, w)
    grads = backward(tape, loss, [w, other])
    assert np.array_equal(grads[other], np.zeros((2, 2)))
    assert np.array_equal(grads[w], [1.0])


def test_backward_rejects_nonscalar_loss():
    x = ad.Parameter("x", [1.0, 2.0])
    tape = Tape()
    out = tanh(tape, x)
    with pytest.raises(DimensionError, match="backward"):
        backward(tape, out, [x])


def test_backward_clears_all_gradients():
    # two sweeps over independent tapes must not contaminate each other,
    # including constants and parameters outside the requested set
    E = ad.Parameter("E", np.arange(6.0).reshape(3, 2))
    w = ad.Parameter("w", [1.0, 2.0])
    c = constant([3.0, 4.0])

    def run():
        tape = Tape()
        loss = dot(tape, total(tape, [row(tape, E, 1), c]), w)
        return backward(tape, loss, [E])

    first = run()[E].copy()
    second = run()[E]
    assert np.array_equal(first, second)


def _nested_sweep(outer, x, inner_param, inner_grads):
    """A record passing its gradient through to x, whose backward first sweeps
    a tape of its own: mul(inner_param, inner_param)."""
    out = Node(x.value.copy())

    def backward_fn(sweep, g):
        inner = Tape()
        inner_grads.append(backward(inner, mul(inner, inner_param, inner_param),
                                       [inner_param])[inner_param])
        sweep.acc(x, g)
    outer.append(out, backward_fn)
    return out


def test_nested_sweep_leaves_outer_sweep_clean():
    # a record whose backward sweeps another tape must not disturb the outer
    # sweep, and a second sweep over fresh tapes must repeat the first
    w = ad.Parameter("w", [2.0])
    u = ad.Parameter("u", [3.0])
    z = ad.Parameter("z", [5.0])

    def run():
        outer = Tape()
        inner_grads = []
        n = _nested_sweep(outer, z, u, inner_grads)  # recorded first: fires after w's record
        loss = total(outer, [usum(outer, w), n])
        grads = backward(outer, loss, [w, z])
        return grads[w], grads[z], inner_grads

    assert run() == run() == ([1.0], [1.0], [[6.0]])
    tape = Tape()
    assert backward(tape, mul(tape, w, w), [w])[w] == [4.0]


def test_nested_sweep_sharing_a_parameter_keeps_the_outer_gradient():
    # the inner sweep reaches w while the outer one is still accumulating it:
    # d/dw of usum(w) + nested(z) + usum(w) is 2, as when nothing is nested
    w = ad.Parameter("w", [3.0])
    z = ad.Parameter("z", [5.0])
    outer = Tape()
    inner_grads = []
    parts = [usum(outer, w), _nested_sweep(outer, z, w, inner_grads), usum(outer, w)]
    loss = usum(outer, concat(outer, parts))
    grads = backward(outer, loss, [w, z])
    assert grads[w] == [2.0] and grads[z] == [1.0] and inner_grads == [[6.0]]


def _manual_ce(logits, target, masked):
    z = np.array(logits, dtype=float)
    z[list(masked)] = -np.inf
    m = z.max()
    p = np.exp(z - m) / np.exp(z - m).sum()
    return -np.log(p[target])


def _ce(tape, logits, target, masked_ids=(), log_lm=None, lam=None):
    """output_loss with W = I and b = 0, so the logits are exactly the Node given."""
    n = logits.value.shape[0]
    return output_loss(tape, constant(np.eye(n)), logits, constant(np.zeros(n)),
                          target, masked_ids, log_lm, lam)


def test_cross_entropy_matches_manual_formula():
    logits = ad.Parameter("logits", [0.3, -1.2, 2.0, 0.0])
    out = _ce(None, logits, 2, masked_ids=(0,))
    assert abs(out.value[0] - _manual_ce(logits.value, 2, (0,))) < 1e-12


def test_cross_entropy_gradient_is_p_minus_onehot():
    logits = ad.Parameter("logits", [0.5, 1.5, -0.5, 0.0])
    masked = (0,)
    tape = Tape()
    loss = _ce(tape, logits, 3, masked_ids=masked)
    assert len(tape) == 1  # fused: one record per decoder step
    g = backward(tape, loss, [logits])[logits]
    z = logits.value.copy()
    z[list(masked)] = -np.inf
    want = ad.softmax(z)
    want[3] -= 1.0
    assert np.max(np.abs(g - want)) < 1e-12
    assert g[0] == 0.0


def test_interpolated_ce_with_zero_lambda_reduces_exactly():
    logits = ad.Parameter("logits", [0.4, -0.3, 1.1])
    log_lm = np.log([0.2, 0.5, 0.3])
    lam = ad.Parameter("lam", [0.0])
    a = _ce(None, logits, 2, log_lm=log_lm, lam=lam)
    b = _ce(None, logits, 2)
    assert a.value[0] == b.value[0]


def test_interpolated_ce_hand_value():
    # p proportional to softmax(logits) * lm**lam
    logits = ad.Parameter("logits", [np.log(0.9), np.log(0.1)])
    log_lm = np.log([0.25, 0.75])
    lam = ad.Parameter("lam", [1.0])
    out = _ce(None, logits, 0, log_lm=log_lm, lam=lam)
    joint = np.array([0.9 * 0.25, 0.1 * 0.75])
    want = -np.log(joint[0] / joint.sum())
    assert abs(out.value[0] - want) < 1e-12


def test_interpolated_ce_lambda_gradient_matches_finite_difference():
    logits = ad.Parameter("logits", [0.2, 0.9, -0.4])
    log_lm = np.log([0.5, 0.2, 0.3])
    lam = ad.Parameter("lam", [0.7])

    def loss_fn(tape):
        return _ce(tape, logits, 1, log_lm=log_lm, lam=lam)

    assert gradient_check(loss_fn, [lam, logits]) < 1e-7


def test_interpolated_ce_masked_ids_stay_zero_in_gradient():
    logits = ad.Parameter("logits", [0.2, 0.9, -0.4, 0.1])
    log_lm = np.array([0.0, np.log(0.4), np.log(0.3), np.log(0.3)])    # as the LM bridge gives
    lam = ad.Parameter("lam", [0.5])
    tape = Tape()
    loss = _ce(tape, logits, 1, masked_ids=(0,), log_lm=log_lm, lam=lam)
    assert np.isfinite(loss.value[0])
    g = backward(tape, loss, [logits])[logits]
    assert g[0] == 0.0 and np.all(np.isfinite(g))


@pytest.mark.parametrize("interpolated", [False, True])
def test_output_loss_gradients_are_one_record(interpolated):
    rng = np.random.default_rng(3)
    W = ad.Parameter("W", rng.normal(0.0, 0.5, (5, 3)))
    h = ad.Parameter("h", rng.normal(0.0, 0.5, 3))
    b = ad.Parameter("b", rng.normal(0.0, 0.5, 5))
    lam = ad.Parameter("lam", [0.6])
    log_lm = np.log(rng.dirichlet(np.ones(5))) if interpolated else None
    params = [W, h, b] + ([lam] if interpolated else [])

    def loss_fn(tape):
        return output_loss(tape, W, h, b, 2, (0,), log_lm, lam)

    tape = Tape()
    loss_fn(tape)
    assert len(tape) == 1
    assert gradient_check(loss_fn, params) < 1e-7


def _build_params(seed):
    rng = np.random.default_rng(seed)
    return {
        "W": ad.Parameter("W", rng.normal(0.0, 0.5, (3, 4))),
        "b": ad.Parameter("b", rng.normal(0.0, 0.5, 3)),
        "E": ad.Parameter("E", rng.normal(0.0, 0.5, (5, 4))),
        "v": ad.Parameter("v", rng.normal(0.0, 0.5, 3)),
        "a": ad.Parameter("a", rng.normal(0.0, 0.5, 1)),
    }


def _composed_loss(p, tape):
    x = row(tape, p["E"], 2)
    h = tanh(tape, affine(tape, p["W"], x, p["b"]))
    s = sigmoid(tape, matvec(tape, p["W"], x))
    sp = softplus(tape, sub(tape, s, p["v"]))
    scores = concat(tape, [
        dot(tape, h, p["v"]),
        dot(tape, s, p["v"]),
        dot(tape, sp, p["v"]),
    ])
    weights = softmax_op(tape, scores)
    ctx = weighted_sum(tape, weights, [h, s, sp])
    return total(tape, [dot(tape, ctx, p["v"]),
                           mul(tape, pick(tape, ctx, 1), p["a"])])


def test_gradient_check_on_composed_graph():
    p = _build_params(7)
    err = gradient_check(lambda tape: _composed_loss(p, tape), p.values())
    assert err < 1e-4


def test_tape_determinism_bit_identical():
    p = _build_params(7)
    q = _build_params(7)

    def run(params):
        tape = Tape()
        loss = _composed_loss(params, tape)
        grads = backward(tape, loss, params.values())
        return loss.value.copy(), {k: grads[v].copy() for k, v in params.items()}

    loss1, g1 = run(p)
    loss2, g2 = run(q)
    assert np.array_equal(loss1, loss2)
    for k in g1:
        assert np.array_equal(g1[k], g2[k])


def test_weighted_sum_shape_error():
    w = constant([0.5, 0.5])
    vecs = [constant([1.0, 2.0])]
    with pytest.raises(DimensionError, match="weighted_sum"):
        weighted_sum(None, w, vecs)


def test_softmax_op_gradient():
    x = ad.Parameter("x", [0.3, -0.7, 1.2])
    v = constant([1.0, 2.0, 3.0])

    def loss_fn(tape):
        return dot(tape, softmax_op(tape, x), v)

    assert gradient_check(loss_fn, [x]) < 1e-7


# --- autodiff.backward: the product's tape of closures ---------------------

def _block(*shapes):
    """Parameters laid out back to back in one vector, as one optim.Block."""
    theta = np.zeros(sum(int(np.prod(s)) for s in shapes))
    params, offset = [], 0
    for k, shape in enumerate(shapes):
        size = int(np.prod(shape))
        params.append(ad.Parameter(f"p{k}", theta[offset:offset + size].reshape(shape)))
        offset += size
    return params, Block(theta, params)


def test_backward_runs_closures_last_first_into_the_given_buffers():
    (w, E), block = _block((2, 3), (4, 2))
    grads = dict(zip(block.parts, block.part_grads))
    order = []

    def first(grads):
        order.append("first")
        grads[w] += np.ones((2, 3))

    def second(grads):
        order.append("second")
        grads[E][1] += [2.0, 3.0]
        grads[w] += np.array([[1.0, 0.0]]).T @ np.array([[4.0, 5.0, 6.0]])

    assert ad.backward([first, second], grads) is grads
    assert order == ["second", "first"]
    want_w = np.ones((2, 3))
    want_w[0] += [4.0, 5.0, 6.0]
    want_E = np.zeros((4, 2))
    want_E[1] = [2.0, 3.0]
    assert np.array_equal(block.grad, np.concatenate((want_w.ravel(), want_E.ravel())))
    assert np.array_equal(w.value, np.zeros((2, 3)))    # values untouched


# --- helpers.GraphSweep: the per-op oracle's queue of outer products ---------

def _sweep_closures(closures, grads):
    """Run closures last-first through one GraphSweep over grads, as the
    oracle's backward does; returns grads."""
    sweep = GraphSweep(grads)
    for backward_fn in reversed(closures):
        backward_fn(sweep)
    sweep.finish()
    return grads


def _queue_rows(w, rows_a, rows_b):
    def backward_fn(sweep):
        for a, b in zip(rows_a, rows_b):
            sweep.acc_outer(w, a, b)
    return backward_fn


def test_backward_adds_queued_outer_products_after_direct_adds():
    # 1e16 + 1 rounds back to 1e16, so the order of the three adds shows:
    # direct adds first (1e16, then 1), the queued -1e16 last, gives 0
    (w,), block = _block((1, 1))

    def direct(sweep):
        sweep.acc(w, [[1.0]])

    def queued_then_direct(sweep):
        sweep.acc_outer(w, np.array([-1e16]), np.array([1.0]))
        sweep.acc(w, [[1e16]])

    _sweep_closures([direct, queued_then_direct], {w: block.part_grads[0]})
    assert block.grad[0] == 0.0


def test_backward_sums_queued_rows_as_one_product_in_queue_order():
    rng = np.random.default_rng(5)
    (w,), block = _block((3, 4))
    rows_a, rows_b = rng.normal(size=(5, 3)), rng.normal(size=(5, 4))
    closures = [_queue_rows(w, rows_a[3:], rows_b[3:]), _queue_rows(w, rows_a[:3], rows_b[:3])]
    grads = _sweep_closures(closures, {w: np.zeros((3, 4))})
    # the later closure fires, and queues its rows, first: rows 0..4 in order
    assert np.array_equal(grads[w], rows_a.T @ rows_b)


@pytest.mark.parametrize("variant", mod.VARIANTS)
def test_forward_variant_value_only_equals_the_taped_loss(variant):
    vocab = CharVocab("abc")
    m = mod.init_model(vocab, variant, hidden=3, embed_dim=2, seed=1)
    x, y = vocab.encode("abca"), vocab.encode("cb")
    tape = []
    taped = mod.forward_variant(tape, m, x, y)
    untaped = mod.forward_variant(None, m, x, y)
    assert type(taped) is float and type(untaped) is float
    assert taped == untaped and len(tape) == 1
