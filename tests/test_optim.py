import numpy as np
import pytest

from helpers import reference_adadelta_step
from morphogen.autodiff import Parameter
from morphogen.errors import MorphogenError, TrainError
from morphogen.model import DECODER_ATTRS, SHARED_ATTRS, init_model
from morphogen.optim import EPS, RHO, Block, adadelta_step
from morphogen.vocab import CharVocab


def _param_block(name, value):
    p = Parameter(name, value)
    return p, Block(p.value, [p])


def _step(blocks, grads, l2=0.0):
    for b, g in zip(blocks, grads):
        b.grad[...] = g
    adadelta_step(blocks, l2=l2)


def test_zero_gradient_leaves_parameter_unchanged():
    p, b = _param_block("p", [1.0, -2.0, 3.0])
    before = p.value.copy()
    _step([b], [np.zeros(3)])
    assert np.array_equal(p.value, before)


def test_unit_gradient_step_sequence():
    # scalar recurrence with rho=0.95, eps=1e-6, g=1 throughout:
    # E[g^2] grows each step while E[dx^2] lags, so the early steps are
    # d1 then a slightly larger d2 before the schedule levels off
    assert (RHO, EPS) == (0.95, 1e-6)
    p, b = _param_block("p", [0.0])
    deltas = []
    for _ in range(3):
        before = p.value.copy()
        _step([b], [np.ones(1)])
        deltas.append(float(p.value[0] - before[0]))
    assert abs(deltas[0] - -0.0044720912343108364) < 1e-15
    assert abs(deltas[1] - -0.004529062265533205) < 1e-15
    assert abs(deltas[2] - -0.004567599482426009) < 1e-15
    # the |delta| sequence creeps upward at first: E[dx^2] feeds back into
    # the numerator faster than E[g^2] saturates the denominator
    assert abs(deltas[1]) > abs(deltas[0])
    assert abs(deltas[2]) > abs(deltas[1])


def test_update_direction_opposes_gradient():
    p, b = _param_block("p", [0.0, 0.0])
    _step([b], [np.array([3.0, -4.0])])
    assert p.value[0] < 0.0 and p.value[1] > 0.0


def test_nonfinite_gradient_names_parameter():
    _, b = _param_block("embed.chars", [1.0])
    with pytest.raises(TrainError, match="embed.chars"):
        _step([b], [np.array([np.nan])])
    with pytest.raises(TrainError, match="embed.chars"):
        _step([b], [np.array([np.inf])])


def test_accumulators_keyed_by_object_identity():
    # blocks over two parameters with equal names and values must not share
    # accumulators, while one block reached through two references must
    _, a = _param_block("same", [1.0])
    _, b = _param_block("same", [1.0])
    _step([a], [np.ones(1)])
    _step([b], [np.ones(1)])
    assert a.sq_grad is not b.sq_grad and a.sq_delta is not b.sq_delta
    _step([a], [np.ones(1)])
    assert a.sq_grad[0] > b.sq_grad[0]      # b's pair saw one step, a's two


def test_shared_parameter_keeps_single_accumulator():
    _, shared = _param_block("encoder.W", np.zeros(2))
    _, alone = _param_block("encoder.W", np.zeros(2))
    views = [shared, shared]
    _step([views[0]], [np.ones(2)])
    _step([views[1]], [np.ones(2)])
    for _ in range(2):
        _step([alone], [np.ones(2)])
    assert np.array_equal(shared.sq_grad, alone.sq_grad)
    assert np.array_equal(shared.sq_delta, alone.sq_delta)


def test_l2_term_shrinks_parameter_norm_with_zero_gradient():
    p, b = _param_block("p", [4.0, -3.0])
    before = np.linalg.norm(p.value)
    for _ in range(10):
        _step([b], [np.zeros(2)], l2=0.1)
    assert np.linalg.norm(p.value) < before


def test_updates_are_in_place():
    p, b = _param_block("p", [1.0])
    buf = p.value
    _step([b], [np.ones(1)])
    assert p.value is buf
    assert b.value is buf


# --- flat blocks -------------------------------------------------------------

def _model(seed):
    return init_model(CharVocab("abcde"), "full", hidden=5, embed_dim=4, seed=seed)


def _random_grads(params, rng):
    return {p: rng.normal(0.0, 1.0, size=p.value.shape) for p in params}


def _joint_pair():
    # as in train_joint: the first tag model owns the encoder, the next aliases it
    first, second = _model(0), _model(1)
    second.embed, second.enc_fwd, second.enc_bwd = first.embed, first.enc_fwd, first.enc_bwd
    return [first, second]


def test_part_grads_are_views_of_grad_in_parts_order():
    block = _model(0).block(DECODER_ATTRS)
    assert [g.shape for g in block.part_grads] == [p.value.shape for p in block.parts]
    for i, g in enumerate(block.part_grads):
        assert np.shares_memory(g, block.grad)
        g[...] = i + 1.0
    want = np.concatenate([np.full(p.value.size, i + 1.0) for i, p in enumerate(block.parts)])
    assert np.array_equal(block.grad, want)


def test_flat_step_equals_per_parameter_reference():
    # one block over a model's whole theta, five steps with l2 > 0
    flat, ref = _model(3), _model(3)
    block, acc = flat.block(), {}
    rng = np.random.default_rng(0)
    for _ in range(5):
        grads = _random_grads(ref.parameters(), rng)
        reference_adadelta_step(ref.parameters(), grads, acc, l2=1e-3)
        g = np.concatenate([grads[p].reshape(-1) for p in ref.parameters()])
        _step([block], [g], l2=1e-3)
        for a, b in zip(flat.parameters(), ref.parameters()):
            assert np.array_equal(a.value, b.value), a.name
    for table, i in ((block.sq_grad, 0), (block.sq_delta, 1)):
        want = np.concatenate([acc[p][i].reshape(-1) for p in ref.parameters()])
        assert np.array_equal(table, want)


def test_flat_step_equals_reference_on_a_joint_shared_encoder_pair():
    # the two tag models step alternately: the shared encoder block and each
    # tag's decoder block keep one accumulator pair each, as per parameter
    flat_tags, ref_tags = _joint_pair(), _joint_pair()
    encoder = flat_tags[0].block(SHARED_ATTRS)
    blocks = [[encoder, m.block(DECODER_ATTRS)] for m in flat_tags]
    acc = {}
    rng = np.random.default_rng(1)
    for step in range(5):
        k = step % 2
        params = ref_tags[k].parameters()
        grads = _random_grads(params, rng)
        reference_adadelta_step(params, grads, acc, l2=1e-3)
        g = np.concatenate([grads[p].reshape(-1) for p in params])
        cut = encoder.value.size
        _step(blocks[k], [g[:cut], g[cut:]], l2=1e-3)
    assert len({id(b) for pair in blocks for b in pair}) == 3
    for flat, ref in zip(flat_tags, ref_tags):
        for a, b in zip(flat.parameters(), ref.parameters()):
            assert np.array_equal(a.value, b.value), a.name


def test_non_finite_gradient_names_the_parameter_inside_a_block():
    m = _model(0)
    block = m.block()
    g = np.zeros(block.value.size)
    offset = sum(p.value.size for p in m.parameters()[:4])
    g[offset + 2] = np.nan
    g[-1] = np.inf
    before = block.value.copy()
    with pytest.raises(TrainError, match=repr(m.parameters()[4].name)):
        _step([block], [g])
    assert np.array_equal(block.value, before)    # nothing stepped


def test_non_finite_gradient_leaves_every_block_untouched():
    # the bad gradient is in the second block; neither block's value or
    # accumulators move, not even the first block's
    m = _model(0)
    blocks = [m.block(SHARED_ATTRS), m.block(DECODER_ATTRS)]
    rng = np.random.default_rng(2)
    _step(blocks, [rng.normal(size=b.value.size) for b in blocks], l2=1e-3)
    before = [(b.value.copy(), b.sq_grad.copy(), b.sq_delta.copy()) for b in blocks]
    bad = rng.normal(size=blocks[1].value.size)
    bad[3] = np.nan
    with pytest.raises(TrainError, match="non-finite"):
        _step(blocks, [rng.normal(size=blocks[0].value.size), bad], l2=1e-3)
    for b, (value, sq_grad, sq_delta) in zip(blocks, before):
        assert np.array_equal(b.value, value)
        assert np.array_equal(b.sq_grad, sq_grad)
        assert np.array_equal(b.sq_delta, sq_delta)


def test_block_parts_must_tile_its_vector():
    m = _model(0)
    params = m.parameters()
    with pytest.raises(MorphogenError, match="not laid out"):
        Block(m.theta, params[1:])
    with pytest.raises(MorphogenError, match="cover"):
        Block(m.theta, params[:-1])
    tag = _joint_pair()[1]
    with pytest.raises(MorphogenError, match="not laid out"):
        tag.block(SHARED_ATTRS)      # the shared tensors live in the first model's theta
