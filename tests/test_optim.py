import numpy as np
import pytest

from helpers import reference_adadelta_step
from morphogen.autodiff import Parameter
from morphogen.errors import MorphogenError, TrainError
from morphogen.model import DECODER_ATTRS, SHARED_ATTRS, init_model
from morphogen.optim import AdaDeltaState, Block, adadelta_step
from morphogen.vocab import CharVocab


def test_zero_gradient_leaves_parameter_unchanged():
    p = Parameter("p", [1.0, -2.0, 3.0])
    before = p.value.copy()
    state = AdaDeltaState()
    adadelta_step([p], {p: np.zeros(3)}, state)
    assert np.array_equal(p.value, before)


def test_unit_gradient_step_sequence():
    # scalar recurrence with rho=0.95, eps=1e-6, g=1 throughout:
    # E[g^2] grows each step while E[dx^2] lags, so the early steps are
    # d1 then a slightly larger d2 before the schedule levels off
    p = Parameter("p", [0.0])
    state = AdaDeltaState(rho=0.95, eps=1e-6)
    deltas = []
    for _ in range(3):
        before = p.value.copy()
        adadelta_step([p], {p: np.ones(1)}, state)
        deltas.append(float(p.value[0] - before[0]))
    assert abs(deltas[0] - -0.0044720912343108364) < 1e-15
    assert abs(deltas[1] - -0.004529062265533205) < 1e-15
    assert abs(deltas[2] - -0.004567599482426009) < 1e-15
    # the |delta| sequence creeps upward at first: E[dx^2] feeds back into
    # the numerator faster than E[g^2] saturates the denominator
    assert abs(deltas[1]) > abs(deltas[0])
    assert abs(deltas[2]) > abs(deltas[1])


def test_update_direction_opposes_gradient():
    p = Parameter("p", [0.0, 0.0])
    state = AdaDeltaState()
    adadelta_step([p], {p: np.array([3.0, -4.0])}, state)
    assert p.value[0] < 0.0 and p.value[1] > 0.0


def test_nonfinite_gradient_names_parameter():
    p = Parameter("embed.chars", [1.0])
    state = AdaDeltaState()
    with pytest.raises(TrainError, match="embed.chars"):
        adadelta_step([p], {p: np.array([np.nan])}, state)
    with pytest.raises(TrainError, match="embed.chars"):
        adadelta_step([p], {p: np.array([np.inf])}, state)


def test_hyperparameter_validation():
    with pytest.raises(TrainError, match="rho"):
        AdaDeltaState(rho=0.0)
    with pytest.raises(TrainError, match="rho"):
        AdaDeltaState(rho=1.0)
    with pytest.raises(TrainError, match="eps"):
        AdaDeltaState(eps=0.0)
    with pytest.raises(TrainError, match="eps"):
        AdaDeltaState(eps=-1e-6)
    for eps in (np.nan, np.inf):
        with pytest.raises(TrainError, match="eps"):
            AdaDeltaState(eps=eps)


def test_accumulators_keyed_by_object_identity():
    # two parameters with equal names and values must not share accumulators,
    # while one object reached through two references must
    a = Parameter("same", [1.0])
    b = Parameter("same", [1.0])
    state = AdaDeltaState()
    adadelta_step([a], {a: np.ones(1)}, state)
    adadelta_step([b], {b: np.ones(1)}, state)
    assert len(state.sq_grad) == 2
    adadelta_step([a], {a: np.ones(1)}, state)
    assert len(state.sq_grad) == 2


def test_shared_parameter_keeps_single_accumulator():
    shared = Parameter("encoder.W", np.zeros(2))
    views = [shared, shared]
    state = AdaDeltaState()
    adadelta_step([views[0]], {views[0]: np.ones(2)}, state)
    adadelta_step([views[1]], {views[1]: np.ones(2)}, state)
    assert len(state.sq_grad) == 1


def test_l2_term_shrinks_parameter_norm_with_zero_gradient():
    p = Parameter("p", [4.0, -3.0])
    state = AdaDeltaState()
    before = np.linalg.norm(p.value)
    for _ in range(10):
        adadelta_step([p], {p: np.zeros(2)}, state, l2=0.1)
    assert np.linalg.norm(p.value) < before


def test_updates_are_in_place():
    p = Parameter("p", [1.0])
    buf = p.value
    state = AdaDeltaState()
    adadelta_step([p], {p: np.ones(1)}, state)
    assert p.value is buf


# --- flat blocks -------------------------------------------------------------

def _model(seed, **kw):
    return init_model(CharVocab("abcde"), "full", hidden=5, embed_dim=4, seed=seed, **kw)


def _random_grads(params, rng):
    return {p: rng.normal(0.0, 1.0, size=p.value.shape) for p in params}


def _joint_pair():
    base = _model(0)
    encoder = (base.embed, base.enc_fwd, base.enc_bwd)
    return base, [_model(0, shared_encoder=encoder), _model(1, shared_encoder=encoder)]


def test_flat_step_equals_per_parameter_reference():
    # one block over a model's whole theta, five steps with l2 > 0
    flat, ref = _model(3), _model(3)
    block, state, acc = flat.block(), AdaDeltaState(), {}
    rng = np.random.default_rng(0)
    for _ in range(5):
        grads = _random_grads(ref.parameters(), rng)
        reference_adadelta_step(ref.parameters(), grads, acc, l2=1e-3)
        g = np.concatenate([grads[p].reshape(-1) for p in ref.parameters()])
        adadelta_step([block], {block: g}, state, l2=1e-3)
        for a, b in zip(flat.parameters(), ref.parameters()):
            assert np.array_equal(a.value, b.value), a.name
    for table, i in ((state.sq_grad, 0), (state.sq_delta, 1)):
        want = np.concatenate([acc[p][i].reshape(-1) for p in ref.parameters()])
        assert np.array_equal(table[block], want)


def test_flat_step_equals_reference_on_a_joint_shared_encoder_pair():
    # the two tag models step alternately: the shared encoder block and each
    # tag's decoder block keep one accumulator pair each, as per parameter
    flat_base, flat_tags = _joint_pair()
    _, ref_tags = _joint_pair()
    encoder = flat_base.block(SHARED_ATTRS)
    blocks = [[encoder, m.block(DECODER_ATTRS)] for m in flat_tags]
    state, acc = AdaDeltaState(), {}
    rng = np.random.default_rng(1)
    for step in range(5):
        k = step % 2
        params = ref_tags[k].parameters()
        grads = _random_grads(params, rng)
        reference_adadelta_step(params, grads, acc, l2=1e-3)
        g = np.concatenate([grads[p].reshape(-1) for p in params])
        cut = encoder.value.size
        adadelta_step(blocks[k], {blocks[k][0]: g[:cut], blocks[k][1]: g[cut:]}, state,
                      l2=1e-3)
    assert len(state.sq_grad) == 3
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
        adadelta_step([block], {block: g}, AdaDeltaState())
    assert np.array_equal(block.value, before)    # nothing stepped


def test_block_parts_must_tile_its_vector():
    m = _model(0)
    params = m.parameters()
    with pytest.raises(MorphogenError, match="not laid out"):
        Block(m.theta, params[1:])
    with pytest.raises(MorphogenError, match="cover"):
        Block(m.theta, params[:-1])
    tag = _joint_pair()[1][0]
    with pytest.raises(MorphogenError, match="not laid out"):
        tag.block(SHARED_ATTRS)      # the shared tensors live in base's theta
