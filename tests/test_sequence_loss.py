"""forward_variant's one-record sequence path against the per-op path.

Every variant trains through model.forward_variant: an untaped forward over
arrays and a hand-written backward through time, appended to the tape as
one closure. helpers.per_op_loss records the same loss op by op and is the
oracle here: the loss and every gradient must match it bit for bit, with
and without LM interpolation.
"""

import random

import numpy as np
import pytest

from helpers import Tape, backward, per_op_loss, randomize_params, softplus
from morphogen import autodiff as ad
from morphogen import model as mod
from morphogen.errors import DataError, DimensionError, MorphogenError
from morphogen.vocab import BOS, EOS, EPS, CharVocab

VOCAB = CharVocab("abcd")
# (|x|, |y|, hidden, embed_dim) besides the random ones: the shortest source,
# the empty target, hidden 1, and sources longer and shorter than targets
EDGE_SHAPES = [(1, 0, 1, 1), (1, 0, 3, 2), (1, 4, 1, 2), (6, 1, 2, 3), (2, 7, 4, 1)]


def _lm_logprobs(rng, steps):
    """Per-step LM log-probs shaped like lm_next_dist's: BOS and EPS at 0.0."""
    out = []
    for _ in range(steps):
        p = rng.random(len(VOCAB))
        p[[BOS, EPS]] = 0.0
        p /= p.sum()
        p[[BOS, EPS]] = 1.0
        out.append(np.log(p))
    return out


def _cases(variant, interpolated):
    rng = random.Random(f"{variant}-{interpolated}")
    shapes = EDGE_SHAPES + [(rng.randint(1, 6), rng.randint(0, 6), rng.choice([1, 2, 5]),
                             rng.choice([1, 3])) for _ in range(10)]
    for k, (nx, ny, hidden, embed_dim) in enumerate(shapes):
        chars = VOCAB.data_ids()[:2] if k % 3 == 0 else VOCAB.data_ids()  # many repeats
        m = mod.init_model(VOCAB, variant, hidden, embed_dim, seed=k)
        if k % 2:
            randomize_params(m, k)
        x = [rng.choice(chars) for _ in range(nx)]
        y = [rng.choice(chars) for _ in range(ny)]
        lm = _lm_logprobs(np.random.default_rng(k), ny + 1) if interpolated else None
        yield m, x, y, lm, rng.uniform(-1.0, 1.0)


def _run(per_op, m, x, y, lm, lambda_init):
    """(loss bytes, {name: gradient bytes}, tape length) of the sequence path,
    or of the per-op path on a graph tape after softplus of lambda_hat."""
    lam_hat = ad.Parameter("interp.lambda_hat", [lambda_init])
    params = m.parameters() + ([] if lm is None else [lam_hat])
    if per_op:
        tape = Tape()
        lam = None if lm is None else softplus(tape, lam_hat)
        loss = per_op_loss(tape, m, x, y, lm, lam)
        grads = backward(tape, loss, params)
        loss = loss.value[0]
    else:
        tape = []
        loss = mod.forward_variant(tape, m, x, y, lm, None if lm is None else lam_hat)
        grads = ad.backward(tape, {p: np.zeros_like(p.value) for p in params})
    return (np.float64(loss).tobytes(), {p.name: grads[p].tobytes() for p in params},
            len(tape))


@pytest.mark.parametrize("interpolated", [False, True], ids=["plain", "lm"])
@pytest.mark.parametrize("variant", mod.VARIANTS)
def test_sequence_loss_bit_equal_to_per_op_tape(variant, interpolated):
    for m, x, y, lm, lambda_init in _cases(variant, interpolated):
        case = (variant, m.hidden, m.embed_dim, x, y)
        loss, grads, records = _run(False, m, x, y, lm, lambda_init)
        want_loss, want_grads, _ = _run(True, m, x, y, lm, lambda_init)
        assert loss == want_loss, case
        assert grads.keys() == want_grads.keys()
        for name in grads:
            assert grads[name] == want_grads[name], (case, name)
        assert records == 1, case
        lam_hat = None if lm is None else ad.Parameter("lam_hat", [lambda_init])
        value = mod.forward_variant(None, m, x, y, lm, lam_hat)
        assert isinstance(value, float) and np.float64(value).tobytes() == loss, case


@pytest.mark.parametrize("variant", mod.VARIANTS)
def test_forward_variant_records_one_op(variant):
    m = mod.init_model(VOCAB, variant, 3, 2)
    tape = []
    mod.forward_variant(tape, m, VOCAB.encode("abca"), VOCAB.encode("db"))
    assert len(tape) == 1


@pytest.mark.parametrize("variant", mod.VARIANTS)
def test_forward_variant_input_errors(variant):
    m = mod.init_model(VOCAB, variant, 3, 2)
    with pytest.raises(DataError, match="empty input"):
        mod.forward_variant([], m, [], VOCAB.encode("a"))
    for masked in (BOS, EPS):
        with pytest.raises(MorphogenError, match="masked"):
            mod.forward_variant([], m, VOCAB.encode("ab"), [VOCAB.id_of("a"), masked])
    for x, y in (([4], [len(VOCAB) + 2]), ([4], [-1]), ([len(VOCAB)], [4]), ([4, -2], [EOS])):
        with pytest.raises(DimensionError, match="out of range"):
            mod.forward_variant([], m, x, y)


def test_out_of_range_target_is_a_dimension_error():
    vocab = CharVocab("ab")
    m = mod.init_model(vocab, "full", 3)
    with pytest.raises(DimensionError, match="out of range"):
        mod.forward_variant([], m, vocab.encode("ab"), [len(vocab) + 2])
