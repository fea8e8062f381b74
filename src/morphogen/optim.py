"""AdaDelta over contiguous parameter blocks, with an optional L2 gradient term."""

import math

import numpy as np

from .errors import MorphogenError, TrainError

__all__ = ["Block", "AdaDeltaState", "adadelta_step"]


class Block:
    """Parameters stored back to back in one contiguous vector, stepped as one.

    value is the vector (a slice of a model's theta) and parts the Parameters
    whose values are views into it, in order. A bare Parameter serves as a
    block of one.
    """

    __slots__ = ("value", "parts")

    def __init__(self, value, parts):
        offset = 0
        for p in parts:
            size = p.value.size
            if not (p.value.flags.c_contiguous and
                    _address(p.value) == _address(value[offset:offset + size])):
                raise MorphogenError(f"block: parameter {p.name!r} is not laid out in the block")
            offset += size
        if offset != value.size:
            raise MorphogenError(f"block: parts cover {offset} of {value.size} values")
        self.value = value
        self.parts = list(parts)


def _address(a):
    return a.__array_interface__["data"][0]


class AdaDeltaState:
    """Running E[g^2] and E[dx^2] accumulators, one pair per block.

    Keyed by block object, so a block seen through several models (a jointly
    trained encoder) keeps a single accumulator pair.
    """

    def __init__(self, rho=0.95, eps=1e-6):
        if not 0.0 < rho < 1.0:
            raise TrainError(f"adadelta: rho must be in (0,1), got {rho}")
        if not 0.0 < eps < math.inf:
            raise TrainError(f"adadelta: eps must be positive and finite, got {eps}")
        self.rho = rho
        self.eps = eps
        self.sq_grad = {}
        self.sq_delta = {}
        self._scratch = {}

    def _slots(self, block):
        sq_g = self.sq_grad.get(block)
        if sq_g is None:
            shape = block.value.shape
            sq_g = self.sq_grad[block] = np.zeros(shape)
            self.sq_delta[block] = np.zeros(shape)
            self._scratch[block] = (np.empty(shape), np.empty(shape), np.empty(shape))
        return (sq_g, self.sq_delta[block]) + self._scratch[block]


def adadelta_step(blocks, grads, state, l2=0.0):
    """One in-place AdaDelta update over the given blocks.

    grads maps each block to its gradient, an array of the block's shape.
    The L2 term l2 * theta is added to the gradient before the accumulator
    updates. Every expression keeps the operation order of the textbook
    per-tensor update, so stepping one flat vector gives the same bits as
    stepping its parameters one by one.
    """
    for b in blocks:
        if not np.isfinite(grads[b]).all():
            raise TrainError(f"adadelta: non-finite gradient for parameter "
                             f"{_first_non_finite(b, grads[b])!r}")
    rho, eps = state.rho, state.eps
    for b in blocks:
        g, theta = grads[b], b.value
        sq_g, sq_d, g_l2, tmp, step = state._slots(b)
        if l2 != 0.0:
            np.multiply(l2, theta, out=g_l2)
            g = np.add(g, g_l2, out=g_l2)                # g + l2 * theta
        sq_g *= rho
        np.multiply(1.0 - rho, g, out=tmp)
        tmp *= g
        sq_g += tmp                                      # += ((1 - rho) * g) * g
        # step = sqrt((sq_d + eps) / (sq_g + eps)) * g, the negated delta:
        # negation is exact, so theta -= step equals theta += delta bit for bit
        np.add(sq_d, eps, out=tmp)
        np.add(sq_g, eps, out=step)
        np.divide(tmp, step, out=step)
        np.sqrt(step, out=step)
        step *= g
        sq_d *= rho
        np.multiply(1.0 - rho, step, out=tmp)
        tmp *= step
        sq_d += tmp                                      # += ((1 - rho) * delta) * delta
        theta -= step


def _first_non_finite(block, g):
    """Name of the parameter holding the first non-finite entry of g."""
    i = int(np.flatnonzero(~np.isfinite(g))[0])
    for p in getattr(block, "parts", (block,)):
        if i < p.value.size:
            return p.name
        i -= p.value.size
