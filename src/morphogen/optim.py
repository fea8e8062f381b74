"""AdaDelta over contiguous parameter blocks, with an optional L2 gradient term."""

import numpy as np

from .errors import MorphogenError, TrainError

__all__ = ["RHO", "EPS", "Block", "adadelta_step"]

RHO = 0.95   # decay of AdaDelta's running averages
EPS = 1e-6   # AdaDelta's conditioning constant


class Block:
    """Parameters stored back to back in one contiguous vector, stepped as one.

    value is the vector (a slice of a model's theta) and parts the Parameters
    whose values are views into it, in order. The block owns its gradient
    grad, laid out like value, with part_grads one view of it per part in
    parts order, and AdaDelta's running E[g^2] and E[dx^2] (sq_grad,
    sq_delta). A block seen through several models (a jointly trained
    encoder) is one object, so it keeps a single accumulator pair.
    """

    __slots__ = ("value", "parts", "grad", "part_grads", "sq_grad", "sq_delta", "_scratch")

    def __init__(self, value, parts):
        self.grad = np.zeros(value.shape)
        flat_grad = self.grad.reshape(-1)
        self.part_grads = []
        offset = 0
        for p in parts:
            size = p.value.size
            if not (p.value.flags.c_contiguous and
                    _address(p.value) == _address(value[offset:offset + size])):
                raise MorphogenError(f"block: parameter {p.name!r} is not laid out in the block")
            self.part_grads.append(flat_grad[offset:offset + size].reshape(p.value.shape))
            offset += size
        if offset != value.size:
            raise MorphogenError(f"block: parts cover {offset} of {value.size} values")
        self.value = value
        self.parts = list(parts)
        self.sq_grad = np.zeros(value.shape)
        self.sq_delta = np.zeros(value.shape)
        self._scratch = tuple(np.empty(value.shape) for _ in range(3))


def _address(a):
    return a.__array_interface__["data"][0]


def adadelta_step(blocks, l2=0.0):
    """One in-place AdaDelta update of each block from its grad.

    The L2 term l2 * theta is added to the gradient before the accumulator
    updates. Every expression keeps the operation order of the textbook
    per-tensor update, so stepping one flat vector gives the same bits as
    stepping its parameters one by one. A non-finite gradient in any block
    raises before anything is updated.
    """
    for b in blocks:
        if not np.isfinite(b.grad).all():
            name = next(p.name for p, g in zip(b.parts, b.part_grads)
                        if not np.isfinite(g).all())
            raise TrainError(f"adadelta: non-finite gradient for parameter {name!r}")
    for b in blocks:
        g, theta, sq_g, sq_d = b.grad, b.value, b.sq_grad, b.sq_delta
        g_l2, tmp, step = b._scratch
        if l2 != 0.0:
            np.multiply(l2, theta, out=g_l2)
            g = np.add(g, g_l2, out=g_l2)                # g + l2 * theta
        sq_g *= RHO
        np.multiply(1.0 - RHO, g, out=tmp)
        tmp *= g
        sq_g += tmp                                      # += ((1 - rho) * g) * g
        # step = sqrt((sq_d + eps) / (sq_g + eps)) * g, the negated delta:
        # negation is exact, so theta -= step equals theta += delta bit for bit
        np.add(sq_d, EPS, out=tmp)
        np.add(sq_g, EPS, out=step)
        np.divide(tmp, step, out=step)
        np.sqrt(step, out=step)
        step *= g
        sq_d *= RHO
        np.multiply(1.0 - RHO, step, out=tmp)
        tmp *= step
        sq_d += tmp                                      # += ((1 - rho) * delta) * delta
        theta -= step
