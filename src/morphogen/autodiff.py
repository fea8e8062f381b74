"""Reverse-mode differentiation by backward closures over float64 arrays.

A tape is a plain list: a function given one appends backward_fn(grads) to
it (training appends one per example, model.forward_variant), and given
None computes values only. backward() calls the closures last-first; each
adds straight into grads, the caller's {Parameter: zeroed buffer} map.
step_loss and logit_grad are the array pieces of a training step's loss,
log_softmax the search's one normalization of a decoder step's scores,
softmax the one that attention weights its source with. A masked id is a
-inf logit (the model's output bias puts it there), which every softmax
here takes to probability zero.
"""

import numpy as np

from .errors import SearchError

__all__ = [
    "Parameter",
    "softmax",
    "log_softmax",
    "step_loss",
    "logit_grad",
    "backward",
]


class Parameter:
    """A named tensor owned by a model; its gradient lives in a caller's buffer."""

    __slots__ = ("value", "name")

    def __init__(self, name, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def _softmax_lse(z):
    """Stable softmax of z -> (p, m, Z), with log-sum-exp(z) = log(Z) + m."""
    m = z.max()
    e = np.exp(z - m)
    Z = e.sum()
    return e / Z, m, Z


def softmax(z):
    """Softmax over the last axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z, empty=None):
    """Log-softmax over the last axis; -inf entries (masked ids) stay -inf.
    Every row needs a finite entry: given a message `empty`, a row without
    one raises SearchError(empty), found from the row max the log-softmax
    subtracts anyway."""
    m = z.max(axis=-1, keepdims=True)
    if empty is not None and (m == -np.inf).any():
        raise SearchError(empty)
    z = z - m
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


def step_loss(lv, target, log_lm=None, lam=None):
    """-log softmax(lv)[target]; a -inf logit is an id the step never emits.

    Given LM log-probs log_lm aligned with the logits lv and a float lam,
    the distribution is p_model * p_lm**lam renormalized. log_lm must be
    finite, as search.lm_next_dist's is (0.0 where the logits are -inf),
    so lv + lam * log_lm keeps lv's -inf entries and no other, lam = 0
    included. Returns (loss, p, dlam): p is the step distribution, so the
    logits' gradient is (p - onehot), and dlam is the loss's derivative in
    lam (None without log_lm).
    """
    if log_lm is None:
        p, m, Z = _softmax_lse(lv)
        return np.log(Z) + m - lv[target], p, None
    p, m, Z = _softmax_lse(lv + lam * log_lm)    # the combined distribution
    return (np.log(Z) + m - lv[target] - lam * log_lm[target], p,
            p @ log_lm - log_lm[target])


def logit_grad(g, p, target):
    """The gradient g * (p - onehot(target)) of a step loss's logits."""
    gl = g * p
    gl[target] -= g
    return gl


def backward(tape, grads):
    """Call the tape's closures last-first with grads; returns grads.

    grads maps every Parameter the closures reach to a zeroed buffer of its
    shape (views into one flat vector, say), which they add into.
    """
    for backward_fn in reversed(tape):
        backward_fn(grads)
    return grads
