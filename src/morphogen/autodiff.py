"""Reverse-mode differentiation by backward closures over float64 arrays.

A tape is a plain list: a function given one appends backward_fn(grads) to
it (training appends one per example, model.forward_variant), and given
None computes values only. backward() calls the closures last-first; each
adds straight into grads, the caller's {Parameter: zeroed buffer} map.
step_loss and logit_grad are the array pieces of a training step's loss,
log_softmax the search's one normalization of a decoder step's scores,
masked_softmax the softmax that attention weights its source with.
"""

import numpy as np

from .errors import MorphogenError, SearchError

__all__ = [
    "Parameter",
    "masked_softmax",
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


def _softmax_lse(z, masked_ids=()):
    """Stable softmax of z with masked ids at probability zero.

    Returns (p, m, Z) with log-sum-exp over the unmasked entries equal to
    log(Z) + m; z itself is left untouched.
    """
    if len(masked_ids):
        z = z.copy()
        z[list(masked_ids)] = -np.inf
    m = z.max()
    e = np.exp(z - m)
    Z = e.sum()
    return e / Z, m, Z


def masked_softmax(logits, masked_ids=()):
    """Softmax over the last axis with the given ids forced to probability zero."""
    z = np.asarray(logits, dtype=np.float64)
    if len(masked_ids):
        z = z.copy()
        z.T[list(masked_ids)] = -np.inf    # the last axis; cheaper than z[..., ids]
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


def step_loss(lv, target, masked_ids=(), log_lm=None, lam=None):
    """-log softmax(lv)[target] with masked ids excluded and renormalized.

    Given LM log-probs log_lm aligned with the logits lv and a float lam,
    the distribution is p_model * p_lm**lam renormalized. The masked ids'
    LM log-probs (-inf in an LM row) enter lam * log_lm as zeros, since the
    softmax masks those ids anyway: at lam = 0 a -inf would make it NaN.
    Returns (loss, p, dlam): p is the step distribution, so the logits'
    gradient is (p - onehot), and dlam is the loss's derivative in lam
    (None without log_lm).
    """
    if target in masked_ids:
        raise MorphogenError(f"step_loss: target {target} is masked")
    if log_lm is None:
        p, m, Z = _softmax_lse(lv, masked_ids)
        return np.log(Z) + m - lv[target], p, None
    safe_log_lm = log_lm.copy()
    safe_log_lm[list(masked_ids)] = 0.0
    p, m, Z = _softmax_lse(lv + lam * safe_log_lm, masked_ids)  # combined distribution
    return (np.log(Z) + m - lv[target] - lam * log_lm[target], p,
            p @ safe_log_lm - log_lm[target])


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
