"""Tape-based reverse-mode differentiation over double-precision numpy arrays.

Every differentiable quantity is a Node wrapping an ndarray. Training
records each example as one op (model.forward_variant), after softplus of
the LM weight when it learns one; an op takes the tape as its first argument
and with tape=None computes values only. backward() walks the tape once in
reverse, so recording order is the topological order by construction. A
record may have several outputs; it fires when any of them holds a
gradient, and its backward function adds into its inputs through the Sweep
it is given. step_loss, logit_grad and masked_softmax are the array pieces
of a decoder step's loss and distribution.
"""

import numpy as np
from scipy.special import expit

from .errors import DimensionError, MorphogenError

__all__ = [
    "Node",
    "Parameter",
    "Tape",
    "Sweep",
    "softplus",
    "masked_softmax",
    "step_loss",
    "logit_grad",
    "backward",
]


class Node:
    """A value in the computation graph; its gradient lives in the Sweep."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Parameter(Node):
    """A named leaf tensor owned by a model; persists across tapes."""

    __slots__ = ("name",)

    def __init__(self, name, value):
        super().__init__(np.asarray(value, dtype=np.float64))
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Tape:
    """Ordered record of primitive ops; operands always precede consumers.

    A record holds the op's output nodes and its backward function, called
    as backward_fn(sweep, *grads) with one gradient per output (None for an
    output that received none).
    """

    def __init__(self):
        self._records = []

    def append(self, outputs, backward_fn):
        """Record an op; outputs is its Node, or a tuple of Nodes."""
        if isinstance(outputs, Node):
            outputs = (outputs,)
        self._records.append((outputs, backward_fn))

    def __len__(self):
        return len(self._records)


class Sweep:
    """Gradient accumulation for one backward() call.

    grads maps each node reached so far to its gradient. It belongs to the
    call, so nested sweeps keep apart and nothing needs clearing afterwards.
    """

    __slots__ = ("grads", "_outer")

    def __init__(self, grads):
        self.grads = grads
        self._outer = {}   # Parameter -> ([a, ...], [b, ...]) pending outer products

    def acc(self, node, g):
        """Add g to node's gradient."""
        buf = self.grads.get(node)
        if buf is None:
            self.grads[node] = np.array(g)
        else:
            buf += g

    def grad_buffer(self, node):
        """node's gradient, zero-initialised, for indexed accumulation."""
        buf = self.grads.get(node)
        if buf is None:
            buf = self.grads[node] = np.zeros_like(node.value)
        return buf

    def acc_outer(self, node, a, b):
        """Add the outer product of vectors a and b to a Parameter's gradient.

        Nothing reads a Parameter's gradient before the sweep ends, so the
        pairs are kept and summed by one matrix product in finish(); a weight
        used at every step then costs one product per sweep instead of one
        per step.
        """
        pending = self._outer.setdefault(node, ([], []))
        pending[0].append(a)
        pending[1].append(b)

    def acc_outers(self, node, rows_a, rows_b):
        """acc_outer for each pair of rows_a and rows_b, in order."""
        pending = self._outer.setdefault(node, ([], []))
        pending[0].extend(rows_a)
        pending[1].extend(rows_b)

    def finish(self):
        """Add the pending outer products to their Parameters."""
        for node, (a, b) in self._outer.items():
            self.acc(node, np.array(a).T @ np.array(b))


def softplus(tape, x):
    # log(1 + e^x), computed without overflow for large |x|
    xv = x.value
    out = Node(np.logaddexp(0.0, xv))
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.acc(x, g * expit(xv))
        tape.append(out, backward_fn)
    return out


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


def step_loss(lv, target, masked_ids=(), log_lm=None, lam=None):
    """-log softmax(lv)[target] with masked ids excluded and renormalized.

    Given LM log-probs log_lm aligned with the logits lv and a float lam,
    the distribution is p_model * p_lm**lam renormalized. Without log_lm no
    lam * log_lm term is formed: at lam = 0 a -inf LM log-prob would make it
    NaN. Returns (loss, p, dlam): p is the step distribution, so the logits'
    gradient is (p - onehot), and dlam is the loss's derivative in lam
    (None without log_lm).
    """
    if target in masked_ids:
        raise MorphogenError(f"step_loss: target {target} is masked")
    if log_lm is None:
        p, m, Z = _softmax_lse(lv, masked_ids)
        return np.log(Z) + m - lv[target], p, None
    p, m, Z = _softmax_lse(lv + lam * log_lm, masked_ids)  # combined distribution
    safe_log_lm = log_lm.copy()
    safe_log_lm[list(masked_ids)] = 0.0
    return (np.log(Z) + m - lv[target] - lam * log_lm[target], p,
            p @ safe_log_lm - log_lm[target])


def logit_grad(g, p, target):
    """The gradient g * (p - onehot(target)) of a step loss's logits."""
    gl = g * p
    gl[target] -= g
    return gl


def backward(tape, loss, params=()):
    """Reverse sweep from a scalar loss; returns {parameter: gradient}.

    params lists the parameters to return gradients for; each gets a new zero
    array to accumulate into, so unreached ones come back as zeros. Given a
    {parameter: zeroed buffer} dict instead, the sweep accumulates into those
    buffers (views into one flat gradient vector, say) and returns the dict.
    Every other gradient stays in this call's Sweep, so tapes and nested
    sweeps stay independent. A record fires when any of its outputs holds a
    gradient.
    """
    if loss.value.size != 1:
        raise DimensionError(f"backward: loss has shape {loss.value.shape}, expected scalar")
    out = params if isinstance(params, dict) else \
        {p: np.zeros_like(p.value) for p in params}
    grads = {**out, loss: np.ones(1)}
    sweep = Sweep(grads)
    for outputs, backward_fn in reversed(tape._records):
        if len(outputs) == 1:       # most records; spares building a list
            g = grads.get(outputs[0])
            if g is not None:
                backward_fn(sweep, g)
        elif any(node in grads for node in outputs):
            backward_fn(sweep, *[grads.get(node) for node in outputs])
    sweep.finish()
    return out
