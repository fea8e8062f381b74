"""Tape-based reverse-mode differentiation over double-precision numpy arrays.

Every differentiable quantity is a Node wrapping an ndarray (vectors for
activations, matrices for weights). Ops take the tape as their first
argument; with tape=None they compute values only, which is what inference
uses. backward() walks the tape once in reverse, so recording order is the
topological order by construction. A record may have several outputs (an
LSTM step yields h and c); it fires when any of them holds a gradient, and
its backward function adds into its inputs through the Sweep it is given.
"""

import numpy as np
from scipy.special import expit

from .errors import DimensionError, MorphogenError

__all__ = [
    "Node",
    "Parameter",
    "Tape",
    "Sweep",
    "constant",
    "affine",
    "matvec",
    "add",
    "sub",
    "mul",
    "concat",
    "sigmoid",
    "tanh",
    "softplus",
    "row",
    "pick",
    "usum",
    "dot",
    "softmax",
    "softmax_op",
    "weighted_sum",
    "cross_entropy_logits",
    "interpolated_cross_entropy",
    "backward",
    "grads_by_name",
    "gradient_check",
]


class Node:
    """A value in the computation graph. grad is filled lazily by backward()."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = value
        self.grad = None

    @property
    def shape(self):
        return self.value.shape


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

    It remembers every node it gave a gradient, so the call can clear them
    all afterwards; a sweep nested inside another keeps its own list.
    """

    __slots__ = ("touched", "_outer")

    def __init__(self):
        self.touched = []
        self._outer = {}   # Parameter -> ([a, ...], [b, ...]) pending outer products

    def acc(self, node, g):
        """Add g to node's gradient."""
        if node.grad is None:
            node.grad = np.array(g)
            self.touched.append(node)
        else:
            node.grad += g

    def grad_buffer(self, node):
        """node's gradient, zero-initialised, for indexed accumulation."""
        if node.grad is None:
            node.grad = np.zeros_like(node.value)
            self.touched.append(node)
        return node.grad

    def acc_outer(self, node, a, b):
        """Add the outer product of vectors a and b to node's gradient.

        Nothing reads a Parameter's gradient before the sweep ends, so for a
        Parameter the pairs are kept and summed by one matrix product in
        finish(); a weight used at every step then costs one product per
        sweep instead of one per step.
        """
        if isinstance(node, Parameter):
            pending = self._outer.setdefault(node, ([], []))
            pending[0].append(a)
            pending[1].append(b)
        else:
            self.acc(node, a[:, None] * b)

    def finish(self):
        """Add the pending outer products to their Parameters."""
        for node, (a, b) in self._outer.items():
            self.acc(node, np.array(a).T @ np.array(b))
        self._outer.clear()


def constant(value):
    return Node(np.asarray(value, dtype=np.float64))


def affine(tape, W, x, b):
    """W @ x + b for a matrix W and vectors x, b."""
    Wv, xv, bv = W.value, x.value, b.value
    if Wv.ndim != 2 or Wv.shape[1] != xv.shape[0] or Wv.shape[0] != bv.shape[0]:
        raise DimensionError(
            f"affine: W{Wv.shape} incompatible with x{xv.shape} and b{bv.shape}"
        )
    out = Node(Wv @ xv + bv)
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.acc_outer(W, g, xv)
            sweep.acc(x, Wv.T @ g)
            sweep.acc(b, g)
        tape.append(out, backward_fn)
    return out


def matvec(tape, W, x):
    Wv, xv = W.value, x.value
    if Wv.ndim != 2 or Wv.shape[1] != xv.shape[0]:
        raise DimensionError(f"matvec: W{Wv.shape} incompatible with x{xv.shape}")
    out = Node(Wv @ xv)
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.acc_outer(W, g, xv)
            sweep.acc(x, Wv.T @ g)
        tape.append(out, backward_fn)
    return out


def _binary_shapes(name, a, b):
    if a.value.shape != b.value.shape and a.value.size != 1 and b.value.size != 1:
        raise DimensionError(f"{name}: shapes {a.value.shape} and {b.value.shape}")


def _acc_bcast(sweep, node, g):
    # reduce the upstream gradient when the operand was broadcast from size 1
    if node.value.size == 1 and g.size != 1:
        sweep.acc(node, np.array([g.sum()]))
    else:
        sweep.acc(node, g)


def add(tape, a, b):
    _binary_shapes("add", a, b)
    out = Node(a.value + b.value)
    if tape is not None:
        def backward_fn(sweep, g):
            _acc_bcast(sweep, a, g)
            _acc_bcast(sweep, b, g)
        tape.append(out, backward_fn)
    return out


def sub(tape, a, b):
    _binary_shapes("sub", a, b)
    out = Node(a.value - b.value)
    if tape is not None:
        def backward_fn(sweep, g):
            _acc_bcast(sweep, a, g)
            _acc_bcast(sweep, b, -g)
        tape.append(out, backward_fn)
    return out


def mul(tape, a, b):
    _binary_shapes("mul", a, b)
    av, bv = a.value, b.value
    out = Node(av * bv)
    if tape is not None:
        def backward_fn(sweep, g):
            _acc_bcast(sweep, a, g * bv)
            _acc_bcast(sweep, b, g * av)
        tape.append(out, backward_fn)
    return out


def concat(tape, parts):
    values = [p.value for p in parts]
    out = Node(np.concatenate(values))
    if tape is not None:
        offsets = np.cumsum([0] + [v.shape[0] for v in values])
        def backward_fn(sweep, g):
            for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                sweep.acc(part, g[lo:hi])
        tape.append(out, backward_fn)
    return out


def sigmoid(tape, x):
    out = Node(expit(x.value))
    if tape is not None:
        ov = out.value
        def backward_fn(sweep, g):
            sweep.acc(x, g * ov * (1.0 - ov))
        tape.append(out, backward_fn)
    return out


def tanh(tape, x):
    out = Node(np.tanh(x.value))
    if tape is not None:
        ov = out.value
        def backward_fn(sweep, g):
            sweep.acc(x, g * (1.0 - ov * ov))
        tape.append(out, backward_fn)
    return out


def softplus(tape, x):
    # log(1 + e^x), computed without overflow for large |x|
    xv = x.value
    out = Node(np.logaddexp(0.0, xv))
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.acc(x, g * expit(xv))
        tape.append(out, backward_fn)
    return out


def row(tape, E, i):
    """Row lookup into an embedding matrix; gradient is a one-row update."""
    Ev = E.value
    if not 0 <= i < Ev.shape[0]:
        raise DimensionError(f"row: index {i} out of range for {Ev.shape}")
    out = Node(Ev[i])
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.grad_buffer(E)[i] += g
        tape.append(out, backward_fn)
    return out


def pick(tape, x, i):
    out = Node(x.value[i:i + 1])
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.grad_buffer(x)[i] += g[0]
        tape.append(out, backward_fn)
    return out


def usum(tape, x):
    out = Node(np.array([x.value.sum()]))
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.acc(x, np.full_like(x.value, g[0]))
        tape.append(out, backward_fn)
    return out


def dot(tape, a, b):
    if a.value.shape != b.value.shape:
        raise DimensionError(f"dot: shapes {a.value.shape} and {b.value.shape}")
    av, bv = a.value, b.value
    out = Node(np.array([av @ bv]))
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.acc(a, g[0] * bv)
            sweep.acc(b, g[0] * av)
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


def softmax(v):
    """Stable softmax of a plain 1-D array; output sums to 1."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise DimensionError("softmax: empty vector")
    return _softmax_lse(v)[0]


def softmax_op(tape, x):
    """Differentiable softmax (used for attention weights)."""
    p = softmax(x.value)
    out = Node(p)
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.acc(x, p * (g - g @ p))
        tape.append(out, backward_fn)
    return out


def weighted_sum(tape, weights, vectors):
    """sum_t weights[t] * vectors[t] for a weight Node and a list of vector Nodes."""
    wv = weights.value
    if wv.shape[0] != len(vectors):
        raise DimensionError(f"weighted_sum: {wv.shape[0]} weights, {len(vectors)} vectors")
    vals = [v.value for v in vectors]
    out = Node(sum(w * v for w, v in zip(wv, vals)))
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.acc(weights, np.array([g @ v for v in vals]))
            for w, v in zip(wv, vectors):
                sweep.acc(v, w * g)
        tape.append(out, backward_fn)
    return out


def masked_softmax(logits, masked_ids=()):
    """Softmax over the last axis with the given ids forced to probability zero."""
    z = np.asarray(logits, dtype=np.float64)
    if len(masked_ids):
        z = z.copy()
        z.T[list(masked_ids)] = -np.inf    # the last axis; cheaper than z[..., ids]
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_logits(tape, logits, target, masked_ids=()):
    """-log softmax(logits)[target] with masked ids excluded and renormalized.

    Fused so a decoder step adds a single record; the backward rule is the
    usual (p - onehot), zero on masked entries.
    """
    lv = logits.value
    if target in masked_ids:
        raise MorphogenError(f"cross_entropy_logits: target {target} is masked")
    p, m, Z = _softmax_lse(lv, masked_ids)
    out = Node(np.array([np.log(Z) + m - lv[target]]))
    if tape is not None:
        def backward_fn(sweep, g):
            gl = g[0] * p
            gl[target] -= g[0]
            sweep.acc(logits, gl)
        tape.append(out, backward_fn)
    return out


def interpolated_cross_entropy(tape, logits, target, log_lm, lam, masked_ids=()):
    """-log of the per-step distribution p_model * p_lm**lam, renormalized.

    log_lm is a constant array of language-model log probabilities aligned
    with the logits; lam is a scalar Node so the interpolation weight itself
    receives a gradient. Masked ids keep probability zero. This stays apart
    from cross_entropy_logits: at lam = 0 a -inf LM log-prob would turn
    lam * log_lm into NaN.
    """
    lv = logits.value
    lamv = float(lam.value[0])
    p, m, Z = _softmax_lse(lv + lamv * log_lm, masked_ids)  # combined distribution
    out = Node(np.array([np.log(Z) + m - lv[target] - lamv * log_lm[target]]))
    if tape is not None:
        safe_log_lm = log_lm.copy()
        if len(masked_ids):
            safe_log_lm[list(masked_ids)] = 0.0
        def backward_fn(sweep, g):
            gl = g[0] * p
            gl[target] -= g[0]
            sweep.acc(logits, gl)
            sweep.acc(lam, np.array([g[0] * (p @ safe_log_lm - log_lm[target])]))
        tape.append(out, backward_fn)
    return out


def backward(tape, loss, params=()):
    """Reverse sweep from a scalar loss; returns {parameter: gradient}.

    params lists the parameters to return gradients for; each gets a new zero
    array to accumulate into, so unreached ones come back as zeros. Given a
    {parameter: zeroed buffer} dict instead, the sweep accumulates into those
    buffers (views into one flat gradient vector, say) and returns the dict.
    Every node that received a gradient is cleared afterwards, including
    leaves outside `params`, so tapes stay independent. A record fires when
    any of its outputs holds a gradient.
    """
    if loss.value.size != 1:
        raise DimensionError(f"backward: loss has shape {loss.value.shape}, expected scalar")
    out = params if isinstance(params, dict) else \
        {p: np.zeros_like(p.value) for p in params}
    sweep = Sweep()
    for p, buf in out.items():
        p.grad = buf
        sweep.touched.append(p)
    loss.grad = np.ones(1)
    try:
        for outputs, backward_fn in reversed(tape._records):
            if len(outputs) == 1:       # most records; spares building a list
                g = outputs[0].grad
                if g is not None:
                    backward_fn(sweep, g)
                continue
            grads = [node.grad for node in outputs]
            if any(g is not None for g in grads):
                backward_fn(sweep, *grads)
        sweep.finish()
        return out
    finally:
        loss.grad = None
        for node in sweep.touched:
            node.grad = None


def grads_by_name(grads):
    return {p.name: g for p, g in grads.items()}


def gradient_check(loss_fn, params, h=1e-4):
    """Max relative error between analytic gradients and central differences.

    loss_fn(tape) must rebuild the graph under the current parameter values
    and return the scalar loss Node; it is called with tape=None for the
    2 * #components value-only evaluations of the central differences.
    """
    params = list(params)
    tape = Tape()
    analytic = backward(tape, loss_fn(tape), params)

    def value():
        return float(loss_fn(None).value[0])

    worst = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        gflat = analytic[p].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = value()
            flat[i] = orig - h
            down = value()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
