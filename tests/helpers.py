"""Shared fixtures-in-code for the test suite."""

import ctypes
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit, logsumexp

from morphogen import autodiff as ad
from morphogen import lstm, search
from morphogen import model as mod
from morphogen.charlm import BOW, EOW, train_lm
from morphogen.errors import DimensionError
from morphogen.model import DecodeSession, forward_variant
from morphogen.reranker import RerankGroup
from morphogen.vocab import BOS, EOS, EPS, N_SPECIAL, UNK


def randomize_params(model, seed, scale=0.5):
    """Overwrite every parameter with seeded N(0, scale) values.

    Fresh-init models sit at a point where several LSTM gradient paths are
    structurally attenuated (forget gates at t=1 see c0=0), leaving true
    gradients near 1e-9 where central differences are pure float noise. A
    generic random point keeps all paths live, so finite-difference checks
    measure the differentiation code rather than the noise floor.
    """
    rng = np.random.default_rng(seed)
    for p in sorted(model.parameters(), key=lambda p: p.name):
        p.value[...] = rng.normal(0.0, scale, size=p.value.shape)   # stays a view into theta
    return model


def assert_within_ulp(got, want, ulps=4, near_zero=1e-15):
    """Every finite entry of got within `ulps` units in the last place of
    want's, or within near_zero of it absolutely (near 0, where a cancelling
    sum leaves fewer significant bits than its terms had); infinities equal."""
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    got, want = got[finite], want[finite]
    tol = np.maximum(ulps * np.spacing(np.abs(want)), near_zero)
    assert np.all(np.abs(got - want) <= tol), np.max(np.abs(got - want) / tol)


def _cv_word(rng):
    return "".join(rng.choice("klnst") + rng.choice("aou")
                   for _ in range(rng.randint(3, 6)))


def separable_rerank_fixture():
    """Groups where only the LM separates gold from a systematic corruption.

    The corruption permutes vowels and consonants, preserving length, edit
    profile and (non-)affix overlap with the source, so every feature except
    the LM score is identical across the pair.
    """
    rng = random.Random(3)
    vmap = {"a": "o", "o": "u", "u": "a"}
    cmap = {"k": "n", "n": "s", "s": "t", "t": "l", "l": "k"}
    groups = []
    golds = []
    for _ in range(12):
        gold = _cv_word(rng)
        golds.append(gold)
        alt = "".join(vmap[ch] if ch in vmap else cmap[ch] for ch in gold)
        source = "x" * len(gold)
        groups.append(RerankGroup(source, gold, ((alt, -1.0), (gold, -1.0))))
    lm = train_lm(golds + ["kata", "nolu", "sotu"], order=3)
    return groups, lm


def levenshtein_matrix_oracle(a, b):
    """Full-matrix edit distance, independent of the package's two-row DP."""
    m = np.zeros((len(a) + 1, len(b) + 1), dtype=int)
    m[:, 0] = np.arange(len(a) + 1)
    m[0, :] = np.arange(len(b) + 1)
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            m[i, j] = min(m[i - 1, j] + 1,
                          m[i, j - 1] + 1,
                          m[i - 1, j - 1] + (a[i - 1] != b[j - 1]))
    return int(m[len(a), len(b)])


# --- the graph tape ------------------------------------------------------------
# General reverse mode over Nodes: records with one or several outputs, each
# fired when any of its outputs holds a gradient, swept from a scalar loss
# seeded with gradient 1. The product's tape is a list of closures that add
# into Parameters only (autodiff.backward); the per-op oracle below needs
# gradients on intermediate values too.

class Node:
    """A value in the computation graph; its gradient lives in the sweep."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Tape:
    """Ordered record of ops; operands always precede consumers.

    A record holds the op's output nodes and its backward function, called
    as backward_fn(sweep, *grads) with one gradient per output (None for an
    output that received none).
    """

    def __init__(self):
        self.records = []

    def append(self, outputs, backward_fn):
        """Record an op; outputs is its Node, or a tuple of Nodes."""
        if isinstance(outputs, Node):
            outputs = (outputs,)
        self.records.append((outputs, backward_fn))

    def __len__(self):
        return len(self.records)


class _Grads(dict):
    """A {node: gradient} map that gives a node a zero buffer when first read."""

    def __missing__(self, node):
        buf = self[node] = np.zeros_like(node.value)
        return buf


class GraphSweep:
    """Gradient accumulation for one sweep into grads, a {node: buffer} map.

    acc_outer queues outer products; finish() adds each weight's as one
    matrix product over its rows in queue order, after every direct add, so
    a weight that a per-step record reaches at every step gets the bits of
    forward_variant's single product per weight.
    """

    __slots__ = ("grads", "_outer")

    def __init__(self, grads):
        self.grads = grads
        self._outer = {}   # node -> ([a, ...], [b, ...]) pending outer products

    def acc(self, node, g):
        """Add g to node's gradient; the first add becomes its buffer."""
        buf = self.grads.get(node)
        if buf is None:
            self.grads[node] = np.array(g)
        else:
            buf += g

    def acc_outer(self, node, a, b):
        """Queue the outer product of vectors a and b for node's gradient."""
        pending = self._outer.setdefault(node, ([], []))
        pending[0].append(a)
        pending[1].append(b)

    def finish(self):
        """Add the queued outer products, one matrix product per node."""
        for node, (a, b) in self._outer.items():
            self.acc(node, np.array(a).T @ np.array(b))


def backward(tape, loss, params=()):
    """Reverse sweep of a Tape from a scalar loss Node; returns {parameter:
    gradient}.

    params lists the parameters to return gradients for; each gets a new zero
    array to accumulate into, so unreached ones come back as zeros. Every
    other gradient stays in this call's sweep, so tapes and nested sweeps
    stay independent.
    """
    if loss.value.size != 1:
        raise DimensionError(f"backward: loss has shape {loss.value.shape}, expected scalar")
    out = {p: np.zeros_like(p.value) for p in params}
    grads = _Grads({**out, loss: np.ones(1)})
    sweep = GraphSweep(grads)
    for outputs, backward_fn in reversed(tape.records):
        if any(node in grads for node in outputs):
            backward_fn(sweep, *[grads.get(node) for node in outputs])
    sweep.finish()
    return out


def forward_record(tape, params, x_ids, y_ids, lm_logprobs=None, lam_hat=None):
    """model.forward_variant as a Tape record with a loss Node, for gradient
    checks; the loss must be the root the sweep starts from."""
    closures = None if tape is None else []
    loss = Node(np.array([forward_variant(closures, params, x_ids, y_ids, lm_logprobs,
                                          lam_hat)]))
    if tape is not None:
        tape.append(loss, lambda sweep, g: closures[0](sweep.grads))
    return loss


# --- primitive tape ops -------------------------------------------------------
# Ops in the graph tape's conventions (value and backward for each); the
# per-op training path and the composed references below are chains of them,
# and test_autodiff checks each one on its own.

def constant(value):
    return Node(np.asarray(value, dtype=np.float64))


def softplus(tape, x):
    # log(1 + e^x), computed without overflow for large |x|
    xv = x.value
    out = Node(np.logaddexp(0.0, xv))
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.acc(x, g * expit(xv))
        tape.append(out, backward_fn)
    return out


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


def total(tape, parts):
    """Sum of same-shape Nodes, added left to right, as one record."""
    value = parts[0].value
    for part in parts[1:]:
        if part.value.shape != value.shape:
            raise DimensionError(f"total: shapes {value.shape} and {part.value.shape}")
        value = value + part.value
    out = Node(value)
    if tape is not None:
        def backward_fn(sweep, g):
            for part in parts:
                sweep.acc(part, g)
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


def row(tape, E, i):
    """Row lookup into an embedding matrix; gradient is a one-row update."""
    Ev = E.value
    if not 0 <= i < Ev.shape[0]:
        raise DimensionError(f"row: index {i} out of range for {Ev.shape}")
    out = Node(Ev[i])
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.grads[E][i] += g
        tape.append(out, backward_fn)
    return out


def output_loss(tape, W, h, b, target, masked_ids=(), log_lm=None, lam=None):
    """ad.step_loss of the logits W @ h + b, -inf at masked_ids: a decoder
    step's output layer and loss as one record. lam is a scalar Node and
    gets a gradient too."""
    Wv, hv, bv = W.value, h.value, b.value
    if Wv.ndim != 2 or Wv.shape[1] != hv.shape[0] or Wv.shape[0] != bv.shape[0]:
        raise DimensionError(f"output_loss: W{Wv.shape} does not fit h{hv.shape}, b{bv.shape}")
    logits = Wv @ hv + bv
    logits[list(masked_ids)] = -np.inf
    loss, p, dlam = ad.step_loss(logits, target, log_lm,
                                 None if log_lm is None else float(lam.value[0]))
    out = Node(np.array([loss]))
    if tape is not None:
        def backward_fn(sweep, g):
            gl = ad.logit_grad(g[0], p, target)
            if log_lm is not None:
                sweep.acc(lam, np.array([g[0] * dlam]))
            sweep.acc_outer(W, gl, hv)
            sweep.acc(h, Wv.T @ gl)
            sweep.acc(b, gl)
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


def _same_shape(name, a, b):
    if a.value.shape != b.value.shape:
        raise DimensionError(f"{name}: shapes {a.value.shape} and {b.value.shape}")


def sub(tape, a, b):
    _same_shape("sub", a, b)
    out = Node(a.value - b.value)
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.acc(a, g)
            sweep.acc(b, -g)
        tape.append(out, backward_fn)
    return out


def mul(tape, a, b):
    _same_shape("mul", a, b)
    av, bv = a.value, b.value
    out = Node(av * bv)
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.acc(a, g * bv)
            sweep.acc(b, g * av)
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


def pick(tape, x, i):
    out = Node(x.value[i:i + 1])
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.grads[x][i] += g[0]
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


def softmax(v):
    """Stable softmax of a plain 1-D array; output sums to 1."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise DimensionError("softmax: empty vector")
    return ad._softmax_lse(v)[0]


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


# --- gradient checks ----------------------------------------------------------

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


def check_model_gradients(params, x_ids, y_ids, h=1e-4):
    """Finite-difference verification of the full training gradient."""
    def loss_fn(tape):
        return forward_record(tape, params, x_ids, y_ids)
    return gradient_check(loss_fn, params.parameters(), h=h)


def dispatch_target():
    """The dispatch target this process computes on: NumPy's enabled SIMD
    features and the core that NumPy's bundled OpenBLAS picked. Both are
    wheel internals, so each reads "unknown" when it cannot be read."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        simd = " ".join(name for name, enabled in __cpu_features__.items() if enabled)
    except ImportError:
        simd = "unknown"
    try:
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        corename = ctypes.CDLL(str(next(libs.glob("libscipy_openblas64_*.so")))) \
            .scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        blas = corename().decode()
    except (StopIteration, OSError, AttributeError):
        blas = "unknown"
    return f"NumPy SIMD [{simd}], OpenBLAS core {blas}"


def pinned_message():
    """The failure message of a test that compares with recorded digests."""
    return ("the digests were recorded with OpenBLAS core SkylakeX and NumPy's AVX-512 "
            "(X86_V4) loops; another target rounds differently and has none recorded "
            "(OPENBLAS_CORETYPE=Haswell or NPY_DISABLE_CPU_FEATURES=\"AVX512_SPR AVX512_ICL "
            f"X86_V4\" forces one). This process: {dispatch_target()}")


def models_equal(a, b):
    """Same configuration, vocabulary and tensor values."""
    if (a.variant, a.hidden, a.embed_dim, a.vocab.data_chars) != \
            (b.variant, b.hidden, b.embed_dim, b.vocab.data_chars):
        return False
    bp = {p.name: p.value for p in b.parameters()}
    return all(np.array_equal(p.value, bp[p.name]) for p in a.parameters())


# --- the taped LSTM -------------------------------------------------------
# lstm.lstm_step as one tape record over Node states, with a hand-written
# backward on the fused [4n] gate vector, and the encoder built from it: the
# per-op training path's recurrent ops.

@dataclass
class LSTMState:
    h: Node
    c: Node


def zero_state(hidden_size):
    return LSTMState(h=constant(np.zeros(hidden_size)), c=constant(np.zeros(hidden_size)))


def cell_step(params, x, h, c):
    """lstm.lstm_step on an input vector x, its projection x @ W_x.T + b
    formed as lstm.run_cached forms it."""
    return lstm.lstm_step(params, x @ params.W_x.value.mT + params.b.value, h, c)


def taped_lstm_step(tape, params, x, prev):
    """lstm.lstm_step on a state of Nodes, recorded as one op with outputs h and c."""
    n = params.hidden_size
    n3 = 3 * n
    xv, hv, cv = x.value, prev.h.value, prev.c.value
    if xv.shape[0] != params.input_size:
        raise DimensionError(
            f"lstm {params.name}: input {xv.shape} vs expected ({params.input_size},)")
    h, c, sig, g, tc = cell_step(params, xv, hv, cv)
    h, c = Node(h), Node(c)
    if tape is not None:
        W_x, W_h, b = params.W_x, params.W_h, params.b
        i, f, o = sig[:n], sig[n:2 * n], sig[2 * n:]

        def backward_fn(sweep, gh, gc):
            # dc sums both paths into c': directly, and through h' = o*tanh(c')
            if gh is None:
                dc, do = gc, np.zeros_like(gc)
            else:
                dc = gh * o * (1.0 - tc * tc)
                if gc is not None:
                    dc += gc
                do = gh * tc
            dz = np.concatenate((dc * g, dc * cv, do, dc * i))
            dz[:n3] *= sig * (1.0 - sig)
            dz[n3:] *= 1.0 - g * g
            sweep.acc_outer(W_x, dz, xv)
            sweep.acc(x, W_x.value.T @ dz)
            sweep.acc(b, dz)
            sweep.acc_outer(W_h, dz, hv)
            sweep.acc(prev.h, W_h.value.T @ dz)
            sweep.acc(prev.c, dc * f)
        tape.append((h, c), backward_fn)
    return LSTMState(h=h, c=c)


def run_sequence(tape, params, xs):
    """States for every step of xs, from the zero state."""
    if not xs:
        raise DimensionError(f"lstm {params.name}: empty input sequence")
    state = zero_state(params.hidden_size)
    states = []
    for x in xs:
        state = taped_lstm_step(tape, params, x, state)
        states.append(state)
    return states


def taped_encode_bidirectional(tape, fwd, bwd, xs):
    """Both passes' hidden states at every source position, as Node pairs:
    positions[t] = (fwd h_t, bwd h_t); the final states are positions[-1][0]
    and positions[0][1]."""
    fwd_states = run_sequence(tape, fwd, xs)
    bwd_states = run_sequence(tape, bwd, list(reversed(xs)))
    return [(f.h, b.h) for f, b in zip(fwd_states, bwd_states[::-1])]


# --- composed references for the fused recurrent ops ----------------------
# The cell and the attention context as chains of primitive tape ops, one
# record per primitive: slower, but each piece is checked on its own, so
# they serve as oracles for taped_lstm_step and attention_record below.

def reference_lstm_step(tape, params, x, prev):
    n = params.hidden_size
    if x.value.shape[0] != params.input_size:
        raise DimensionError(
            f"lstm {params.name}: input {x.value.shape} vs expected ({params.input_size},)")
    z = total(tape, [affine(tape, params.W_x, x, params.b), matvec(tape, params.W_h, prev.h)])
    i = sigmoid(tape, _block(tape, z, 0, n))
    f = sigmoid(tape, _block(tape, z, 1, n))
    o = sigmoid(tape, _block(tape, z, 2, n))
    g = tanh(tape, _block(tape, z, 3, n))
    c = total(tape, [mul(tape, f, prev.c), mul(tape, i, g)])
    h = mul(tape, o, tanh(tape, c))
    return LSTMState(h=h, c=c)


def _block(tape, z, k, n):
    out = Node(z.value[k * n:(k + 1) * n])
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.grads[z][k * n:(k + 1) * n] += g
        tape.append(out, backward_fn)
    return out


def reference_attention_context(tape, params, source, s_prev):
    hidden_seq = [concat(tape, pair) for pair in source.positions]
    key = matvec(tape, params.attn_W_dec, s_prev)
    scores = [dot(tape, params.attn_v,
                  tanh(tape, total(tape, [matvec(tape, params.attn_W_enc, h), key])))
              for h in hidden_seq]
    weights = softmax_op(tape, concat(tape, scores))
    return weighted_sum(tape, weights, hidden_seq)


# --- the per-op training path ----------------------------------------------
# forward_variant recorded op by op: a tape record per embedding lookup, cell
# step, concat, e's transform, attention context and step loss.
# model.forward_variant itself records an example as one op and must match
# this loss and every gradient bit for bit.

def node_source(params, x_ids, positions):
    """A model._Source over per-position (fwd h, bwd h) Node pairs, which it
    keeps for attention_record's backward."""
    source = mod._Source(params, list(x_ids),
                         H=np.array([np.concatenate((f.value, b.value)) for f, b in positions]))
    source.positions = positions
    return source


def attention_record(tape, params, source, s_prev):
    """model.attention_context of a state Node s_prev as one tape record whose
    backward reaches every position's state in source.positions."""
    W_enc, W_dec, v = params.attn_W_enc, params.attn_W_dec, params.attn_v
    H, sv = source.H, s_prev.value
    context, weights, act = mod.attention_context(params, source, sv)
    out = Node(context)
    if tape is not None:
        def backward_fn(sweep, g):
            gw = H @ g
            gscores = weights * (gw - gw @ weights)
            sweep.acc(v, act.T @ gscores)
            gpre = gscores[:, None] * v.value * (1.0 - act * act)
            gkey = gpre.sum(axis=0)
            sweep.acc_outer(W_dec, gkey, sv)
            sweep.acc(s_prev, W_dec.value.T @ gkey)
            sweep.acc(W_enc, gpre.T @ H)
            gH = weights[:, None] * g + gpre @ W_enc.value
            for (f, b), gh in zip(source.positions, gH):
                sweep.acc(f, gh[:params.hidden])
                sweep.acc(b, gh[params.hidden:])
        tape.append(out, backward_fn)
    return out


def decoder_step(tape, params, source, state, y_prev_id, t):
    """Advance the decoder LSTM one step on [e|context, y_prev, x_t]."""
    w = params.wiring
    # y_prev is embedded first whatever its place in the input: the order of
    # tape records fixes the order in which gradients accumulate.
    parts = [row(tape, params.embed, y_prev_id)]
    if w.e_per_step:
        parts.insert(0, source.e)
    elif w.attention:
        parts.insert(0, attention_record(tape, params, source, state.h))
    if w.consumes_source:
        x = source.x_ids
        parts.append(row(tape, params.embed, x[t] if t < len(x) else EPS))
    inp = parts[0] if len(parts) == 1 else concat(tape, parts)
    return taped_lstm_step(tape, params.dec, inp, state)


def node_encode(tape, params, x_ids):
    """model._encode_source op by op; with a transform, source.e is a Node."""
    x_ids = list(x_ids)
    w = params.wiring
    if not w.encoder:
        return mod._Source(params, x_ids)
    xs = [row(tape, params.embed, i) for i in x_ids]
    positions = taped_encode_bidirectional(tape, params.enc_fwd, params.enc_bwd, xs)
    if w.attention:
        return node_source(params, x_ids, positions)
    source = mod._Source(params, x_ids)
    e_raw = concat(tape, [positions[-1][0], positions[0][1]])   # [fwd h_T ; bwd h_1]
    source.e = affine(tape, params.trans_W, e_raw, params.trans_b)
    return source


def per_op_loss(tape, params, x_ids, y_ids, lm_logprobs=None, lam=None):
    """forward_variant op by op: a record per lookup, cell step, concat,
    attention context and loss."""
    source = node_encode(tape, params, x_ids)
    targets = list(y_ids) + [EOS]
    if params.wiring.e_as_init:
        state = LSTMState(h=source.e, c=constant(np.zeros(params.hidden)))
    else:
        state = zero_state(params.hidden)
    step_losses = []
    for t, target in enumerate(targets):    # a step past EOS would feed no loss
        y_prev = BOS if t == 0 else targets[t - 1]
        state = decoder_step(tape, params, source, state, y_prev, t)
        step_losses.append(output_loss(
            tape, params.out_W, state.h, params.out_b, target, mod.MASKED_OUTPUT_IDS,
            None if lm_logprobs is None else lm_logprobs[t], lam))
    return total(tape, step_losses)


# --- reference optimiser step ------------------------------------------------
# AdaDelta one parameter at a time, with its own accumulators: the oracle
# that optim.adadelta_step, stepping whole flat blocks, must equal bit for bit.

def reference_adadelta_step(params, grads, acc, l2=0.0, rho=0.95, eps=1e-6):
    """acc maps each Parameter to its (E[g^2], E[dx^2]) pair, filled on first use."""
    for p in params:
        g = grads[p]
        if l2 != 0.0:
            g = g + l2 * p.value
        if p not in acc:
            acc[p] = (np.zeros_like(p.value), np.zeros_like(p.value))
        sq_g, sq_d = acc[p]
        sq_g *= rho
        sq_g += (1.0 - rho) * g * g
        delta = -np.sqrt((sq_d + eps) / (sq_g + eps)) * g
        sq_d *= rho
        sq_d += (1.0 - rho) * delta * delta
        p.value += delta


# --- reference searches -----------------------------------------------------
# The oracles work in log space, as the product does, but combine members and
# the LM with their own code, never search's combiner: the mean of the
# members' log-probs plus lam * log p_lm, renormalized. Step scores become
# log-probs through autodiff.log_softmax.

def _lm_logprobs(lm, vocab, prefix_ids):
    """The LM bridge's log-probs, computed afresh from lm.prob (no memo):
    the history is the last order - 1 characters of the start-padded
    output, a special id standing as NUL. BOS and EPS get log 1 = 0.0."""
    surface = "".join(vocab.token_of(i) if i >= N_SPECIAL else "\x00" for i in prefix_ids)
    history = (BOW * lm.order + surface)[len(surface) + 1:]
    p = np.ones(len(vocab))
    p[EOS] = lm.prob(history, EOW)
    p[UNK] = lm.prob(history, "\x00")
    for i in vocab.data_ids():
        p[i] = lm.prob(history, vocab.token_of(i))
    return np.log(p)


def _combine_lse(member_lps, lm_lp, lam):
    """Members' log-probs [V] and the LM's -> the combined log-probs, through
    scipy's logsumexp: the same distribution as search's, not the same bits."""
    lp = np.mean(member_lps, axis=0)
    lp = lp - logsumexp(lp)
    if lm_lp is not None and lam != 0:
        lp = lp + lam * lm_lp
        lp = lp - logsumexp(lp)
    return lp


# exhaustive_decode walks the complete search tree of one model: the oracle
# for a beam wide enough to keep every path.

def one_state(session):
    """The (h, c) of a session over one source as one state [n], the row
    DecodeSession.initial_state gives that source."""
    h, c = session.initial_state()
    return h[0], c[0]


def exhaustive_decode(model, x_ids, max_len):
    """Complete search tree: every EOS leaf plus every truncated path."""
    sess = DecodeSession(model, [x_ids])
    out = []

    def rec(state, ids, lp, t):
        h, c, scores = sess.step(*state, ids[-1] if ids else BOS, t)
        logprobs = ad.log_softmax(scores)
        for i in np.flatnonzero(logprobs > -np.inf):
            i = int(i)
            lp2 = lp + float(logprobs[i])
            if i == EOS:
                out.append(search.DecodeResult(ids, lp2, truncated=False))
            elif t + 1 == max_len:
                out.append(search.DecodeResult(ids + (i,), lp2, truncated=True))
            else:
                rec((h, c), ids + (i,), lp2, t + 1)

    rec(one_state(sess), (), 0.0, 0)
    out.sort(key=lambda r: (-r.logprob, r.ids))
    return out


# One DecodeSession.step on one state per live hypothesis and member, every
# candidate built and fully sorted by (-logprob, ids): the oracle for the
# batched search.beam_decode and its partial selection.

def reference_beam_decode(models, x_ids, width, max_len, lm=None, lam=1.0):
    sessions = [DecodeSession(m, [x_ids]) for m in models]
    vocab = models[0].vocab
    live = [((), 0.0, tuple(one_state(s) for s in sessions))]
    pool = []
    for t in range(max_len):
        cands = []
        for ids, logprob, states in live:
            y_prev = ids[-1] if ids else BOS
            stepped = [s.step(h, c, y_prev, t) for s, (h, c) in zip(sessions, states)]
            logprobs = _combine_lse([ad.log_softmax(s) for _, _, s in stepped],
                                    None if lm is None else _lm_logprobs(lm, vocab, ids), lam)
            for i in np.flatnonzero(logprobs > -np.inf):
                i = int(i)
                lp = logprob + float(logprobs[i])
                cands.append((-lp, ids + (i,), lp, tuple((h, c) for h, c, _ in stepped)))
        cands.sort(key=lambda c: (c[0], c[1]))
        live = []
        for _, grown, lp, states in cands[:width]:
            if grown[-1] == EOS:
                pool.append(search.DecodeResult(grown[:-1], lp, truncated=False))
            else:
                live.append((grown, lp, states))
        if not live:
            break
    pool += [search.DecodeResult(ids, lp, truncated=True) for ids, lp, _ in live]
    pool.sort(key=lambda r: (-r.logprob, r.ids))
    return pool[:width]


# --- per-member search --------------------------------------------------------
# greedy_decode and beam_decode with one DecodeSession per member, each member
# stepped on its own and the members' scores combined from a list: the
# oracle that search's stacked sessions must equal bit for bit. Its combine
# is its own code, in the arithmetic order that makes bits comparable: the
# scores summed in member order and divided by k, lam * log p_lm added, then
# one log-softmax, the maximum subtracted and the log of the exponentials' sum.

def _renormalized(lp):
    lp = lp - lp.max(axis=-1, keepdims=True)
    return lp - np.log(np.exp(lp).sum(axis=-1, keepdims=True))


def _per_member_next_dist(sessions, states, y_prev, t, lm_lp, lam):
    stepped, scores = [], []
    for sess, (H, C) in zip(sessions, states):
        H, C, s = sess.step(H, C, y_prev, t)
        stepped.append((H, C))
        scores.append(s)
    z = scores[0] if len(scores) == 1 else sum(scores[1:], scores[0]) / len(scores)
    if lm_lp is not None and lam != 0:
        z = z + lam * lm_lp
    return stepped, _renormalized(z)


def per_member_greedy_decode(models, x_ids, max_len, lm=None, lam=1.0):
    vocab = models[0].vocab
    sessions = [DecodeSession(m, [x_ids]) for m in models]
    # an ensemble steps each member as a row of one, as greedy_decode does
    rows = len(models) > 1
    states = [s.initial_state() if rows else one_state(s) for s in sessions]
    ids, logprob = (), 0.0
    for t in range(max_len + 1):
        lm_lp = _lm_logprobs(lm, vocab, ids) if lm is not None else None
        y_prev = ids[-1] if ids else BOS
        states, lp = _per_member_next_dist(sessions, states, [y_prev] if rows else y_prev, t,
                                           lm_lp, lam)
        if rows:
            lp = lp[0]
        choice = int(np.argmax(lp))
        logprob += float(lp[choice])
        if choice == EOS:
            return search.DecodeResult(ids, logprob, truncated=False)
        ids += (choice,)
        if len(ids) == max_len:
            return search.DecodeResult(ids, logprob, truncated=True)


def per_member_beam_decode(models, x_ids, width, max_len, lm=None, lam=1.0):
    vocab = models[0].vocab
    sessions = [DecodeSession(m, [x_ids]) for m in models]
    states = [s.initial_state() for s in sessions]
    live_ids, live_lp = [()], [0.0]
    pool = []
    for t in range(max_len):
        y_prev = np.array([ids[-1] if ids else BOS for ids in live_ids])
        lm_lp = np.array([_lm_logprobs(lm, vocab, ids) for ids in live_ids]) \
            if lm is not None else None
        stepped, lp = _per_member_next_dist(sessions, states, y_prev, t, lm_lp, lam)
        scores = np.array(live_lp)[:, None] + lp
        best = search._best(scores.ravel(), live_ids, width)
        rows, live_ids, live_lp = [], [], []
        for ids, lp, row in best:
            if ids[-1] == EOS:
                pool.append(search.DecodeResult(ids[:-1], lp, truncated=False))
            else:
                rows.append(row)
                live_ids.append(ids)
                live_lp.append(lp)
        if not rows:
            break
        states = [(H[rows], C[rows]) for H, C in stepped]
    pool += [search.DecodeResult(ids, lp, truncated=True) for ids, lp in zip(live_ids, live_lp)]
    pool.sort(key=lambda r: (-r.logprob, r.ids))
    return pool[:width]
