"""The inflection generation network and its comparison variants.

The main ("full") architecture encodes the source characters with a
bidirectional LSTM, affine-transforms the concatenated final states into e,
and feeds [e ; y_{t-1} ; x_t] to the decoder LSTM at every step, switching
x_t to the learned epsilon symbol once the source runs out. Variants:

  plain-encdec  e only initializes the decoder hidden state; no x_t feed
  attention     additive attention context replaces e; no x_t feed
  no-encoder    decoder sees [y_{t-1} ; x_t] only

The output bias masks BOS and EPS out of the logits (_masked_bias); training
is teacher-forced negative log-likelihood with EOS closing every target.
"""

import base64
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from . import lstm
from .data import open_text
from .errors import CheckpointError, DataError, DimensionError, MorphogenError
from .optim import Block
from .vocab import BOS, EOS, EPS, CharVocab

__all__ = [
    "VARIANTS",
    "WIRINGS",
    "Wiring",
    "SHARED_ATTRS",
    "DECODER_ATTRS",
    "MASKED_OUTPUT_IDS",
    "ModelParams",
    "init_model",
    "attention_context",
    "interpolation_weight",
    "forward_variant",
    "DecodeSession",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class Wiring:
    """How a variant routes the source into the decoder.

    encoder          a bidirectional LSTM reads the source
    trans            e = W_trans [h_fwd ; h_bwd] + b_trans (n wide)
    attention        an attention context (2n wide) joins every decoder input
    consumes_source  x_t (EPS past the source end) joins every decoder input

    e goes where the source goes: into every decoder input when the variant
    consumes the source, into the initial hidden state otherwise.
    """
    encoder: bool
    trans: bool
    attention: bool
    consumes_source: bool

    @property
    def e_per_step(self):
        return self.trans and self.consumes_source

    @property
    def e_as_init(self):
        return self.trans and not self.consumes_source


WIRINGS = {
    "full": Wiring(encoder=True, trans=True, attention=False, consumes_source=True),
    "plain-encdec": Wiring(encoder=True, trans=True, attention=False, consumes_source=False),
    "attention": Wiring(encoder=True, trans=False, attention=True, consumes_source=False),
    "no-encoder": Wiring(encoder=False, trans=False, attention=False, consumes_source=True),
}
VARIANTS = tuple(WIRINGS)
MASKED_OUTPUT_IDS = (BOS, EPS)

INIT_SCALE = 0.1

# Tensor-holding attributes in parameters() order, which is also the RNG draw
# order of init_model, the tensor order of a checkpoint and the layout of theta.
_PARAM_ATTRS = (
    "embed",                                # [V x d]
    "enc_fwd", "enc_bwd",                   # LSTMParams
    "trans_W", "trans_b",                   # [n x 2n], [n]
    "attn_W_enc", "attn_W_dec", "attn_v",   # [n x 2n], [n x n], [n]
    "dec",                                  # LSTMParams
    "out_W", "out_b",                       # [V x n], [V]
)
# Joint training shares this leading part between the models of all tags.
SHARED_ATTRS = _PARAM_ATTRS[:3]
DECODER_ATTRS = _PARAM_ATTRS[3:]


class ModelParams:
    """A model's configuration and tensors.

    Every tensor is a view into one flat float64 vector, theta, in
    parameters() order. A model built around another model's encoder
    (joint training) reads those tensors from the other model's theta; the
    matching head of its own theta goes unused.
    """

    def __init__(self, vocab, variant, hidden, embed_dim):
        if not isinstance(variant, str) or variant not in WIRINGS:
            raise MorphogenError(f"unknown model variant {variant!r}")
        self.vocab = vocab
        self.variant = variant
        self.wiring = WIRINGS[variant]
        self.hidden = hidden
        self.embed_dim = embed_dim
        for attr in _PARAM_ATTRS:
            setattr(self, attr, None)
        self.theta = None
        self.lm_lambda = None   # set by interpolated training

    def decoder_input_size(self):
        """The width of a decoder input [e|context, y_prev, x_t]."""
        w, n, d = self.wiring, self.hidden, self.embed_dim
        return n * w.e_per_step + 2 * n * w.attention + d + d * w.consumes_source

    def parameters(self, attrs=_PARAM_ATTRS):
        out = []
        for attr in attrs:
            value = getattr(self, attr)
            if isinstance(value, lstm.LSTMParams):
                out += value.parameters()
            elif value is not None:
                out.append(value)
        return out

    def block(self, attrs=_PARAM_ATTRS):
        """The tensors of attrs, consecutive in parameters() order, as one
        optimiser block over their slice of theta."""
        start = _PARAM_ATTRS.index(attrs[0])
        lo = sum(p.value.size for p in self.parameters(_PARAM_ATTRS[:start]))
        parts = self.parameters(attrs)
        return Block(self.theta[lo:lo + sum(p.value.size for p in parts)], parts)

    def copy(self):
        """A deep copy with a theta of its own, shared tensors included."""
        m = ModelParams(self.vocab, self.variant, self.hidden, self.embed_dim)
        values = {p.name: p.value for p in self.parameters()}
        _build(m, lambda name, shape, kind: values[name])
        m.lm_lambda = self.lm_lambda
        return m


def _build(m, fill, pack=True):
    """Create every tensor of m in parameters() order, then (with pack) pack
    them into m.theta, 64-byte aligned, and make each tensor a view into it.

    fill(name, shape, kind) supplies the values; kind is "weight", "bias" or
    "gates" (an LSTM bias).
    """
    w, n, d, V = m.wiring, m.hidden, m.embed_dim, len(m.vocab)

    def param(name, shape, kind="weight"):
        return ad.Parameter(name, fill(name, shape, kind))

    def cell(name, input_size):
        return lstm.LSTMParams(name, param(f"{name}.W_x", (4 * n, input_size)),
                               param(f"{name}.W_h", (4 * n, n)),
                               param(f"{name}.b", (4 * n,), "gates"))

    m.embed = param("embed", (V, d))
    if w.encoder:
        m.enc_fwd, m.enc_bwd = cell("enc_fwd", d), cell("enc_bwd", d)
    if w.trans:
        m.trans_W, m.trans_b = param("trans.W", (n, 2 * n)), param("trans.b", (n,), "bias")
    if w.attention:
        m.attn_W_enc = param("attn.W_enc", (n, 2 * n))
        m.attn_W_dec = param("attn.W_dec", (n, n))
        m.attn_v = param("attn.v", (n,))
    m.dec = cell("dec", m.decoder_input_size())
    m.out_W, m.out_b = param("softmax.W", (V, n)), param("softmax.b", (V,), "bias")
    if not pack:
        return
    params = m.parameters()
    m.theta = _aligned(sum(p.value.size for p in params))
    np.concatenate([p.value.reshape(-1) for p in params], out=m.theta)
    offset = 0
    for p in params:
        size = p.value.size
        p.value = m.theta[offset:offset + size].reshape(p.value.shape)
        offset += size


def _aligned(size):
    """An uninitialized float64 vector of size values that starts on a
    64-byte boundary, so that the offsets of the weights it holds from a
    cache line, and with them the speed of their BLAS products, are the same
    from one run to the next."""
    buf = np.empty(size + 7)
    start = -buf.ctypes.data % 64 // buf.itemsize
    return buf[start:start + size]


def _stack(models):
    """Models of one vocabulary and (variant, hidden, embed_dim), which the
    caller checks, as one model of K members: each tensor gains a leading
    member axis, a matrix as [K, r, c] and a vector as [K, 1, c], which
    broadcasts over a step's rows [K, B, c]. Each stacked tensor is a
    contiguous copy of the members' current values that starts on a 64-byte
    boundary of one aligned buffer, so its layout is the same from one run
    to the next. Training updates the members in place, so a stack must not
    outlive a training step. A stack has no theta."""
    first = models[0]
    groups = list(zip(*(m.parameters() for m in models)))
    shapes = [(len(ps), *ps[0].value.shape) if ps[0].value.ndim == 2
              else (len(ps), 1, *ps[0].value.shape) for ps in groups]
    # each tensor starts a run of whole 64-byte lines (8 float64) of one buffer
    starts = [0, *itertools.accumulate(-(-math.prod(shape) // 8) * 8 for shape in shapes)]
    buf, values = _aligned(starts[-1]), {}
    for ps, shape, start in zip(groups, shapes, starts):
        flat = buf[start:start + math.prod(shape)]
        # members one after another: a matrix's rows, a vector's values
        np.concatenate([p.value for p in ps], out=flat.reshape(-1, *ps[0].value.shape[1:]))
        values[ps[0].name] = flat.reshape(shape)
    stack = ModelParams(first.vocab, first.variant, first.hidden, first.embed_dim)
    _build(stack, lambda name, shape, kind: values[name], pack=False)
    return stack


def _masked_bias(params):
    """A copy of out_b, a model's [V] or a stack's [K, 1, V], -inf at
    MASKED_OUTPUT_IDS: the one mask of the logits, in training and decoding."""
    b = params.out_b.value.copy()
    b[..., list(MASKED_OUTPUT_IDS)] = -np.inf
    return b


def init_model(vocab, variant="full", hidden=100, embed_dim=None, seed=0):
    """Seeded uniform [-0.1, 0.1] init; forget-gate biases start at 1."""
    d = embed_dim if embed_dim is not None else len(vocab)
    m = ModelParams(vocab, variant, hidden, d)
    rng = np.random.default_rng(seed)

    def draw(name, shape, kind):
        if kind == "weight":
            return rng.uniform(-INIT_SCALE, INIT_SCALE, shape)
        b = np.zeros(shape)
        if kind == "gates":
            b[hidden:2 * hidden] = lstm.FORGET_BIAS
        return b

    _build(m, draw)
    return m


def attention_context(params, source, S):
    """Additive attention of a decoder state S [n], of every row of S
    [B, n] or of a stack's rows [K, B, n] over an encoded source:
    softmax(v . tanh(W_enc h_t + W_dec s)) weighting the source's states
    h_t. Over a batch of sources (_encode_sources) row b attends to source
    b, and to none of its padded positions. Returns (context, weights, tanh
    activations); training's backward reads the last two."""
    if not params.wiring.attention:
        raise MorphogenError(f"attention_context on variant {params.variant!r}")
    act = np.tanh(source.keys + (S @ params.attn_W_dec.value.mT)[..., None, :])  # [(K, B,) T, n]
    # v as a column: the product act @ v, and a stack's v [K, 1, n] broadcasts over rows
    scores = (act @ params.attn_v.value[..., None])[..., 0]
    if source.pad is not None:
        scores += source.pad
    weights = ad.softmax(scores)
    if source.batch:    # each row's weights [T] over its own states [T, 2n]
        return (weights[..., None, :] @ source.H)[..., 0, :], weights, act
    return weights @ source.H, weights, act


class _Source:
    """An encoded source: its ids, e = W_trans e_raw + b_trans of the final
    encoder states e_raw = [fwd h_T ; bwd h_1] (None without a transform)
    and, with attention, both encoder passes' states at every position,
    H [T, 2n] with rows [fwd h_t ; bwd h_t], together with their
    projections keys = W_enc h_t [T, n], which do not depend on the decoder
    step. A stack's has a leading member axis: e [K, n], e_raw [K, 2n],
    H [K, T, 2n] and keys [K, 1, T, n], which broadcasts over rows.

    A batch of B sources (batch true, from _encode_sources) holds one row
    per source: x_ids [B, T + 1] padded with EPS, e [(K,) B, n], H
    [(K,) B, T, 2n] and keys [(K,) B, T, n], and pad [B, T], 0 at a row's
    own positions and -inf at its padding (None when no row is padded)."""

    def __init__(self, params, x_ids, H=None):
        self.x_ids = x_ids
        self.e = self.e_raw = self.pad = None
        self.batch = False
        self.H = H
        if H is not None:
            self.keys = H @ params.attn_W_enc.value.mT
            if H.ndim == 3:
                self.keys = self.keys[:, None]


def _encode_source(params, x_ids):
    """The source encoding that training and decoding share -> (a _Source,
    the encoder passes' run_cached caches; None without an encoder). A
    stack runs its encoder once for all members, on rows of one. An empty
    source is a DataError for every variant."""
    x_ids = list(x_ids)
    if not x_ids:
        raise DataError("empty input sequence")
    w, E = params.wiring, params.embed.value
    if not w.encoder:
        return _Source(params, x_ids), None
    stacked = E.ndim == 3
    fwd_hs, bwd_hs, *caches = lstm.encode_bidirectional(
        params.enc_fwd, params.enc_bwd,
        [E[:, i, None] for i in x_ids] if stacked else [E[i] for i in x_ids])
    H = None
    if w.attention:
        H = np.concatenate((fwd_hs, bwd_hs), axis=-1)    # [T, 2n]; a stack's [T, K, 1, 2n]
        if stacked:
            H = np.ascontiguousarray(H[:, :, 0].swapaxes(0, 1))
    source = _Source(params, x_ids, H)
    if w.trans:
        source.e_raw = np.concatenate((fwd_hs[-1], bwd_hs[0]), axis=-1)     # [fwd h_T ; bwd h_1]
        source.e = source.e_raw @ params.trans_W.value.mT + params.trans_b.value   # 2n -> n
        if stacked:     # one row per member -> [K, ·]
            source.e_raw, source.e = source.e_raw[:, 0], source.e[:, 0]
    return source, caches


def _encode_sources(params, sources):
    """B sources encoded at once, as the rows of a batch _Source: one
    masked encoder pass over the sources padded to the longest, so padding
    never changes a row's states. An empty source is a DataError, as in
    _encode_source."""
    lengths = [len(x) for x in sources]
    if not all(lengths):
        raise DataError("empty input sequence")
    T = max(lengths)
    X = np.full((len(sources), T + 1), EPS)
    for r, x in enumerate(sources):
        X[r, :len(x)] = x
    source = _Source(params, X)
    source.batch = True
    w, E = params.wiring, params.embed.value
    if not w.encoder:
        return source
    stacked = E.ndim == 3
    mask = (np.arange(T)[:, None] < lengths)[..., None]     # [T, B, 1]
    fwd_hs, bwd_hs = lstm.encode_bidirectional(
        params.enc_fwd, params.enc_bwd, [E.take(X[:, t], axis=-2) for t in range(T)], mask)[:2]
    if w.attention:
        H = np.concatenate((fwd_hs, bwd_hs), axis=-1)    # [T, (K,) B, 2n]
        source.H = np.ascontiguousarray(np.moveaxis(H, 0, -2))
        W_enc = params.attn_W_enc.value.mT     # a stack's as [K, 1, 2n, n], over the rows
        source.keys = source.H @ (W_enc[:, None] if stacked else W_enc)
        if min(lengths) < T:
            source.pad = np.where(mask[..., 0].T, 0.0, -np.inf)
    if w.trans:
        e_raw = np.concatenate((fwd_hs[-1], bwd_hs[0]), axis=-1)
        source.e = e_raw @ params.trans_W.value.mT + params.trans_b.value
    return source


def interpolation_weight(lam_hat):
    """The LM weight softplus(lam_hat) = log(1 + e^lam_hat) as a float."""
    return float(np.logaddexp(0.0, lam_hat.value)[0])


def forward_variant(tape, params, x_ids, y_ids, lm_logprobs=None, lam_hat=None):
    """Teacher-forced NLL of y_ids + EOS given x_ids under the model's wiring,
    as a float; given a tape (a list), appends the example's backward closure.

    lm_logprobs/lam_hat switch each step to the interpolated loss: the step
    distribution becomes p_model * p_lm**lam renormalized, with lam =
    interpolation_weight(lam_hat), and lam_hat also receives gradient. LM
    rows are finite, as lm_next_dist's are; a BOS or EPS target is an error.
    """
    V = len(params.vocab)
    if not all(0 <= i < V for i in [*x_ids, *y_ids]):
        raise DimensionError(f"ids {list(x_ids)} -> {list(y_ids)} out of range "
                             f"for a vocabulary of {V}")
    if any(i in MASKED_OUTPUT_IDS for i in y_ids):
        raise MorphogenError(f"target ids {list(y_ids)} hold a masked output id")
    # An untaped forward over arrays and backpropagation through time by hand,
    # in the arithmetic order of recording the example op by op (softplus of
    # lam_hat, then a record per lookup, cell step, concat, attention context
    # and step loss; backward: decoder steps in reverse, each with its attention
    # context's backward, e's transform, the backward and the forward encoder,
    # lam_hat), so the loss and the gradients are the per-op recording's bits.
    w, n, d, E = params.wiring, params.hidden, params.embed_dim, params.embed.value
    x_ids, targets = list(x_ids), list(y_ids) + [EOS]
    y_prevs = [BOS] + targets[:-1]
    x_steps = [x_ids[t] if t < len(x_ids) else EPS for t in range(len(targets))]
    source, caches = _encode_source(params, x_ids)
    e = source.e
    step_input = None
    if w.attention:
        attended = []    # each step's (weights, tanh activations)

        def step_input(y_emb, s):
            context, weights, act = attention_context(params, source, s)
            attended.append((weights, act))
            return np.concatenate((context, y_emb))
    # decoder inputs in column order [e|context, y_prev, x_t]; the context joins in step_input
    inputs = [np.concatenate(([e] if w.e_per_step else []) + [E[y_prev]]
                             + ([E[x_t]] if w.consumes_source else []))
              for y_prev, x_t in zip(y_prevs, x_steps)]
    hs, dec_cache = lstm.run_cached(params.dec, inputs, e if w.e_as_init else None, step_input)
    W_out, b_out = params.out_W.value, _masked_bias(params)
    lam = None if lm_logprobs is None else interpolation_weight(lam_hat)
    steps = [ad.step_loss(W_out @ h + b_out, target,
                          None if lm_logprobs is None else lm_logprobs[t], lam)
             for t, (h, target) in enumerate(zip(hs, targets))]
    loss = float(sum((s[0] for s in steps[1:]), steps[0][0]))
    if tape is None:
        return loss

    def backward_fn(grads):
        rev = range(len(targets) - 1, -1, -1)
        gls = [ad.logit_grad(1.0, steps[t][1], targets[t]) for t in rev]
        if lm_logprobs is not None:   # d/dlam_hat = d/dlam * softplus'(lam_hat)
            dlams = [steps[t][2] for t in rev]
            grads[lam_hat] += sum(dlams[1:], dlams[0]) * expit(lam_hat.value)
        grads[params.out_W] += np.array(gls).T @ np.array(hs[::-1])
        grads[params.out_b] += sum(gls[1:], gls[0])
        step_grad = None
        if w.attention:
            H, W_enc, W_dec, v = source.H, params.attn_W_enc, params.attn_W_dec, params.attn_v
            gHs, gkeys, h_prevs = [], [], []    # gkeys and h_prevs in reverse time

            def step_grad(t, dx):    # the backward of step t's attention context
                g = dx[:2 * n]
                weights, act = attended[t]
                gw = H @ g
                gscores = weights * (gw - gw @ weights)
                grads[v] += act.T @ gscores
                gpre = gscores[:, None] * v.value * (1.0 - act * act)
                gkey = gpre.sum(axis=0)
                gkeys.append(gkey)
                h_prevs.append(dec_cache[t][1])    # h_{t-1}
                grads[W_enc] += gpre.T @ H
                gHs.append(weights[:, None] * g + gpre @ W_enc.value)
                return W_dec.value.T @ gkey
        dxs, gh0 = lstm.backward_cached(grads, params.dec, dec_cache,
                                        [W_out.T @ gl for gl in gls[::-1]], step_grad)
        if w.attention:
            grads[W_dec] += np.array(gkeys).T @ np.array(h_prevs)
        gE = grads[params.embed]
        ge = gh0 if w.e_as_init else None
        for t in rev:
            gx = dxs[t]
            if w.e_per_step:
                ge = gx[:n] if ge is None else ge + gx[:n]
                gx = gx[n:]
            elif w.attention:
                gx = gx[2 * n:]
            if w.consumes_source:
                gE[x_steps[t]] += gx[d:]
            gE[y_prevs[t]] += gx[:d]
        if not w.encoder:
            return
        if w.trans:
            grads[params.trans_W] += np.array([ge]).T @ np.array([source.e_raw])
            grads[params.trans_b] += ge
            g_raw = params.trans_W.value.T @ ge
            last = [None] * (len(x_ids) - 1)
            gh_fwd, gh_bwd = last + [g_raw[:n]], last + [g_raw[n:]]
        else:   # attention: every position's states, summed over the steps in reverse
            gH = sum(gHs[1:], gHs[0])
            gh_fwd, gh_bwd = gH[:, :n], gH[::-1, n:]
        fwd_cache, bwd_cache = caches
        dx_bwd = lstm.backward_cached(grads, params.enc_bwd, bwd_cache, gh_bwd)[0]
        dx_fwd = lstm.backward_cached(grads, params.enc_fwd, fwd_cache, gh_fwd)[0]
        for j in range(len(x_ids) - 1, -1, -1):
            gE[x_ids[j]] += dx_bwd[-1 - j] + dx_fwd[j]

    tape.append(backward_fn)
    return loss


class DecodeSession:
    """Per-input stepping interface used by greedy and beam search.

    Built over one model, or over a stack of K models (_stack), and over one
    source x_ids or a batch of them (sources, one row each). Runs the
    encoder once and splits the decoder's input projection W_x [e|context,
    y_prev, x_t] + b by its column blocks into tables for the sources: the
    constant part b (+ W_e e) plus, when the variant consumes the source,
    x_t's rows W_xt E[x_t] for every step, and W_y E [V, 4n] for y_prev. A
    step then looks its input projection up instead of forming it; only
    attention's context W_ctx context is a product per step. The tables are
    built per session from the tensors' current values, never cached on the
    model, which training updates in place. step advances the decoder
    untaped, on one state (lstm.lstm_step) or on a batch of state rows
    (lstm.rows_step); a stack steps rows, on every member at once. It emits
    the output layer's masked scores, not log-probs: the search normalizes
    a step once, after combining the members and the LM.

    Over a batch of sources, row b of every step belongs to source b: it
    reads that source's e, its own x_t (EPS past its own end) and, with
    attention, that source's states alone. select keeps a subset of the
    rows as the search retires the others.
    """

    def __init__(self, params, x_ids=None, *, sources=None):
        V = len(params.vocab)
        batch = sources is not None
        for x in sources if batch else [x_ids]:
            if not all(0 <= i < V for i in x):
                raise DimensionError(f"source ids {list(x)} out of range for a vocabulary of {V}")
        self.params = params
        self.stacked = params.embed.value.ndim == 3
        source = self._source = (_encode_sources(params, sources) if batch
                                 else _encode_source(params, x_ids)[0])
        w, n, d, E = params.wiring, params.hidden, params.embed_dim, params.embed.value
        W_x = params.dec.W_x.value
        lead = n * w.e_per_step + 2 * n * w.attention    # the e or context columns
        self._W_ctx = W_x[..., :lead].mT if w.attention else None
        zx = params.dec.b.value     # [4n]; a stack's [K, 1, 4n]
        if w.e_per_step:    # one source's e as rows of one for a stack; a batch's e is rows
            zx = zx + (source.e[:, None] if self.stacked and not batch else source.e) \
                @ W_x[..., :n].mT
        self._P_y = E @ W_x[..., lead:lead + d].mT    # [V, 4n]; a stack's [K, V, 4n]
        # the constant part of step t's projection; the last one serves every
        # step past the (longest) source end, where x_t is EPS
        self._zx = [zx]
        if w.consumes_source:
            P_x = E @ W_x[..., lead + d:].mT
            if batch:   # one column of the EPS-padded ids per step: rows [(K,) B, 4n]
                self._zx = [zx + P_x.take(ids, axis=-2) for ids in source.x_ids.T]
            else:
                self._zx = [zx + (P_x[:, i, None] if self.stacked else P_x[i])
                            for i in [*source.x_ids, EPS]]
        self._out_b = _masked_bias(params)

    def initial_state(self):
        """The decoder's (h, c) before the first step, as [n] arrays ([K, n]
        for a stack: one state per member); for a batch of B sources, as
        rows [B, n] ([K, B, n] for a stack)."""
        p, source = self.params, self._source
        if source.batch:
            n = (*p.embed.value.shape[:-2], len(source.x_ids), p.hidden)
        else:
            n = (len(p.embed.value), p.hidden) if self.stacked else p.hidden
        return source.e if p.wiring.e_as_init else np.zeros(n), np.zeros(n)

    def select(self, rows):
        """Keep the given rows (indices into the current rows, in their new
        order) of a batch session's per-source tables, as the search does
        with its state rows when it retires the others."""
        source = self._source
        if self.params.wiring.consumes_source:
            self._zx = [zx.take(rows, axis=-2) for zx in self._zx]
        if source.H is not None:
            source.H, source.keys = source.H.take(rows, axis=-3), source.keys.take(rows, axis=-3)
            if source.pad is not None:
                source.pad = source.pad.take(rows, axis=0)

    def step(self, H, C, y_prev, t):
        """One decoder step and its output layer -> (H', C', the masked
        scores H' out_W^T + out_b: unnormalized, -inf at BOS and EPS).

        One state: H, C [n] and an int y_prev -> (H', C', scores [V]).
        B rows: H, C [B,n] and y_prev [B] ids -> (H', C', scores [B,V]).
        A stack steps rows only, with a leading member axis K: H, C [K,B,n]
        and y_prev [B] -> (H', C', scores [K,B,V]).
        The input projection comes from the session's tables, so the gates
        equal training's to rounding, not bit for bit. One state steps
        lstm.lstm_step, training's cell; rows step lstm.rows_step, whose
        sigmoid differs from it at rounding level, so a row of one is not
        the one state's bits. Row ids are not range-checked: only the
        search makes them.
        """
        P_y, zx = self._P_y, self._zx[min(t, len(self._zx) - 1)]
        if H.ndim == 1:
            if not 0 <= y_prev < len(P_y):
                raise DimensionError(f"y_prev id {y_prev} out of range "
                                     f"for a vocabulary of {len(P_y)}")
            ZX, cell = zx + P_y[y_prev], lstm.lstm_step
        elif H.ndim != P_y.ndim:
            raise DimensionError(f"decoder states of shape {H.shape} for a decoder with "
                                 f"tables of shape {P_y.shape}: a stack steps rows [K, B, n]")
        else:   # row ids index the vocabulary axis, a stack's second
            ZX, cell = P_y.take(y_prev, axis=-2), lstm.rows_step
            ZX += zx
        params = self.params
        if params.wiring.attention:
            ZX += attention_context(params, self._source, H)[0] @ self._W_ctx
        H, C = cell(params.dec, ZX, H, C)[:2]
        scores = H @ params.out_W.value.mT
        scores += self._out_b
        return H, C, scores


# --- persistence -----------------------------------------------------------

CHECKPOINT_VERSION = 2


def save_model(params, path):
    """Write a version-2 checkpoint: JSON whose tensors each hold their shape
    and the base64 of their little-endian float64 bytes in C order."""
    tensors = {p.name: {"shape": list(p.value.shape), "dtype": "<f8",
                        "b64": base64.b64encode(p.value.astype("<f8").tobytes()).decode()}
               for p in params.parameters()}
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "variant": params.variant,
        "vocab": list(params.vocab.data_chars),
        "config": {"hidden": params.hidden, "embed_dim": params.embed_dim},
        "tensors": tensors,
    }
    if params.lm_lambda is not None:
        doc["config"]["lambda"] = float(params.lm_lambda)
    with open_text(path, "w", what="checkpoint", error=CheckpointError) as f:
        json.dump(doc, f, ensure_ascii=False, indent=1)
        f.write("\n")


def load_model(path):
    try:
        with open_text(path, what="checkpoint", error=CheckpointError) as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: nested too deeply") from exc

    def bad(what):
        return CheckpointError(f"checkpoint {path}: {what}")

    def field(obj, key, ok, what):
        if key not in obj:
            raise bad(f"missing field {key!r}")
        if not ok(obj[key]):
            raise bad(f"{key} must be {what}, got {obj[key]!r:.40}")
        return obj[key]

    if not isinstance(doc, dict):
        raise bad(f"expected a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if not (_is_number(version, int) and 1 <= version <= CHECKPOINT_VERSION):
        raise bad(f"format_version {version!r:.40}, expected an integer from 1 to "
                  f"{CHECKPOINT_VERSION}")
    vocab = field(doc, "vocab", lambda v: isinstance(v, list)
                  and all(isinstance(c, str) for c in v), "a list of strings")
    variant = field(doc, "variant", lambda v: v in VARIANTS, f"one of {VARIANTS}")
    config = field(doc, "config", lambda v: isinstance(v, dict), "an object")
    tensors = field(doc, "tensors", lambda v: isinstance(v, dict), "an object")
    hidden, embed_dim = (field(config, key, lambda v: _is_number(v, int) and v >= 1,
                               "a positive integer") for key in ("hidden", "embed_dim"))
    if "lambda" in config:
        field(config, "lambda", lambda v: _is_number(v, (int, float)) and 0 <= v < np.inf,
              "a finite number >= 0")
    m = ModelParams(CharVocab(vocab), variant, hidden, embed_dim)

    def v1_values(name, spec, size):
        data = spec.get("data")
        if not isinstance(data, list):
            raise bad(f"tensor {name!r} must be an object with a data list")
        if len(data) != size:
            raise bad(f"tensor {name!r} has {len(data)} values, expected {size}")
        try:
            arr = np.array(data, dtype=np.float64)
        except (TypeError, ValueError):
            arr = None
        if arr is None or arr.ndim != 1:
            raise bad(f"tensor {name!r} data must be a flat list of numbers")
        return arr

    def v2_values(name, spec, size):
        if spec.get("dtype") != "<f8":
            raise bad(f"tensor {name!r} has dtype {spec.get('dtype')!r:.40}, expected '<f8'")
        text = spec.get("b64")
        if not isinstance(text, str):
            raise bad(f"tensor {name!r} must have a b64 string")
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError:  # binascii.Error, or a non-ASCII character
            raise bad(f"tensor {name!r} b64 is not valid base64") from None
        if len(raw) != 8 * size:
            raise bad(f"tensor {name!r} has {len(raw)} bytes, expected {8 * size}")
        return np.frombuffer(raw, "<f8")

    values = v1_values if version == 1 else v2_values

    def tensor(name, shape, kind):
        spec = field(tensors, name, lambda v: isinstance(v, dict), "an object")
        if spec.get("shape") != list(shape):
            raise bad(f"tensor {name!r} has shape {spec.get('shape')!r}, expected {list(shape)}")
        arr = values(name, spec, math.prod(shape)).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise bad(f"tensor {name!r} has non-finite values")
        return arr

    _build(m, tensor)
    m.lm_lambda = config.get("lambda")
    return m


def _is_number(value, types):
    return isinstance(value, types) and not isinstance(value, bool)
