"""The inflection generation network and its comparison variants.

The main ("full") architecture encodes the source characters with a
bidirectional LSTM, affine-transforms the concatenated final states into e,
and feeds [e ; y_{t-1} ; x_t] to the decoder LSTM at every step, switching
x_t to the learned epsilon symbol once the source runs out. Variants:

  plain-encdec  e only initializes the decoder hidden state; no x_t feed
  attention     additive attention context replaces e; no x_t feed
  no-encoder    decoder sees [y_{t-1} ; x_t] only

Output logits go through a softmax with BOS and EPS masked out; training is
teacher-forced negative log-likelihood with EOS closing every target.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    "embed",
    "transform_encoding",
    "attention_context",
    "decoder_step_count",
    "forward_variant",
    "DecodeSession",
    "save_model",
    "load_model",
    "models_equal",
    "check_model_gradients",
]


@dataclass(frozen=True)
class Wiring:
    """How a variant routes the source into the decoder.

    encoder          a bidirectional LSTM reads the source
    trans            e = W_trans [h_fwd ; h_bwd] + b_trans (n wide)
    attention        an attention context (2n wide) joins every decoder input
    consumes_source  x_t (EPS past the source end) joins every decoder input,
                     and the decoder runs until the whole source is read

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
        w, n, d = self.wiring, self.hidden, self.embed_dim
        size = d                      # y_prev
        if w.e_per_step:
            size += n
        if w.attention:
            size += 2 * n
        if w.consumes_source:
            size += d
        return size

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


def _build(m, fill):
    """Create every tensor of m in parameters() order, then pack them into
    m.theta and make each tensor a view into it.

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
    params = m.parameters()
    m.theta = np.concatenate([p.value.reshape(-1) for p in params])
    offset = 0
    for p in params:
        size = p.value.size
        p.value = m.theta[offset:offset + size].reshape(p.value.shape)
        offset += size


def init_model(vocab, variant="full", hidden=100, embed_dim=None, seed=0,
               shared_encoder=None):
    """Seeded uniform [-0.1, 0.1] init; forget-gate biases start at 1.

    shared_encoder, if given, must be (embed, enc_fwd, enc_bwd) from another
    model; the new model aliases those Parameter objects (joint training).
    """
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
    if shared_encoder is not None:
        m.embed, m.enc_fwd, m.enc_bwd = shared_encoder
    return m


def embed(tape, params, char_id):
    return ad.row(tape, params.embed, char_id)


def transform_encoding(tape, params, e_raw):
    """e = W_trans @ e_raw + b_trans, mapping 2n down to n."""
    return ad.affine(tape, params.trans_W, e_raw, params.trans_b)


def attention_context(tape, params, hidden_seq, s_prev):
    """Additive attention over encoder states: softmax(v . tanh(W1 h + W2 s)).

    One tape record: the states are stacked into H [T, 2n], and scores,
    weights and context are computed over all positions at once.
    """
    if not params.wiring.attention:
        raise MorphogenError(f"attention_context on variant {params.variant!r}")
    W_enc, W_dec, v = params.attn_W_enc, params.attn_W_dec, params.attn_v
    H = np.array([h.value for h in hidden_seq])
    sv = s_prev.value
    act = np.tanh(H @ W_enc.value.T + W_dec.value @ sv)    # [T, n]
    weights = ad.softmax(act @ v.value)
    out = ad.Node(weights @ H)
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
            for h, gh in zip(hidden_seq, gH):
                sweep.acc(h, gh)
        tape.append(out, backward_fn)
    return out


def decoder_step_count(x_len, y_len):
    """Teacher-forced steps: all of x is consumed even past the last target."""
    return max(x_len, y_len + 1)


@dataclass(frozen=True)
class _Source:
    x_ids: list
    e: ad.Node            # transformed encoding, None without a transform
    hidden_seq: list      # per-position [fwd h ; bwd h], None without attention


def _encode_source(tape, params, x_ids):
    x_ids = list(x_ids)
    w = params.wiring
    if not w.encoder:
        return _Source(x_ids, None, None)
    xs = [embed(tape, params, i) for i in x_ids]
    positions = lstm.encode_bidirectional(tape, params.enc_fwd, params.enc_bwd, xs)
    hidden_seq = lstm.pair_states(tape, positions) if w.attention else None
    e = None
    if w.trans:
        e_raw = ad.concat(tape, [positions[-1][0], positions[0][1]])   # [fwd h_T ; bwd h_1]
        e = transform_encoding(tape, params, e_raw)
    return _Source(x_ids, e, hidden_seq)


def _initial_state(params, source):
    if params.wiring.e_as_init:
        return lstm.LSTMState(h=source.e, c=ad.constant(np.zeros(params.hidden)))
    return lstm.zero_state(params.hidden)


def _decoder_step(tape, params, source, state, y_prev_id, t):
    """Advance the decoder LSTM one step on [e|context, y_prev, x_t]."""
    w = params.wiring
    # y_prev is embedded first whatever its place in the input: the order of
    # tape records fixes the order in which gradients accumulate.
    parts = [embed(tape, params, y_prev_id)]
    if w.e_per_step:
        parts.insert(0, source.e)
    elif w.attention:
        parts.insert(0, attention_context(tape, params, source.hidden_seq, state.h))
    if w.consumes_source:
        x = source.x_ids
        parts.append(embed(tape, params, x[t] if t < len(x) else EPS))
    inp = parts[0] if len(parts) == 1 else ad.concat(tape, parts)
    return lstm.lstm_step(tape, params.dec, inp, state)


def _logits(tape, params, state):
    return ad.affine(tape, params.out_W, state.h, params.out_b)


def forward_variant(tape, params, x_ids, y_ids, lm_logprobs=None, lam=None):
    """Teacher-forced NLL of y_ids + EOS given x_ids under the model's wiring.

    lm_logprobs/lam switch each step to the interpolated loss: the step
    distribution becomes p_model * p_lm**lam renormalized, with lam a scalar
    Node that also receives gradient.
    """
    if not x_ids:
        raise DataError("forward_variant: empty input sequence")
    source = _encode_source(tape, params, x_ids)
    targets = list(y_ids) + [EOS]
    n_steps = decoder_step_count(len(x_ids), len(y_ids)) \
        if params.wiring.consumes_source else len(targets)
    state = _initial_state(params, source)
    step_losses = []
    for t in range(n_steps):
        y_prev = BOS if t == 0 else targets[min(t - 1, len(targets) - 1)]
        state = _decoder_step(tape, params, source, state, y_prev, t)
        if t < len(targets):
            logits = _logits(tape, params, state)
            if lm_logprobs is None:
                step_losses.append(ad.cross_entropy_logits(
                    tape, logits, targets[t], MASKED_OUTPUT_IDS))
            else:
                step_losses.append(ad.interpolated_cross_entropy(
                    tape, logits, targets[t], lm_logprobs[t], lam, MASKED_OUTPUT_IDS))
    total = step_losses[0]
    for piece in step_losses[1:]:
        total = ad.add(tape, total, piece)
    return total


class DecodeSession:
    """Per-input stepping interface used by greedy and beam search.

    Runs the encoder once; step advances the decoder untaped, on one state or
    on a batch of state rows.
    """

    def __init__(self, params, x_ids):
        V = len(params.vocab)
        if not all(0 <= i < V for i in x_ids):
            raise DimensionError(f"source ids {list(x_ids)} out of range for a vocabulary of {V}")
        self.params = params
        self._source = _encode_source(None, params, x_ids)

    def initial_state(self):
        """The decoder's (h, c) before the first step, as [n] arrays."""
        state = _initial_state(self.params, self._source)
        return state.h.value, state.c.value

    def step(self, H, C, y_prev, t):
        """One decoder step, as _decoder_step + _logits + masked_softmax.

        One state: H, C [n] and an int y_prev -> (H', C', dist [V]).
        B rows: H, C [B,n] and y_prev [B] ids -> (H', C', dist [B,V]).
        Row ids are not range-checked: only the search makes them.
        """
        params, source = self.params, self._source
        w, E = params.wiring, params.embed.value
        one = H.ndim == 1
        if one and not 0 <= y_prev < len(E):
            raise DimensionError(f"y_prev id {y_prev} out of range for a vocabulary of {len(E)}")
        # decoder input columns in _decoder_step's order: [e|context, y_prev, x_t]
        parts = [E[y_prev]]
        if w.e_per_step:
            e = source.e.value
            parts.insert(0, e if one else e[None].repeat(len(H), axis=0))
        elif w.attention:
            parts.insert(0, self._attention_rows(H))
        if w.consumes_source:
            x = source.x_ids
            x_t = E[x[t] if t < len(x) else EPS]
            parts.append(x_t if one else x_t[None].repeat(len(H), axis=0))
        X = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        H, C = lstm.lstm_step_rows(params.dec, X, H, C)
        logits = H @ params.out_W.value.T + params.out_b.value
        return H, C, ad.masked_softmax(logits, MASKED_OUTPUT_IDS)

    @cached_property
    def _attention_keys(self):
        """The encoder states [T, 2n] and their projections W_enc h_t [T, n]."""
        H = np.array([h.value for h in self._source.hidden_seq])
        return H, H @ self.params.attn_W_enc.value.T

    def _attention_rows(self, S):
        """attention_context for a decoder state S [n] or for every row of S [B, n]."""
        params = self.params
        H, keys = self._attention_keys
        act = np.tanh(keys + (S @ params.attn_W_dec.value.T)[..., None, :])    # [(B,) T, n]
        return ad.masked_softmax(act @ params.attn_v.value) @ H


# --- persistence -----------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_model(params, path):
    tensors = {p.name: {"shape": list(p.value.shape),
                        "data": [float(v) for v in p.value.reshape(-1)]}
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
    if version != CHECKPOINT_VERSION:
        raise bad(f"format_version {version!r}, expected {CHECKPOINT_VERSION}")
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

    def tensor(name, shape, kind):
        spec = field(tensors, name, lambda v: isinstance(v, dict)
                     and isinstance(v.get("data"), list), "an object with a data list")
        data = spec["data"]
        if spec.get("shape") != list(shape):
            raise bad(f"tensor {name!r} has shape {spec.get('shape')!r}, expected {list(shape)}")
        if len(data) != int(np.prod(shape)):
            raise bad(f"tensor {name!r} has {len(data)} values for shape {shape}")
        try:
            arr = np.array(data, dtype=np.float64)
        except (TypeError, ValueError):
            arr = None
        if arr is None or arr.ndim != 1:
            raise bad(f"tensor {name!r} data must be a flat list of numbers")
        arr = arr.reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise bad(f"tensor {name!r} has non-finite values")
        return arr

    _build(m, tensor)
    m.lm_lambda = config.get("lambda")
    return m


def _is_number(value, types):
    return isinstance(value, types) and not isinstance(value, bool)


def models_equal(a, b):
    if (a.variant, a.hidden, a.embed_dim, a.vocab.data_chars) != \
            (b.variant, b.hidden, b.embed_dim, b.vocab.data_chars):
        return False
    bp = {p.name: p.value for p in b.parameters()}
    return all(np.array_equal(p.value, bp[p.name]) for p in a.parameters())


def check_model_gradients(params, x_ids, y_ids, h=1e-4):
    """Finite-difference verification of the full training gradient."""
    def loss_fn(tape):
        return forward_variant(tape, params, x_ids, y_ids)
    return ad.gradient_check(loss_fn, params.parameters(), h=h)
