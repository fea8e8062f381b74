"""Shared fixtures-in-code for the test suite."""

import random

import numpy as np

from morphogen import autodiff as ad
from morphogen import lstm, search
from morphogen.charlm import train_lm
from morphogen.errors import DimensionError
from morphogen.model import DecodeSession
from morphogen.reranker import RerankGroup
from morphogen.vocab import BOS, EOS


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


# --- composed references for the fused recurrent ops ----------------------
# The cell and the attention context as chains of primitive tape ops, one
# record per primitive: slower, but each piece is checked on its own, so
# they serve as oracles for lstm.lstm_step and model.attention_context.

def reference_lstm_step(tape, params, x, prev):
    n = params.hidden_size
    if x.value.shape[0] != params.input_size:
        raise DimensionError(
            f"lstm {params.name}: input {x.value.shape} vs expected ({params.input_size},)")
    z = ad.add(tape, ad.affine(tape, params.W_x, x, params.b),
               ad.matvec(tape, params.W_h, prev.h))
    i = ad.sigmoid(tape, _block(tape, z, 0, n))
    f = ad.sigmoid(tape, _block(tape, z, 1, n))
    o = ad.sigmoid(tape, _block(tape, z, 2, n))
    g = ad.tanh(tape, _block(tape, z, 3, n))
    c = ad.add(tape, ad.mul(tape, f, prev.c), ad.mul(tape, i, g))
    h = ad.mul(tape, o, ad.tanh(tape, c))
    return lstm.LSTMState(h=h, c=c)


def _block(tape, z, k, n):
    out = ad.Node(z.value[k * n:(k + 1) * n])
    if tape is not None:
        def backward_fn(sweep, g):
            sweep.grad_buffer(z)[k * n:(k + 1) * n] += g
        tape.append(out, backward_fn)
    return out


def reference_attention_context(tape, params, hidden_seq, s_prev):
    key = ad.matvec(tape, params.attn_W_dec, s_prev)
    scores = [ad.dot(tape, params.attn_v,
                     ad.tanh(tape, ad.add(tape, ad.matvec(tape, params.attn_W_enc, h), key)))
              for h in hidden_seq]
    weights = ad.softmax_op(tape, ad.concat(tape, scores))
    return ad.weighted_sum(tape, weights, hidden_seq)


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


# --- reference beam search --------------------------------------------------
# One DecodeSession.step on one state per live hypothesis and member, every
# candidate built and fully sorted by (-logprob, ids): the oracle for the
# batched search.beam_decode and its partial selection.

def reference_beam_decode(models, x_ids, width, max_len, lm=None, lam=1.0):
    sessions = [DecodeSession(m, x_ids) for m in models]
    vocab = models[0].vocab
    live = [((), 0.0, tuple(s.initial_state() for s in sessions))]
    pool = []
    for t in range(max_len):
        cands = []
        for ids, logprob, states in live:
            y_prev = ids[-1] if ids else BOS
            stepped = [s.step(h, c, y_prev, t) for s, (h, c) in zip(sessions, states)]
            dist = search.ensemble_next_dist([d for _, _, d in stepped])
            if lm is not None:
                dist = search.interpolated_next_dist(
                    dist, search.lm_next_dist(lm, vocab, ids), lam)
            for i in np.flatnonzero(dist > 0.0):
                i = int(i)
                lp = logprob + float(np.log(dist[i]))
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
