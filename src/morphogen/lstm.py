"""LSTM cell, sequence runner, and the bidirectional encoder.

Single-layer, no peepholes, independent forget gate. Gate weights are stored
fused as [4n x l] / [4n x n] blocks in (input, forget, output, candidate)
order; the forget block of the bias starts at 1.0. lstm_step is the cell on
arrays, for one state or a batch of rows, given its input projection
W_x x + b; run_cached forms that projection per step, runs the cell over a
sequence and keeps what backward_cached, backpropagation through time by
hand, reads. A decoder that knows its inputs' projections in advance
(model.DecodeSession's tables) passes them to a cell directly: lstm_step
for one state, rows_step for rows.

rows_step is the same update for decoding rows only. It takes the i/f/o
sigmoid as 1 / (1 + exp(-z)) from NumPy's vectorized exp, where lstm_step
(and so training, the encoder and one decoder state) keeps scipy's expit,
which calls libm's exp once per value. On wide rows NumPy's form is about
twice as fast; on one state of 3n values expit is faster. The two differ
at rounding level (a few ULP in some gates), so rows_step's states are not
lstm_step's bits.

A stack of K cells of one shape (decoding an ensemble) holds each tensor
with a leading member axis, W_x [K,4n,l], W_h [K,4n,n] and b [K,1,4n], and
steps rows [K,B,·]: one np.matmul per weight for all members, each member's
slice computed by the same BLAS call as that member alone.

A batch of sources of different lengths (decoding a run of words) runs as
rows padded to the longest, with a mask: run_cached holds a row's state
through its padded steps, so encode_bidirectional gives every row the
states its source alone would.
"""

import numpy as np
from scipy.special import expit

from .errors import DimensionError

__all__ = ["LSTMParams", "lstm_step", "rows_step", "run_cached", "backward_cached",
           "encode_bidirectional"]

FORGET_BIAS = 1.0


class LSTMParams:
    """Fused gate weights for one direction: W_x[4n,l], W_h[4n,n], b[4n]
    (a stack of K: W_x[K,4n,l], W_h[K,4n,n], b[K,1,4n])."""

    def __init__(self, name, W_x, W_h, b):
        self.name = name
        self.W_x = W_x
        self.W_h = W_h
        self.b = b
        self.hidden_size = W_h.value.shape[-1]
        self.input_size = W_x.value.shape[-1]
        lead = W_h.value.shape[:-2]
        gates = 4 * self.hidden_size
        if W_x.value.shape != (*lead, gates, self.input_size):
            raise DimensionError(f"lstm {name}: W_x has shape {W_x.value.shape}")
        if b.value.shape != ((*lead, 1, gates) if lead else (gates,)):
            raise DimensionError(f"lstm {name}: b has shape {b.value.shape}")
        # a zero state: [n], or [K, 1, n] for a stack, which broadcasts over rows
        self.state_shape = (*lead, 1, self.hidden_size) if lead else self.hidden_size

    def parameters(self):
        return [self.W_x, self.W_h, self.b]


def lstm_step(params, ZX, H, C):
    """One cell update from the input projection ZX = W_x x + b: gates
    z = ZX + W_h h, i,f,o = sigmoid, g = tanh, c' = f*c + i*g,
    h' = o*tanh(c'), on one state (ZX [4n], H and C [n]), on a batch of rows
    (ZX [B,4n], H and C [B,n]) or, for a stack, on rows [K,B,·] -> (H', C',
    sigmoid(z) over the i/f/o slice, the candidate g, tanh(C'));
    backward_cached reads the last three."""
    n = params.hidden_size
    n3 = 3 * n
    z = ZX + H @ params.W_h.value.mT
    sig = expit(z[..., :n3])
    g = np.tanh(z[..., n3:])
    C = sig[..., n:2 * n] * C + sig[..., :n] * g
    tc = np.tanh(C)
    return sig[..., 2 * n:] * tc, C, sig, g, tc


def rows_step(params, ZX, H, C):
    """lstm_step's update on rows (ZX [B,4n], H and C [B,n]) or a stack's
    rows [K,B,·] -> (H', C'), for decoding: no backward values, and the
    i/f/o sigmoid computed as 1 / (1 + exp(-z)) in place on one buffer.

    exp(-z) overflows to inf for z below about -709, which still gives the
    sigmoid exactly 0, so the exp alone runs with overflow ignored. Ignoring
    it for a whole search instead cost as much on beam search and slowed
    one-state greedy, whose ufuncs then ran inside the np.errstate too."""
    n = params.hidden_size
    n3 = 3 * n
    z = H @ params.W_h.value.mT
    z += ZX
    sig = np.negative(z[..., :n3])
    with np.errstate(over="ignore"):
        np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    C = sig[..., n:2 * n] * C + sig[..., :n] * np.tanh(z[..., n3:])
    return sig[..., 2 * n:] * np.tanh(C), C


def run_cached(params, xs, h0=None, step_input=None, mask=None):
    """lstm_step over the input vectors xs (a stack's rows [K,B,l]), from
    (h0, 0) or the zero state -> (every step's h, a per-step cache for
    backward_cached). Each step's input projection is x @ W_x.T + b, summed
    before the recurrent product joins, so the gates keep training's bits.

    step_input(x, h_prev), if given, builds each step's input from xs[t] and
    the previous h: an input that depends on the state, like attention's.
    mask, if given, holds a [B, 1] array of bools per step for rows xs[t]
    [B, l] (or [K, B, l]): a row whose entry is False keeps its state
    through that step, as a padded position of a batch of sources must. The
    cache of a masked run is not one backward_cached can read.
    """
    W_xT, b = params.W_x.value.mT, params.b.value
    h = np.zeros(params.state_shape) if h0 is None else h0
    c = np.zeros(params.state_shape)
    hs, cache = [], []
    for t, x in enumerate(xs):
        if step_input is not None:
            x = step_input(x, h)
        h_next, c_next, sig, g, tc = lstm_step(params, x @ W_xT + b, h, c)
        cache.append((x, h, c, sig, g, tc))
        if mask is not None:
            h_next, c_next = np.where(mask[t], h_next, h), np.where(mask[t], c_next, c)
        h, c = h_next, c_next
        hs.append(h)
    return hs, cache


def backward_cached(grads, params, cache, gh_out, step_grad=None):
    """Backpropagation through time over run_cached's steps, last step
    first, adding each gradient in the order that a tape with one record per
    cell step would.

    gh_out[t] is the gradient reaching h_t from outside the cell (None: none;
    the last step needs one). step_grad(t, dx), if given, takes step t's
    input gradient and returns the gradient that the input sends on into
    h_{t-1} (run_cached's step_input); it joins the recurrent gradient
    before gh_out[t-1] does, as on such a tape. Adds the weight and bias
    gradients into grads, the caller's {Parameter: buffer} map, each weight's
    as one product over its rows [dz_T..dz_1] and inputs or states in the
    same order; returns each step's input gradient and the gradient into h0.
    """
    n = params.hidden_size
    W_x, W_h = params.W_x.value, params.W_h.value
    xs, hs, cs, sig, g, tc = (np.array(col) for col in zip(*cache))    # [T, ...] each
    # a step's gate gradient dz is [dc, dc, dh, dc] * A * D; A and D hold
    # its elementwise products of forward values, for every step at once
    A = np.concatenate((g, cs, tc, sig[:, :n]), axis=1)
    D = np.concatenate((sig * (1.0 - sig), 1.0 - g * g), axis=1)
    dtc, o, f = 1.0 - tc * tc, sig[:, 2 * n:], sig[:, n:2 * n]
    dzs, dxs = [], [None] * len(cache)
    gh_rec = gc = None
    for t in range(len(cache) - 1, -1, -1):
        gh = gh_out[t]
        if gh_rec is not None:
            gh = gh_rec if gh is None else gh_rec + gh
        dc = gh * o[t] * dtc[t]
        if gc is not None:
            dc += gc
        dz = np.concatenate((dc, dc, gh, dc)) * A[t] * D[t]
        dzs.append(dz)
        dxs[t] = W_x.T @ dz
        gh_rec = W_h.T @ dz
        if step_grad is not None:
            gh_rec += step_grad(t, dxs[t])
        gc = dc * f[t]
    dZ = np.array(dzs).T    # products over contiguous rows, as the per-op oracle forms them
    grads[params.W_x] += dZ @ np.array(xs[::-1])
    grads[params.W_h] += dZ @ np.array(hs[::-1])
    grads[params.b] += sum(dzs[1:], dzs[0])
    return dxs, gh_rec


def encode_bidirectional(fwd, bwd, xs, mask=None):
    """Both passes over the inputs xs (vectors [l], or rows [K,1,l] for a
    stack) -> (the forward pass's h at every position, the backward pass's h
    at every position, the forward pass's run_cached cache, the backward
    pass's, which runs over xs reversed).

    With mask (run_cached's, one [B, 1] array per position), xs holds the
    rows [B, l] ([K, B, l] for a stack) of B sources padded at the end to
    one length, and each row keeps its state over its padding: the forward
    pass carries a row's last state to the end, and the backward pass holds
    the zero state until it reaches the row's last symbol. So every row's
    states at its own positions, and the final states at positions -1 and 0,
    are the ones its source alone would give."""
    if not xs:
        raise DimensionError(f"lstm {fwd.name}: empty input sequence")
    fwd_hs, fwd_cache = run_cached(fwd, xs, mask=mask)
    bwd_hs, bwd_cache = run_cached(bwd, xs[::-1], mask=None if mask is None else mask[::-1])
    return fwd_hs, bwd_hs[::-1], fwd_cache, bwd_cache
