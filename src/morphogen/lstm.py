"""LSTM cell, sequence runner, and the bidirectional encoder.

Single-layer, no peepholes, independent forget gate. Gate weights are stored
fused as [4n x l] / [4n x n] blocks in (input, forget, output, candidate)
order; the forget block of the bias starts at 1.0. A cell step is one tape
record with a hand-written backward over the fused [4n] gate vector;
run_cached and backward_cached do whole sequences untaped, BPTT by hand.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from .errors import DimensionError

__all__ = ["LSTMParams", "LSTMState", "lstm_step", "lstm_step_rows", "run_cached",
           "backward_cached", "run_sequence", "encode_bidirectional", "zero_state"]

FORGET_BIAS = 1.0


@dataclass
class LSTMState:
    h: ad.Node
    c: ad.Node


class LSTMParams:
    """Fused gate weights for one direction: W_x[4n,l], W_h[4n,n], b[4n]."""

    def __init__(self, name, W_x, W_h, b):
        self.name = name
        self.W_x = W_x
        self.W_h = W_h
        self.b = b
        self.hidden_size = W_h.value.shape[1]
        self.input_size = W_x.value.shape[1]
        if W_x.value.shape != (4 * self.hidden_size, self.input_size):
            raise DimensionError(f"lstm {name}: W_x has shape {W_x.value.shape}")
        if b.value.shape != (4 * self.hidden_size,):
            raise DimensionError(f"lstm {name}: b has shape {b.value.shape}")

    def parameters(self):
        return [self.W_x, self.W_h, self.b]


def zero_state(hidden_size):
    return LSTMState(h=ad.constant(np.zeros(hidden_size)),
                     c=ad.constant(np.zeros(hidden_size)))


def _cell(params, X, H, C):
    """The cell on one state (X [l], H and C [n]) or on a batch of rows
    (X [B,l], H and C [B,n]) -> (H', C', sigmoid(z) over the i/f/o slice,
    the candidate g, tanh(C'))."""
    n = params.hidden_size
    n3 = 3 * n
    z = (X @ params.W_x.value.T + params.b.value) + H @ params.W_h.value.T
    sig = expit(z[..., :n3])
    g = np.tanh(z[..., n3:])
    C = sig[..., n:2 * n] * C + sig[..., :n] * g
    tc = np.tanh(C)
    return sig[..., 2 * n:] * tc, C, sig, g, tc


def lstm_step(tape, params, x, prev):
    """One cell update: i,f,o = sigmoid, g = tanh, c' = f*c + i*g, h' = o*tanh(c')."""
    n = params.hidden_size
    n3 = 3 * n
    xv, hv, cv = x.value, prev.h.value, prev.c.value
    if xv.shape[0] != params.input_size:
        raise DimensionError(
            f"lstm {params.name}: input {xv.shape} vs expected ({params.input_size},)")
    h, c, sig, g, tc = _cell(params, xv, hv, cv)
    h, c = ad.Node(h), ad.Node(c)
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


def lstm_step_rows(params, X, H, C):
    """lstm_step untaped, on one state (X [l], H and C [n]) or on a batch of
    rows (X [B,l], H and C [B,n]) -> (H', C')."""
    return _cell(params, X, H, C)[:2]


def run_cached(params, xs, h0=None, step_input=None):
    """lstm_step untaped over the input vectors xs, from (h0, 0) or the zero
    state -> (every step's h, a per-step cache for backward_cached).

    step_input(x, h_prev), if given, builds each step's input from xs[t] and
    the previous h: an input that depends on the state, like attention's.
    """
    h = np.zeros(params.hidden_size) if h0 is None else h0
    c = np.zeros(params.hidden_size)
    hs, cache = [], []
    for x in xs:
        if step_input is not None:
            x = step_input(x, h)
        h_next, c_next, sig, g, tc = _cell(params, x, h, c)
        cache.append((x, h, c, sig, g, tc))
        h, c = h_next, c_next
        hs.append(h)
    return hs, cache


def backward_cached(sweep, params, cache, gh_out, step_grad=None):
    """Backpropagation through time over run_cached's steps, in the order of
    lstm_step's backward over the same steps on a tape.

    gh_out[t] is the gradient reaching h_t from outside the cell (None: none;
    the last step needs one). step_grad(t, dx), if given, takes step t's
    input gradient and returns the gradient that the input sends on into
    h_{t-1} (run_cached's step_input); it joins the recurrent gradient
    before gh_out[t-1] does, as on a tape. Adds the weight and bias
    gradients into the sweep; returns each step's input gradient and the
    gradient into h0.
    """
    n = params.hidden_size
    W_x, W_h = params.W_x.value, params.W_h.value
    xs, hs, cs, sig, g, tc = (np.array(col) for col in zip(*cache))    # [T, ...] each
    # lstm_step's dz is [dc, dc, dh, dc] * A * D; A and D hold its
    # elementwise products of forward values, for every step at once
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
    sweep.acc_outers(params.W_x, dzs, xs[::-1])
    sweep.acc_outers(params.W_h, dzs, hs[::-1])
    sweep.acc(params.b, sum(dzs[1:], dzs[0]))
    return dxs, gh_rec


def run_sequence(tape, params, xs):
    """States for every step of xs, from the zero state."""
    if not xs:
        raise DimensionError(f"lstm {params.name}: empty input sequence")
    state = zero_state(params.hidden_size)
    states = []
    for x in xs:
        state = lstm_step(tape, params, x, state)
        states.append(state)
    return states


def encode_bidirectional(tape, fwd, bwd, xs):
    """The hidden states of both passes at every source position.

    Returns positions with positions[t] = (fwd h_t, bwd h_t); the final
    states are positions[-1][0] and positions[0][1].
    """
    fwd_states = run_sequence(tape, fwd, xs)
    bwd_states = run_sequence(tape, bwd, list(reversed(xs)))
    return [(f.h, b.h) for f, b in zip(fwd_states, bwd_states[::-1])]

