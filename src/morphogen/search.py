"""Greedy and beam decoding over one model or an ensemble.

Decoding works in log space. A DecodeSession step emits its output layer's
masked scores, and the search normalizes each step once: the step's
log-probs are the log-softmax of the mean of the members' scores plus
lambda * log p_lm, -inf where a symbol cannot follow. That is the product
of experts p(i) proportional to prod_j p_j(i)**(1/k), with an optional
character LM joining in as p_model(i) * p_lm(i)**lambda, both renormalized
by one log-sum-exp (the training loss's combination, autodiff.step_loss).
A hypothesis's score is the sum of its steps' log-probs. Beam search retires
EOS-terminated hypotheses into an n-best pool and breaks score ties by
lexicographic output ids, so decoding is fully deterministic.

Every step distribution is that one log-softmax, so each entry is <= 0 and
a hypothesis's score never rises as it grows. Beam search therefore stops
as soon as the pool holds `width` results and the best live score is
strictly below the width-th of them: no descendant of a live hypothesis
could reach the n-best, so the result is the one running to the end would
give.

Adjacent members that share (variant, hidden, embed_dim) step as one stack:
one DecodeSession over all of them, so each decoder step is one
DecodeSession.step call and one cell step for the run, with a leading
member axis K on its states and scores. A run of one member steps
unstacked, so a single model decodes as it would alone. Beam search steps
all live hypotheses of one word as the rows [B, ·] of each step call;
everything goes through _next_dist, and the combiner below works row by row
on [B, V] arrays as well as on single vectors.

Greedy search has two paths. greedy_decode_batch decodes a run of sources
(evaluate.decode_lemmas: a file, a tag, a dev set) as the rows of one batch
per BATCH_SOURCES sources: the members are stacked once per run, the
sources are encoded together, each row keeps its own source and max_len,
and rows retire at EOS or at their max_len. greedy_decode decodes one
source: one state for a single model, which is faster per word than a row
of one, and for an ensemble the same row loop on a batch of that one
source. The two paths give the same ids and truncation flags; their
log-probs agree to rounding (1e-12), since rows step lstm.rows_step and
row products where one state steps lstm.lstm_step.

Adding scores keeps the members' tails that probabilities lose to
underflow: two members at log-probs [0, -800] and [-800, 0] combine to
[log 0.5, log 0.5], where exp(-800) == 0 would leave no common support.
"""

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .autodiff import log_softmax
from .charlm import BOW, EOW
from .data import open_text, split_fields
from .errors import DataError, SearchError
from .model import DecodeSession, _stack
from .vocab import BOS, EOS, N_SPECIAL, UNK

__all__ = [
    "DecodeResult",
    "ensemble_next_dist",
    "interpolated_next_dist",
    "lm_next_dist",
    "lm_history",
    "greedy_decode",
    "greedy_decode_batch",
    "beam_decode",
    "write_nbest",
    "read_nbest",
]


@dataclass(frozen=True)
class DecodeResult:
    ids: tuple
    logprob: float
    truncated: bool

    def text(self, vocab):
        return vocab.decode(self.ids)


def ensemble_next_dist(scores, lm_dist=None, lam=1.0):
    """A step's log-probs: the log-softmax of the mean of the K members'
    scores plus lam * lm_dist (the LM's log-probs, added by
    interpolated_next_dist). scores holds one [V] or [B, V] array per member
    in order, as a sequence or as one [K, ...] array. One member without an
    LM gets a plain log_softmax, since a step's scores are finite but at BOS
    and EPS; any other row with no finite entry is a SearchError."""
    k = len(scores)
    if k == 0:
        raise SearchError("ensemble_next_dist needs at least one distribution")
    if k == 1 and lm_dist is None:
        return log_softmax(scores[0])
    # sum / k is what ndarray.mean computes, without its Python-level wrapper
    mean = scores[0] if k == 1 else np.asarray(scores, dtype=np.float64).sum(axis=0) / k
    if lm_dist is None:
        return log_softmax(mean, "ensemble distributions have disjoint support")
    return interpolated_next_dist(mean, lm_dist, lam)


def interpolated_next_dist(scores, lm_dist, lam):
    """log of softmax(scores) * p_lm**lam renormalized: the log-softmax of
    scores + lam * lm_dist, per row for [B, V] arrays (lam is checked once
    per search, by _check_models). lm_dist is finite, as lm_next_dist's is,
    so the sum keeps the scores' -inf entries; at lam = 0 none is formed."""
    if lam != 0:
        scores = scores + lam * lm_dist
    return log_softmax(scores, "interpolated distribution has zero mass")


def lm_history(vocab, order, prefix_ids):
    """LM conditioning window for a partial output (start-padded)."""
    surface = "".join(vocab.token_of(i) if i >= N_SPECIAL else "\x00"
                      for i in prefix_ids)
    return (BOW * (order - 1) + surface)[-(order - 1):] if order > 1 else ""


def lm_next_dist(lm, vocab, prefix_ids):
    """LM next-char log-probs mapped onto vocab ids (EOS carries EOW).

    BOS and EPS get log 1 = 0.0: the model's -inf scores rule them out, and
    a finite vector adds to them at any weight without NaN. It is a scoring
    bridge, not normalized over the vocab, meant for the normalizing
    combiner above and for interpolated training. It is memoised in the
    LM's bridge_cache per (vocabulary, last order - 1 ids), the ids that
    fix the history, so the returned array is shared and read-only.
    """
    n = lm.order - 1
    key = (vocab.data_chars, tuple(prefix_ids[-n:]) if n else ())
    dist = lm.bridge_cache.get(key)
    if dist is None:
        history = lm_history(vocab, lm.order, prefix_ids)
        dist = np.ones(len(vocab))
        dist[EOS] = lm.prob(history, EOW)
        dist[UNK] = lm.prob(history, "\x00")
        for i in vocab.data_ids():
            dist[i] = lm.prob(history, vocab.token_of(i))
        dist = np.log(dist)
        dist.flags.writeable = False
        lm.bridge_cache[key] = dist
    return dist


def _check_models(models, max_len, lm, lam):
    """Check a search's models and max_len, and with an LM its weight ->
    (their vocabulary, the LM, the LM weight: lam, else the first member's
    learned lm_lambda, else 1.0). At weight 0 the LM comes back as None: the
    combiner would form no LM term, so the search looks up no LM vector."""
    if not models:
        raise SearchError("decoding needs at least one model")
    if max_len < 1:
        raise SearchError(f"max_len must be >= 1, got {max_len}")
    vocab = models[0].vocab
    if any(m.vocab != vocab for m in models[1:]):
        raise SearchError("ensemble members must share one vocabulary")
    if lam is None:
        lam = 1.0 if models[0].lm_lambda is None else models[0].lm_lambda
    if lm is not None and not 0 <= lam < np.inf:
        raise SearchError(f"interpolation weight must be a finite number >= 0, got {lam}")
    return vocab, lm if lam != 0 else None, lam


def _runs(models):
    """The parameters of each run of adjacent members that share (variant,
    hidden, embed_dim): the model itself for a run of one, the run as one
    stack otherwise, in member order. A stack copies the members' values,
    so it serves one decoding call, never across a training step."""
    runs = [list(run) for _, run in groupby(models, key=lambda m: (m.variant, m.hidden,
                                                                    m.embed_dim))]
    return [run[0] if len(run) == 1 else _stack(run) for run in runs]


def _sessions(models, x_ids):
    """One DecodeSession over x_ids per run of members (_runs)."""
    return [DecodeSession(params, x_ids) for params in _runs(models)]


def _next_dist(sessions, states, y_prev, t, lm_dist, lam):
    """Step every session and combine the members' scores with the LM
    vector, if any, into one log-softmax.

    states holds one (h, c) per session, as one state or as B rows, with a
    leading member axis for a stack; returns the stepped states and the
    step's log-probs [V] or [B, V].
    """
    stepped, scores = [], []
    for sess, (H, C) in zip(sessions, states):
        H, C, S = sess.step(H, C, y_prev, t)
        stepped.append((H, C))
        scores.append(S)
    # the members' scores, in member order, as one [K, ...] array
    if len(sessions) > 1:
        scores = np.concatenate([S if s.stacked else S[None] for s, S in zip(sessions, scores)])
    elif sessions[0].stacked:
        scores = scores[0]
    return stepped, ensemble_next_dist(scores, lm_dist, lam)


def greedy_decode(models, x_ids, max_len, lm=None, lam=None):
    """Pick the argmax at every step; lowest id wins exact ties. The LM
    weight lam defaults to the first member's learned lm_lambda, else 1.0.

    A single model steps one state. An ensemble steps one row per member:
    it runs greedy_decode_batch's row loop on a batch of this one source."""
    vocab, lm, lam = _check_models(models, max_len, lm, lam)
    if len(models) > 1:
        return _greedy_rows(_runs(models), [x_ids], [max_len], vocab, lm, lam)[0]
    sessions = _sessions(models, x_ids)
    states = [s.initial_state() for s in sessions]
    ids, logprob = (), 0.0
    for t in range(max_len):
        lm_dist = lm_next_dist(lm, vocab, ids) if lm is not None else None
        y_prev = ids[-1] if ids else BOS
        states, dist = _next_dist(sessions, states, y_prev, t, lm_dist, lam)
        choice = int(dist.argmax())
        logprob += float(dist[choice])
        if choice == EOS:
            return DecodeResult(ids, logprob, truncated=False)
        ids += (choice,)
    return DecodeResult(ids, logprob, truncated=True)


# Sources per batch in greedy_decode_batch: the cost per source of an
# encoder pass and of a decoder step falls as rows are added, up to about
# this many (h = 32), while a longer batch holds more states in memory.
BATCH_SOURCES = 64


def greedy_decode_batch(models, sources, max_lens, lm=None, lam=None):
    """greedy_decode of every source (max_lens[i] for sources[i]), in input
    order, stepped as the rows of one batch per BATCH_SOURCES sources.

    The members are grouped and stacked once per call. Each row keeps its
    own source, e, source pointer and max_len; it retires at EOS or at its
    max_len, and the live rows are compacted. A row's ids and truncation
    flag are greedy_decode's, and its log-prob is to rounding: rows step
    lstm.rows_step and row products where a single model steps one state.
    """
    if not sources:
        return []
    vocab, lm, lam = _check_models(models, min(max_lens), lm, lam)
    runs = _runs(models)
    out = []
    for i in range(0, len(sources), BATCH_SOURCES):
        out += _greedy_rows(runs, sources[i:i + BATCH_SOURCES], max_lens[i:i + BATCH_SOURCES],
                            vocab, lm, lam)
    return out


def _greedy_rows(runs, sources, max_lens, vocab, lm, lam):
    """The greedy row loop over a batch of sources, one DecodeSession per
    run of members -> each source's DecodeResult, in input order."""
    sessions = [DecodeSession(params, sources=sources) for params in runs]
    states = [s.initial_state() for s in sessions]
    live = list(range(len(sources)))    # the source of each row
    ids = [()] * len(sources)
    out = [None] * len(sources)
    logprob = np.zeros(len(sources))
    y_prev = np.full(len(sources), BOS)
    for t in range(max(max_lens)):
        lm_dist = np.array([lm_next_dist(lm, vocab, ids[i]) for i in live]) \
            if lm is not None else None
        states, dist = _next_dist(sessions, states, y_prev, t, lm_dist, lam)
        y_prev = dist.argmax(axis=-1)
        logprob += dist.max(axis=-1)    # each row's entry at y_prev
        keep = []
        for r, (i, choice) in enumerate(zip(live, y_prev.tolist())):
            if choice == EOS:
                out[i] = DecodeResult(ids[i], float(logprob[r]), truncated=False)
                continue
            ids[i] += (choice,)
            if t + 1 == max_lens[i]:
                out[i] = DecodeResult(ids[i], float(logprob[r]), truncated=True)
            else:
                keep.append(r)
        if not keep:
            break
        if len(keep) < len(live):
            live = [live[r] for r in keep]
            logprob, y_prev = logprob[keep], y_prev[keep]
            states = [(H.take(keep, axis=-2), C.take(keep, axis=-2)) for H, C in states]
            for s in sessions:
                s.select(keep)
    return out


def beam_decode(models, x_ids, width, max_len, lm=None, lam=None):
    """Up to `width` results sorted by log-prob, ties by output ids; lam as
    for greedy_decode.

    The search ends at max_len, when no hypothesis is live, or as soon as
    the pool holds `width` results and the best live score is strictly below
    the width-th best of them: scores never rise (every step's log-probs are
    <= 0), so no live hypothesis could still enter the n-best.

    The live hypotheses are rows of one [B, n] state batch per session
    ([K, B, n] for a stack); after each step the rows of the survivors'
    parents are gathered in their order, once per session.
    """
    if width < 1:
        raise SearchError(f"beam width must be >= 1, got {width}")
    vocab, lm, lam = _check_models(models, max_len, lm, lam)
    sessions = _sessions(models, x_ids)
    states = [(h[..., None, :], c[..., None, :])
              for h, c in (s.initial_state() for s in sessions)]
    live_ids, live_lp = [()], [0.0]
    pool = []
    for t in range(max_len):
        y_prev = np.array([ids[-1] if ids else BOS for ids in live_ids])
        lm_dist = np.array([lm_next_dist(lm, vocab, ids) for ids in live_ids]) \
            if lm is not None else None
        stepped, dist = _next_dist(sessions, states, y_prev, t, lm_dist, lam)
        scores = np.array(live_lp)[:, None] + dist
        # EOS expansions compete with content expansions for the width slots;
        # surviving EOS branches retire, so width 1 walks the greedy path.
        best = _best(scores.ravel(), live_ids, width)
        rows, live_ids, live_lp = [], [], []
        for ids, lp, row in best:
            if ids[-1] == EOS:
                pool.append(DecodeResult(ids[:-1], lp, truncated=False))
            else:
                rows.append(row)
                live_ids.append(ids)
                live_lp.append(lp)
        if not rows:
            break
        if len(pool) >= width and live_lp[0] < sorted(r.logprob for r in pool)[-width]:
            live_ids = []   # none of them, nor any descendant, is in the n-best
            break
        states = [(np.take(H, rows, axis=-2), np.take(C, rows, axis=-2)) for H, C in stepped]
    pool += [DecodeResult(ids, lp, truncated=True) for ids, lp in zip(live_ids, live_lp)]
    pool.sort(key=lambda r: (-r.logprob, r.ids))
    return pool[:width]


def _best(scores, live_ids, width):
    """(grown ids, logprob, parent row) of the `width` best finite scores of
    the flattened [B, V] candidates, in the (-logprob, ids) order a full sort
    of every candidate gives.

    np.partition finds the width-th best score; every candidate scoring at
    least that much is sorted, so ties across the boundary resolve by ids.
    """
    V = scores.size // len(live_ids)
    keep = scores > -np.inf
    if np.count_nonzero(keep) > width:
        keep = scores >= np.partition(scores, scores.size - width)[scores.size - width]
    cands = []
    for j in np.flatnonzero(keep).tolist():
        row, i = divmod(j, V)
        lp = float(scores[j])
        cands.append((-lp, live_ids[row] + (i,), lp, row))
    cands.sort()
    return [(ids, lp, row) for _, ids, lp, row in cands[:width]]


def write_nbest(path, rows):
    """Rows of (source, tag, candidate, model_logprob), pre-grouped by source."""
    with open_text(path, "w", what="n-best file") as f:
        for source, tag, candidate, logprob in rows:
            f.write(f"{source}\t{tag}\t{candidate}\t{logprob!r}\n")


def read_nbest(path):
    rows = []
    with open_text(path, what="n-best file") as f:
        for lineno, (source, tag, candidate, logprob) in split_fields(f, (4,), path):
            try:
                value = float(logprob)
            except ValueError:
                value = np.nan
            if not np.isfinite(value):
                raise DataError(f"{path}:{lineno}: bad log-probability {logprob!r}")
            rows.append((source, tag, candidate, value))
    return rows
