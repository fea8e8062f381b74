"""Beam-output reranking: Table-style string features plus PRO training.

A candidate y for source x is scored by a linear model over eight features
(LM log-prob, model log-prob, length difference, edit distance, shared
prefix/suffix predicates, two subsequence predicates). Training samples
candidate pairs per beam group, keeps those whose edit-distance-to-gold
quality differs by at least 1, and fits the weights by logistic loss on
feature differences (pairwise ranking optimization).
"""

import random
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .charlm import lm_score_word
from .data import open_text, split_fields
from .errors import DataError, TrainError

__all__ = [
    "FEATURE_NAMES",
    "RerankGroup",
    "RerankModel",
    "levenshtein",
    "is_subsequence",
    "common_prefix_len",
    "common_suffix_len",
    "extract_features",
    "pro_train",
    "pairwise_accuracy",
    "rerank",
    "save_weights",
    "load_weights",
]

FEATURE_NAMES = (
    "lm_logprob",
    "model_logprob",
    "length_diff",
    "levenshtein",
    "same_suffix",
    "same_prefix",
    "y_subseq_of_x",
    "x_subseq_of_y",
)

AFFIX_MATCH_MIN = 2
MAX_PAIRS_PER_GROUP = 50
PRO_L2 = 1e-4


def levenshtein(a, b):
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def is_subsequence(a, b):
    """True iff a can be read off b left to right, not necessarily contiguous."""
    it = iter(b)
    return all(ch in it for ch in a)


def common_prefix_len(a, b):
    n = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        n += 1
    return n


def common_suffix_len(a, b):
    return common_prefix_len(a[::-1], b[::-1])


def extract_features(x, y, model_logprob, lm):
    return np.array([
        lm_score_word(lm, y),
        model_logprob,
        len(y) - len(x),
        levenshtein(y, x),
        float(common_suffix_len(y, x) >= AFFIX_MATCH_MIN),
        float(common_prefix_len(y, x) >= AFFIX_MATCH_MIN),
        float(is_subsequence(y, x)),
        float(is_subsequence(x, y)),
    ], dtype=np.float64)


@dataclass(frozen=True)
class RerankGroup:
    """One source's beam: candidates as (text, model_logprob) in beam order."""
    source: str
    gold: str
    candidates: tuple

    def __post_init__(self):
        if len(self.candidates) < 1:
            raise DataError(f"rerank group for {self.source!r} has no candidates")


@dataclass(frozen=True)
class RerankModel:
    weights: np.ndarray

    def score(self, features):
        return float(self.weights @ features)

    def as_dict(self):
        return dict(zip(FEATURE_NAMES, (float(w) for w in self.weights)))

    @classmethod
    def from_dict(cls, d):
        missing = set(FEATURE_NAMES) - set(d)
        extra = set(d) - set(FEATURE_NAMES)
        if missing or extra:
            raise DataError(f"reranker weights: missing {sorted(missing)}, unknown {sorted(extra)}")
        w = np.array([float(d[name]) for name in FEATURE_NAMES])
        if not np.all(np.isfinite(w)):
            raise DataError("reranker weights must be finite")
        return cls(w)


def _group_features(group, lm):
    feats = [extract_features(group.source, y, lp, lm) for y, lp in group.candidates]
    quality = [-levenshtein(y, group.gold) for y, _ in group.candidates]
    return feats, quality


def _gap_pairs(quality):
    """(better, worse) for every candidate pair i < j whose quality differs
    by at least 1, in (i, j) order."""
    return [(i, j) if quality[i] > quality[j] else (j, i)
            for i in range(len(quality)) for j in range(i + 1, len(quality))
            if abs(quality[i] - quality[j]) >= 1]


def _sample_pairs(feats, quality, rng):
    pairs = _gap_pairs(quality)
    if len(pairs) > MAX_PAIRS_PER_GROUP:
        pairs = rng.sample(pairs, MAX_PAIRS_PER_GROUP)
    return [feats[better] - feats[worse] for better, worse in pairs]


def pro_train(groups, lm, iterations=100, seed=0):
    """Fit reranker weights on beam groups with known gold forms."""
    if iterations < 1:
        raise TrainError(f"PRO iterations must be >= 1, got {iterations}")
    rng = random.Random(seed)
    diffs = []
    for group in groups:
        feats, quality = _group_features(group, lm)
        diffs.extend(_sample_pairs(feats, quality, rng))
    if not diffs:
        raise TrainError("PRO training found no candidate pairs with a quality gap")
    d = np.stack(diffs)
    # imported here, not at the top: scipy.optimize takes about a third of
    # the time `import morphogen.cli` takes, and only PRO training uses it
    from scipy.optimize import minimize

    def objective(w):
        z = d @ w
        loss = np.logaddexp(0.0, -z).sum() + 0.5 * PRO_L2 * (w @ w)
        grad = -(d * expit(-z)[:, None]).sum(axis=0) + PRO_L2 * w
        return loss, grad

    res = minimize(objective, np.zeros(len(FEATURE_NAMES)), jac=True,
                   method="L-BFGS-B", options={"maxiter": iterations})
    if not np.all(np.isfinite(res.x)):
        raise TrainError("PRO optimization produced non-finite weights")
    return RerankModel(res.x)


def pairwise_accuracy(model, groups, lm):
    """Fraction of quality-gap pairs the scorer orders correctly (all pairs)."""
    correct = total = 0
    for group in groups:
        feats, quality = _group_features(group, lm)
        scores = [model.score(f) for f in feats]
        pairs = _gap_pairs(quality)
        total += len(pairs)
        correct += sum(scores[better] > scores[worse] for better, worse in pairs)
    if total == 0:
        raise DataError("no scorable pairs in the given groups")
    return correct / total


def rerank(nbest, model, lm, x):
    """Best candidate under the learned scorer; ties keep the beam order."""
    if not nbest:
        raise DataError("rerank called with an empty candidate list")
    scores = np.array([model.score(extract_features(x, y, lp, lm)) for y, lp in nbest])
    return nbest[int(np.argmax(scores))][0]


def save_weights(model, path):
    with open_text(path, "w", what="weights file") as f:
        for name, w in model.as_dict().items():
            f.write(f"{name}\t{w!r}\n")


def load_weights(path):
    weights = {}
    with open_text(path, what="weights file") as f:
        for lineno, (name, weight) in split_fields(f, (2,), path):
            try:
                weights[name] = float(weight)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad weight {weight!r}") from exc
    return RerankModel.from_dict(weights)
