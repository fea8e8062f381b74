"""Character n-gram language model with Witten-Bell smoothing.

Each order interpolates with the next lower order, weighted by the number of
distinct successors of the history:

    P(w|h) = (c(h,w) + T(h) * P(w|h')) / (c(h) + T(h))

where h' drops the oldest character and the base case is uniform over the
data alphabet plus the end-of-word symbol. Words are padded with order-1
start symbols and a single end symbol, and training uses unique word types.
"""

import math
import warnings

from .data import open_text
from .errors import DataError

__all__ = [
    "BOW",
    "EOW",
    "WittenBellLM",
    "filter_wordlist",
    "train_lm",
    "lm_score_word",
    "save_lm",
    "load_lm",
]

BOW = "\x02"
EOW = "\x03"

DEFAULT_ORDER = 5


class WittenBellLM:
    """Immutable after training; all count tables keyed by history strings."""

    def __init__(self, order, alphabet):
        if order < 1:
            raise DataError(f"LM order must be >= 1, got {order}")
        self.order = int(order)
        self.alphabet = "".join(sorted(set(alphabet)))
        if BOW in self.alphabet or EOW in self.alphabet:
            raise DataError("LM alphabet must not contain boundary symbols")
        self._succ = {}   # history -> {char: count}
        self._total = {}  # history -> c(history)
        # (vocab data chars, last order - 1 output ids) -> read-only next-char
        # log-probs, filled by search.lm_next_dist; emptied whenever a count
        # changes
        self.bridge_cache = {}

    @property
    def base_prob(self):
        return 1.0 / (len(self.alphabet) + 1)

    def _observe(self, history, char, count=1):
        d = self._succ.setdefault(history, {})
        d[char] = d.get(char, 0) + count
        self._total[history] = self._total.get(history, 0) + count
        self.bridge_cache.clear()

    def _count_word(self, word):
        seq = BOW * (self.order - 1) + word + EOW
        start = self.order - 1
        for i in range(start, len(seq)):
            for hlen in range(self.order):
                self._observe(seq[i - hlen:i], seq[i])

    def prob(self, history, char):
        """P(char | the last order - 1 characters of history), interpolated
        from the empty history up, one order at a time: a loop, so that any
        order runs without recursion."""
        h = history[-(self.order - 1):] if self.order > 1 else ""
        p = self.base_prob
        for i in range(len(h), -1, -1):     # the history's suffixes, shortest first
            suffix = h[i:]
            total = self._total.get(suffix, 0)
            if total:
                succ = self._succ[suffix]
                t = len(succ)
                p = (succ.get(char, 0) + t * p) / (total + t)
        return p

    @classmethod
    def from_counts(cls, order, alphabet, counts):
        """Build directly from {history: {char: count}} tables (tests, load)."""
        lm = cls(order, alphabet)
        for history, succ in counts.items():
            for char, count in succ.items():
                if count <= 0:
                    raise DataError(f"LM count for ({history!r}, {char!r}) must be positive")
                lm._observe(history, char, count)
        return lm


def filter_wordlist(words, vocab):
    """Keep only words whose every character the generation model has seen."""
    known = set(vocab.data_chars)
    return [w for w in words if all(ch in known for ch in w)]


def train_lm(words, order=DEFAULT_ORDER):
    types = sorted(set(words))
    if not types:
        raise DataError("cannot train a language model on an empty corpus")
    alphabet = sorted({ch for w in types for ch in w})
    lm = WittenBellLM(order, alphabet)
    for w in types:
        lm._count_word(w)
    return lm


def lm_score_word(lm, word):
    """Log probability of the word including the end-boundary transition."""
    seq = BOW * (lm.order - 1) + word + EOW
    start = lm.order - 1
    return sum(math.log(lm.prob(seq[i - start:i] if start else "", seq[i]))
               for i in range(start, len(seq)))


def _escape(s):
    return s.encode("unicode_escape").decode("ascii")


def _unescape(s):
    """Inverse of _escape; an escape _escape never writes is a ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return s.encode("ascii").decode("unicode_escape")
        except DeprecationWarning as exc:
            raise ValueError(f"{s!r}: {exc}") from None


def save_lm(lm, path):
    lines = [f"ngram-order {lm.order}", f"alphabet {_escape(lm.alphabet)}"]
    entries = sorted((len(h) + 1, h, c, n)
                     for h, succ in lm._succ.items() for c, n in succ.items())
    for order, history, char, count in entries:
        lines.append(f"{order}\t{_escape(history)}\t{_escape(char)}\t{count}")
    with open_text(path, "w", what="LM file") as f:
        f.write("\n".join(lines) + "\n")


def load_lm(path):
    with open_text(path, what="LM file") as f:
        lines = f.read().splitlines()
    if len(lines) < 2 or not lines[0].startswith("ngram-order ") \
            or not lines[1].startswith("alphabet "):
        raise DataError(f"LM file {path}: missing header lines")
    try:
        order = int(lines[0].split(" ", 1)[1])
    except ValueError as exc:
        raise DataError(f"LM file {path}: bad order line {lines[0]!r}") from exc
    try:
        alphabet = _unescape(lines[1].split(" ", 1)[1])
    except ValueError as exc:
        raise DataError(f"LM file {path}: bad alphabet line {lines[1]!r}") from exc
    counts = {}
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"LM file {path}:{lineno}: expected 4 fields, got {len(parts)}")
        try:
            order_field, count = int(parts[0]), int(parts[3])
            history, char = _unescape(parts[1]), _unescape(parts[2])
        except ValueError as exc:
            raise DataError(f"LM file {path}:{lineno}: {exc}") from exc
        if len(history) + 1 != order_field:
            raise DataError(f"LM file {path}:{lineno}: order field disagrees with history")
        counts.setdefault(history, {})[char] = count
    return WittenBellLM.from_counts(order, alphabet, counts)
