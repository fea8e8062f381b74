"""Structural checks on the program's outputs.

A violation raises BenchInvariantError, which makes the benchmark exit
non-zero without a result line, so a wrong answer is never reported as a
fast one.
"""

import math

from morphogen.vocab import BOS, EOS, EPS

_NEVER_EMITTED = (BOS, EOS, EPS)


class BenchInvariantError(Exception):
    """An output broke a structural invariant of the program."""


def _check_ids(ids, vocab_size, max_len, truncated, what):
    if any(i in _NEVER_EMITTED or not 0 <= i < vocab_size for i in ids):
        raise BenchInvariantError(f"{what}: output ids {ids} hold a special or out-of-range id")
    if len(ids) > max_len:
        raise BenchInvariantError(f"{what}: {len(ids)} ids exceed max_len {max_len}")
    if truncated != (len(ids) == max_len):
        raise BenchInvariantError(
            f"{what}: truncated={truncated} with {len(ids)} ids and max_len {max_len}")


def _check_logprob(logprob, what):
    if not math.isfinite(logprob) or logprob > 0.0:
        raise BenchInvariantError(f"{what}: log-probability {logprob!r} is not finite and <= 0")


def check_greedy(result, vocab_size, max_len, what="greedy"):
    """A greedy result is truncated exactly when it reached max_len."""
    _check_ids(result.ids, vocab_size, max_len, result.truncated, what)
    _check_logprob(result.logprob, what)


def check_beam(results, width, vocab_size, max_len, what="beam"):
    """Non-empty, at most `width` entries, sorted by (-logprob, ids)."""
    if not results:
        raise BenchInvariantError(f"{what}: empty result list")
    if len(results) > width:
        raise BenchInvariantError(f"{what}: {len(results)} results for width {width}")
    keys = [(-r.logprob, r.ids) for r in results]
    if keys != sorted(keys):
        raise BenchInvariantError(f"{what}: results not sorted by (-logprob, ids)")
    for r in results:
        _check_ids(r.ids, vocab_size, max_len, r.truncated, what)
        _check_logprob(r.logprob, what)


def check_train_log(lines, epochs, what="train"):
    """Every `epoch TAB loss TAB accuracy` line parses and its loss is finite."""
    if len(lines) != epochs:
        raise BenchInvariantError(f"{what}: {len(lines)} log lines for {epochs} epochs")
    for expected, line in enumerate(lines, start=1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise BenchInvariantError(f"{what}: log line {line!r} has {len(parts)} fields")
        try:
            epoch, loss = int(parts[0]), float(parts[1])
            acc = None if parts[2] == "None" else float(parts[2])
        except ValueError as exc:
            raise BenchInvariantError(f"{what}: log line {line!r} does not parse") from exc
        if epoch != expected:
            raise BenchInvariantError(f"{what}: log line {line!r} out of order")
        if not math.isfinite(loss) or loss < 0.0:
            raise BenchInvariantError(f"{what}: log line {line!r} has a bad loss")
        if acc is not None and not 0.0 <= acc <= 1.0:
            raise BenchInvariantError(f"{what}: log line {line!r} has a bad accuracy")
