"""Benchmark self-tests: seeded inputs and the output checks.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402
from checks import (BenchInvariantError, check_beam, check_greedy,  # noqa: E402
                    check_train_log)
from morphogen.search import DecodeResult  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_identical_digest(workload):
    assert wl.make_inputs(workload, 7).digest() == wl.make_inputs(workload, 7).digest()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_other_seed_gives_other_lemmas(workload):
    a, b = wl.make_inputs(workload, 7), wl.make_inputs(workload, 8)
    assert a.digest() != b.digest()
    assert {lemma for lemma, _ in a.lemmas} != {lemma for lemma, _ in b.lemmas}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_decoded_lemmas_are_distinct_and_unseen_in_training(workload):
    inputs = wl.make_inputs(workload, 3)
    lemmas = [lemma for lemma, _ in inputs.lemmas]
    assert len(set(lemmas)) == len(lemmas)
    assert len(lemmas) == {"train": wl.HELD_OUT_POOL, "greedy": wl.GREEDY_POOL,
                           "beam-lm": wl.BEAM_POOL}[workload]
    assert not set(lemmas) & {e.lemma for e in inputs.train + inputs.dev}
    # the training set does not follow the workload seed
    assert inputs.train == wl.make_inputs(workload, 4).train


def test_greedy_check_ties_truncation_to_max_len():
    check_greedy(DecodeResult((4, 5), -1.0, False), 10, 5)
    check_greedy(DecodeResult((4, 5, 6, 7, 8), -1.0, True), 10, 5)
    for bad in (DecodeResult((4, 5, 6, 7, 8), -1.0, False),
                DecodeResult((4, 5), -1.0, True),
                DecodeResult((4, 1), -1.0, False),
                DecodeResult((4,), 0.5, False),
                DecodeResult((4,), float("nan"), False)):
        with pytest.raises(BenchInvariantError):
            check_greedy(bad, 10, 5)


def test_beam_check_requires_sorted_bounded_nonempty_lists():
    a = DecodeResult((4,), -0.5, False)
    b = DecodeResult((5,), -0.5, False)
    c = DecodeResult((4, 4), -2.0, False)
    check_beam([a, b, c], 3, 10, 5)
    for bad, width in (([], 3), ([a, b, c], 2), ([c, a], 3), ([b, a], 3)):
        with pytest.raises(BenchInvariantError):
            check_beam(bad, width, 10, 5)


def test_train_log_check_parses_every_line():
    check_train_log(["1\t2.5\t0.25", "2\t1.0\tNone"], 2)
    for bad in (["1\tnan\t0.5"], ["1\t2.5"], ["2\t2.5\t0.5"], ["1\t2.5\t1.5"]):
        with pytest.raises(BenchInvariantError):
            check_train_log(bad, 1)
    with pytest.raises(BenchInvariantError):
        check_train_log(["1\t2.5\t0.5"], 2)
