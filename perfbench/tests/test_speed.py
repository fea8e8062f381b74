"""Benchmark self-tests: host-speed scaling.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
from morphogen import trainer  # noqa: E402

MS = 1_000_000


def _clock(bursts):
    """A clock with given (start_ms, end_ms) bursts instead of timed ones."""
    clock = speed.SpeedClock()
    clock.starts = [int(s * MS) for s, _ in bursts]
    clock.ends = [int(e * MS) for _, e in bursts]
    return clock


def test_burst_time_is_not_work_time():
    ref = speed.REFERENCE_MS
    clock = _clock([(0, ref), (10 + ref, 10 + 2 * ref), (30 + 2 * ref, 30 + 3 * ref)])
    assert clock.seconds(0, 2, factor=lambda j: 1.0) == pytest.approx(0.030)
    # every burst took exactly REFERENCE_MS: scaled time is wall time
    assert clock.seconds(0, 2) == pytest.approx(0.030)
    assert clock.seconds(1, 2) == pytest.approx(0.020)


def test_a_host_twice_as_slow_gives_the_same_scaled_time():
    ref = speed.REFERENCE_MS
    fast = _clock([(0, ref), (10 + ref, 10 + 2 * ref)])
    slow = _clock([(0, 2 * ref), (20 + 2 * ref, 20 + 4 * ref)])
    assert slow.seconds(0, 1, factor=lambda j: 1.0) == pytest.approx(0.020)
    assert slow.seconds(0, 1) == pytest.approx(fast.seconds(0, 1))


def test_factor_is_the_median_of_nearby_bursts():
    ref = speed.REFERENCE_MS
    durations = [ref, ref, 50 * ref, ref, 2 * ref, 2 * ref, 2 * ref]
    bursts, t = [], 0.0
    for d in durations:
        bursts.append((t, t + d))
        t += d + 5
    clock = _clock(bursts)
    assert clock.factor(1) == pytest.approx(1.0)     # one slow outlier is ignored
    assert clock.factor(5) == pytest.approx(0.5)


def test_training_hook_ticks_and_is_removed(monkeypatch):
    calls = []
    monkeypatch.setattr(trainer, "adadelta_step", lambda *args: calls.append(args) or "out")
    stub = trainer.adadelta_step
    clock = speed.SpeedClock(every_s=0.0)
    with pytest.raises(RuntimeError):
        with clock.ticking_in_training():
            assert trainer.adadelta_step(1, 2) == "out"
            assert trainer.adadelta_step(3, 4) == "out"
            raise RuntimeError
    assert calls == [(1, 2), (3, 4)]
    assert clock.segment == 1                    # one burst after each step
    assert trainer.adadelta_step is stub


def test_kernel_does_fixed_work():
    assert speed.reference_kernel() == speed.reference_kernel()
