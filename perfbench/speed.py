"""Host-speed normalisation of the benchmark's timings.

On a shared host the speed of a core drifts by up to ~1.4x within seconds,
whatever the program does, so raw wall times of the same code spread more
between runs than any useful bound. A SpeedClock runs a fixed reference
kernel (a few ms of small numpy LSTM-like steps and Python bookkeeping, the
instruction mix of the program) in short bursts between pieces of measured
work, at least every BURST_EVERY_S. Each stretch of work between two bursts
is scaled by REFERENCE_MS / (the median burst time around it), which turns
its wall time into seconds at reference speed: the speed at which one burst
takes REFERENCE_MS. Burst time itself is never counted as work, and cyclic
garbage collection is paused during a burst, so the program's garbage is
never collected on the kernel's clock.

The kernel lives here and never calls the program, so a change to the
program moves only the measured work, not the yardstick.
"""

import contextlib
import gc
import statistics
import time

import numpy as np

from morphogen import trainer

REFERENCE_MS = 1.5          # one burst at reference speed
BURST_EVERY_S = 0.05        # at most this much work between two bursts
KERNEL_STEPS = 70

_RNG = np.random.default_rng(20160101)
_X = _RNG.standard_normal(32)
_W = _RNG.standard_normal((128, 64)) * 0.2
_B = _RNG.standard_normal(128) * 0.1


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def reference_kernel():
    """Fixed work: KERNEL_STEPS LSTM-like steps, each with a top-8 sort."""
    h, c = np.zeros(32), np.zeros(32)
    best = {}
    for step in range(KERNEL_STEPS):
        z = _W @ np.concatenate((_X, h)) + _B
        c = _sigmoid(z[32:64]) * c + _sigmoid(z[:32]) * np.tanh(z[96:])
        h = _sigmoid(z[64:96]) * np.tanh(c)
        top = sorted(((float(v), k) for k, v in enumerate(h[:8])), reverse=True)
        best[step % 7] = top[0]
    return sum(v for v, _ in best.values())


class SpeedClock:
    """Reference bursts between pieces of work; stamps are burst indices.

    Segment j is the stretch of work between burst j and burst j + 1.
    """

    def __init__(self, every_s=BURST_EVERY_S):
        self._every_ns = int(every_s * 1e9)
        self.starts = []
        self.ends = []

    def burst(self):
        """Run the kernel once; returns the index of the segment that follows."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            reference_kernel()
            t1 = time.perf_counter_ns()
        finally:
            if collecting:
                gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)
        return len(self.ends) - 1

    def tick(self):
        """Burst if BURST_EVERY_S of work has passed since the last one."""
        if not self.ends or time.perf_counter_ns() - self.ends[-1] >= self._every_ns:
            self.burst()

    @property
    def segment(self):
        return len(self.ends) - 1

    def factor(self, j):
        """Reference speed / host speed around segment j (bursts j-1 .. j+2)."""
        window = [e - s for s, e in zip(self.starts[max(0, j - 1):j + 3],
                                        self.ends[max(0, j - 1):j + 3])]
        return REFERENCE_MS * 1e6 / statistics.median(window)

    def seconds(self, a, b, factor=None):
        """Work time between stamps a and b, bursts left out; scaled unless a
        factor (e.g. `lambda j: 1.0` for wall time) is given."""
        factor = factor or self.factor
        return sum((self.starts[j + 1] - self.ends[j]) * factor(j) for j in range(a, b)) / 1e9

    def summary(self):
        ms = [(e - s) / 1e6 for s, e in zip(self.starts, self.ends)]
        if not ms:
            return {"bursts": 0}
        q = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
        return {"bursts": len(ms), "reference_ms": REFERENCE_MS,
                "burst_ms_median": statistics.median(ms), "burst_ms_q1": q[0],
                "burst_ms_q3": q[2], "burst_s_total": sum(ms) / 1e3}

    @contextlib.contextmanager
    def ticking_in_training(self):
        """Tick after every optimiser step, so that training is scaled per
        stretch of BURST_EVERY_S rather than per train_factored call. The
        hook replaces trainer.adadelta_step only for the duration of the
        block; if the trainer stops calling it, training is scaled per call."""
        original = trainer.adadelta_step

        def adadelta_step(*args, **kwargs):
            result = original(*args, **kwargs)
            self.tick()
            return result

        trainer.adadelta_step = adadelta_step
        try:
            yield self
        finally:
            trainer.adadelta_step = original


class NoClock:
    """Stand-in for the traced run, which reports wall times."""

    segment = 0

    def burst(self):
        return 0

    def tick(self):
        pass


NO_CLOCK = NoClock()
