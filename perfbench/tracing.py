"""Spans and counters recorded from outside the program.

The tracer replaces public functions of the morphogen modules with wrappers
for the duration of a `with tracer.installed():` block and restores the
originals afterwards, so nothing under src/ changes. Each span records its
name, start, end, parent span and the id of the example or word it belongs
to; spans stay in memory until `write_spans` is called at the end of a run.
Self time (span time minus the time covered by child spans) is accumulated
as spans close, per (scope, tag, name).
"""

import contextlib
import gzip
import time
from array import array
from collections import defaultdict

from morphogen import autodiff, charlm, lstm, model, search, trainer

# (owner, attribute, span name). Module attributes are looked up by their
# callers at call time, so replacing the attribute is enough to see the call.
SPAN_TARGETS = (
    (trainer, "forward_variant", "model.forward_variant"),
    (autodiff, "backward", "autodiff.backward"),
    (trainer, "adadelta_step", "optim.adadelta_step"),
    (trainer, "exact_match_accuracy", "trainer.exact_match_accuracy"),
    (lstm, "lstm_step", "lstm.lstm_step"),
    (lstm, "encode_bidirectional", "lstm.encode_bidirectional"),
    (model, "attention_context", "model.attention_context"),
    (search, "ensemble_next_dist", "search.ensemble_next_dist"),
    (search, "interpolated_next_dist", "search.interpolated_next_dist"),
    (search, "lm_next_dist", "search.lm_next_dist"),
    (model.DecodeSession, "__init__", "model.DecodeSession.__init__"),
    (model.DecodeSession, "step", "model.DecodeSession.step"),
)
# WittenBellLM.prob runs ~1.3k times per beam-lm word: a counter, no span.
COUNT_TARGETS = ((charlm.WittenBellLM, "prob", "charlm.prob"),)


class Stat:
    __slots__ = ("count", "total_ns", "self_ns")

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        # One entry per span in parallel arrays (a span's id is its index);
        # names and units are interned. Parent -1 marks a root span.
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._unit = array("i")
        self._names = {}
        self._units = {None: 0}
        self.stats = defaultdict(Stat)     # (scope, tag, name) -> Stat
        self.counts = defaultdict(int)     # (scope, tag, name) -> count
        self.scope = "setup"     # set by the benchmark: setup / train / dev / decode
        self.tag = ""            # model variant being trained or decoded
        self.unit = None         # id of the current example or word
        self._unit_serial = defaultdict(int)
        self._stack = []         # [span id, start_ns, child_ns]

    def begin_unit(self, kind):
        self._unit_serial[kind] += 1
        self.unit = f"{kind}:{self._unit_serial[kind]}"
        self._units[self.unit] = len(self._units)

    def count(self, name, n=1):
        self.counts[(self.scope, self.tag, name)] += n

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        span_id = len(self._start)
        self._name.append(self._names.setdefault(name, len(self._names)))
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._unit.append(self._units[self.unit])
        self._end.append(0)
        frame = [span_id, time.perf_counter_ns(), 0]
        self._start.append(frame[1])
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._end[span_id] = end
            self._stack.pop()
            dur = end - frame[1]
            if self._stack:
                self._stack[-1][2] += dur
            stat = self.stats[(self.scope, self.tag, name)]
            stat.count += 1
            stat.total_ns += dur
            stat.self_ns += dur - frame[2]

    def stat(self, scope, name, tag=None):
        """Summed Stat over tags (or for one tag) of a scope."""
        out = Stat()
        for (s, t, n), st in self.stats.items():
            if s == scope and n == name and (tag is None or t == tag):
                out.count += st.count
                out.total_ns += st.total_ns
                out.self_ns += st.self_ns
        return out

    def counted(self, scope, name):
        return sum(c for (s, _, n), c in self.counts.items() if s == scope and n == name)

    @contextlib.contextmanager
    def scoped(self, scope, tag=None):
        saved = self.scope, self.tag
        self.scope = scope
        if tag is not None:
            self.tag = tag
        try:
            yield
        finally:
            self.scope, self.tag = saved

    def _span_wrapper(self, name, fn):
        tracer = self
        if name == "model.forward_variant":
            def wrapper(*args, **kwargs):
                tracer.begin_unit("example")
                return tracer.span(name, fn, *args, **kwargs)
        elif name == "autodiff.backward":
            def wrapper(tape, *args, **kwargs):
                tracer.count("autodiff.tape_records", len(tape))
                return tracer.span(name, fn, tape, *args, **kwargs)
        elif name == "trainer.exact_match_accuracy":
            def wrapper(*args, **kwargs):
                with tracer.scoped("dev"):
                    return tracer.span(name, fn, *args, **kwargs)
        elif name == "model.DecodeSession.__init__":
            def wrapper(*args, **kwargs):
                if tracer.scope == "dev":
                    tracer.begin_unit("dev-word")
                return tracer.span(name, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        originals = []
        try:
            for owner, attr, name in SPAN_TARGETS:
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._span_wrapper(name, fn))
            for owner, attr, name in COUNT_TARGETS:
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._count_wrapper(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def span_count(self):
        return len(self._start)

    def write_spans(self, path):
        """Gzipped, one tab-separated line per span: id, name, start, end, parent, unit."""
        names = {i: n for n, i in self._names.items()}
        units = {i: u or "" for u, i in self._units.items()}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("id\tname\tstart_ns\tend_ns\tparent\tunit\n")
            for i in range(len(self._start)):
                parent = self._parent[i]
                f.write(f"{i}\t{names[self._name[i]]}\t{self._start[i]}\t{self._end[i]}\t"
                        f"{'' if parent < 0 else parent}\t{units[self._unit[i]]}\n")
