"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {train,greedy,beam-lm} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from src/. With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run, whose
outputs are checked byte-identical against an untraced reference pass. A
full record (machine, input digest, output digests, sample counts, the
unscaled wall-time figures) is printed on the line before and written under
perfbench/out/. A broken output invariant exits with status 1 and prints no
result. End-to-end times are scaled to reference speed by a SpeedClock (see
speed.py), so that the drifting speed of a shared host does not show in them.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread: the benchmark is a single-caller closed loop, and BLAS thread
# pools would only add scheduling noise at these matrix sizes. Set before
# numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# Set up at least SETUP_MIN_REPEATS times and until SETUP_SECONDS have passed,
# so that cheap set-ups are timed often enough for a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_SECONDS = 8.0


def _fail(message, status):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(status)


if not (SRC / "morphogen" / "__init__.py").is_file():
    _fail(f"no morphogen package under {SRC}; run from the root of a checkout", 2)
sys.path.insert(0, str(SRC))

import workloads as wl  # noqa: E402
from checks import BenchInvariantError  # noqa: E402
from speed import SpeedClock  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_examples_per_s": "examples/s",
    "decode_words_per_s": "words/s",
    "decode_ms_p50": "ms",
    "decode_ms_p95": "ms",
    "exact_match": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "autodiff.tape_records_per_example": "count",
    "autodiff.backward_us_per_example": "us",
    "model.forward_variant_us_per_example": "us",
    "model.attention_context_us_per_example": "us",
    "optim.adadelta_step_us_per_example": "us",
    "trainer.dev_eval_share": "fraction",
    "lstm.lstm_step_us_per_call": "us",
    "lstm.lstm_step_calls_per_unit": "count",
    "lstm.encode_bidirectional_us_per_call": "us",
    "model.decode_session_init_us_per_word": "us",
    "model.decode_session_step_us_per_call": "us",
    "model.decode_session_step_calls_per_word": "count",
    "search.greedy_decode_self_us_per_word": "us",
    "search.beam_decode_self_us_per_word": "us",
    "search.ensemble_next_dist_us_per_word": "us",
    "search.interpolated_next_dist_us_per_word": "us",
    "search.lm_next_dist_us_per_call": "us",
    "search.lm_next_dist_calls_per_word": "count",
    "charlm.prob_calls_per_word": "count",
    "search.truncated_share": "fraction",
    "model.load_model_ms": "ms",
    "trace.overhead_share": "fraction",
}


def _ratio(num, den):
    return num / den if den else 0.0


def _decode_stats(decode_runs, factor):
    """Throughput over every decoded word; latency percentiles over (model,
    lemma) pairs, each pair at the median of its decodes, so that a stall of
    the host during one decode does not land a word in the tail."""
    by_pair = {}
    for run in decode_runs:
        for i, (t, j) in enumerate(zip(run.times_ns, run.segments)):
            by_pair.setdefault((run.tag, i % run.pool), []).append(t * factor(j) / 1e6)
    if not by_pair:
        return {"decode_words_per_s": 0.0, "decode_ms_p50": 0.0, "decode_ms_p95": 0.0}
    total_ms = sum(sum(ms) for ms in by_pair.values())
    words = sum(len(ms) for ms in by_pair.values())
    pairs = np.array([statistics.median(ms) for ms in by_pair.values()])
    return {"decode_words_per_s": _ratio(words, total_ms / 1e3),
            "decode_ms_p50": float(np.percentile(pairs, 50)),
            "decode_ms_p95": float(np.percentile(pairs, 95))}


def _decode_prefix_and_mode(workload):
    return (wl.GREEDY_POOL, "greedy") if workload == "greedy" else (wl.BEAM_PREFIX, "beam")


def _repeat_setup(setup_once):
    """Per-set-up timings (set-up span, (training spans, training examples)),
    and the last set-up's result; earlier results are dropped before the
    next set-up so they do not count towards peak RSS."""
    timings, last = [], None
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(timings) < SETUP_MIN_REPEATS or (
            len(timings) < SETUP_MAX_REPEATS and time.perf_counter() < deadline):
        last = None
        timing, last = setup_once()
        timings.append(timing)
    return timings, last


def _inputs_once(workload, seed, clock):
    start = clock.burst()
    inputs = wl.make_inputs(workload, seed)
    return ((start, clock.burst()), None), inputs


def _decode_setup_once(workload, seed, workdir, clock):
    inputs, setup = wl.setup_decode(workload, seed, workdir, wl.Counts(), clock=clock)
    return (setup.span, (setup.train_spans, setup.train_examples)), (inputs, setup)


def _timings(clock, setup_spans, train_groups, decode_runs, factor=None):
    """The timed end-to-end metrics, scaled to reference speed unless a
    factor is given. The training rate is the median over groups (a train
    round, or a set-up's trainings) of a group's examples / its time."""
    factor = factor or clock.factor
    rates = [_ratio(examples, sum(clock.seconds(a, b, factor) for a, b in spans))
             for spans, examples in train_groups]
    return {"setup_s": wl.median([clock.seconds(a, b, factor) for a, b in setup_spans]),
            "train_examples_per_s": wl.median(rates),
            **_decode_stats(decode_runs, factor)}


def _wall(_segment):
    return 1.0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- untraced run: end-to-end metrics -----------------------------------------

def run_end_to_end(workload, seed, seconds, workdir):
    counts = wl.Counts()
    clock = SpeedClock()
    if workload == "train":
        with clock.ticking_in_training():
            setups, inputs = _repeat_setup(lambda: _inputs_once(workload, seed, clock))
            rounds = wl.train_rounds(inputs, seconds, counts, clock=clock)
        first = rounds[0]
        timed = ([span for span, _ in setups], [(r.train_spans, r.examples) for r in rounds],
                 [run for r in rounds for run in r.held_out.values()])
        words = sum(run.prefix_words for run in first.held_out.values())
        metrics = {"exact_match": sum(first.accuracies) / len(first.accuracies)}
        extra = {"rounds": len(rounds), "params_digest": first.params,
                 "outputs_digest": first.outputs_digest(),
                 "accuracy_by_variant": dict(zip(wl.TRAIN_VARIANTS, first.accuracies)),
                 "truncated_share": _ratio(
                     sum(run.truncated for run in first.held_out.values()), words),
                 "samples": {"train_examples_per_s": len(rounds), "exact_match": words}}
    else:
        with clock.ticking_in_training():
            setups, (inputs, setup) = _repeat_setup(
                lambda: _decode_setup_once(workload, seed, workdir, clock))
        prefix, mode = _decode_prefix_and_mode(workload)
        run = wl.decode_loop(setup.models, inputs.lemmas, mode, seconds, prefix, counts,
                             lm=setup.lm, clock=clock)
        timed = ([span for span, _ in setups], [group for _, group in setups], [run])
        metrics = {"exact_match": run.hits / run.prefix_words}
        extra = {"params_digest": wl.params_digest(setup.models),
                 "outputs_digest": run.digest,
                 "truncated_share": run.truncated / run.prefix_words,
                 "samples": {"train_examples_per_s": len(setups),
                             "exact_match": run.prefix_words}}
    metrics.update(_timings(clock, *timed))
    metrics["peak_rss_mb"] = _peak_rss_mb()
    pairs = len({(r.tag, i % r.pool) for r in timed[2] for i in range(len(r.times_ns))})
    extra["samples"].update({"decode_words_per_s": sum(len(r.times_ns) for r in timed[2]),
                             "decode_ms_p50": pairs, "decode_ms_p95": pairs,
                             "setup_s": len(timed[0])})
    extra["inputs_digest"] = inputs.digest()
    extra["wall"] = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                     for name, value in _timings(clock, *timed, factor=_wall).items()}
    extra["speed"] = clock.summary()
    return {name: metrics[name] for name in END_TO_END_UNITS}, END_TO_END_UNITS, counts, extra


# --- traced run: per-layer metrics -------------------------------------------

def layer_metrics(tracer, workload, words, truncated_share, load_ms, overhead):
    primary = "train" if workload == "train" else "decode"
    examples = tracer.stat("train", "model.forward_variant").count
    units = examples if workload == "train" else words
    attention_examples = tracer.stat("train", "model.forward_variant", tag="attention").count
    us = 1e-3

    def total_us(scope, name):
        return tracer.stat(scope, name).total_ns * us

    def self_us(scope, name):
        return tracer.stat(scope, name).self_ns * us

    lstm_calls = tracer.stat(primary, "lstm.lstm_step").count
    enc_calls = tracer.stat(primary, "lstm.encode_bidirectional").count
    step_calls = tracer.stat("decode", "model.DecodeSession.step").count
    lm_calls = tracer.stat("decode", "search.lm_next_dist").count
    return {
        "autodiff.tape_records_per_example": _ratio(
            tracer.counted("train", "autodiff.tape_records"),
            tracer.stat("train", "autodiff.backward").count),
        "autodiff.backward_us_per_example": _ratio(
            total_us("train", "autodiff.backward"), examples),
        "model.forward_variant_us_per_example": _ratio(
            self_us("train", "model.forward_variant"), examples),
        "model.attention_context_us_per_example": _ratio(
            tracer.stat("train", "model.attention_context", tag="attention").total_ns * us,
            attention_examples),
        "optim.adadelta_step_us_per_example": _ratio(
            total_us("train", "optim.adadelta_step"), examples),
        "trainer.dev_eval_share": _ratio(
            total_us("dev", "trainer.exact_match_accuracy"),
            total_us("train", "trainer.train_factored")),
        "lstm.lstm_step_us_per_call": _ratio(self_us(primary, "lstm.lstm_step"), lstm_calls),
        "lstm.lstm_step_calls_per_unit": _ratio(lstm_calls, units),
        "lstm.encode_bidirectional_us_per_call": _ratio(
            self_us(primary, "lstm.encode_bidirectional"), enc_calls),
        "model.decode_session_init_us_per_word": _ratio(
            total_us("decode", "model.DecodeSession.__init__"), words),
        "model.decode_session_step_us_per_call": _ratio(
            self_us("decode", "model.DecodeSession.step"), step_calls),
        "model.decode_session_step_calls_per_word": _ratio(step_calls, words),
        "search.greedy_decode_self_us_per_word": _ratio(
            self_us("decode", "search.greedy_decode"), words),
        "search.beam_decode_self_us_per_word": _ratio(
            self_us("decode", "search.beam_decode"), words),
        "search.ensemble_next_dist_us_per_word": _ratio(
            total_us("decode", "search.ensemble_next_dist"), words),
        "search.interpolated_next_dist_us_per_word": _ratio(
            total_us("decode", "search.interpolated_next_dist"), words),
        "search.lm_next_dist_us_per_call": _ratio(
            total_us("decode", "search.lm_next_dist"), lm_calls),
        "search.lm_next_dist_calls_per_word": _ratio(lm_calls, words),
        "charlm.prob_calls_per_word": _ratio(tracer.counted("decode", "charlm.prob"), words),
        "search.truncated_share": truncated_share,
        "model.load_model_ms": wl.median(load_ms),
        "trace.overhead_share": overhead,
    }


def run_traced(workload, seed, seconds, workdir):
    from tracing import Tracer

    tracer = Tracer()
    counts = wl.Counts()
    load_ms = []
    if workload == "train":
        inputs = wl.make_inputs(workload, seed)
        reference = wl.train_round(inputs, wl.Counts())
        with tracer.installed():
            rounds = wl.train_rounds(inputs, seconds, counts, tracer)
        traced = rounds[0]
        if (traced.params, traced.outputs_digest()) != \
                (reference.params, reference.outputs_digest()):
            raise BenchInvariantError("train: traced run differs from the untraced run")

        def work_ns(rnd):
            return rnd.train_ns + sum(sum(run.times_ns) for run in rnd.held_out.values())

        overhead = work_ns(traced) / work_ns(reference) - 1.0
        words = sum(len(run.times_ns) for r in rounds for run in r.held_out.values())
        prefix_words = sum(run.prefix_words for run in traced.held_out.values())
        truncated = _ratio(sum(run.truncated for run in traced.held_out.values()), prefix_words)
        extra = {"rounds": len(rounds), "params_digest": traced.params,
                 "outputs_digest": traced.outputs_digest()}
    else:
        inputs, setup = wl.setup_decode(workload, seed, workdir, wl.Counts(), tracer)
        load_ms = setup.load_ms
        prefix, mode = _decode_prefix_and_mode(workload)
        reference = wl.decode_loop(setup.models, inputs.lemmas, mode, 0.0, prefix,
                                   wl.Counts(), lm=setup.lm)
        with tracer.installed():
            run = wl.decode_loop(setup.models, inputs.lemmas, mode, seconds, prefix, counts,
                                 tracer, lm=setup.lm)
        if run.digest != reference.digest:
            raise BenchInvariantError(f"{workload}: traced outputs differ from the untraced run")
        overhead = sum(run.times_ns[:prefix]) / sum(reference.times_ns) - 1.0
        words = len(run.times_ns)
        truncated = run.truncated / run.prefix_words
        extra = {"params_digest": wl.params_digest(setup.models), "outputs_digest": run.digest}
    extra["inputs_digest"] = inputs.digest()
    extra["spans"] = tracer.span_count()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.write_spans(spans_path)
    extra["spans_file"] = str(spans_path.relative_to(ROOT))
    metrics = layer_metrics(tracer, workload, words, truncated, load_ms, overhead)
    return metrics, PER_LAYER_UNITS, counts, extra


# --- machine record ------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "morphogen").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_record():
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    started = time.perf_counter()
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    run = run_traced if args.trace else run_end_to_end
    try:
        metrics, units, counts, extra = run(args.workload, args.seed, args.seconds, workdir)
    except BenchInvariantError as exc:
        _fail(f"output invariant broken: {exc}", 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "wall_s": time.perf_counter() - started,
              "attempted": counts.attempted, "failed": counts.failed,
              "failed_share": _ratio(counts.failed, counts.attempted),
              "machine": machine_record(), **extra,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    samples = extra.get("samples", {})
    printed = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    for name, metric in printed.items():
        n = samples.get(name)
        print(f"{name:45s} {metric['value']:14.6g} {metric['unit']}"
              + (f"  (n={n})" if n else ""))
    print(f"{'failed_share':45s} {record['failed_share']:14.6g} failed/attempted"
          f"  (n={counts.attempted})")
    print("record " + json.dumps(record, separators=(",", ":")))
    print(json.dumps({"correct": True, "attempted": counts.attempted, "failed": counts.failed,
                      "metrics": record["metrics"]}))


if __name__ == "__main__":
    main()
