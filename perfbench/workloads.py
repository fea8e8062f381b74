"""The benchmark workloads: inputs, set-up and measured loops.

All workloads use the synthetic vowel-harmony language with h=32 models for
one tag. Inputs depend only on the workload name and its seed; every workload
trains on a fixed training set, and the seed draws the lemmas it decodes.

  train    train_factored trains a `full` and an `attention` model; the
           trainer evaluates the dev set greedily after every epoch; then
           both models greedy-decode held-out lemmas.
  greedy   one `full` model, loaded from a checkpoint, greedy-decodes
           lemmas one at a time with no LM (the `predict` path).
  beam-lm  a k=5 ensemble of `full` models, beam width 8, interpolated
           with an order-5 Witten-Bell LM at lambda 1.0 (the `beam --lm`
           path).

Everything runs in this process, one call at a time (a closed loop with one
client). A measured loop runs until `seconds` have passed and at least its
fixed prefix of work is done; exact_match and the output digests cover only
that prefix, so they are identical for a fixed seed.
"""

import contextlib
import hashlib
import itertools
import json
import statistics
import time
from dataclasses import dataclass, field

from morphogen import model as model_mod
from morphogen import search, trainer
from morphogen.charlm import filter_wordlist, train_lm
from morphogen.data import (DatasetSplit, Example, default_synth_spec,
                            synth_language, synth_wordlist)
from morphogen.errors import MorphogenError

from checks import BenchInvariantError, check_beam, check_greedy, check_train_log
from speed import NO_CLOCK

WORKLOADS = ("train", "greedy", "beam-lm")

SPEC = default_synth_spec()
TAG = "case=inessive"
HIDDEN = 32
MAX_LEN_SLACK = 10           # CLI default for predict and beam

# Every workload trains on a fixed training set (drawn with TRAINING_SET_SEED);
# the workload seed draws the lemmas to decode. Seeded training sets moved the
# train workload's full-model accuracy between 0.63 and 0.94 from seed to seed.
TRAINING_SET_SEED = 0

# train: one round trains both variants, then greedy-decodes the held-out pool.
TRAIN_SIZES = {"train": 200, "dev": 20}
TRAIN_EPOCHS = 3
TRAIN_VARIANTS = ("full", "attention")
HELD_OUT_POOL = 1000          # two models decode it: 2000 (model, lemma) pairs

# greedy and beam-lm: models trained during set-up.
DECODE_TRAIN_SIZES = {"train": 100, "dev": 20}
DECODE_EPOCHS = 3
GREEDY_POOL = 3000           # lemmas; the whole pool is the fixed prefix
BEAM_POOL = 2000
BEAM_PREFIX = 600            # >= 200 words, so >= 10 samples lie beyond p95
BEAM_WIDTH = 8
ENSEMBLE_K = 5
LM_ORDER = 5
LM_WORDLIST_SEED = 1
LM_WORDLIST_SIZE = 500
LM_LAMBDA = 1.0              # CLI default for factored checkpoints


def derived_seed(workload, seed):
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _tag_examples(tables):
    return tuple(Example(t.lemma, TAG, t.forms[TAG]) for t in tables)


@dataclass(frozen=True)
class Inputs:
    """Everything a workload feeds the program, generated from its seed."""
    workload: str
    seed: int
    train: tuple              # Examples of TAG
    dev: tuple
    lemmas: tuple             # (lemma, gold inflection) to decode
    lm_words: tuple = ()

    def digest(self):
        doc = [self.workload, self.seed,
               [[e.lemma, e.inflected] for e in self.train],
               [[e.lemma, e.inflected] for e in self.dev],
               [list(p) for p in self.lemmas], list(self.lm_words)]
        return hashlib.sha256(json.dumps(doc, ensure_ascii=False).encode()).hexdigest()


def _interleave_strata(pairs):
    """Round-robin over (stem length, vowel class) groups, so that every prefix
    of the pool has nearly the same mix of the properties accuracy and decode
    time depend on."""
    groups = {}
    for pair in pairs:
        stem = pair[0]
        vowel_class = (any(ch in SPEC.back_vowels for ch in stem),
                       any(ch in SPEC.front_vowels for ch in stem))
        groups.setdefault((len(stem), vowel_class), []).append(pair)
    rows = itertools.zip_longest(*(groups[key] for key in sorted(groups)))
    return tuple(pair for row in rows for pair in row if pair is not None)


def make_inputs(workload, seed):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = TRAIN_SIZES if workload == "train" else DECODE_TRAIN_SIZES
    n_train, n_dev = sizes["train"], sizes["dev"]
    fixed = _tag_examples(synth_language(SPEC, n_train + n_dev, seed=TRAINING_SET_SEED))
    seen = {e.lemma for e in fixed}
    pool = {"train": HELD_OUT_POOL, "greedy": GREEDY_POOL, "beam-lm": BEAM_POOL}[workload]
    drawn = _tag_examples(synth_language(SPEC, pool + len(seen),
                                         seed=derived_seed(workload, seed)))
    lemmas = _interleave_strata([(e.lemma, e.inflected) for e in drawn
                                 if e.lemma not in seen][:pool])
    lm_words = tuple(synth_wordlist(SPEC, LM_WORDLIST_SIZE, seed=LM_WORDLIST_SEED)) \
        if workload == "beam-lm" else ()
    return Inputs(workload, seed, fixed[:n_train], fixed[n_train:], lemmas, lm_words)


def params_digest(models):
    h = hashlib.sha256()
    for m in models:
        for p in m.parameters():
            h.update(p.name.encode())
            h.update(p.value.tobytes())
    return h.hexdigest()


def _result_bytes(result):
    return repr((result.ids, result.logprob, result.truncated)).encode()


class _NoTracer:
    """Stand-in used when tracing is off: spans are plain calls."""

    def span(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_unit(self, kind):
        pass

    def scoped(self, scope, tag=None):
        return contextlib.nullcontext()


NO_TRACER = _NoTracer()


@dataclass
class Counts:
    attempted: int = 0
    failed: int = 0


def _train_model(dataset, variant, seed, epochs, counts, tracer):
    """train_factored with its log checked; None when the input fails."""
    log = []
    config = trainer.TrainConfig(hidden=HIDDEN, epochs=epochs, seed=seed, variant=variant)
    counts.attempted += 1
    try:
        with tracer.scoped("train", variant):
            m = tracer.span("trainer.train_factored", trainer.train_factored,
                            dataset, TAG, config, log=log.append)
    except MorphogenError:
        counts.failed += 1
        return None
    check_train_log(log, epochs, what=f"train {variant} seed {seed}")
    return m


# --- decode loop -------------------------------------------------------------

@dataclass
class DecodeRun:
    times_ns: list = field(default_factory=list)    # wall time per word
    segments: list = field(default_factory=list)    # SpeedClock segment per word
    tag: str = "full"                               # the model that decoded
    pool: int = 0                                   # word i decoded lemma i % pool
    prefix_words: int = 0
    hits: int = 0
    truncated: int = 0
    digest: str = ""


def decode_loop(models, lemmas, mode, seconds, prefix, counts, tracer=NO_TRACER, lm=None,
                tag="full", clock=NO_CLOCK):
    """Decode lemmas in order (cycling the pool) until `seconds` have passed
    and at least `prefix` words are done; exact_match, truncation and the
    output digest cover the first `prefix` words. The clock ticks between
    words, never during one."""
    vocab = models[0].vocab
    encoded = [(vocab.encode(lemma), gold) for lemma, gold in lemmas]
    run = DecodeRun(tag=tag, pool=len(encoded))
    first = []
    digest = hashlib.sha256()
    deadline = time.perf_counter() + seconds
    i = 0
    with tracer.scoped("decode", tag):
        while i < prefix or time.perf_counter() < deadline:
            x_ids, gold = encoded[i % len(encoded)]
            max_len = len(x_ids) + MAX_LEN_SLACK
            what = f"{mode} word {i}"
            counts.attempted += 1
            tracer.begin_unit("word")
            clock.tick()
            run.segments.append(clock.segment)
            t0 = time.perf_counter_ns()
            try:
                if mode == "greedy":
                    out = tracer.span("search.greedy_decode", search.greedy_decode,
                                      models, x_ids, max_len)
                else:
                    out = tracer.span("search.beam_decode", search.beam_decode,
                                      models, x_ids, BEAM_WIDTH, max_len,
                                      lm=lm, lam=LM_LAMBDA)
            except MorphogenError:
                counts.failed += 1
                out = None
            run.times_ns.append(time.perf_counter_ns() - t0)
            if out is not None:
                if mode == "greedy":
                    check_greedy(out, len(vocab), max_len, what)
                    best, blob = out, _result_bytes(out)
                else:
                    check_beam(out, BEAM_WIDTH, len(vocab), max_len, what)
                    best, blob = out[0], b"|".join(_result_bytes(r) for r in out)
            else:
                best, blob = None, b"failed"
            if i < len(encoded):
                first.append(blob)
            elif first[i % len(encoded)] != blob:
                raise BenchInvariantError(f"{what}: decoding the same lemma again differs")
            if i < prefix:
                digest.update(blob + b"\n")
                if best is not None:
                    run.hits += best.text(vocab) == gold
                    run.truncated += best.truncated
            i += 1
    clock.burst()
    run.prefix_words = prefix
    run.digest = digest.hexdigest()
    return run


# --- set-up for the decode workloads -------------------------------------------

@dataclass
class DecodeSetup:
    models: list
    lm: object
    span: tuple               # SpeedClock stamps around the whole set-up
    train_spans: list         # SpeedClock stamps around each member's training
    train_examples: int
    load_ms: list


def setup_decode(workload, seed, workdir, counts, tracer=NO_TRACER, clock=NO_CLOCK):
    """Generate inputs, train the models and the LM, write and load checkpoints."""
    start = clock.burst()
    inputs = make_inputs(workload, seed)
    dataset = DatasetSplit(train=list(inputs.train), dev=list(inputs.dev), test=[])
    k = 1 if workload == "greedy" else ENSEMBLE_K
    trained, train_spans = [], []
    for member in range(k):
        a = clock.burst()
        m = _train_model(dataset, "full", member, DECODE_EPOCHS, counts, NO_TRACER)
        train_spans.append((a, clock.burst()))
        if m is None:
            raise BenchInvariantError(f"{workload}: set-up training of member {member} failed")
        trained.append(m)
    lm = None
    if inputs.lm_words:
        lm = train_lm(filter_wordlist(inputs.lm_words, trained[0].vocab), order=LM_ORDER)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for member, m in enumerate(trained):
        paths.append(workdir / f"member{member}.ckpt")
        model_mod.save_model(m, paths[-1])
    loaded, load_ms = [], []
    for path in paths:
        t = time.perf_counter_ns()
        loaded.append(tracer.span("model.load_model", model_mod.load_model, path))
        load_ms.append((time.perf_counter_ns() - t) / 1e6)
    span = (start, clock.burst())
    if params_digest(loaded) != params_digest(trained):
        raise BenchInvariantError(f"{workload}: checkpoint round trip changed parameters")
    examples = k * len(inputs.train) * DECODE_EPOCHS
    return inputs, DecodeSetup(loaded, lm, span, train_spans, examples, load_ms)


# --- train rounds ------------------------------------------------------------

@dataclass
class TrainRound:
    train_ns: int = 0
    train_spans: list = field(default_factory=list)   # SpeedClock stamps per variant
    examples: int = 0
    accuracies: list = field(default_factory=list)
    held_out: dict = field(default_factory=dict)    # variant -> DecodeRun
    params: str = ""

    def outputs_digest(self):
        return hashlib.sha256("".join(r.digest for r in self.held_out.values()).encode()).hexdigest()


def train_round(inputs, counts, tracer=NO_TRACER, clock=NO_CLOCK):
    """Train both variants, then greedy-decode the held-out lemmas with each."""
    dataset = DatasetSplit(train=list(inputs.train), dev=list(inputs.dev), test=[])
    rnd = TrainRound()
    models = []
    for variant in TRAIN_VARIANTS:
        a = clock.burst()
        t = time.perf_counter_ns()
        models.append(_train_model(dataset, variant, 0, TRAIN_EPOCHS, counts, tracer))
        rnd.train_ns += time.perf_counter_ns() - t
        rnd.train_spans.append((a, clock.burst()))
        rnd.examples += len(inputs.train) * TRAIN_EPOCHS
    rnd.params = params_digest([m for m in models if m is not None])
    for variant, m in zip(TRAIN_VARIANTS, models):
        if m is None:
            rnd.accuracies.append(0.0)
            continue
        held = decode_loop([m], inputs.lemmas, "greedy", 0.0, len(inputs.lemmas),
                           counts, tracer, tag=variant, clock=clock)
        rnd.accuracies.append(held.hits / len(inputs.lemmas))
        rnd.held_out[variant] = held
    return rnd


def train_rounds(inputs, seconds, counts, tracer=NO_TRACER, clock=NO_CLOCK):
    """Rounds until `seconds` have passed (at least one); all must agree."""
    deadline = time.perf_counter() + seconds
    rounds = [train_round(inputs, counts, tracer, clock)]
    while time.perf_counter() < deadline:
        rounds.append(train_round(inputs, counts, tracer, clock))
        if (rounds[-1].params, rounds[-1].outputs_digest()) != \
                (rounds[0].params, rounds[0].outputs_digest()):
            raise BenchInvariantError("train: retraining the same inputs changed the result")
    return rounds


def median(values):
    return statistics.median(values) if values else 0.0
