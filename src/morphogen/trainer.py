"""Training loops: per-tag models, a shared-encoder joint mode, LM
interpolation with a learned weight, and seed ensembles.

All modes run batch-size-1 AdaDelta over shuffled epochs (at most
config.epochs passes) and return the epoch snapshot with the best dev-set
exact-match accuracy, earliest epoch on ties. Every source of randomness is
seeded, so a fixed config gives bit-identical parameters.
"""

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .data import build_vocab
from .errors import TrainError
from .model import DECODER_ATTRS, SHARED_ATTRS, VARIANTS, forward_variant, init_model
from .optim import AdaDeltaState, adadelta_step
from .search import greedy_decode, lm_next_dist

__all__ = [
    "TrainConfig",
    "train_factored",
    "train_joint",
    "train_interpolated",
    "train_ensemble",
    "exact_match_accuracy",
]


@dataclass(frozen=True)
class TrainConfig:
    hidden: int = 100
    embed_dim: int = None      # None: use |vocab|
    l2: float = 1e-5
    epochs: int = 30
    ensemble_k: int = 5
    seed: int = 0              # ensemble members use seed, seed+1, ...
    variant: str = "full"
    max_len_slack: int = 10
    lambda_init: float = 0.0   # initial unconstrained interpolation weight
    learn_lambda: bool = True

    def validate(self):
        if self.hidden < 1 or (self.embed_dim is not None and self.embed_dim < 1):
            raise TrainError("hidden and embed dimensions must be >= 1")
        if self.epochs < 1:
            raise TrainError(f"epochs must be >= 1, got {self.epochs}")
        if self.ensemble_k < 1:
            raise TrainError(f"ensemble size must be >= 1, got {self.ensemble_k}")
        if not 0 <= self.l2 < math.inf:
            raise TrainError(f"l2 must be a finite number >= 0, got {self.l2}")
        if not math.isfinite(self.lambda_init):
            raise TrainError(f"lambda_init must be a finite number, got {self.lambda_init}")
        if self.max_len_slack < 0:
            raise TrainError(f"max_len_slack must be >= 0, got {self.max_len_slack}")
        if self.variant not in VARIANTS:
            raise TrainError(f"unknown variant {self.variant!r}")

    def member_seeds(self):
        return tuple(range(self.seed, self.seed + self.ensemble_k))


def exact_match_accuracy(models, examples, max_len_slack, lm=None, lam=1.0):
    """Greedy-decode exact match rate of an ensemble over examples."""
    if not examples:
        return None
    vocab = models[0].vocab
    hits = 0
    for ex in examples:
        x_ids = vocab.encode(ex.lemma)
        res = greedy_decode(models, x_ids, len(x_ids) + max_len_slack, lm=lm, lam=lam)
        hits += res.text(vocab) == ex.inflected
    return hits / len(examples)


class _Update:
    """The optimiser blocks one training example updates, and one flat
    gradient vector laid out like them: a view of it per block for the
    optimiser, and per parameter for the backward sweep."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.flat = np.zeros(sum(b.value.size for b in blocks))
        self.block_grads, self.param_grads = {}, {}
        offset = 0
        for b in blocks:
            self.block_grads[b] = self.flat[offset:offset + b.value.size].reshape(b.value.shape)
            for p in getattr(b, "parts", (b,)):
                self.param_grads[p] = self.flat[offset:offset + p.value.size].reshape(p.value.shape)
                offset += p.value.size


def _epoch_loop(config, train_examples, make_loss, update_for, eval_dev, snapshot):
    """Shared epoch scaffolding; returns (best snapshot, log lines)."""
    opt = AdaDeltaState()
    order_rng = random.Random(config.seed)
    lines = []
    best_acc, best = -math.inf, None
    for epoch in range(1, config.epochs + 1):
        batch = list(train_examples)
        order_rng.shuffle(batch)
        total = 0.0
        for ex in batch:
            tape = ad.Tape()
            loss = make_loss(tape, ex)
            value = float(loss.value[0])
            if not math.isfinite(value):
                raise TrainError(f"epoch {epoch}: non-finite loss {value!r} on lemma "
                                 f"{ex.lemma!r} ({ex.tag}) with target {ex.inflected!r}")
            total += value
            update = update_for(ex)
            update.flat.fill(0.0)
            ad.backward(tape, loss, update.param_grads)
            adadelta_step(update.blocks, update.block_grads, opt, l2=config.l2)
        acc = eval_dev()
        lines.append(f"{epoch}\t{total / len(batch)!r}\t{acc!r}")
        if acc is not None and acc > best_acc:
            best_acc, best = acc, snapshot()
    if best is None:
        best = snapshot()
    return best, lines


def _tag_examples(examples, tag):
    return [ex for ex in examples if ex.tag == tag]


def train_factored(dataset, tag, config, log=None, vocab=None):
    """One model for a single inflection type."""
    config.validate()
    train = _tag_examples(dataset.train, tag)
    if not train:
        raise TrainError(f"no training examples for tag {tag!r}")
    dev = _tag_examples(dataset.dev, tag)
    vocab = vocab if vocab is not None else build_vocab(dataset.train)
    model = init_model(vocab, config.variant, config.hidden, config.embed_dim,
                       seed=config.seed)
    update = _Update([model.block()])

    def make_loss(tape, ex):
        return forward_variant(tape, model, vocab.encode(ex.lemma),
                               vocab.encode(ex.inflected))

    best, lines = _epoch_loop(
        config, train, make_loss, lambda ex: update,
        lambda: exact_match_accuracy([model], dev, config.max_len_slack),
        model.copy)
    _emit(log, lines)
    return best


def train_joint(dataset, config, log=None):
    """Per-tag decoders around one shared embedding and encoder.

    Examples of all tags are shuffled into a single stream; each step updates
    the owning tag's decoder plus the shared encoder, so the encoder sees
    gradients from every inflection type. The encoder lives in the first
    model's theta and each decoder in its own tag model's theta, so a step
    updates two blocks. Epoch selection uses the average of the per-tag dev
    accuracies.
    """
    config.validate()
    tags = sorted({ex.tag for ex in dataset.train})
    if not tags:
        raise TrainError("joint training needs at least one tag in the training data")
    vocab = build_vocab(dataset.train)
    base = init_model(vocab, config.variant, config.hidden, config.embed_dim,
                      seed=config.seed)
    shared = (base.embed, base.enc_fwd, base.enc_bwd)
    models = {tag: init_model(vocab, config.variant, config.hidden, config.embed_dim,
                              seed=config.seed + i, shared_encoder=shared)
              for i, tag in enumerate(tags)}
    encoder = base.block(SHARED_ATTRS)
    updates = {tag: _Update([encoder, models[tag].block(DECODER_ATTRS)]) for tag in tags}
    dev_by_tag = {tag: _tag_examples(dataset.dev, tag) for tag in tags}

    def make_loss(tape, ex):
        return forward_variant(tape, models[ex.tag], vocab.encode(ex.lemma),
                               vocab.encode(ex.inflected))

    def eval_dev():
        accs = [exact_match_accuracy([models[t]], dev_by_tag[t], config.max_len_slack)
                for t in tags]
        accs = [a for a in accs if a is not None]
        return sum(accs) / len(accs) if accs else None

    def snapshot():
        copies = {tag: models[tag].copy() for tag in tags}
        first = copies[tags[0]]
        for tag in tags[1:]:
            m = copies[tag]
            m.embed, m.enc_fwd, m.enc_bwd = first.embed, first.enc_fwd, first.enc_bwd
        return copies

    best, lines = _epoch_loop(config, list(dataset.train), make_loss,
                              lambda ex: updates[ex.tag], eval_dev, snapshot)
    _emit(log, lines)
    return best


def train_interpolated(dataset, tag, lm, config, log=None, vocab=None):
    """Train with the per-step LM-interpolated distribution.

    The interpolation weight is softplus of an unconstrained scalar, updated
    by the same optimizer when config.learn_lambda is set. Returns the
    selected model (lm_lambda filled in) and the learned weight.
    """
    config.validate()
    train = _tag_examples(dataset.train, tag)
    if not train:
        raise TrainError(f"no training examples for tag {tag!r}")
    dev = _tag_examples(dataset.dev, tag)
    vocab = vocab if vocab is not None else build_vocab(dataset.train)
    unknown = set(lm.alphabet) - set(vocab.data_chars)
    if unknown:
        raise TrainError(
            f"LM alphabet has characters outside the model vocabulary: {sorted(unknown)}")
    model = init_model(vocab, config.variant, config.hidden, config.embed_dim,
                       seed=config.seed)
    lam_hat = ad.Parameter("interp.lambda_hat", np.array([config.lambda_init]))
    update = _Update([model.block()] + ([lam_hat] if config.learn_lambda else []))

    def lam_value():
        return float(np.logaddexp(0.0, lam_hat.value[0]))

    def step_log_lm(prefix_ids):
        dist = lm_next_dist(lm, vocab, prefix_ids)
        with np.errstate(divide="ignore"):
            return np.log(dist)

    def make_loss(tape, ex):
        x_ids = vocab.encode(ex.lemma)
        y_ids = vocab.encode(ex.inflected)
        lm_logprobs = [step_log_lm(y_ids[:t]) for t in range(len(y_ids) + 1)]
        lam = ad.softplus(tape, lam_hat)
        return forward_variant(tape, model, x_ids, y_ids,
                               lm_logprobs=lm_logprobs, lam=lam)

    best, lines = _epoch_loop(
        config, train, make_loss, lambda ex: update,
        lambda: exact_match_accuracy([model], dev, config.max_len_slack,
                                     lm=lm, lam=lam_value()),
        lambda: (model.copy(), lam_value()))
    _emit(log, lines)
    best_model, best_lam = best
    best_model.lm_lambda = best_lam
    return best_model, best_lam


def train_ensemble(train_fn, config):
    """k independent trainings differing only in seed, in seed order."""
    config.validate()
    return [train_fn(replace(config, seed=s)) for s in config.member_seeds()]


def _emit(log, lines):
    if log is not None:
        for line in lines:
            log(line)
