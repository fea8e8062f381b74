"""Training loops: per-tag models (LM-interpolated, with a learned weight, when
given an LM), seed ensembles of them, and a shared-encoder joint mode.

All modes run batch-size-1 AdaDelta over shuffled epochs (at most
config.epochs passes) and return the epoch snapshot with the best dev-set
exact-match accuracy, earliest epoch on ties. Every source of randomness is
seeded, so a fixed config gives bit-identical parameters. The live models,
which the steps update and the dev set decodes, stay writeable; the
snapshots returned are read-only, as load_model's are, so decoding them
keeps their tables and stacks (copy() gives a writeable model).

Per example, autodiff.backward runs forward_variant's one backward closure
into the gradient views of the blocks that adadelta_step then updates.
"""

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .data import build_vocab
from .errors import TrainError
from .evaluate import decode_lemmas
from .model import (DECODER_ATTRS, SHARED_ATTRS, VARIANTS, _freeze, forward_variant,
                    init_model, interpolation_weight)
from .optim import Block, adadelta_step
from .search import lm_next_dist

__all__ = [
    "TrainConfig",
    "train_factored",
    "train_joint",
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

    def validate(self):
        if self.hidden < 1 or (self.embed_dim is not None and self.embed_dim < 1):
            raise TrainError("hidden and embed dimensions must be >= 1")
        if self.epochs < 1:
            raise TrainError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise TrainError(f"seed must be >= 0, got {self.seed}")
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


def exact_match_accuracy(models, examples, max_len_slack, lm=None):
    """Greedy exact-match rate over examples (None if none), with the LM at
    the first member's lm_lambda (decode_lemmas)."""
    if not examples:
        return None
    results = decode_lemmas(models, [ex.lemma for ex in examples], lm=lm,
                            max_len_slack=max_len_slack)
    vocab = models[0].vocab
    hits = sum(best.text(vocab) == ex.inflected for (best,), ex in zip(results, examples))
    return hits / len(examples)


def _update(blocks):
    """The blocks one training example steps, and the {Parameter: gradient
    view} dict that backward() accumulates into."""
    return blocks, {p: g for b in blocks for p, g in zip(b.parts, b.part_grads)}


def _epoch_loop(config, train_examples, make_loss, update_for, eval_dev, snapshot, log):
    """Shared epoch scaffolding; logs each epoch's line as it ends, returns the
    best snapshot (a model or a dict of them) made read-only."""
    order_rng = random.Random(config.seed)
    best_acc, best = -math.inf, None
    for epoch in range(1, config.epochs + 1):
        batch = list(train_examples)
        order_rng.shuffle(batch)
        total = 0.0
        for ex in batch:
            tape = []
            loss = make_loss(tape, ex)
            if not math.isfinite(loss):
                raise TrainError(f"epoch {epoch}: non-finite loss {loss!r} on lemma "
                                 f"{ex.lemma!r} ({ex.tag}) with target {ex.inflected!r}")
            total += loss
            blocks, grads = update_for(ex)
            for b in blocks:
                b.grad.fill(0.0)
            ad.backward(tape, grads)
            adadelta_step(blocks, l2=config.l2)
        acc = eval_dev()
        if log is not None:
            log(f"{epoch}\t{total / len(batch)!r}\t{acc!r}")
        if acc is not None and acc > best_acc:
            best_acc, best = acc, snapshot()
    if best is None:
        best = snapshot()
    for m in best.values() if isinstance(best, dict) else (best,):
        _freeze(m)
    return best


def _tag_examples(examples, tag):
    return [ex for ex in examples if ex.tag == tag]


def train_factored(dataset, tag, config, log=None, *, lm=None):
    """One model for a single inflection type.

    Given a character LM, every step trains on the interpolated distribution
    p_model * p_lm**lam renormalized. The weight lam is softplus of an
    unconstrained scalar, initialised at config.lambda_init and updated by
    the same optimizer; the dev set decodes with the LM at the current lam,
    and the selected model's lm_lambda holds its epoch's lam. Returns a
    read-only model.
    """
    config.validate()
    train = _tag_examples(dataset.train, tag)
    if not train:
        raise TrainError(f"no training examples for tag {tag!r}")
    dev = _tag_examples(dataset.dev, tag)
    vocab = build_vocab(dataset.train)
    model = init_model(vocab, config.variant, config.hidden, config.embed_dim,
                       seed=config.seed)
    blocks, lam_hat = [model.block()], None
    if lm is not None:
        unknown = set(lm.alphabet) - set(vocab.data_chars)
        if unknown:
            raise TrainError(
                f"LM alphabet has characters outside the model vocabulary: {sorted(unknown)}")
        lam_hat = ad.Parameter("interp.lambda_hat", np.array([config.lambda_init]))
        blocks.append(Block(lam_hat.value, [lam_hat]))

        def lm_logprobs(word):
            y_ids = vocab.encode(word)
            return [lm_next_dist(lm, vocab, y_ids[:t]) for t in range(len(y_ids) + 1)]

        # the LM is fixed: each target's per-step log-probs are taken once per run
        logprobs = {ex.inflected: lm_logprobs(ex.inflected) for ex in train}
    update = _update(blocks)

    def make_loss(tape, ex):
        return forward_variant(tape, model, vocab.encode(ex.lemma), vocab.encode(ex.inflected),
                               lm_logprobs=None if lm is None else logprobs[ex.inflected],
                               lam_hat=lam_hat)

    def eval_dev():
        if lm is not None:   # the current weight, which dev decoding and a snapshot read
            model.lm_lambda = interpolation_weight(lam_hat)
        return exact_match_accuracy([model], dev, config.max_len_slack, lm=lm)

    return _epoch_loop(config, train, make_loss, lambda ex: update, eval_dev, model.copy, log)


def _share_encoder(models):
    """Point every model at the first model's embedding and encoder."""
    first = models[0]
    for m in models[1:]:
        m.embed, m.enc_fwd, m.enc_bwd = first.embed, first.enc_fwd, first.enc_bwd
    return models


def train_joint(dataset, config, log=None):
    """Per-tag decoders around one shared embedding and encoder.

    Examples of all tags are shuffled into a single stream; each step updates
    the owning tag's decoder plus the shared encoder, so the encoder sees
    gradients from every inflection type. The encoder lives in the first
    model's theta and each decoder in its own tag model's theta, so a step
    updates two blocks. Epoch selection uses the average of the per-tag dev
    accuracies. Returns {tag: read-only model}, sharing one encoder.
    """
    config.validate()
    tags = sorted({ex.tag for ex in dataset.train})
    if not tags:
        raise TrainError("joint training needs at least one tag in the training data")
    vocab = build_vocab(dataset.train)
    models = dict(zip(tags, _share_encoder(
        [init_model(vocab, config.variant, config.hidden, config.embed_dim, seed=config.seed + i)
         for i in range(len(tags))])))
    encoder = models[tags[0]].block(SHARED_ATTRS)
    updates = {tag: _update([encoder, models[tag].block(DECODER_ATTRS)]) for tag in tags}
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
        return dict(zip(tags, _share_encoder([models[tag].copy() for tag in tags])))

    return _epoch_loop(config, list(dataset.train), make_loss,
                       lambda ex: updates[ex.tag], eval_dev, snapshot, log)


def train_ensemble(dataset, tag, config, log=None):
    """config.ensemble_k read-only factored models for one tag, differing
    only in seed, in seed order (config.member_seeds())."""
    config.validate()
    return [train_factored(dataset, tag, replace(config, seed=s), log=log)
            for s in config.member_seeds()]
