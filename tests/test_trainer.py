import warnings

import numpy as np
import pytest

from helpers import forward_record, gradient_check, models_equal, randomize_params
from morphogen import autodiff as ad
from morphogen import search
from morphogen import trainer as tr
from morphogen.charlm import filter_wordlist, train_lm
from morphogen.data import (DatasetSplit, Example, build_vocab,
                            default_synth_spec, split_tables, synth_language,
                            synth_wordlist, tables_to_examples)
from morphogen.errors import TrainError
from morphogen.model import VARIANTS, forward_variant, init_model
from morphogen.search import lm_next_dist
from morphogen.vocab import BOS, EPS, CharVocab

INESSIVE = "case=inessive"


def _synth_split(n_tables, seed=1, spec=None, split_seed=0):
    spec = spec if spec is not None else default_synth_spec()
    split = split_tables(synth_language(spec, n_tables, seed=seed), seed=split_seed)
    return DatasetSplit(train=tables_to_examples(split.train),
                        dev=tables_to_examples(split.dev),
                        test=tables_to_examples(split.test))


def test_config_validation():
    good = tr.TrainConfig()
    good.validate()
    cases = [dict(hidden=0), dict(embed_dim=0), dict(epochs=0), dict(ensemble_k=0),
             dict(l2=-1.0), dict(max_len_slack=-1),
             dict(variant="transformer"), dict(seed=-1)]
    for kw in cases:
        from dataclasses import replace
        with pytest.raises(TrainError):
            replace(good, **kw).validate()


@pytest.mark.parametrize("field", ["l2", "lambda_init"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_hyperparameters(field, value):
    from dataclasses import replace
    with pytest.raises(TrainError, match=f"{field} must be a finite number"):
        replace(tr.TrainConfig(), **{field: value}).validate()


def test_non_finite_loss_names_the_example(monkeypatch):
    bad = Example("kala", INESSIVE, "kalassa")
    ds = DatasetSplit(train=[Example("talo", INESSIVE, "talossa"), bad], dev=[], test=[])
    vocab = build_vocab(ds.train)

    def forward(tape, params, x_ids, y_ids, **kwargs):
        if x_ids == vocab.encode(bad.lemma):
            return np.nan
        return forward_variant(tape, params, x_ids, y_ids, **kwargs)

    monkeypatch.setattr(tr, "forward_variant", forward)
    with pytest.raises(TrainError, match=r"epoch 1: non-finite loss nan on lemma 'kala' "
                                         r"\(case=inessive\) with target 'kalassa'"):
        tr.train_factored(ds, INESSIVE, tr.TrainConfig(hidden=3, epochs=2))


@pytest.mark.parametrize("mode", ["factored", "joint", "interpolated"])
def test_epoch_lines_are_logged_as_epochs_end(monkeypatch, mode):
    # training that fails in epoch 2 has already logged epoch 1's line
    ds = DatasetSplit(train=[Example("talo", INESSIVE, "talossa"),
                             Example("kala", INESSIVE, "kalassa"),
                             Example("talo", "case=adessive", "talolla")], dev=[], test=[])
    lm = train_lm(["talo", "kala"], order=3)
    per_epoch = len(ds.train) if mode == "joint" else 2
    run = {"factored": lambda cfg, log: tr.train_factored(ds, INESSIVE, cfg, log=log),
           "joint": lambda cfg, log: tr.train_joint(ds, cfg, log=log),
           "interpolated": lambda cfg, log: tr.train_factored(ds, INESSIVE, cfg, log=log,
                                                              lm=lm)}[mode]
    first = []
    run(tr.TrainConfig(hidden=3, epochs=1), first.append)
    calls = []

    def forward(tape, *args, **kwargs):
        calls.append(None)
        if len(calls) > per_epoch:
            return np.nan
        return forward_variant(tape, *args, **kwargs)

    monkeypatch.setattr(tr, "forward_variant", forward)
    log = []
    with pytest.raises(TrainError, match="epoch 2: non-finite loss"):
        run(tr.TrainConfig(hidden=3, epochs=3), log.append)
    assert len(first) == 1 and log == first


def test_member_seeds_default_and_explicit():
    assert tr.TrainConfig(seed=3, ensemble_k=4).member_seeds() == (3, 4, 5, 6)


def test_exact_match_accuracy_empty_is_none():
    m = init_model(CharVocab("ab"), "full", hidden=4, embed_dim=3, seed=0)
    assert tr.exact_match_accuracy([m], [], 5) is None


def test_factored_requires_examples_for_tag():
    ds = DatasetSplit(train=[Example("a", "t1", "b")], dev=[], test=[])
    with pytest.raises(TrainError, match="t2"):
        tr.train_factored(ds, "t2", tr.TrainConfig(hidden=4, epochs=1))


def test_factored_memorizes_single_pattern():
    # one repeated example must be driven to near-zero loss and exact recall
    ex = Example("talo", INESSIVE, "talossa")
    ds = DatasetSplit(train=[ex] * 50, dev=[ex], test=[])
    cfg = tr.TrainConfig(hidden=16, epochs=30, seed=0)
    log = []
    model = tr.train_factored(ds, INESSIVE, cfg, log=log.append)
    final_loss = float(log[-1].split("\t")[1])
    assert final_loss < 0.01
    assert tr.exact_match_accuracy([model], [ex], cfg.max_len_slack) == 1.0


def test_log_lines_epoch_loss_accuracy():
    ex = Example("talo", INESSIVE, "talossa")
    ds = DatasetSplit(train=[ex] * 3, dev=[ex], test=[])
    log = []
    tr.train_factored(ds, INESSIVE, tr.TrainConfig(hidden=4, epochs=3), log=log.append)
    assert len(log) == 3
    for i, line in enumerate(log, start=1):
        epoch, loss, acc = line.split("\t")
        assert int(epoch) == i
        assert np.isfinite(float(loss))
        assert 0.0 <= float(acc) <= 1.0


def test_empty_dev_logs_none_and_returns_model():
    ex = Example("talo", INESSIVE, "talossa")
    ds = DatasetSplit(train=[ex] * 3, dev=[], test=[])
    log = []
    model = tr.train_factored(ds, INESSIVE, tr.TrainConfig(hidden=4, epochs=2),
                              log=log.append)
    assert model is not None
    assert all(line.split("\t")[2] == "None" for line in log)


def test_training_is_bit_deterministic():
    ds = _synth_split(20)
    cfg = tr.TrainConfig(hidden=8, epochs=2, seed=0)
    log_a, log_b = [], []
    a = tr.train_factored(ds, INESSIVE, cfg, log=log_a.append)
    b = tr.train_factored(ds, INESSIVE, cfg, log=log_b.append)
    assert models_equal(a, b)
    assert log_a == log_b
    theirs = {p.name: p.value for p in b.parameters()}
    for p in a.parameters():
        assert np.array_equal(p.value, theirs[p.name])


def test_returned_model_attains_best_logged_accuracy():
    ds = _synth_split(20)
    cfg = tr.TrainConfig(hidden=8, epochs=3, seed=0)
    log = []
    model = tr.train_factored(ds, INESSIVE, cfg, log=log.append)
    logged = [float(line.split("\t")[2]) for line in log]
    dev = [ex for ex in ds.dev if ex.tag == INESSIVE]
    acc = tr.exact_match_accuracy([model], dev, cfg.max_len_slack)
    assert acc == max(logged)


def test_joint_shares_encoder_objects():
    spec = default_synth_spec()
    spec.suffixes = {"case=inessive": ("ssä", "ssa"), "case=adessive": ("llä", "lla")}
    ds = _synth_split(20, spec=spec)
    models = tr.train_joint(ds, tr.TrainConfig(hidden=8, epochs=1, seed=0))
    tags = sorted(models)
    first = models[tags[0]]
    for tag in tags[1:]:
        m = models[tag]
        assert m.embed is first.embed
        assert m.enc_fwd is first.enc_fwd
        assert m.enc_bwd is first.enc_bwd
        assert m.dec is not first.dec
        assert m.out_W is not first.out_W


def test_joint_steps_the_shared_encoder_once_per_example(monkeypatch):
    # every step updates one encoder block (the same object for every tag)
    # and one decoder block of the example's own tag model
    spec = default_synth_spec()
    spec.suffixes = {"case=inessive": ("ssä", "ssa"), "case=adessive": ("llä", "lla")}
    ds = _synth_split(10, spec=spec)
    steps, encoder_blocks = [], set()
    real_step = tr.adadelta_step

    def step(blocks, l2=0.0):
        steps.append([[p.name for p in b.parts] for b in blocks])
        encoder_blocks.add(id(blocks[0]))
        real_step(blocks, l2=l2)

    monkeypatch.setattr(tr, "adadelta_step", step)
    tr.train_joint(ds, tr.TrainConfig(hidden=4, epochs=2, seed=0))
    assert len(steps) == 2 * len(ds.train)
    encoder = ["embed"] + [f"enc_{d}.{w}" for d in ("fwd", "bwd") for w in ("W_x", "W_h", "b")]
    for names in steps:
        assert len(names) == 2
        assert names[0] == encoder
        assert not set(encoder) & set(names[1])
        assert names[1][-2:] == ["softmax.W", "softmax.b"]
    assert len(encoder_blocks) == 1


def test_joint_two_tags_reach_dev_accuracy():
    spec = default_synth_spec()
    spec.suffixes = {"case=inessive": ("ssä", "ssa"), "case=adessive": ("llä", "lla")}
    ds = _synth_split(120, seed=1, spec=spec)
    cfg = tr.TrainConfig(hidden=24, epochs=12, seed=0)
    models = tr.train_joint(ds, cfg)
    assert sorted(models) == ["case=adessive", "case=inessive"]
    for tag, m in models.items():
        dev = [ex for ex in ds.dev if ex.tag == tag]
        assert tr.exact_match_accuracy([m], dev, cfg.max_len_slack) >= 0.95


def test_each_dev_evaluation_decodes_the_dev_set_in_one_call(monkeypatch):
    ds = _synth_split(10)
    real, calls = tr.decode_lemmas, []

    def spy(models, lemmas, **kwargs):
        calls.append(list(lemmas))
        return real(models, lemmas, **kwargs)

    monkeypatch.setattr(tr, "decode_lemmas", spy)
    tr.train_factored(ds, INESSIVE, tr.TrainConfig(hidden=4, epochs=3, seed=0))
    dev_lemmas = [ex.lemma for ex in ds.dev if ex.tag == INESSIVE]
    assert dev_lemmas and calls == [dev_lemmas] * 3


def _per_word_exact_match_accuracy(models, examples, max_len_slack, lm=None, lam=None):
    """exact_match_accuracy with every dev lemma decoded by search.greedy_decode."""
    if not examples:
        return None
    vocab = models[0].vocab
    hits = sum(search.greedy_decode(models, vocab.encode(ex.lemma), len(ex.lemma) + max_len_slack,
                                    lm=lm, lam=lam).text(vocab) == ex.inflected
               for ex in examples)
    return hits / len(examples)


@pytest.mark.parametrize("run", [*VARIANTS, "interpolated", "joint"])
def test_dev_selection_equals_per_word_decoding(monkeypatch, run):
    """Dev evaluation decodes the dev set as rows; a run whose dev evaluation
    decodes word by word logs the same accuracy every epoch and returns the
    same parameters, so no selected epoch moves."""
    spec = default_synth_spec()
    spec.suffixes = {"case=inessive": ("ssä", "ssa"), "case=adessive": ("llä", "lla")}
    ds = _synth_split(10, spec=spec)
    # the training examples repeated, and as the dev set: accuracy climbs, and dips
    ds = DatasetSplit(train=ds.train * 8, dev=ds.train, test=[])
    lm = train_lm(filter_wordlist(synth_wordlist(spec, 60, seed=1), build_vocab(ds.train)),
                  order=3)
    variant = run if run in VARIANTS else "full"
    config = tr.TrainConfig(hidden=16, epochs=10, seed=0, variant=variant)

    def train(log):
        if run == "joint":
            return tr.train_joint(ds, config, log=log.append)
        return {INESSIVE: tr.train_factored(ds, INESSIVE, config, log=log.append,
                                            lm=lm if run == "interpolated" else None)}

    rows_log, words_log = [], []
    rows = train(rows_log)
    monkeypatch.setattr(tr, "exact_match_accuracy", _per_word_exact_match_accuracy)
    words = train(words_log)
    assert rows_log == words_log
    assert len({line.split("\t")[2] for line in rows_log}) > 2    # selection has a choice
    assert rows.keys() == words.keys()
    for tag in rows:
        assert models_equal(rows[tag], words[tag])
        assert rows[tag].lm_lambda == words[tag].lm_lambda


def test_exact_match_accuracy_decodes_at_the_learned_lambda(monkeypatch):
    # with an LM and no lam, the weight is the model's lm_lambda, not 1.0
    vocab = CharVocab("abcd")
    m = randomize_params(init_model(vocab, "full", hidden=4, embed_dim=3, seed=0), 1)
    m.lm_lambda = 0.25
    lm = train_lm(["abc", "bcd", "dab"], order=2)
    interpolate, seen = search.interpolated_next_dist, []

    def recorded(model_dist, lm_dist, lam):
        seen.append(lam)
        return interpolate(model_dist, lm_dist, lam)

    monkeypatch.setattr(search, "interpolated_next_dist", recorded)
    tr.exact_match_accuracy([m], [Example("ab", INESSIVE, "abc")], 3, lm=lm)
    assert seen and set(seen) == {0.25}


def test_joint_needs_tags():
    ds = DatasetSplit(train=[], dev=[], test=[])
    with pytest.raises(TrainError, match="at least one tag"):
        tr.train_joint(ds, tr.TrainConfig(hidden=4, epochs=1))


def test_interpolated_tiny_lambda_matches_factored_losses():
    # with softplus(-40) ~ 4e-18 the interpolated objective and its updates
    # coincide with plain training to float precision
    ds = _synth_split(30, seed=2)
    vocab = build_vocab(ds.train)
    lm = train_lm(filter_wordlist(synth_wordlist(default_synth_spec(), 60, seed=5),
                                  vocab), 5)
    cfg = tr.TrainConfig(hidden=12, epochs=4, seed=0, lambda_init=-40.0)
    log_f, log_i = [], []
    tr.train_factored(ds, INESSIVE, cfg, log=log_f.append)
    model = tr.train_factored(ds, INESSIVE, cfg, log=log_i.append, lm=lm)
    assert 0.0 <= model.lm_lambda < 1e-15
    loss_f = [float(l.split("\t")[1]) for l in log_f]
    loss_i = [float(l.split("\t")[1]) for l in log_i]
    assert max(abs(a - b) for a, b in zip(loss_f, loss_i)) < 1e-6


def test_interpolated_learned_lambda_nonnegative():
    ds = _synth_split(20)
    vocab = build_vocab(ds.train)
    lm = train_lm(filter_wordlist(synth_wordlist(default_synth_spec(), 30, seed=6),
                                  vocab), 4)
    cfg = tr.TrainConfig(hidden=8, epochs=2, seed=0)
    model = tr.train_factored(ds, INESSIVE, cfg, lm=lm)
    assert model.lm_lambda >= 0.0


def test_interpolated_rejects_lm_chars_outside_vocab():
    ds = _synth_split(20)
    lm = train_lm(["xyzzy"], order=3)
    with pytest.raises(TrainError, match="outside the model vocabulary"):
        tr.train_factored(ds, INESSIVE, tr.TrainConfig(hidden=4, epochs=1), lm=lm)


@pytest.mark.parametrize("variant", VARIANTS)
def test_interpolated_loss_at_lambda_zero_is_the_plain_loss(variant):
    # softplus(-1000) is exactly 0.0, and the LM rows are finite, 0.0 at BOS
    # and EPS: the loss must raise no RuntimeWarning and equal the loss
    # without the LM bit for bit
    vocab = CharVocab("abcd")
    model = randomize_params(init_model(vocab, variant, hidden=5, embed_dim=4, seed=0), 3)
    lm = train_lm(["abc", "abcd", "dcba", "bbac", "cad"], order=3)
    lam_hat = ad.Parameter("interp.lambda_hat", np.array([-1000.0]))
    x, y = vocab.encode("abc"), vocab.encode("bcd")
    lm_logprobs = [lm_next_dist(lm, vocab, y[:t]) for t in range(len(y) + 1)]
    assert all(lp[BOS] == lp[EPS] == 0.0 and np.isfinite(lp).all() for lp in lm_logprobs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = forward_variant([], model, x, y, lm_logprobs=lm_logprobs, lam_hat=lam_hat)
    plain = forward_variant([], model, x, y)
    assert np.float64(loss).tobytes() == np.float64(plain).tobytes()


def test_interpolated_lm_lookups_do_not_grow_with_epochs(monkeypatch):
    # the LM is fixed, so each target's log-probs are taken once per run
    ds = _synth_split(20)
    vocab = build_vocab(ds.train)
    lm = train_lm(filter_wordlist(synth_wordlist(default_synth_spec(), 30, seed=6),
                                  vocab), 4)
    calls = []

    def counted(*args):
        calls.append(args)
        return lm_next_dist(*args)

    monkeypatch.setattr(tr, "lm_next_dist", counted)
    counts = []
    for epochs in (1, 3):
        calls.clear()
        tr.train_factored(ds, INESSIVE, tr.TrainConfig(hidden=3, epochs=epochs), lm=lm)
        counts.append(len(calls))
    train = [ex for ex in ds.train if ex.tag == INESSIVE]
    assert counts[0] == counts[1] <= sum(len(ex.inflected) + 1 for ex in train)
    assert counts[0] > 0


def test_interpolated_loss_gradients():
    # the per-step interpolated objective must be differentiable in the
    # unconstrained weight and in a cross-section of model tensors
    vocab = CharVocab("abcd")
    model = randomize_params(
        init_model(vocab, "full", hidden=6, embed_dim=5, seed=0), 12)
    lm = train_lm(["abc", "abcd", "dcba", "bbac", "cad"], order=3)
    lam_hat = ad.Parameter("interp.lambda_hat", np.array([0.3]))
    x, y = vocab.encode("abc"), vocab.encode("bcd")

    def loss_fn(tape):
        lm_logprobs = [lm_next_dist(lm, vocab, y[:t]) for t in range(len(y) + 1)]
        return forward_record(tape, model, x, y, lm_logprobs=lm_logprobs, lam_hat=lam_hat)

    assert gradient_check(loss_fn, [lam_hat]) < 1e-4
    subset = [model.embed, model.trans_W, model.dec.W_x,
              model.out_W, model.out_b, lam_hat]
    assert gradient_check(loss_fn, subset) < 1e-4


def test_ensemble_seed_layout():
    ex = Example("talo", INESSIVE, "talossa")
    ds = DatasetSplit(train=[ex] * 3, dev=[ex], test=[])
    cfg = tr.TrainConfig(hidden=4, epochs=1, seed=2, ensemble_k=2)
    members = tr.train_ensemble(ds, INESSIVE, cfg)
    assert len(members) == 2
    from dataclasses import replace
    direct0 = tr.train_factored(ds, INESSIVE, replace(cfg, seed=2))
    direct1 = tr.train_factored(ds, INESSIVE, replace(cfg, seed=3))
    assert models_equal(members[0], direct0)
    assert models_equal(members[1], direct1)
    assert not models_equal(members[0], members[1])


def test_ensemble_single_member_is_plain_training():
    ex = Example("talo", INESSIVE, "talossa")
    ds = DatasetSplit(train=[ex] * 3, dev=[ex], test=[])
    cfg = tr.TrainConfig(hidden=4, epochs=1, seed=0, ensemble_k=1)
    members = tr.train_ensemble(ds, INESSIVE, cfg)
    assert len(members) == 1
    assert models_equal(members[0], tr.train_factored(ds, INESSIVE, cfg))
