"""Acceptance gate: one test per behavioral criterion.

Run `pytest -v tests/test_acceptance.py`; the terminal summary prints one
PASS/FAIL line per criterion. The synthetic-language fixture (data
generation, factored training, accuracy reports, n-best lists) is shared
across the end-to-end criteria.
"""

import math
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (check_model_gradients, exhaustive_decode, models_equal,
                     one_state, randomize_params, separable_rerank_fixture)
from morphogen import cli
from morphogen.autodiff import log_softmax
from morphogen.charlm import (BOW, EOW, WittenBellLM, filter_wordlist, load_lm,
                              save_lm, train_lm)
from morphogen.data import (DatasetSplit, default_synth_spec, split_tables,
                            synth_language, synth_wordlist, tables_to_examples,
                            write_dataset)
from morphogen.evaluate import evaluate_accuracy, vowel_harmony_check
from morphogen.model import VARIANTS, DecodeSession, init_model, load_model, save_model
from morphogen.reranker import (RerankGroup, pairwise_accuracy, pro_train,
                                rerank, save_weights)
from morphogen.search import (beam_decode, ensemble_next_dist, greedy_decode,
                              interpolated_next_dist, lm_next_dist)
from morphogen.trainer import TrainConfig, train_factored, train_joint
from morphogen.vocab import BOS, EOS, CharVocab


def _example_split(tables, seed=0):
    split = split_tables(tables, seed=seed)
    return DatasetSplit(train=tables_to_examples(split.train),
                        dev=tables_to_examples(split.dev),
                        test=tables_to_examples(split.test))


@pytest.fixture(scope="session")
def harmony_run(tmp_path_factory):
    """Desk-scale pipeline over the synthetic vowel-harmony language."""
    t0 = time.monotonic()
    spec = default_synth_spec()
    dataset = _example_split(synth_language(spec, 624, seed=0))  # 500/62/62 tables
    tags = sorted(spec.suffixes)
    config = TrainConfig(hidden=32, epochs=6, seed=0)
    models = {tag: train_factored(dataset, tag, config) for tag in tags}
    dev_report = evaluate_accuracy(models, dataset.dev)
    test_report = evaluate_accuracy(models, dataset.test)
    e2e_seconds = time.monotonic() - t0

    vocab = models[tags[0]].vocab
    lm = train_lm(filter_wordlist(synth_wordlist(spec, 500, seed=1), vocab), order=5)

    def beam_groups(examples):
        groups = []
        for ex in examples:
            x = vocab.encode(ex.lemma)
            results = beam_decode([models[ex.tag]], x, 8, len(x) + 10)
            cands = tuple((r.text(vocab), r.logprob) for r in results)
            groups.append(RerankGroup(ex.lemma, ex.inflected, cands))
        return groups

    dev_groups = beam_groups(dataset.dev)
    test_groups = beam_groups(dataset.test)
    pro = pro_train(dev_groups, lm, seed=0)

    root = tmp_path_factory.mktemp("acceptance")
    for tag in tags:
        save_model(models[tag], root / f"{tag}.ckpt")
    write_dataset(dataset.test, root / "test.tsv")
    write_dataset(dataset.test[:40], root / "test_small.tsv")
    save_lm(lm, root / "lm.txt")
    save_weights(pro, root / "weights.tsv")
    return SimpleNamespace(spec=spec, dataset=dataset, tags=tags, models=models,
                           vocab=vocab, lm=lm, pro=pro, dev_report=dev_report,
                           test_report=test_report, dev_groups=dev_groups,
                           test_groups=test_groups, e2e_seconds=e2e_seconds,
                           root=root)


def test_criterion_01_variant_gradients_match_finite_differences():
    t0 = time.monotonic()
    vocab = CharVocab("abcd")  # 8 ids including the specials
    for variant in VARIANTS:
        model = randomize_params(
            init_model(vocab, variant, hidden=10, embed_dim=8, seed=0), 8)
        err = check_model_gradients(model, vocab.encode("abcd"),
                                    vocab.encode("dcba"))
        assert err < 1e-4, (variant, err)
    assert time.monotonic() - t0 < 60.0


def test_criterion_02_synthetic_language_end_to_end(harmony_run):
    assert len(harmony_run.spec.alphabet()) == 12
    assert len(harmony_run.tags) == 4
    assert len(harmony_run.dataset.train) == 2000  # 500 tables, one form per tag
    assert harmony_run.dev_report.macro >= 0.95
    assert harmony_run.test_report.macro >= 0.95
    preds = [p for (_, _, _, p) in harmony_run.test_report.predictions]
    fraction, _ = vowel_harmony_check(preds)
    assert fraction >= 0.99
    assert harmony_run.e2e_seconds < 600.0


def test_criterion_03_joint_helps_low_resource():
    spec = default_synth_spec()
    dataset = _example_split(synth_language(spec, 62, seed=7))  # 50 train tables
    tags = sorted(spec.suffixes)
    wins = 0
    for seed in range(5):
        config = TrainConfig(hidden=24, epochs=10, seed=seed)
        factored = {tag: train_factored(dataset, tag, config) for tag in tags}
        joint = train_joint(dataset, config)
        factored_macro = evaluate_accuracy(factored, dataset.dev).macro
        joint_macro = evaluate_accuracy(joint, dataset.dev).macro
        wins += joint_macro >= factored_macro
    assert wins >= 3


def test_criterion_04_beam_search_oracle_equivalence():
    vocab = CharVocab("ab")  # 4 candidate ids per step: a, b, unk, end
    model = randomize_params(
        init_model(vocab, "full", hidden=6, embed_dim=5, seed=0), 5)
    x = vocab.encode("ab")
    max_len = 5
    want = exhaustive_decode(model, x, max_len)
    got = beam_decode([model], x, 4 ** max_len, max_len)
    # 3 continuations per step: sum(3^d, d<5) = 121 leaves + 3^5 truncated
    assert len(got) == len(want) == 364
    for g, w in zip(got, want):
        assert g.ids == w.ids
        assert g.truncated == w.truncated
        assert abs(g.logprob - w.logprob) < 1e-12
    rng = np.random.default_rng(11)
    for _ in range(100):
        length = int(rng.integers(1, 7))
        word = "".join(rng.choice(["a", "b"]) for _ in range(length))
        xs = vocab.encode(word)
        g = greedy_decode([model], xs, length + 4)
        b = beam_decode([model], xs, 1, length + 4)
        assert len(b) == 1
        assert b[0].ids == g.ids
        assert b[0].truncated == g.truncated
        assert abs(b[0].logprob - g.logprob) < 1e-12


def test_criterion_05_ensemble_identities():
    vocab = CharVocab("abcd")
    model = randomize_params(
        init_model(vocab, "full", hidden=6, embed_dim=5, seed=0), 5)
    rng = np.random.default_rng(0)
    for _ in range(100):
        length = int(rng.integers(1, 7))
        word = "".join(rng.choice(list("abcd")) for _ in range(length))
        x = vocab.encode(word)
        single = beam_decode([model], x, 4, length + 4)
        trio = beam_decode([model, model, model], x, 4, length + 4)
        assert [r.ids for r in trio] == [r.ids for r in single]
        assert [r.truncated for r in trio] == [r.truncated for r in single]
        for a, b in zip(trio, single):
            assert abs(a.logprob - b.logprob) < 1e-9
    # normalized geometric mean of [3/4, 1/4] and [1/2, 1/2] by hand
    got = np.exp(ensemble_next_dist([np.log([0.75, 0.25]), np.log([0.5, 0.5])]))
    root3 = math.sqrt(3.0)
    assert abs(got[0] - (3.0 - root3) / 2.0) < 1e-12
    assert abs(got[1] - (root3 - 1.0) / 2.0) < 1e-12


def _hand_backoff_prob(counts, alphabet_size, history, char):
    """Interpolated-backoff recursion written independently of the package."""
    base = 1.0 / (alphabet_size + 1)

    def rec(h):
        if h is None:
            return base
        succ = counts.get(h, {})
        total, types = sum(succ.values()), len(succ)
        shorter = rec(h[1:] if h else None)
        if total + types == 0:
            return shorter
        return (succ.get(char, 0) + types * shorter) / (total + types)

    return rec(history)


def test_criterion_06_lm_normalization_and_recursion():
    rng = random.Random(6)
    alphabet = "klnstaouäöei"
    words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(2, 10)))
             for _ in range(200)]
    lm = train_lm(words, order=5)
    pool = lm.alphabet + BOW
    outcomes = lm.alphabet + EOW
    for _ in range(1000):
        history = "".join(rng.choice(pool) for _ in range(rng.randint(0, 6)))
        total = sum(lm.prob(history, c) for c in outcomes)
        assert abs(total - 1.0) <= 1e-9, history
    counts = {"a": {"b": 2, "c": 1}}
    hand = WittenBellLM.from_counts(2, "bc", counts)
    want = _hand_backoff_prob(counts, alphabet_size=2, history="a", char="b")
    assert abs(want - 8.0 / 15.0) < 1e-15
    assert abs(hand.prob("a", "b") - want) < 1e-12


def test_criterion_07_interpolation_identities():
    vocab = CharVocab("abcd")
    model = randomize_params(
        init_model(vocab, "full", hidden=6, embed_dim=5, seed=0), 5)
    trained = train_lm(["abc", "abcd", "dcba", "bbac", "cad"], order=3)
    for word in ("a", "dc", "abcd", "bba"):
        x = vocab.encode(word)
        max_len = len(x) + 4
        assert (greedy_decode([model], x, max_len, lm=trained, lam=0.0)
                == greedy_decode([model], x, max_len))
        assert (beam_decode([model], x, 4, max_len, lm=trained, lam=0.0)
                == beam_decode([model], x, 4, max_len))
    uniform = WittenBellLM(5, "abcd")  # no counts: every outcome 1/5
    for word in ("ab", "dca"):
        x = vocab.encode(word)
        sess = one_state(DecodeSession(model, [x]))
        prefix = []
        for t in range(len(x) + 3):
            scores = sess.step(prefix[-1] if prefix else BOS, t)
            dist = log_softmax(scores)
            lm_dist = lm_next_dist(uniform, vocab, prefix)
            for lam in (0.3, 1.0, 2.5):
                mixed = interpolated_next_dist(dist, lm_dist, lam)
                assert np.max(np.abs(np.exp(mixed) - np.exp(dist))) <= 1e-12
            choice = int(np.argmax(dist))
            if choice == EOS:
                break
            prefix.append(choice)
    for lam in (0.3, 1.0, 2.5):
        for word in ("ab", "dca", "bbbb"):
            x = vocab.encode(word)
            plain = beam_decode([model], x, 4, len(x) + 4)
            mixed = beam_decode([model], x, 4, len(x) + 4, lm=uniform, lam=lam)
            assert [r.ids for r in mixed] == [r.ids for r in plain]
            assert [r.truncated for r in mixed] == [r.truncated for r in plain]
            for a, b in zip(mixed, plain):
                assert abs(a.logprob - b.logprob) < 1e-9


def test_criterion_08_reranking(harmony_run):
    groups, toy_lm = separable_rerank_fixture()
    model = pro_train(groups, toy_lm, seed=0)
    assert pairwise_accuracy(model, groups, toy_lm) == 1.0
    for g in groups:
        assert rerank(g.candidates, model, toy_lm, g.source) == g.gold
    # on the trained task, reranking must not materially hurt accuracy
    n = len(harmony_run.test_groups)
    unreranked = sum(g.candidates[0][0] == g.gold
                     for g in harmony_run.test_groups) / n
    reranked = sum(rerank(g.candidates, harmony_run.pro, harmony_run.lm,
                          g.source) == g.gold
                   for g in harmony_run.test_groups) / n
    assert reranked >= unreranked - 0.005


def _report_shape_ok(out, n_tags):
    tag_lines = [l for l in out.splitlines() if l.startswith("tag\t")]
    macro_lines = [l for l in out.splitlines() if l.startswith("macro\t")]
    assert len(tag_lines) == n_tags
    assert len(macro_lines) == 1
    for line in tag_lines:
        _, _, acc, count = line.split("\t")
        assert 0.0 <= float(acc) <= 1.0
        assert int(count) > 0
    assert 0.0 <= float(macro_lines[0].split("\t")[1]) <= 1.0


def test_criterion_09_accuracy_report_harness(harmony_run, capsys):
    # per-tag accuracy table plus macro average, greedy decoding
    rc = cli.main(["evaluate", "--models-dir", str(harmony_run.root),
                   "--data", str(harmony_run.root / "test.tsv")])
    assert rc == 0
    _report_shape_ok(capsys.readouterr().out, n_tags=4)
    # same shape with beam decoding plus trained reranker
    rc = cli.main(["evaluate", "--models-dir", str(harmony_run.root),
                   "--data", str(harmony_run.root / "test_small.tsv"),
                   "--beam", "--beam-width", "8",
                   "--rerank", str(harmony_run.root / "weights.tsv"),
                   "--lm", str(harmony_run.root / "lm.txt")])
    assert rc == 0
    _report_shape_ok(capsys.readouterr().out, n_tags=4)


def test_criterion_10_determinism_and_persistence(tmp_path):
    spec = default_synth_spec()
    dataset = _example_split(synth_language(spec, 20, seed=5))
    tag = sorted(spec.suffixes)[0]
    config = TrainConfig(hidden=8, epochs=2, seed=3)
    a = train_factored(dataset, tag, config)
    b = train_factored(dataset, tag, config)
    assert models_equal(a, b)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.value, pb.value)
    path_a, path_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(a, path_a)
    save_model(b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    path_a2 = tmp_path / "a2.ckpt"
    save_model(load_model(path_a), path_a2)
    assert path_a2.read_bytes() == path_a.read_bytes()
    lm = train_lm(synth_wordlist(spec, 80, seed=2), order=4)
    lm_a, lm_b = tmp_path / "lm_a.txt", tmp_path / "lm_b.txt"
    save_lm(lm, lm_a)
    save_lm(load_lm(lm_a), lm_b)
    assert lm_a.read_bytes() == lm_b.read_bytes()
