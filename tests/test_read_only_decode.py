"""Loaded checkpoints and trained models are read-only, and decoding keeps
what it derives from their weights.

load_model and the trainer freeze theta and every tensor, so a write raises
instead of leaving derived state stale. A run of read-only members is
stacked once (search._runs keeps the stack on the run's first member) and a
read-only model or stack builds its decode tables once
(model._decode_tables). Writeable models, which training updates in place,
take the per-call path. Both paths give the same results, bit for bit."""

import gc
import struct
import weakref

import numpy as np
import pytest

from helpers import models_equal, randomize_params
from morphogen import evaluate as ev
from morphogen import model as mod
from morphogen import search as se
from morphogen import trainer as tr
from morphogen.charlm import train_lm
from morphogen.data import DatasetSplit, Example
from morphogen.model import VARIANTS, init_model
from morphogen.vocab import EOS, CharVocab

VOCAB = CharVocab("abcd")
LM = train_lm(["abca", "bacab", "cab", "ab", "cca", "dab", "adda"], order=3)
LEMMAS = ["a", "z", "bd", "cza", "abcd", "dcbaz", "bbadc", "azcdab", "cabdabc", "dzbacdba"]
INESSIVE, ELATIVE = "case=inessive", "case=elative"
TRAINING = DatasetSplit(
    train=[Example(w, t, w + s) for w in ("abca", "bacab", "cab", "ab", "cca", "dab")
           for t, s in ((INESSIVE, "da"), (ELATIVE, "cb"))],
    dev=[Example("adda", INESSIVE, "addada"), Example("adda", ELATIVE, "addacb")], test=[])

ENSEMBLES = {    # loaded (variant, seed, hidden) specs, or a training run's models
    **{v: [(v, 1, 4)] for v in VARIANTS},
    "stack": [("full", seed, 4) for seed in (2, 3, 4)],
    # a stack of two between two single models of other configurations
    "mixed": [("attention", 5, 4), ("no-encoder", 6, 5), ("no-encoder", 7, 5), ("full", 8, 3)],
    "trained": lambda: tr.train_ensemble(
        TRAINING, INESSIVE, tr.TrainConfig(hidden=4, epochs=2, seed=2, ensemble_k=3)),
    # two tags' models, which share one encoder
    "joint": lambda: [m for _, m in sorted(
        tr.train_joint(TRAINING, tr.TrainConfig(hidden=4, epochs=2, seed=5)).items())],
}
LMS = {"no-lm": (None, None), "lm": (LM, 0.7), "lambda-0": (LM, 0.0)}


def _model(variant, seed, hidden):
    m = randomize_params(init_model(VOCAB, variant, hidden=hidden, embed_dim=3, seed=0), seed)
    m.out_b.value[EOS] += 1.5     # so that some words end before max_len and some do not
    return m


def _loaded(tmp_path, specs):
    out = []
    for i, spec in enumerate(specs):
        path = tmp_path / f"m{i}.ckpt"
        mod.save_model(_model(*spec), path)
        out.append(mod.load_model(path))
    return out


def _members(tmp_path, name):
    specs = ENSEMBLES[name]
    return specs() if callable(specs) else _loaded(tmp_path, specs)


def _bits(nbests):
    return [[(r.ids, struct.pack("<d", r.logprob), r.truncated) for r in nbest]
            for nbest in nbests]


def _decode_all(models, lm, lam):
    """Greedy (as rows and word by word) and beam n-bests of LEMMAS."""
    out = _bits(ev.decode_lemmas(models, LEMMAS, lm=lm, lam=lam))
    out += _bits([[se.greedy_decode(models, VOCAB.encode(w), len(w) + 4, lm=lm, lam=lam)]
                  for w in LEMMAS])
    out += _bits(ev.decode_lemmas(models, LEMMAS, beam_width=4, lm=lm, lam=lam))
    return out


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_loaded_model_is_read_only(tmp_path, variant):
    m, = _loaded(tmp_path, [(variant, 1, 4)])
    assert m.read_only
    with pytest.raises(ValueError, match="read-only"):
        m.theta[0] = 1.0
    for p in m.parameters():
        with pytest.raises(ValueError, match="read-only"):
            p.value[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            p.value += 1.0
    with pytest.raises(ValueError, match="read-only"):     # an optimiser step's slice
        m.block().value[0] = 1.0


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_copy_of_a_loaded_model_is_writeable_and_equal(tmp_path, variant):
    m, = _loaded(tmp_path, [(variant, 1, 4)])
    c = m.copy()
    assert not c.read_only and c.theta.flags.writeable
    assert models_equal(c, m)
    assert c.theta.tobytes() == m.theta.tobytes()
    for p in c.parameters():
        assert p.value.flags.writeable
        p.value[...] += 1.0
    assert not models_equal(c, m)


@pytest.mark.parametrize("lm_kind", LMS)
@pytest.mark.parametrize("name", ENSEMBLES)
def test_loaded_members_decode_as_their_writeable_copies(tmp_path, name, lm_kind):
    """Loaded members, or a training run's, which are as read-only."""
    loaded = _members(tmp_path, name)
    assert all(m.read_only and m.vocab == VOCAB for m in loaded)
    copies = [m.copy() for m in loaded]
    lm, lam = LMS[lm_kind]
    want = _decode_all(copies, lm, lam)
    assert _decode_all(loaded, lm, lam) == want
    assert _decode_all(loaded, lm, lam) == want     # again, from what the first run kept
    assert all(m._tables is None and not m._stacks for m in copies)


def test_a_run_of_loaded_members_is_stacked_and_tabled_once(tmp_path, monkeypatch):
    """50 words, greedy and beam: one stack per run of members, and each
    model's or stack's tables (here, its masked bias) built once."""
    models = _loaded(tmp_path, ENSEMBLES["mixed"])
    stacks, tables = [], []
    real_stack, real_bias = se._stack, mod._masked_bias

    def stack_spy(run):
        stacks.append(run)
        return real_stack(run)

    def bias_spy(params):
        tables.append(params)
        return real_bias(params)

    monkeypatch.setattr(se, "_stack", stack_spy)
    monkeypatch.setattr(mod, "_masked_bias", bias_spy)
    lemmas = (LEMMAS * 5)[:50]
    ev.decode_lemmas(models, lemmas)
    ev.decode_lemmas(models, lemmas, beam_width=4, lm=LM)
    ev.decode_lemmas(models, lemmas, beam_width=2)
    assert stacks == [tuple(models[1:3])]
    stack = models[1]._stacks[(id(models[1]), id(models[2]))]
    assert [id(p) for p in tables] == [id(models[0]), id(stack), id(models[3])]
    assert stack.read_only and stack.later_members == (models[2],)
    for params in (models[0], stack, models[3]):
        assert all(t is None or not t.flags.writeable for t in params._tables[1:])
    # writeable copies stack and build their tables per call
    stacks.clear()
    tables.clear()
    ev.decode_lemmas([m.copy() for m in models], lemmas[:5], beam_width=2)
    assert len(stacks) == 5 and len(tables) == 5 * 3


def test_member_order_picks_the_stack(tmp_path):
    a, b = _loaded(tmp_path, [("full", 1, 4), ("full", 2, 4)])
    ab, ba = se._runs([a, b])[0], se._runs([b, a])[0]
    assert ab is not ba
    assert se._runs([a, b])[0] is ab and se._runs([b, a])[0] is ba
    assert np.array_equal(ab.out_W.value[0], a.out_W.value)
    assert np.array_equal(ba.out_W.value[0], b.out_W.value)
    # a run that also holds a writeable member is stacked per call
    c = b.copy()
    assert se._runs([a, c])[0] is not se._runs([a, c])[0]


@pytest.mark.parametrize("name", ("full", "stack"))
def test_a_writeable_copy_decodes_its_new_weights(tmp_path, name):
    loaded = _loaded(tmp_path, ENSEMBLES[name])
    models = [m.copy() for m in loaded]
    before = _decode_all(models, LM, 0.7)
    assert before == _decode_all(loaded, LM, 0.7)
    for m in models:    # as a training step would, in place
        m.out_b.value[:] += np.arange(len(VOCAB))
        m.dec.W_x.value[:] *= 1.5
    after = _decode_all(models, LM, 0.7)
    assert after != before
    assert after == _decode_all([m.copy() for m in models], LM, 0.7)


def test_a_kept_stack_is_freed_with_its_models(tmp_path):
    """By reference counting alone: the first member owns the stack and the
    stack holds the later members, so no cycle waits for the collector."""
    models = _loaded(tmp_path, ENSEMBLES["stack"])
    gc.disable()
    try:
        ev.decode_lemmas(models, LEMMAS, beam_width=2)
        stack, = models[0]._stacks.values()
        refs = [weakref.ref(stack), *(weakref.ref(m) for m in models)]
        del models, stack
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
