"""Decoding encodes its sources through per-id tables (model._encoder_tables)
and a pass of its own (model._encoder_pass), with no training caches.

Each table row is built as training forms one vector's values: the input
projection E[v] W_xᵀ + b as a one-row product, and the first state as
lstm_step from zero. So a batch of one source encodes to training's bits,
for a single read-only model and for each member of a stack. The tables are
kept on read-only params and built per call on writeable ones."""

import numpy as np
import pytest

from helpers import randomize_params
from morphogen import evaluate as ev
from morphogen import lstm
from morphogen import model as mod
from morphogen.model import VARIANTS, init_model
from morphogen.vocab import CharVocab

VOCAB = CharVocab("abcdefg")
WORDS = ("a", "gab", "cabbage", "fedcbagz")
LEMMAS = ["a", "z", "bd", "cza", "abcd", "dcbaz", "bbadc", "azcdab", "cabdabc", "dzbacdba"]
ENCODERS = tuple(v for v in VARIANTS if mod.WIRINGS[v].encoder)


def _model(variant, seed, hidden=6):
    return randomize_params(init_model(VOCAB, variant, hidden=hidden, embed_dim=4, seed=0), seed)


def _read_only(m):
    m = m.copy()
    mod._freeze(m)
    return m


def _members_and_params(variant, k):
    """k members and what decodes them: the lone read-only model, or their stack."""
    members = [_read_only(_model(variant, seed)) for seed in range(1, k + 1)]
    return members, members[0] if k == 1 else mod._stack(members)


@pytest.mark.parametrize("variant", ENCODERS)
@pytest.mark.parametrize("k", (1, 3))
def test_table_rows_are_trainings_values_for_each_id(variant, k):
    """Row v of Z is training's E[v] @ W_x.T + b, and row v of (H1, C1) its
    first lstm_step from the zero state, byte for byte, for every id."""
    members, params = _members_and_params(variant, k)
    for direction, tables in enumerate(mod._encoder_tables(params)):
        for j, m in enumerate(members):
            cell, E = (m.enc_fwd, m.enc_bwd)[direction], m.embed.value
            zero = np.zeros(cell.hidden_size)
            for v in range(len(VOCAB)):
                z = E[v] @ cell.W_x.value.T + cell.b.value
                want = (z, *lstm.lstm_step(cell, z, zero, zero)[:2])
                for table, w in zip(tables, want):
                    assert (table[v] if k == 1 else table[j, v]).tobytes() == w.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("k", (1, 3))
def test_a_batch_of_one_encodes_as_training_does(variant, k):
    """A read-only model's, its writeable copy's or a stack's batch of one
    source: e, H and keys are training's encoding of that source (each
    member's, for a stack), bit for bit, as rows of one."""
    members, params = _members_and_params(variant, k)
    for word in WORDS:
        x = VOCAB.encode(word)
        for rows in [mod._encode_sources(p, [x]) for p in (params, params.copy())]:
            assert rows.pad is None
            for j, m in enumerate(members):
                one = mod._encode_source(m, x)[0]
                for attr in ("e", "H", "keys"):
                    want, got = getattr(one, attr), getattr(rows, attr)
                    assert (got is None) == (want is None)
                    if want is not None:
                        got = got[0] if k == 1 else got[j, 0]
                        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_encoder_tables_are_built_once_per_read_only_params(monkeypatch):
    """50 words, greedy and beam: each read-only model's or stack's encoder
    tables are built once (one _cell_tables call per direction); writeable
    copies build them per call."""
    models = [_read_only(_model(variant, seed)) for variant, seed in
              (("attention", 5), ("full", 2), ("full", 3), ("plain-encdec", 8))]
    built = []
    real = mod._cell_tables

    def spy(cell, E):
        built.append(cell)
        return real(cell, E)

    monkeypatch.setattr(mod, "_cell_tables", spy)
    lemmas = (LEMMAS * 5)[:50]
    ev.decode_lemmas(models, lemmas)
    ev.decode_lemmas(models, lemmas, beam_width=4)
    ev.decode_lemmas(models, lemmas, beam_width=2)
    stack = models[1]._stacks[(id(models[1]), id(models[2]))]
    kept = (models[0], stack, models[3])
    assert sorted(map(id, built)) == sorted(id(cell) for p in kept
                                             for cell in (p.enc_fwd, p.enc_bwd))
    for params in kept:
        assert not any(table.flags.writeable for tables in params._enc_tables for table in tables)
    # writeable copies build them per call: per greedy batch, per beam word
    built.clear()
    copies = [m.copy() for m in models]
    ev.decode_lemmas(copies, lemmas[:5])
    ev.decode_lemmas(copies, lemmas[:5])
    assert len(built) == 2 * 3 * 2
    built.clear()
    ev.decode_lemmas(copies, lemmas[:5], beam_width=2)
    assert len(built) == 5 * 3 * 2
    assert all(m._enc_tables is None for m in copies)


@pytest.mark.parametrize("variant", ENCODERS)
def test_a_changed_writeable_copy_encodes_its_new_weights(variant):
    m = _model(variant, 1)
    sources = [VOCAB.encode(w) for w in WORDS]

    def encoded(params):
        source = mod._encode_sources(params, sources)
        return [getattr(source, attr).tobytes() for attr in ("e", "H") if
                getattr(source, attr) is not None]

    before = encoded(m)
    assert encoded(_read_only(m)) == before
    m.embed.value[:] *= 1.5     # in place, as a training step would
    m.enc_bwd.W_x.value[:] += 0.25
    after = encoded(m)
    assert after != before
    assert after == encoded(m.copy()) == encoded(_read_only(m))

