"""Every loader, fed arbitrary bytes or a damaged valid file, either loads or
raises a MorphogenError: never another exception."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from morphogen import data, search
from morphogen.charlm import load_lm, save_lm, train_lm
from morphogen.errors import MorphogenError
from morphogen.evaluate import export_embeddings, read_embeddings
from morphogen.model import init_model, load_model, save_model
from morphogen.reranker import FEATURE_NAMES, RerankModel, load_weights, save_weights
from morphogen.vocab import CharVocab

LOADERS = {
    "load_model": load_model,
    "load_model_v1": load_model,      # over a committed version-1 checkpoint
    "load_lm": load_lm,
    "read_nbest": search.read_nbest,
    "load_weights": load_weights,
    "read_embeddings": read_embeddings,
    "parse_dataset": data.parse_dataset,
}
FUZZ = settings(max_examples=30, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _write_valid(kind, path):
    model = init_model(CharVocab("ab"), "attention", hidden=2, embed_dim=2, seed=0)
    if kind == "load_model":
        model.lm_lambda = 0.5
        save_model(model, path)
    elif kind == "load_model_v1":
        path.write_bytes((Path(__file__).parent / "data" / "attention.v1.ckpt").read_bytes())
    elif kind == "load_lm":
        save_lm(train_lm(["ab", "ba", "aab\\"], order=3), path)
    elif kind == "read_nbest":
        search.write_nbest(path, [("ab", "t=1", "aba", -0.25), ("ab", "t=1", "ab", -1.5)])
    elif kind == "load_weights":
        save_weights(RerankModel(np.linspace(-1.0, 1.0, len(FEATURE_NAMES))), path)
    elif kind == "read_embeddings":
        export_embeddings(model, "ab", path)
    else:
        data.write_dataset([data.Example("ab", "t=1", "aba"), data.Example("b", "t=2", "bä")],
                           path)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    out = {}
    for kind, loader in LOADERS.items():
        path = root / kind
        _write_valid(kind, path)
        loader(path)                      # the undamaged file loads
        out[kind] = path.read_bytes()
    return out


def _load_or_morphogen_error(loader, path, blob):
    path.write_bytes(blob)
    try:
        loader(path)
    except MorphogenError as exc:
        assert "\n" not in str(exc)


@pytest.mark.parametrize("kind", LOADERS)
@FUZZ
@given(blob=st.binary(max_size=300))
@example(blob=b"[" * 100_000)                      # deeper than the JSON parser recurses
@example(blob=b"ngram-order 2\nalphabet a\nx\t\ta\t1\n")   # non-integer order field
@example(blob=b"ngram-order 2\nalphabet a\n2\t\\ \ta\t1\n")   # an escape save_lm never writes
def test_arbitrary_bytes(tmp_path, kind, blob):
    _load_or_morphogen_error(LOADERS[kind], tmp_path / "input", blob)


@pytest.mark.parametrize("kind", LOADERS)
@FUZZ
@given(cut=st.floats(0.0, 1.0), patch=st.binary(max_size=4), at=st.floats(0.0, 1.0))
def test_truncated_and_patched_valid_files(tmp_path, valid_files, kind, cut, patch, at):
    valid = valid_files[kind]
    truncated = valid[:int(cut * len(valid))]
    _load_or_morphogen_error(LOADERS[kind], tmp_path / "input", truncated)
    i = int(at * len(valid))
    patched = valid[:i] + patch + valid[i + len(patch):]
    _load_or_morphogen_error(LOADERS[kind], tmp_path / "input", patched)
