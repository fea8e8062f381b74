import base64
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from helpers import (check_model_gradients, models_equal, one_state, pinned_message,
                     randomize_params, row, run_sequence)
from morphogen import autodiff as ad
from morphogen import model as mod
from morphogen import search
from morphogen.errors import (CheckpointError, DataError, DimensionError,
                              MorphogenError)
from morphogen.vocab import BOS, EOS, EPS, CharVocab

VOCAB = CharVocab("ab")


def _model(variant="full", hidden=5, embed_dim=4, seed=0, vocab=VOCAB):
    return mod.init_model(vocab, variant, hidden=hidden, embed_dim=embed_dim, seed=seed)


def test_variant_list_and_unknown_variant():
    assert mod.VARIANTS == ("full", "plain-encdec", "attention", "no-encoder")
    with pytest.raises(MorphogenError, match="variant"):
        mod.init_model(VOCAB, "seq2seq")


def test_masked_ids_are_bos_and_eps():
    assert mod.MASKED_OUTPUT_IDS == (BOS, EPS)


def test_decoder_input_size_per_variant():
    n, d = 5, 4
    sizes = {"full": n + 2 * d, "plain-encdec": d,
             "attention": 2 * n + d, "no-encoder": 2 * d}
    for variant, want in sizes.items():
        m = _model(variant)
        assert m.decoder_input_size() == want
        assert m.dec.W_x.value.shape == (4 * n, want)


def test_parameter_names_unique_and_variant_specific():
    for variant in mod.VARIANTS:
        m = _model(variant)
        names = [p.name for p in m.parameters()]
        assert len(names) == len(set(names))
        assert "softmax.W" in names and "embed" in names
        assert ("trans.W" in names) == (variant in ("full", "plain-encdec"))
        assert ("attn.v" in names) == (variant == "attention")
        assert ("enc_fwd.W_x" in names) == (variant != "no-encoder")


def test_init_scale_and_seed_determinism():
    m = _model(seed=9)
    again = _model(seed=9)
    assert models_equal(m, again)
    assert not models_equal(m, _model(seed=10))
    for p in m.parameters():
        assert np.all(np.abs(p.value) <= 1.0)  # forget biases are the max
    assert np.max(np.abs(m.embed.value)) <= mod.INIT_SCALE


def test_encoding_is_the_transformed_final_states():
    # e = W_trans [fwd h_T ; bwd h_1] + b_trans; attention builds no e
    x = VOCAB.encode("abba")
    for variant in mod.VARIANTS:
        m = randomize_params(_model(variant), 4)
        source = mod._encode_source(m, x)[0]
        if not m.wiring.trans:
            assert source.e is None
            continue
        xs = [row(None, m.embed, i) for i in x]
        h_fwd = run_sequence(None, m.enc_fwd, xs)[-1].h.value
        h_bwd = run_sequence(None, m.enc_bwd, xs[::-1])[-1].h.value
        want = m.trans_W.value @ np.concatenate([h_fwd, h_bwd]) + m.trans_b.value
        assert np.array_equal(source.e, want)


@pytest.mark.parametrize("variant", mod.VARIANTS)
def test_a_lone_source_encodes_as_training_does(variant):
    """A single model's lone decoding source is training's encoding, bit
    for bit, as rows of one: ids padded with one EPS, e, H and keys."""
    m = randomize_params(_model(variant), 4)
    x = VOCAB.encode("abba")
    one = mod._encode_source(m, x)[0]
    rows = mod._encode_sources(m, [x], mod._decode_tables(m)[-1])
    assert rows.x_ids.tolist() == [x + [EPS]] and rows.pad is None
    for attr in ("e", "H", "keys"):
        want, got = getattr(one, attr), getattr(rows, attr)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.shape == (1, *want.shape) and np.array_equal(got[0], want)


def test_one_source_attends_every_row_with_one_product():
    """Rows over one source (a beam's hypotheses) take one product w @ H, as
    over training's source, not one per row: the same context bits."""
    m = randomize_params(_model("attention", hidden=32, embed_dim=8), 4)
    x = VOCAB.encode("abbabaabb")
    S = np.random.default_rng(0).normal(size=(8, m.hidden))
    got = mod.attention_context(m, mod._encode_sources(m, [x], mod._decode_tables(m)[-1]), S)
    want = mod.attention_context(m, mod._encode_source(m, x)[0], S)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def test_one_state_steps_only_a_single_models_session_over_one_source():
    models = [randomize_params(_model(), seed) for seed in (4, 5)]
    x = VOCAB.encode("ab")
    assert one_state(mod.DecodeSession(models[0], [x])).H.shape == (models[0].hidden,)
    for sess in (mod.DecodeSession(mod._stack(models), [x]),
                 mod.DecodeSession(models[0], [x, VOCAB.encode("b")])):
        with pytest.raises(DimensionError, match="one state steps only"):
            one_state(sess)


def test_step_distribution_masks_and_normalizes():
    for variant in mod.VARIANTS:
        m = randomize_params(_model(variant), 4)
        sess = mod.DecodeSession(m, [VOCAB.encode("ab")])
        scores = one_state(sess).step(BOS, 0)
        dist = np.exp(ad.log_softmax(scores))
        assert dist[BOS] == 0.0 and dist[EPS] == 0.0
        assert abs(dist.sum() - 1.0) < 1e-12
        assert np.all(dist >= 0.0)


@pytest.mark.parametrize("variant", mod.VARIANTS)
def test_step_scores_are_minus_inf_exactly_at_bos_and_eps(variant):
    # the session emits the output layer's scores W h' + b, not log-probs;
    # only the masked ids are -inf, for one state, for B rows and for a stack
    models = [randomize_params(_model(variant), seed) for seed in (4, 5)]
    x = VOCAB.encode("ab")
    sess = one_state(mod.DecodeSession(models[0], [x]))
    stack = mod.DecodeSession(mod._stack(models), [x])
    rng = np.random.default_rng(0)
    one = sess.step(BOS, 0), sess.H
    sess.H, sess.C = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
    rows = sess.step([BOS, 4, 5], 1), sess.H
    stacked = stack.step([BOS], 0), stack.H
    outputs = [(one[1], one[0], models[0]), (rows[1], rows[0], models[0])]
    outputs += [(stacked[1][k], stacked[0][k], m) for k, m in enumerate(models)]
    kept = [i for i in range(len(VOCAB)) if i not in (BOS, EPS)]
    for h2, scores, m in outputs:
        assert scores.shape[-1] == len(VOCAB)
        assert np.all(scores[..., [BOS, EPS]] == -np.inf)
        want = h2 @ m.out_W.value.T + m.out_b.value
        np.testing.assert_allclose(scores[..., kept], want[..., kept], rtol=0, atol=1e-12)


def test_session_consumes_epsilon_past_source_end():
    m = randomize_params(_model("full"), 4)
    sess = one_state(mod.DecodeSession(m, [VOCAB.encode("ab")]))
    for t in range(6):  # steps 2.. feed the learned epsilon symbol
        scores = sess.step(4, t)
        assert abs(np.exp(ad.log_softmax(scores)).sum() - 1.0) < 1e-12


def test_forward_rejects_empty_source():
    m = _model()
    with pytest.raises(DataError, match="empty input"):
        mod.forward_variant(None, m, [], VOCAB.encode("a"))


@pytest.mark.parametrize("variant", mod.VARIANTS)
def test_empty_source_is_rejected_by_every_variant(variant):
    # training and decoding share the check, so a no-encoder model, which
    # runs no encoder LSTM on the source, rejects it too
    m = _model(variant)
    for run in (lambda: mod.forward_variant(None, m, [], VOCAB.encode("a")),
                lambda: search.greedy_decode([m], [], max_len=3),
                lambda: search.beam_decode([m], [], width=2, max_len=3)):
        with pytest.raises(DataError, match="empty input"):
            run()


def test_forward_accepts_empty_target():
    m = randomize_params(_model(), 4)
    loss = mod.forward_variant(None, m, VOCAB.encode("ab"), [])
    assert isinstance(loss, float) and loss > 0.0


def test_loss_nonnegative_all_variants():
    for variant in mod.VARIANTS:
        m = randomize_params(_model(variant), 4)
        x, y = VOCAB.encode("aba"), VOCAB.encode("bb")
        assert mod.forward_variant(None, m, x, y) > 0.0


def test_training_loss_matches_inference_distributions():
    # the teacher-forced NLL must equal the sum of -log p(target) read off
    # the same step distributions the decoder exposes at inference time
    for variant in mod.VARIANTS:
        m = randomize_params(_model(variant), 4)
        x, y = VOCAB.encode("aab"), VOCAB.encode("ba")
        targets = y + [EOS]
        sess = one_state(mod.DecodeSession(m, [x]))
        total = 0.0
        for t, target in enumerate(targets):
            y_prev = BOS if t == 0 else targets[t - 1]
            scores = sess.step(y_prev, t)
            total -= ad.log_softmax(scores)[target]
        loss = mod.forward_variant(None, m, x, y)
        assert abs(loss - total) < 1e-9, variant


def test_loss_invariant_under_character_relabeling():
    # swapping the roles of 'a' and 'b' while permuting their embedding and
    # softmax rows must leave the loss unchanged
    m = randomize_params(_model("full"), 4)
    x, y = VOCAB.encode("aab"), VOCAB.encode("b")
    base = mod.forward_variant(None, m, x, y)
    swapped = m.copy()
    ia, ib = VOCAB.id_of("a"), VOCAB.id_of("b")
    perm = list(range(len(VOCAB)))
    perm[ia], perm[ib] = ib, ia
    swapped.embed.value[...] = swapped.embed.value[perm]
    swapped.out_W.value[...] = swapped.out_W.value[perm]
    swapped.out_b.value[...] = swapped.out_b.value[perm]
    x2 = [perm[i] for i in x]
    y2 = [perm[i] for i in y]
    other = mod.forward_variant(None, swapped, x2, y2)
    assert abs(base - other) < 1e-9


def test_attention_single_position_context_is_that_state():
    m = randomize_params(_model("attention"), 4)
    h = np.linspace(-1.0, 1.0, 10)
    ctx = mod.attention_context(m, mod._Source(m, [], H=h[None]), np.zeros(5))[0]
    assert np.allclose(ctx, h, atol=1e-12)


def test_attention_uniform_scores_average_states():
    m = randomize_params(_model("attention"), 4)
    m.attn_v.value[...] = 0.0  # all scores collapse to zero
    hs = np.random.default_rng(0).normal(size=(4, 10))
    ctx = mod.attention_context(m, mod._Source(m, [], H=hs), np.zeros(5))[0]
    mean = np.mean(hs, axis=0)
    assert np.allclose(ctx, mean, atol=1e-12)


def test_attention_context_rejects_other_variants():
    m = _model("full")
    with pytest.raises(MorphogenError, match="attention"):
        mod.attention_context(m, mod._encode_source(m, [4])[0], np.zeros(5))


def test_decoder_step_rejects_out_of_range_ids():
    m = randomize_params(_model("full"), 4)
    sess = one_state(mod.DecodeSession(m, [VOCAB.encode("a")]))
    with pytest.raises(DimensionError, match="out of range"):
        sess.step(len(VOCAB), 0)
    with pytest.raises(DimensionError, match="out of range"):
        sess.step(-1, 0)
    with pytest.raises(DimensionError, match="out of range"):
        mod.DecodeSession(m, [[len(VOCAB)]])
    with pytest.raises(DimensionError, match="out of range"):   # no encoder reads x
        mod.DecodeSession(_model("no-encoder"), [[0, -1]])


def test_gradients_all_variants_small_fixture():
    x, y = VOCAB.encode("ab"), VOCAB.encode("ba")
    for variant in mod.VARIANTS:
        m = randomize_params(_model(variant), 4)
        err = check_model_gradients(m, x, y)
        assert err < 1e-4, (variant, err)


def test_gradient_check_empty_target():
    m = randomize_params(_model("full"), 3)
    err = check_model_gradients(m, VOCAB.encode("ab"), [])
    assert err < 1e-4


def test_gradient_check_step_sizes_agree():
    # central differences at h=1e-4 and h=1e-5 must tell the same story:
    # both pass the tolerance and stay within one order of magnitude
    m = randomize_params(_model("full"), 3)
    x, y = VOCAB.encode("ab"), VOCAB.encode("ba")
    e4 = check_model_gradients(m, x, y, h=1e-4)
    e5 = check_model_gradients(m, x, y, h=1e-5)
    assert e4 < 1e-4
    assert e5 < 1e-3
    ratio = max(e4, e5) / min(e4, e5)
    assert ratio <= 10.0


def test_copy_is_deep_and_keeps_lambda():
    m = randomize_params(_model("full"), 4)
    m.lm_lambda = 0.25
    c = m.copy()
    assert models_equal(m, c)
    assert c.lm_lambda == 0.25
    c.embed.value[0, 0] += 1.0
    assert not models_equal(m, c)
    assert m.embed.value[0, 0] != c.embed.value[0, 0]


def _assert_laid_out_in_theta(m):
    assert m.theta.dtype == np.float64 and m.theta.flags.c_contiguous
    assert m.theta.ctypes.data % 64 == 0
    assert m.theta.size == sum(p.value.size for p in m.parameters())
    for p in m.parameters():
        assert np.shares_memory(p.value, m.theta), p.name


@pytest.mark.parametrize("variant", mod.VARIANTS)
def test_parameters_are_views_into_theta(tmp_path, variant):
    m = _model(variant)
    _assert_laid_out_in_theta(m)
    assert np.array_equal(m.theta, np.concatenate([p.value.reshape(-1)
                                                   for p in m.parameters()]))
    path = tmp_path / "m.ckpt"
    mod.save_model(m, path)
    loaded = mod.load_model(path)
    _assert_laid_out_in_theta(loaded)
    assert np.array_equal(loaded.theta, m.theta)
    c = m.copy()
    _assert_laid_out_in_theta(c)
    assert np.array_equal(c.theta, m.theta)
    assert not np.shares_memory(c.theta, m.theta)
    for p in c.parameters():
        assert not np.shares_memory(p.value, m.theta), p.name


def test_copy_of_a_shared_encoder_model_takes_the_shared_values():
    base, other = _model("full", seed=0), _model("full", seed=1)
    other.embed, other.enc_fwd, other.enc_bwd = base.embed, base.enc_fwd, base.enc_bwd
    c = other.copy()
    _assert_laid_out_in_theta(c)
    for a, b in zip(c.parameters(), other.parameters()):
        assert np.array_equal(a.value, b.value), a.name
    assert np.array_equal(c.embed.value, base.embed.value)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    for variant in mod.VARIANTS:
        m = randomize_params(_model(variant), 4)
        path = tmp_path / f"{variant}.ckpt"
        mod.save_model(m, path)
        loaded = mod.load_model(path)
        assert models_equal(m, loaded)
        theirs = {p.name: p.value for p in loaded.parameters()}
        for p in m.parameters():
            assert np.array_equal(p.value, theirs[p.name])
        assert loaded.lm_lambda is None


def test_checkpoint_keeps_lambda(tmp_path):
    m = _model("full")
    m.lm_lambda = 0.125
    path = tmp_path / "m.ckpt"
    mod.save_model(m, path)
    assert mod.load_model(path).lm_lambda == 0.125


def test_checkpoint_save_is_deterministic(tmp_path):
    m = randomize_params(_model("full"), 4)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    mod.save_model(m, a)
    mod.save_model(m, b)
    assert a.read_bytes() == b.read_bytes()


FIXTURES = Path(__file__).parent / "data"


def _v1_fixture(variant="full"):
    """A version-1 checkpoint of _model(variant, hidden=5, embed_dim=4, seed=0),
    as the version-1 writer saved it."""
    return FIXTURES / f"{variant}.v1.ckpt"


def _doc(tmp_path, mutate, version=1):
    """A checkpoint document of the given version, changed by mutate."""
    if version == 1:
        doc = json.loads(_v1_fixture().read_text(encoding="utf-8"))
    else:
        mod.save_model(_model("full", hidden=3, embed_dim=2), tmp_path / "m.ckpt")
        doc = json.loads((tmp_path / "m.ckpt").read_text(encoding="utf-8"))
    mutate(doc)
    path = tmp_path / "m.ckpt"
    path.write_text(json.dumps(doc))
    return path


def _set_b64(doc, name, values):
    doc["tensors"][name]["b64"] = base64.b64encode(
        np.asarray(values, dtype="<f8").tobytes()).decode()


def test_checkpoint_missing_file_and_bad_json(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        mod.load_model(tmp_path / "missing.ckpt")
    bad = tmp_path / "bad.ckpt"
    bad.write_text("{not json")
    with pytest.raises(CheckpointError, match="JSON"):
        mod.load_model(bad)


@pytest.mark.parametrize("mutate", [
    lambda doc: [doc],
    lambda doc: doc["tensors"].update(embed=5),
    lambda doc: doc["config"].update(hidden="x"),
    lambda doc: doc.update(vocab=7),
    lambda doc: doc.update(config=[1]),
    lambda doc: doc.update(variant=["full"]),
    lambda doc: doc["tensors"]["embed"].update(data=["x"] * len(doc["tensors"]["embed"]["data"])),
    lambda doc: doc["tensors"]["softmax.b"].update(data=[[0.0]] * len(VOCAB)),
    lambda doc: doc["config"].update(embed_dim=True),
    lambda doc: doc["config"].update({"lambda": float("nan")}),
], ids=["list", "tensor-number", "hidden-string", "vocab-number", "config-list",
        "variant-list", "data-strings", "data-nested", "embed-dim-bool", "lambda-nan"])
def test_checkpoint_wrong_structure_rejected(tmp_path, mutate):
    doc = json.loads(_v1_fixture().read_text(encoding="utf-8"))
    path = tmp_path / "m.ckpt"
    path.write_text(json.dumps(mutate(doc) or doc))
    with pytest.raises(CheckpointError) as info:
        mod.load_model(path)
    assert "\n" not in str(info.value)


def test_checkpoint_unwritable_path(tmp_path):
    with pytest.raises(CheckpointError, match="cannot write checkpoint"):
        mod.save_model(_model(), tmp_path / "no-such-dir" / "m.ckpt")


def test_checkpoint_version_check(tmp_path):
    path = _doc(tmp_path, lambda doc: doc.update(format_version=99))
    with pytest.raises(CheckpointError, match="format_version"):
        mod.load_model(path)


@pytest.mark.parametrize("version", [True, 1.0, 2.0, "1", 0, None])
def test_checkpoint_version_must_be_a_known_int(tmp_path, version):
    # True == 1 and 1.0 == 1 in Python, but neither is a format version
    path = _doc(tmp_path, lambda doc: doc.update(format_version=version))
    with pytest.raises(CheckpointError, match="format_version"):
        mod.load_model(path)


def test_checkpoint_missing_tensor_named(tmp_path):
    path = _doc(tmp_path, lambda doc: doc["tensors"].pop("softmax.b"))
    with pytest.raises(CheckpointError, match="softmax.b"):
        mod.load_model(path)


def test_checkpoint_length_mismatch_named(tmp_path):
    path = _doc(tmp_path, lambda doc: doc["tensors"]["softmax.b"]["data"].pop())
    with pytest.raises(CheckpointError, match="softmax.b"):
        mod.load_model(path)


def test_checkpoint_shape_mismatch_named(tmp_path):
    def mutate(doc):
        doc["tensors"]["trans.b"]["shape"] = [2]
        doc["tensors"]["trans.b"]["data"] = [0.0, 0.0]
    path = _doc(tmp_path, mutate)
    with pytest.raises(CheckpointError, match="trans.b"):
        mod.load_model(path)


def test_checkpoint_nonfinite_rejected(tmp_path):
    def mutate(doc):
        doc["tensors"]["embed"]["data"][0] = float("nan")
    path = _doc(tmp_path, mutate)
    with pytest.raises(CheckpointError, match="embed"):
        mod.load_model(path)


def test_checkpoint_writes_version_2_with_base64_tensors(tmp_path):
    m = _model("full", hidden=3, embed_dim=2)
    mod.save_model(m, tmp_path / "m.ckpt")
    doc = json.loads((tmp_path / "m.ckpt").read_text(encoding="utf-8"))
    assert doc["format_version"] == mod.CHECKPOINT_VERSION == 2
    for p in m.parameters():
        spec = doc["tensors"][p.name]
        assert set(spec) == {"shape", "dtype", "b64"}
        assert spec["shape"] == list(p.value.shape) and spec["dtype"] == "<f8"
        assert base64.b64decode(spec["b64"]) == p.value.astype("<f8").tobytes()


def test_checkpoint_v2_keeps_every_bit(tmp_path):
    m = _model("full", hidden=3, embed_dim=2)
    tiny = np.nextafter(0.0, 1.0)
    special = np.array([-0.0, tiny, -tiny, 2.2e-308, 1e308, -1e308, np.finfo(float).max, 0.1])
    m.embed.value.reshape(-1)[:special.size] = special
    mod.save_model(m, tmp_path / "m.ckpt")
    loaded = mod.load_model(tmp_path / "m.ckpt")
    for a, b in zip(m.parameters(), loaded.parameters()):
        assert a.value.tobytes() == b.value.tobytes(), a.name
    assert np.signbit(loaded.embed.value.reshape(-1)[0])


@pytest.mark.parametrize("mutate", [
    lambda doc: doc["tensors"]["softmax.b"].update(b64="not base64!"),
    lambda doc: doc["tensors"]["softmax.b"].update(b64=doc["tensors"]["softmax.b"]["b64"][:-4]),
    lambda doc: doc["tensors"]["softmax.b"].update(b64="ä" * 8),
    lambda doc: doc["tensors"]["softmax.b"].update(b64=7),
    lambda doc: doc["tensors"]["softmax.b"].pop("b64"),
    lambda doc: doc["tensors"]["softmax.b"].update(dtype=">f8"),
    lambda doc: doc["tensors"]["softmax.b"].update(dtype="<f4"),
    lambda doc: doc["tensors"]["softmax.b"].pop("dtype"),
    lambda doc: _set_b64(doc, "softmax.b", [0.0] * (len(VOCAB) + 1)),
    lambda doc: _set_b64(doc, "softmax.b", [0.0] * (len(VOCAB) - 1) + [np.nan]),
    lambda doc: _set_b64(doc, "softmax.b", [np.inf] + [0.0] * (len(VOCAB) - 1)),
    lambda doc: _set_b64(doc, "softmax.b", [-np.inf] + [0.0] * (len(VOCAB) - 1)),
    lambda doc: doc["tensors"]["softmax.b"].update(shape=[len(VOCAB) + 1]),
    lambda doc: doc["tensors"].update({"softmax.b": [0.0] * len(VOCAB)}),
], ids=["bad-base64", "truncated", "non-ascii", "b64-number", "b64-missing", "big-endian",
        "float32", "dtype-missing", "too-many-bytes", "nan", "inf", "minus-inf", "shape",
        "tensor-list"])
def test_checkpoint_v2_bad_tensor_named(tmp_path, mutate):
    path = _doc(tmp_path, mutate, version=2)
    with pytest.raises(CheckpointError, match="softmax.b") as info:
        mod.load_model(path)
    assert "\n" not in str(info.value)


def test_checkpoint_missing_config_field(tmp_path):
    path = _doc(tmp_path, lambda doc: doc["config"].pop("hidden"))
    with pytest.raises(CheckpointError, match="missing field"):
        mod.load_model(path)


def test_models_equal_detects_structural_differences():
    a = _model("full")
    assert not models_equal(a, _model("plain-encdec"))
    assert not models_equal(a, _model("full", hidden=6))
    assert not models_equal(a, _model("full", vocab=CharVocab("abc")))
    b = _model("full")
    b.out_b.value[0] += 1e-12
    assert not models_equal(a, b)


# The numerical contract of init and persistence, per variant: the sha256 of
# the initial parameter bytes in parameters() order, the sha256 of the
# checkpoint save_model writes (format version 2) and of the version-1 file
# the earlier writer saved (tests/data/<variant>.v1.ckpt), and the tape
# length of forward_variant on ("abab" -> "ba") and ("a" -> "bab"). A
# reordered RNG draw, parameter or tape record changes one of them.
PINNED = {
    "full": ("9d4cfbcf852a64659885d663bd4cd15913f71544b2660350cca5adf99fe5f3e6",
             "69201be13049cd38db96f90d6e1102f29735e2de27f26a3a27d15a0f36d34235",
             "1de272b5fd191bf0474eace2501f50d79931f2c92255e6e36b2c5b1c7f947456", (1, 1)),
    "plain-encdec": ("62b6e21f112c9112e84c58509db132b14f55264e4f929475211b03cda199a2c9",
                     "8798749c83806e7e957164abe4a686082d8744761e62fad20a347055a876277b",
                     "4e345fc0cd40fd6553bcca5253d21084b85458e97e2f45071d59b2970e5dd65f",
                     (1, 1)),
    "attention": ("3be2ec6beddeb92e84ab20da3e442e909082964a59986b35706c8dfb570c46cb",
                  "b6f8a64ee847bfa906380001f1f853fd65e5c77ca388afc4d3eaf78a9302fcb7",
                  "6126a29ab3499c439d4fbb4c2d4281bb2afa979ba7dfb908f5cf0ada3126d266",
                  (1, 1)),
    "no-encoder": ("bfc29732a645eda4860b0387197b57f614711451ca8b761f1b262607b5d66578",
                   "f8f383812caa6039cac30967a1faa86d56dcb316121b23d2607184d0f534d23f",
                   "857949ecd2479d87ff96f6af66b330f3b90aeacf7dc3255f9bab15f98b10890f",
                   (1, 1)),
}


@pytest.mark.parametrize("variant", mod.VARIANTS)
def test_init_checkpoint_and_tape_pinned(tmp_path, variant):
    params_digest, checkpoint_digest, _, tape_lengths = PINNED[variant]
    m = _model(variant, hidden=5, embed_dim=4, seed=0)
    got = hashlib.sha256(b"".join(p.value.tobytes() for p in m.parameters()))
    assert got.hexdigest() == params_digest
    path = tmp_path / "m.ckpt"
    mod.save_model(m, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == checkpoint_digest
    lengths = []
    for x, y in (("abab", "ba"), ("a", "bab")):
        tape = []
        mod.forward_variant(tape, m, VOCAB.encode(x), VOCAB.encode(y))
        lengths.append(len(tape))
    assert tuple(lengths) == tape_lengths


@pytest.mark.parametrize("variant", mod.VARIANTS)
def test_v1_checkpoint_fixture_pinned_and_loaded(variant):
    params_digest, _, v1_digest, _ = PINNED[variant]
    path = _v1_fixture(variant)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == v1_digest
    loaded = mod.load_model(path)
    got = hashlib.sha256(b"".join(p.value.tobytes() for p in loaded.parameters()))
    assert got.hexdigest() == params_digest
    assert models_equal(loaded, _model(variant, hidden=5, embed_dim=4, seed=0))
    assert loaded.lm_lambda is None


# sha256 of the loss and of every parameter gradient (name, then bytes, in
# parameters() order) of forward_variant at init, recorded when `full` and
# `no-encoder` still ran the decoder until the whole source was read. Those
# steps past EOS fed no loss, so dropping them changed no bit.
GRADIENTS_PINNED = {
    "full": ("11886e740f9f41052d773255abf26920d1aa75e4df30a0bf7004377e039929d4",
             "6b25ab01474e6e0a807934b49928ceff289a30e233298f5e902992357807e9e9"),
    "plain-encdec": ("040f675eaa486f1026c41e30c864d139cf2413cec41dbfa0b725fcd6b666c84d",
                     "fd163a11fa9c610d405881db142ffa2f8fa76dc517f6c3eafca19dbdfbad7cc4"),
    "attention": ("df0416f88f3f1b1d6b965ca48cd78cfbc4fa476827d63b12ce3f81e1e43127b3",
                  "c4de603c731920d6ed4cf5a181a7ec5ddfb031658fd349b0b5b38f859271a2f9"),
    "no-encoder": ("10c52e395a75e4661a3f2190f0fd402fcb17fcee965299e385682ae9c6cf1117",
                   "75d6c99e11007fc1bc457b392816fb16de4139a9b5845ab6e866be052f8ccb48"),
}


@pytest.mark.parametrize("variant", mod.VARIANTS)
def test_loss_and_gradients_pinned_on_sources_longer_than_targets(variant):
    vocab = CharVocab("abcdefg")
    m = _model(variant, hidden=5, embed_dim=4, seed=0, vocab=vocab)
    digests = []
    for x, y in (("abcdefg", "ab"), ("gfedcba", "")):
        tape = []
        loss = mod.forward_variant(tape, m, vocab.encode(x), vocab.encode(y))
        grads = ad.backward(tape, {p: np.zeros_like(p.value) for p in m.parameters()})
        h = hashlib.sha256(np.float64(loss).tobytes())
        for p in m.parameters():
            h.update(p.name.encode())
            h.update(grads[p].tobytes())
        digests.append(h.hexdigest())
    assert tuple(digests) == GRADIENTS_PINNED[variant], pinned_message()
