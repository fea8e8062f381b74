import hashlib
import json

import numpy as np
import pytest

from helpers import randomize_params
from morphogen import autodiff as ad
from morphogen import lstm
from morphogen import model as mod
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
    assert mod.models_equal(m, again)
    assert not mod.models_equal(m, _model(seed=10))
    for p in m.parameters():
        assert np.all(np.abs(p.value) <= 1.0)  # forget biases are the max
    assert np.max(np.abs(m.embed.value)) <= mod.INIT_SCALE


def test_embed_is_row_lookup():
    m = _model()
    out = mod.embed(None, m, 4)
    assert np.array_equal(out.value, m.embed.value[4])


def test_transform_encoding_affine():
    m = _model()
    m.trans_W.value[...] = 0.0
    m.trans_b.value[...] = np.arange(5.0)
    e = mod.transform_encoding(None, m, ad.constant(np.ones(10)))
    assert np.array_equal(e.value, np.arange(5.0))
    m.trans_W.value[...] = np.ones((5, 10))
    e = mod.transform_encoding(None, m, ad.constant(np.full(10, 0.5)))
    assert np.allclose(e.value, np.arange(5.0) + 5.0, atol=1e-12)


def test_encoding_is_the_transformed_final_states():
    # e = W_trans [fwd h_T ; bwd h_1] + b_trans; attention builds no e
    x = VOCAB.encode("abba")
    for variant in mod.VARIANTS:
        m = randomize_params(_model(variant), 4)
        source = mod._encode_source(None, m, x)
        if not m.wiring.trans:
            assert source.e is None
            continue
        xs = [mod.embed(None, m, i) for i in x]
        h_fwd = lstm.run_sequence(None, m.enc_fwd, xs)[-1].h.value
        h_bwd = lstm.run_sequence(None, m.enc_bwd, xs[::-1])[-1].h.value
        want = m.trans_W.value @ np.concatenate([h_fwd, h_bwd]) + m.trans_b.value
        assert np.array_equal(source.e.value, want)


def test_decoder_step_count_consumes_whole_source():
    assert mod.decoder_step_count(3, 0) == 3
    assert mod.decoder_step_count(2, 4) == 5
    assert mod.decoder_step_count(1, 0) == 1
    assert mod.decoder_step_count(6, 2) == 6


def test_step_distribution_masks_and_normalizes():
    for variant in mod.VARIANTS:
        m = randomize_params(_model(variant), 4)
        sess = mod.DecodeSession(m, VOCAB.encode("ab"))
        _, _, dist = sess.step(*sess.initial_state(), BOS, 0)
        assert dist[BOS] == 0.0 and dist[EPS] == 0.0
        assert abs(dist.sum() - 1.0) < 1e-12
        assert np.all(dist >= 0.0)


def test_session_consumes_epsilon_past_source_end():
    m = randomize_params(_model("full"), 4)
    sess = mod.DecodeSession(m, VOCAB.encode("ab"))
    h, c = sess.initial_state()
    for t in range(6):  # steps 2.. feed the learned epsilon symbol
        h, c, dist = sess.step(h, c, 4, t)
        assert abs(dist.sum() - 1.0) < 1e-12


def test_forward_rejects_empty_source():
    m = _model()
    with pytest.raises(DataError, match="empty input"):
        mod.forward_variant(None, m, [], VOCAB.encode("a"))


def test_forward_accepts_empty_target():
    m = randomize_params(_model(), 4)
    loss = mod.forward_variant(None, m, VOCAB.encode("ab"), [])
    assert loss.value.shape == (1,) and loss.value[0] > 0.0


def test_loss_nonnegative_all_variants():
    for variant in mod.VARIANTS:
        m = randomize_params(_model(variant), 4)
        x, y = VOCAB.encode("aba"), VOCAB.encode("bb")
        assert mod.forward_variant(None, m, x, y).value[0] > 0.0


def test_training_loss_matches_inference_distributions():
    # the teacher-forced NLL must equal the sum of -log p(target) read off
    # the same step distributions the decoder exposes at inference time
    for variant in mod.VARIANTS:
        m = randomize_params(_model(variant), 4)
        x, y = VOCAB.encode("aab"), VOCAB.encode("ba")
        targets = y + [EOS]
        sess = mod.DecodeSession(m, x)
        h, c = sess.initial_state()
        total = 0.0
        for t, target in enumerate(targets):
            y_prev = BOS if t == 0 else targets[t - 1]
            h, c, dist = sess.step(h, c, y_prev, t)
            total -= np.log(dist[target])
        loss = mod.forward_variant(None, m, x, y).value[0]
        assert abs(loss - total) < 1e-9, variant


def test_loss_invariant_under_character_relabeling():
    # swapping the roles of 'a' and 'b' while permuting their embedding and
    # softmax rows must leave the loss unchanged
    m = randomize_params(_model("full"), 4)
    x, y = VOCAB.encode("aab"), VOCAB.encode("b")
    base = mod.forward_variant(None, m, x, y).value[0]
    swapped = m.copy()
    ia, ib = VOCAB.id_of("a"), VOCAB.id_of("b")
    perm = list(range(len(VOCAB)))
    perm[ia], perm[ib] = ib, ia
    swapped.embed.value[...] = swapped.embed.value[perm]
    swapped.out_W.value[...] = swapped.out_W.value[perm]
    swapped.out_b.value[...] = swapped.out_b.value[perm]
    x2 = [perm[i] for i in x]
    y2 = [perm[i] for i in y]
    other = mod.forward_variant(None, swapped, x2, y2).value[0]
    assert abs(base - other) < 1e-9


def test_attention_single_position_context_is_that_state():
    m = randomize_params(_model("attention"), 4)
    h = ad.constant(np.linspace(-1.0, 1.0, 10))
    s = ad.constant(np.zeros(5))
    ctx = mod.attention_context(None, m, [h], s)
    assert np.allclose(ctx.value, h.value, atol=1e-12)


def test_attention_uniform_scores_average_states():
    m = randomize_params(_model("attention"), 4)
    m.attn_v.value[...] = 0.0  # all scores collapse to zero
    hs = [ad.constant(v) for v in np.random.default_rng(0).normal(size=(4, 10))]
    ctx = mod.attention_context(None, m, hs, ad.constant(np.zeros(5)))
    mean = np.mean([h.value for h in hs], axis=0)
    assert np.allclose(ctx.value, mean, atol=1e-12)


def test_attention_context_rejects_other_variants():
    m = _model("full")
    with pytest.raises(MorphogenError, match="attention"):
        mod.attention_context(None, m, [ad.constant(np.zeros(10))], ad.constant(np.zeros(5)))


def test_decoder_step_rejects_out_of_range_ids():
    m = randomize_params(_model("full"), 4)
    sess = mod.DecodeSession(m, VOCAB.encode("a"))
    h, c = sess.initial_state()
    with pytest.raises(DimensionError, match="out of range"):
        sess.step(h, c, len(VOCAB), 0)
    with pytest.raises(DimensionError, match="out of range"):
        sess.step(h, c, -1, 0)
    with pytest.raises(DimensionError, match="out of range"):
        mod.DecodeSession(m, [len(VOCAB)])
    with pytest.raises(DimensionError, match="out of range"):   # no encoder reads x
        mod.DecodeSession(_model("no-encoder"), [0, -1])


def test_gradients_all_variants_small_fixture():
    x, y = VOCAB.encode("ab"), VOCAB.encode("ba")
    for variant in mod.VARIANTS:
        m = randomize_params(_model(variant), 4)
        err = mod.check_model_gradients(m, x, y)
        assert err < 1e-4, (variant, err)


def test_gradient_check_empty_target():
    m = randomize_params(_model("full"), 3)
    err = mod.check_model_gradients(m, VOCAB.encode("ab"), [])
    assert err < 1e-4


def test_gradient_check_step_sizes_agree():
    # central differences at h=1e-4 and h=1e-5 must tell the same story:
    # both pass the tolerance and stay within one order of magnitude
    m = randomize_params(_model("full"), 3)
    x, y = VOCAB.encode("ab"), VOCAB.encode("ba")
    e4 = mod.check_model_gradients(m, x, y, h=1e-4)
    e5 = mod.check_model_gradients(m, x, y, h=1e-5)
    assert e4 < 1e-4
    assert e5 < 1e-3
    ratio = max(e4, e5) / min(e4, e5)
    assert ratio <= 10.0


def test_copy_is_deep_and_keeps_lambda():
    m = randomize_params(_model("full"), 4)
    m.lm_lambda = 0.25
    c = m.copy()
    assert mod.models_equal(m, c)
    assert c.lm_lambda == 0.25
    c.embed.value[0, 0] += 1.0
    assert not mod.models_equal(m, c)
    assert m.embed.value[0, 0] != c.embed.value[0, 0]


def _assert_laid_out_in_theta(m):
    assert m.theta.dtype == np.float64 and m.theta.flags.c_contiguous
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
    base = _model("full", seed=0)
    other = mod.init_model(VOCAB, "full", hidden=5, embed_dim=4, seed=1,
                           shared_encoder=(base.embed, base.enc_fwd, base.enc_bwd))
    c = other.copy()
    _assert_laid_out_in_theta(c)
    for a, b in zip(c.parameters(), other.parameters()):
        assert np.array_equal(a.value, b.value), a.name
    assert np.array_equal(c.embed.value, base.embed.value)


def test_shared_encoder_aliases_parameters():
    base = _model("full", seed=0)
    other = mod.init_model(VOCAB, "full", hidden=5, embed_dim=4, seed=1,
                           shared_encoder=(base.embed, base.enc_fwd, base.enc_bwd))
    assert other.embed is base.embed
    assert other.enc_fwd is base.enc_fwd
    assert other.enc_bwd is base.enc_bwd
    assert other.dec is not base.dec
    assert other.out_W is not base.out_W


def test_checkpoint_round_trip_bit_exact(tmp_path):
    for variant in mod.VARIANTS:
        m = randomize_params(_model(variant), 4)
        path = tmp_path / f"{variant}.ckpt"
        mod.save_model(m, path)
        loaded = mod.load_model(path)
        assert mod.models_equal(m, loaded)
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


def _doc(tmp_path, mutate):
    m = _model("full", hidden=3, embed_dim=2)
    path = tmp_path / "m.ckpt"
    mod.save_model(m, path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return path


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
    m = _model("full", hidden=3, embed_dim=2)
    path = tmp_path / "m.ckpt"
    mod.save_model(m, path)
    doc = json.loads(path.read_text())
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


def test_checkpoint_missing_config_field(tmp_path):
    path = _doc(tmp_path, lambda doc: doc["config"].pop("hidden"))
    with pytest.raises(CheckpointError, match="missing field"):
        mod.load_model(path)


def test_models_equal_detects_structural_differences():
    a = _model("full")
    assert not mod.models_equal(a, _model("plain-encdec"))
    assert not mod.models_equal(a, _model("full", hidden=6))
    assert not mod.models_equal(a, _model("full", vocab=CharVocab("abc")))
    b = _model("full")
    b.out_b.value[0] += 1e-12
    assert not mod.models_equal(a, b)


# The numerical contract of init and persistence, per variant: the sha256 of
# the initial parameter bytes in parameters() order, the sha256 of the saved
# checkpoint, and the tape length of forward_variant on ("abab" -> "ba") and
# ("a" -> "bab"). A reordered RNG draw, parameter or tape record changes one
# of them.
PINNED = {
    "full": ("9d4cfbcf852a64659885d663bd4cd15913f71544b2660350cca5adf99fe5f3e6",
             "1de272b5fd191bf0474eace2501f50d79931f2c92255e6e36b2c5b1c7f947456", (38, 32)),
    "plain-encdec": ("62b6e21f112c9112e84c58509db132b14f55264e4f929475211b03cda199a2c9",
                     "4e345fc0cd40fd6553bcca5253d21084b85458e97e2f45071d59b2970e5dd65f",
                     (28, 24)),
    "attention": ("3be2ec6beddeb92e84ab20da3e442e909082964a59986b35706c8dfb570c46cb",
                  "6126a29ab3499c439d4fbb4c2d4281bb2afa979ba7dfb908f5cf0ada3126d266",
                  (33, 31)),
    "no-encoder": ("bfc29732a645eda4860b0387197b57f614711451ca8b761f1b262607b5d66578",
                   "857949ecd2479d87ff96f6af66b330f3b90aeacf7dc3255f9bab15f98b10890f",
                   (24, 27)),
}


@pytest.mark.parametrize("variant", mod.VARIANTS)
def test_init_checkpoint_and_tape_pinned(tmp_path, variant):
    params_digest, checkpoint_digest, tape_lengths = PINNED[variant]
    m = _model(variant, hidden=5, embed_dim=4, seed=0)
    got = hashlib.sha256(b"".join(p.value.tobytes() for p in m.parameters()))
    assert got.hexdigest() == params_digest
    path = tmp_path / "m.ckpt"
    mod.save_model(m, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == checkpoint_digest
    lengths = []
    for x, y in (("abab", "ba"), ("a", "bab")):
        tape = ad.Tape()
        mod.forward_variant(tape, m, VOCAB.encode(x), VOCAB.encode(y))
        lengths.append(len(tape))
    assert tuple(lengths) == tape_lengths
