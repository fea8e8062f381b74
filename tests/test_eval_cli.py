import numpy as np
import pytest

from morphogen import cli
from morphogen import evaluate as ev
from morphogen import trainer
from morphogen.charlm import load_lm
from morphogen.data import DatasetSplit, Example, parse_dataset
from morphogen.errors import DataError
from morphogen.model import load_model, models_equal
from morphogen.reranker import load_weights
from morphogen.search import read_nbest
from morphogen.trainer import TrainConfig, train_factored

INESSIVE = "case=inessive"


# --- analysis helpers -------------------------------------------------------


def test_bin_of_length_boundaries():
    assert ev.LENGTH_BIN_LABELS == ("<5", "[5,10)", "[10,15)", ">=15")
    assert ev.bin_of_length(0) == "<5"
    assert ev.bin_of_length(4) == "<5"
    assert ev.bin_of_length(5) == "[5,10)"
    assert ev.bin_of_length(9) == "[5,10)"
    assert ev.bin_of_length(10) == "[10,15)"
    assert ev.bin_of_length(14) == "[10,15)"
    assert ev.bin_of_length(15) == ">=15"
    assert ev.bin_of_length(40) == ">=15"


def test_accuracy_by_length_matches_brute_force():
    golds = ["abc", "abcd", "abcde", "a" * 9, "a" * 10, "a" * 14, "a" * 15, "a" * 20]
    preds = ["abc", "xxxx", "abcde", "a" * 9, "wrong", "a" * 14, "a" * 15, "nope"]
    got = ev.accuracy_by_length(preds, golds)
    want_hits, want_counts = {}, {}
    for p, g in zip(preds, golds):
        label = ev.bin_of_length(len(g))
        want_counts[label] = want_counts.get(label, 0) + 1
        want_hits[label] = want_hits.get(label, 0) + (p == g)
    assert got == {k: want_hits[k] / want_counts[k] for k in want_counts}
    assert list(got) == [k for k in ev.LENGTH_BIN_LABELS if k in want_counts]


def test_accuracy_by_length_omits_absent_bins():
    got = ev.accuracy_by_length(["ab"], ["ab"])
    assert got == {"<5": 1.0}


def test_accuracy_by_length_mismatched_inputs():
    with pytest.raises(DataError, match="2 predictions vs 1"):
        ev.accuracy_by_length(["a", "b"], ["a"])


def test_is_harmonic_fixtures():
    assert ev.is_harmonic("fasisteissa")            # back + neutral
    assert not ev.is_harmonic("fasisteissä")        # back stem, front suffix
    assert not ev.is_harmonic("tärkkelyspitoisissa")  # front + back compound
    assert ev.is_harmonic("kylässä")
    assert ev.is_harmonic("teline")                 # neutral only
    assert ev.is_harmonic("krk")                    # no vowels at all
    assert ev.is_harmonic("")


def test_vowel_harmony_check_fraction_and_verdicts():
    words = ["talossa", "kylässä", "talossä"]
    fraction, verdicts = ev.vowel_harmony_check(words)
    assert verdicts == [True, True, False]
    assert abs(fraction - 2.0 / 3.0) < 1e-12
    assert ev.vowel_harmony_check([]) == (1.0, [])


# --- accuracy over a model that memorized one pattern -----------------------


@pytest.fixture(scope="module")
def memorizer():
    ex = Example("talo", INESSIVE, "talossa")
    ds = DatasetSplit(train=[ex] * 50, dev=[ex], test=[])
    model = train_factored(ds, INESSIVE, TrainConfig(hidden=16, epochs=30, seed=0))
    return ex, model


def test_evaluate_accuracy_hit_and_miss(memorizer):
    ex, model = memorizer
    report = ev.evaluate_accuracy({INESSIVE: model}, [ex])
    assert report.per_tag == {INESSIVE: 1.0}
    assert report.counts == {INESSIVE: 1}
    assert report.macro == 1.0
    assert report.predictions == (("talo", INESSIVE, "talossa", "talossa"),)
    wrong = Example("talo", INESSIVE, "talolla")
    report = ev.evaluate_accuracy({INESSIVE: model}, [wrong])
    assert report.per_tag == {INESSIVE: 0.0}
    assert report.macro == 0.0


def test_evaluate_accuracy_macro_averages_tags(memorizer):
    ex, model = memorizer
    other = Example("talo", "case=adessive", "talolla")
    report = ev.evaluate_accuracy({INESSIVE: model, "case=adessive": model},
                                  [ex, other])
    assert report.per_tag[INESSIVE] == 1.0
    assert report.per_tag["case=adessive"] == 0.0
    assert report.macro == 0.5


def test_evaluate_accuracy_accepts_ensemble_lists(memorizer):
    ex, model = memorizer
    report = ev.evaluate_accuracy({INESSIVE: [model, model]}, [ex])
    assert report.per_tag == {INESSIVE: 1.0}


def test_evaluate_accuracy_validation(memorizer):
    ex, model = memorizer
    with pytest.raises(DataError, match="no examples"):
        ev.evaluate_accuracy({INESSIVE: model}, [])
    with pytest.raises(DataError, match="case=elative"):
        ev.evaluate_accuracy({INESSIVE: model},
                             [Example("talo", "case=elative", "talosta")])


def test_predict_one_beam_and_greedy_agree_when_confident(memorizer):
    ex, model = memorizer
    assert ev.predict_one([model], "talo") == "talossa"
    assert ev.predict_one([model], "talo", beam_width=4) == "talossa"


def test_predict_one_rerank_requires_lm(memorizer):
    _, model = memorizer
    from morphogen.reranker import RerankModel
    with pytest.raises(DataError, match="language model"):
        ev.predict_one([model], "talo", rerank_model=RerankModel(np.zeros(8)))


def test_export_embeddings_round_trip(tmp_path, memorizer):
    _, model = memorizer
    path = tmp_path / "emb.tsv"
    ev.export_embeddings(model, "alo", path)
    got = ev.read_embeddings(path)
    assert list(got) == ["a", "l", "o"]
    for ch, vec in got.items():
        assert np.array_equal(np.array(vec),
                              model.embed.value[model.vocab.id_of(ch)])


def test_export_embeddings_unknown_char(tmp_path, memorizer):
    _, model = memorizer
    with pytest.raises(DataError, match="'z'"):
        ev.export_embeddings(model, "az", tmp_path / "emb.tsv")


def test_read_embeddings_malformed(tmp_path):
    p = tmp_path / "emb.tsv"
    p.write_text("a\n", encoding="utf-8")
    with pytest.raises(DataError, match="malformed"):
        ev.read_embeddings(p)
    p.write_text("a\t0.5\tnot-a-float\n", encoding="utf-8")
    with pytest.raises(DataError, match="malformed"):
        ev.read_embeddings(p)
    p.write_bytes(b"a\t0.5\xff\n")
    with pytest.raises(DataError, match="UTF-8"):
        ev.read_embeddings(p)
    with pytest.raises(DataError, match="cannot read embedding file"):
        ev.read_embeddings(tmp_path / "missing.tsv")


# --- command-line flows ------------------------------------------------------


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth-data + factored/joint/interpolated training + LM, beams, weights."""
    root = tmp_path_factory.mktemp("cliflow")
    w = {name: str(root / name) for name in
         ("train.tsv", "dev.tsv", "test.tsv", "words.txt", "model.ckpt",
          "joint", "lm.txt", "beams.tsv", "weights.tsv", "interp.ckpt")}
    assert cli.main(["synth-data", "--size", "20", "--wordlist-size", "60",
                     "--out-dir", str(root), "--seed", "3"]) == 0
    assert cli.main(["train", "--data", w["train.tsv"], "--dev", w["dev.tsv"],
                     "--tag", INESSIVE, "--out", w["model.ckpt"],
                     "--hidden", "10", "--epochs", "3", "--seed", "0"]) == 0
    assert cli.main(["train", "--mode", "joint", "--data", w["train.tsv"],
                     "--dev", w["dev.tsv"], "--out-dir", w["joint"],
                     "--hidden", "8", "--epochs", "2", "--seed", "0"]) == 0
    assert cli.main(["lm-train", "--words", w["words.txt"], "--data", w["train.tsv"],
                     "--order", "4", "--out", w["lm.txt"]]) == 0
    assert cli.main(["beam", "--model", w["model.ckpt"], "--data", w["dev.tsv"],
                     "--beam-width", "4", "--out", w["beams.tsv"]]) == 0
    assert cli.main(["rerank-train", "--nbest", w["beams.tsv"], "--data", w["dev.tsv"],
                     "--lm", w["lm.txt"], "--out", w["weights.tsv"], "--seed", "0"]) == 0
    assert cli.main(["train", "--mode", "interpolated", "--data", w["train.tsv"],
                     "--tag", INESSIVE, "--lm", w["lm.txt"], "--out", w["interp.ckpt"],
                     "--hidden", "6", "--epochs", "1", "--seed", "0"]) == 0
    return w


def test_cli_synth_data_files(workspace):
    train = parse_dataset(workspace["train.tsv"])
    dev = parse_dataset(workspace["dev.tsv"])
    test = parse_dataset(workspace["test.tsv"])
    assert (len(train), len(dev), len(test)) == (64, 8, 8)  # 16/2/2 tables, 4 tags
    lemmas = {ex.lemma for ex in train} | {ex.lemma for ex in dev} | {ex.lemma for ex in test}
    assert len(lemmas) == 20
    with open(workspace["words.txt"], encoding="utf-8") as f:
        words = [line.strip() for line in f if line.strip()]
    assert words and len(words) == len(set(words))


def test_cli_train_writes_loadable_checkpoint(workspace):
    model = load_model(workspace["model.ckpt"])
    assert model.hidden == 10
    assert model.variant == "full"


def test_cli_joint_writes_one_checkpoint_per_tag(workspace):
    import os
    tags = sorted({ex.tag for ex in parse_dataset(workspace["train.tsv"])})
    assert len(tags) == 4
    for tag in tags:
        assert os.path.exists(os.path.join(workspace["joint"], f"{tag}.ckpt"))


def test_cli_lm_is_loadable_and_filtered(workspace):
    lm = load_lm(workspace["lm.txt"])
    assert lm.order == 4
    vocab_chars = set()
    for ex in parse_dataset(workspace["train.tsv"]):
        vocab_chars |= set(ex.lemma) | set(ex.inflected)
    assert set(lm.alphabet) <= vocab_chars


def test_cli_beam_output_shape(workspace):
    rows = read_nbest(workspace["beams.tsv"])
    dev_keys = [(ex.lemma, ex.tag) for ex in parse_dataset(workspace["dev.tsv"])]
    seen = {}
    for lemma, tag, cand, lp in rows:
        assert (lemma, tag) in dev_keys
        assert np.isfinite(lp) and lp <= 0.0
        seen.setdefault((lemma, tag), []).append(cand)
    assert set(seen) == set(dev_keys)
    for cands in seen.values():
        assert 1 <= len(cands) <= 4
        assert len(cands) == len(set(cands))


def test_cli_rerank_weights_loadable(workspace, capsys):
    model = load_weights(workspace["weights.tsv"])
    assert model.weights.shape == (8,)
    rc = cli.main(["rerank-train", "--nbest", workspace["beams.tsv"],
                   "--data", workspace["dev.tsv"], "--lm", workspace["lm.txt"],
                   "--out", workspace["weights.tsv"], "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("pairwise-accuracy\t")]
    assert len(line) == 1
    assert 0.0 <= float(line[0].split("\t")[1]) <= 1.0


def test_cli_interpolated_checkpoint_carries_lambda(workspace):
    model = load_model(workspace["interp.ckpt"])
    assert model.lm_lambda is not None
    assert model.lm_lambda >= 0.0


def test_cli_predict_writes_triples(workspace, tmp_path):
    out = tmp_path / "preds.tsv"
    rc = cli.main(["predict", "--model", workspace["model.ckpt"],
                   "--data", workspace["dev.tsv"], "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    dev = parse_dataset(workspace["dev.tsv"])
    assert len(lines) == len(dev)
    for line, ex in zip(lines, dev):
        lemma, tag, pred = line.split("\t")
        assert (lemma, tag) == (ex.lemma, ex.tag)
        assert pred  # a nonempty hypothesis string


def test_cli_predict_with_lm_flags(workspace, tmp_path):
    out = tmp_path / "preds.tsv"
    rc = cli.main(["predict", "--model", workspace["model.ckpt"],
                   "--data", workspace["dev.tsv"], "--lm", workspace["lm.txt"],
                   "--interp-lambda", "0.5", "--out", str(out)])
    assert rc == 0
    assert out.read_text(encoding="utf-8").strip()


def test_cli_evaluate_report_shape(workspace, capsys):
    rc = cli.main(["evaluate", "--model", workspace["model.ckpt"],
                   "--data", workspace["test.tsv"]])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    tag_lines = [l for l in lines if l.startswith("tag\t")]
    macro_lines = [l for l in lines if l.startswith("macro\t")]
    assert len(tag_lines) == 4 and len(macro_lines) == 1
    for line in tag_lines:
        _, tag, acc, count = line.split("\t")
        assert tag.startswith("case=")
        assert 0.0 <= float(acc) <= 1.0
        assert int(count) == 2
    assert 0.0 <= float(macro_lines[0].split("\t")[1]) <= 1.0


def test_cli_evaluate_models_dir(workspace, capsys):
    rc = cli.main(["evaluate", "--models-dir", workspace["joint"],
                   "--data", workspace["test.tsv"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("tag\t") == 4
    assert "macro\t" in out


def test_cli_evaluate_tag_equals_path_syntax(workspace, tmp_path, capsys):
    # the TAG=PATH form splits on the first '=', so it suits tags without one
    data = tmp_path / "simple.tsv"
    data.write_text("talo\tpast\ttalossa\n", encoding="utf-8")
    rc = cli.main(["evaluate", "--model", f"past={workspace['model.ckpt']}",
                   "--data", str(data)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("tag\tpast\t")


def test_cli_evaluate_beam_rerank_and_analyses(workspace, tmp_path, capsys):
    pred_out = tmp_path / "preds.tsv"
    rc = cli.main(["evaluate", "--model", workspace["model.ckpt"],
                   "--data", workspace["test.tsv"], "--beam", "--beam-width", "4",
                   "--rerank", workspace["weights.tsv"], "--lm", workspace["lm.txt"],
                   "--by-length", "--harmony", "--pred-out", str(pred_out)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "macro\t" in out
    length_lines = [l for l in out.splitlines() if l.startswith("length\t")]
    assert length_lines
    for line in length_lines:
        _, label, acc = line.split("\t")
        assert label in ev.LENGTH_BIN_LABELS
        assert 0.0 <= float(acc) <= 1.0
    harm = [l for l in out.splitlines() if l.startswith("harmonic-fraction\t")]
    assert len(harm) == 1
    assert pred_out.read_text(encoding="utf-8").splitlines()


def test_cli_evaluate_rerank_without_lm_fails(workspace, capsys):
    rc = cli.main(["evaluate", "--model", workspace["model.ckpt"],
                   "--data", workspace["test.tsv"],
                   "--rerank", workspace["weights.tsv"]])
    assert rc == 2
    assert "language model" in capsys.readouterr().err


def test_cli_analyze_length_and_harmony(workspace, tmp_path, capsys):
    pred_out = tmp_path / "preds.tsv"
    assert cli.main(["evaluate", "--model", workspace["model.ckpt"],
                     "--data", workspace["test.tsv"],
                     "--pred-out", str(pred_out)]) == 0
    capsys.readouterr()
    rc = cli.main(["analyze-length", "--pred", str(pred_out),
                   "--data", workspace["test.tsv"]])
    assert rc == 0
    for line in capsys.readouterr().out.splitlines():
        label, acc = line.split("\t")
        assert label in ev.LENGTH_BIN_LABELS
        assert 0.0 <= float(acc) <= 1.0
    rc = cli.main(["analyze-harmony", "--pred", str(pred_out)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("harmonic-fraction\t")
    assert len(out) == 1 + len(pred_out.read_text(encoding="utf-8").splitlines())


def test_cli_analyze_harmony_on_synth_words_is_pure(workspace, capsys):
    rc = cli.main(["analyze-harmony", "--words", workspace["words.txt"]])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "harmonic-fraction\t1.0"


def test_cli_analyze_length_missing_prediction(workspace, tmp_path, capsys):
    pred = tmp_path / "partial.tsv"
    pred.write_text("talo\tcase=inessive\ttalossa\n", encoding="utf-8")
    rc = cli.main(["analyze-length", "--pred", str(pred),
                   "--data", workspace["test.tsv"]])
    assert rc == 2
    assert "no prediction" in capsys.readouterr().err


def test_cli_export_embeddings(workspace, tmp_path):
    out = tmp_path / "emb.tsv"
    rc = cli.main(["export-embeddings", "--model", workspace["model.ckpt"],
                   "--chars", "aeiou", "--out", str(out)])
    assert rc == 0
    emb = ev.read_embeddings(out)
    assert list(emb) == ["a", "e", "i", "o", "u"]
    model = load_model(workspace["model.ckpt"])
    assert len(emb["a"]) == model.embed_dim
    rc = cli.main(["export-embeddings", "--model", workspace["model.ckpt"],
                   "--chars", "z", "--out", str(out)])
    assert rc == 2


def test_cli_usage_errors(workspace, tmp_path, capsys):
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["train", "--bogus-flag"]) == 1
    assert cli.main(["train", "--data", workspace["train.tsv"]]) == 1  # no --tag
    assert cli.main(["train", "--mode", "joint", "--data", workspace["train.tsv"]]) == 1
    assert cli.main(["evaluate", "--data", workspace["test.tsv"]]) == 1  # no models
    rc = cli.main(["evaluate", "--model", workspace["model.ckpt"],
                   "--model", f"past={workspace['model.ckpt']}",
                   "--data", workspace["test.tsv"]])
    assert rc == 1  # mixing plain and TAG=PATH entries
    capsys.readouterr()


def test_cli_data_errors_exit_two(workspace, tmp_path, capsys):
    model, dev, out = workspace["model.ckpt"], workspace["dev.tsv"], str(tmp_path / "o.tsv")
    missing = str(tmp_path / "missing.tsv")
    bad = tmp_path / "bad.tsv"
    bad.write_text("only-one-column\n", encoding="utf-8")
    non_utf8 = tmp_path / "non-utf8.tsv"
    non_utf8.write_bytes(b"ab\xff\tt\n")
    listed = tmp_path / "list.ckpt"
    listed.write_text("[1, 2]\n", encoding="utf-8")
    unwritable = str(tmp_path / "no-such-dir" / "o.tsv")
    for argv in (
            ["predict", "--model", model, "--data", missing, "--out", out],
            ["predict", "--model", str(tmp_path / "missing.ckpt"), "--data", dev, "--out", out],
            ["evaluate", "--model", model, "--data", missing],
            ["predict", "--model", model, "--data", str(bad), "--out", out],
            ["predict", "--model", model, "--data", str(non_utf8), "--out", out],
            ["analyze-harmony", "--pred", str(non_utf8)],
            ["predict", "--model", str(listed), "--data", dev, "--out", out],
            ["predict", "--model", model, "--data", dev, "--out", unwritable],
            ["beam", "--model", model, "--data", dev, "--out", unwritable],
            ["synth-data", "--size", "20", "--out-dir", str(bad / "sub")]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("morphogen: error: ") and err.count("\n") == 1, (argv, err)


def test_cli_seed_env_fallback(tmp_path, monkeypatch):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    monkeypatch.delenv("MORPHOGEN_SEED", raising=False)
    assert cli.main(["synth-data", "--size", "12", "--wordlist-size", "20",
                     "--out-dir", str(a), "--seed", "7"]) == 0
    monkeypatch.setenv("MORPHOGEN_SEED", "7")
    assert cli.main(["synth-data", "--size", "12", "--wordlist-size", "20",
                     "--out-dir", str(b)]) == 0
    for name in ("train.tsv", "dev.tsv", "test.tsv", "words.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # an explicit --seed beats the environment
    monkeypatch.setenv("MORPHOGEN_SEED", "5")
    assert cli.main(["synth-data", "--size", "12", "--wordlist-size", "20",
                     "--out-dir", str(c), "--seed", "7"]) == 0
    assert (a / "train.tsv").read_bytes() == (c / "train.tsv").read_bytes()


def test_cli_seed_env_invalid(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MORPHOGEN_SEED", "seven")
    rc = cli.main(["synth-data", "--size", "12", "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    assert "MORPHOGEN_SEED" in capsys.readouterr().err


def test_cli_train_checks_out_before_training(workspace, tmp_path, capsys):
    missing_dir = str(tmp_path / "no-such-dir" / "m.ckpt")
    base = ["train", "--data", workspace["train.tsv"], "--tag", INESSIVE,
            "--hidden", "4", "--epochs", "1", "--seed", "0"]
    for extra in (["--out", missing_dir],
                  ["--out", missing_dir, "--ensemble-k", "2"],
                  ["--out", str(tmp_path)],
                  ["--mode", "interpolated", "--lm", workspace["lm.txt"], "--out", missing_dir]):
        assert cli.main(base + extra) == 2, extra
        captured = capsys.readouterr()
        assert captured.out == "", extra       # no epoch line: nothing was trained
        assert captured.err.startswith("morphogen: error: cannot write ")
        assert captured.err.count("\n") == 1
    assert not (tmp_path / "no-such-dir").exists()


def test_cli_ensemble_training_writes_numbered_checkpoints(workspace, tmp_path):
    out = tmp_path / "ens.ckpt"
    rc = cli.main(["train", "--data", workspace["train.tsv"], "--tag", INESSIVE,
                   "--out", str(out), "--hidden", "6", "--epochs", "1",
                   "--ensemble-k", "2", "--seed", "0"])
    assert rc == 0
    m1 = load_model(str(out) + ".1")
    m2 = load_model(str(out) + ".2")
    assert not models_equal(m1, m2)


@pytest.mark.parametrize("flag, value", [("--l2", "nan"), ("--l2", "inf"),
                                         ("--lambda-init", "nan"), ("--lambda-init", "-inf")])
def test_cli_train_rejects_non_finite_hyperparameters(workspace, tmp_path, capsys, flag, value):
    field = flag[2:].replace("-", "_")
    base = ["train", "--data", workspace["train.tsv"], "--hidden", "4", "--epochs", "1",
            "--seed", "0", f"{flag}={value}"]
    for extra in (["--tag", INESSIVE, "--out", str(tmp_path / "m.ckpt")],
                  ["--mode", "joint", "--out-dir", str(tmp_path / "joint")],
                  ["--mode", "interpolated", "--tag", INESSIVE, "--lm", workspace["lm.txt"],
                   "--out", str(tmp_path / "m.ckpt")]):
        assert cli.main(base + extra) == 2, extra
        captured = capsys.readouterr()
        assert captured.out == "", extra       # no epoch line: nothing was trained
        assert captured.err.startswith(f"morphogen: error: {field} must be a finite number")
        assert captured.err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("mode", ["factored", "joint"])
def test_cli_interrupt_exits_130_without_traceback(workspace, tmp_path, capsys, monkeypatch,
                                                   mode):
    real_step, calls = trainer.adadelta_step, []

    def step(*args, **kwargs):
        calls.append(1)
        if len(calls) > 5:
            raise KeyboardInterrupt
        return real_step(*args, **kwargs)

    monkeypatch.setattr(trainer, "adadelta_step", step)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    where = (["--tag", INESSIVE, "--out", str(out_dir / "m.ckpt")] if mode == "factored"
             else ["--out-dir", str(out_dir)])
    rc = cli.main(["train", "--mode", mode, "--data", workspace["train.tsv"],
                   "--hidden", "4", "--epochs", "3", "--seed", "0"] + where)
    assert rc == 130
    captured = capsys.readouterr()
    assert captured.err == "morphogen: interrupted\n"
    assert captured.out == ""
    assert len(calls) == 6
    assert list(out_dir.iterdir()) == []
