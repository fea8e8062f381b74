"""Command-line surface. Every subcommand is a thin wrapper over one
library call; exit codes are 0 success, 1 usage, 2 data/model error, 130
interrupted (Ctrl-C)."""

import argparse
import itertools
import math
import os
import sys
import tempfile
import unicodedata

from . import charlm, data, evaluate, reranker, search, trainer
from .errors import MorphogenError
from .model import VARIANTS, load_model, save_model

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        # a subcommand's prog is "morphogen <command>"; every error line
        # starts with the program name alone
        print(f"{self.prog.split()[0]}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_from(low):
    """An argparse type: an int >= low. argparse names the flag in the error."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_non_negative_int = _int_from(0)
_positive_int = _int_from(1)


def _nfc(text):
    """Command-line text, NFC-normalized as every file input is."""
    return unicodedata.normalize("NFC", text)


class _Usage(Exception):
    pass


def _seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MORPHOGEN_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise _Usage(f"MORPHOGEN_SEED must be an integer, got {env!r}") from None


def _add_model_flags(p):
    p.add_argument("--hidden", type=int, default=100)
    p.add_argument("--embed-dim", type=int, default=None)
    p.add_argument("--variant", choices=VARIANTS, default="full")


def _add_common(p):
    p.add_argument("--seed", type=int, default=None,
                   help="falls back to MORPHOGEN_SEED, then 0")


def _config(args, seed):
    return trainer.TrainConfig(
        hidden=args.hidden, embed_dim=args.embed_dim, l2=args.l2,
        epochs=args.epochs, ensemble_k=args.ensemble_k, seed=seed,
        variant=args.variant, max_len_slack=args.max_len_slack,
        lambda_init=0.0 if args.lambda_init is None else args.lambda_init)


def _read_columns(path, widths):
    """Rows of a lemma TAB tag TAB ... file with lemma and tag non-empty."""
    rows = []
    with data.open_text(path) as f:
        for lineno, fields in data.split_fields(f, widths, path):
            if not fields[0] or not fields[1]:
                raise MorphogenError(f"{path}:{lineno}: empty lemma or tag")
            rows.append(fields)
    return rows


def _models_by_tag(args, tags):
    """--model PATH or TAG=PATH (repeatable), or --models-dir with <tag>.ckpt.

    An entry is TAG=PATH when it starts with "<tag>=" for a tag of the data
    (compared in NFC), the longest such tag, since tags may contain "="; any
    other entry is a path. A path is used exactly as given.
    """
    if args.models_dir:
        if args.model:
            raise _Usage("give --model or --models-dir, not both")
        return {tag: [load_model(os.path.join(args.models_dir, f"{tag}.ckpt"))]
                for tag in tags}
    tagged, shared = {}, []
    for entry in args.model or ():
        tag = path = None
        for i, ch in enumerate(entry):     # the last match is the longest tag
            if ch == "=" and (head := _nfc(entry[:i])) in tags:
                tag, path = head, entry[i + 1:]
        if tag is None:
            shared.append(load_model(entry))
        else:
            tagged.setdefault(tag, []).append(load_model(path))
    if shared and tagged:
        raise _Usage("mix of TAG=PATH and plain --model entries")
    if shared:
        return {tag: shared for tag in tags}
    if not tagged:
        raise _Usage("no models given; use --model or --models-dir")
    return tagged


def _cmd_train(args):
    """Train and save; every usage check runs before any data loads."""
    seed = _seed(args)
    config = _config(args, seed)
    if args.mode == "joint":
        for flag, value in (("--tag", args.tag), ("--out", args.out)):
            if value is not None:
                raise _Usage(f"{flag} applies to modes factored and interpolated, not joint")
        if not args.out_dir:
            raise _Usage("--out-dir is required for mode joint")
    else:
        if args.out_dir is not None:
            raise _Usage(f"--out-dir applies to mode joint only, not {args.mode}")
        for flag, value in (("--tag", args.tag), ("--out", args.out)):
            if not value:
                raise _Usage(f"{flag} is required for mode {args.mode}")
    if args.mode != "factored" and args.ensemble_k != 1:
        raise _Usage(f"--ensemble-k applies to mode factored only, not {args.mode}")
    config.validate()    # a non-finite --lambda-init is a data error (exit 2) in every mode
    for flag, value in (("--lm", args.lm), ("--lambda-init", args.lambda_init)):
        if args.mode != "interpolated" and value is not None:
            raise _Usage(f"{flag} applies to mode interpolated only, not {args.mode}")
    if args.mode == "interpolated" and not args.lm:
        raise _Usage("--lm is required for mode interpolated")
    train_examples = data.parse_dataset(args.data)
    dev_examples = data.parse_dataset(args.dev) if args.dev else []
    dataset = data.DatasetSplit(train=train_examples, dev=dev_examples, test=[])
    if args.mode == "joint":
        _make_dir(args.out_dir)
        paths = {tag: os.path.join(args.out_dir, f"{tag}.ckpt")
                 for tag in sorted({ex.tag for ex in train_examples})}
        for path in paths.values():
            _check_writable(path)
        models = trainer.train_joint(dataset, config, log=print)
        for tag, model in sorted(models.items()):
            save_model(model, paths[tag])
        return 0
    outs = [args.out] if args.ensemble_k == 1 else \
        [f"{args.out}.{i}" for i in range(1, args.ensemble_k + 1)]
    for path in outs:
        _check_writable(path)
    if args.mode == "interpolated":
        lm = charlm.load_lm(args.lm)
        model = trainer.train_factored(dataset, args.tag, config, log=print, lm=lm)
        save_model(model, args.out)
        print(f"lambda\t{model.lm_lambda!r}")
        return 0
    members = trainer.train_ensemble(dataset, args.tag, config, log=print)
    for model, path in zip(members, outs):
        save_model(model, path)
    return 0


def _cmd_lm_train(args):
    words = data.read_wordlist(args.words)
    if args.data:
        vocab = data.build_vocab(data.parse_dataset(args.data))
        words = charlm.filter_wordlist(words, vocab)
    charlm.save_lm(charlm.train_lm(words, order=args.order), args.out)
    return 0


def _check_decode_flags(args):
    """Reject a bad --beam-width or --interp-lambda, used or not; then one the
    command would ignore: --interp-lambda without --lm or with --rerank
    (which beams without the LM), evaluate's --beam-width without --beam or
    --rerank."""
    width = getattr(args, "beam_width", None)
    if width is not None and width < 1:
        raise MorphogenError(f"beam width must be >= 1, got {width}")
    lam = getattr(args, "interp_lambda", None)
    if lam is not None and not 0 <= lam < math.inf:
        raise MorphogenError(f"interpolation weight must be a finite number >= 0, got {lam}")
    ignored = None
    if lam is not None and not args.lm:
        ignored = "--interp-lambda applies with --lm only"
    elif lam is not None and getattr(args, "rerank", None):
        ignored = "--interp-lambda does not apply with --rerank, which beams without the LM"
    elif args.command == "evaluate" and width is not None and not (args.beam or args.rerank):
        ignored = "--beam-width applies with --beam or --rerank only"
    if ignored:
        args.parser.print_usage(sys.stderr)
        raise _Usage(ignored)


def _cmd_decode(args):
    """predict writes each row's best form, beam its n-best with log-probs."""
    _check_writable(args.out)
    models = [load_model(p) for p in args.model]
    lm = charlm.load_lm(args.lm) if args.lm else None
    rows = [(lemma, tag) for lemma, tag, *_ in _read_columns(args.data, (2, 3))]
    results = evaluate.decode_lemmas(models, [lemma for lemma, _ in rows],
                                     beam_width=getattr(args, "beam_width", None), lm=lm,
                                     lam=args.interp_lambda, max_len_slack=args.max_len_slack)
    vocab = models[0].vocab
    if args.command == "beam":
        search.write_nbest(args.out, [(lemma, tag, r.text(vocab), r.logprob)
                                      for (lemma, tag), nbest in zip(rows, results)
                                      for r in nbest])
    else:
        _write_lines(args.out, [f"{lemma}\t{tag}\t{nbest[0].text(vocab)}"
                                for (lemma, tag), nbest in zip(rows, results)])
    return 0


def _cmd_rerank_train(args):
    rows = search.read_nbest(args.nbest)
    gold = {(ex.lemma, ex.tag): ex.inflected for ex in data.parse_dataset(args.data)}
    lm = charlm.load_lm(args.lm)
    groups = []
    for (source, tag), group_rows in itertools.groupby(rows, key=lambda r: (r[0], r[1])):
        if (source, tag) not in gold:
            raise MorphogenError(f"no gold form for {source!r} / {tag!r} in {args.data}")
        candidates = tuple((cand, lp) for _, _, cand, lp in group_rows)
        groups.append(reranker.RerankGroup(source, gold[(source, tag)], candidates))
    model = reranker.pro_train(groups, lm, iterations=args.iterations, seed=_seed(args))
    reranker.save_weights(model, args.out)
    print(f"pairwise-accuracy\t{reranker.pairwise_accuracy(model, groups, lm)!r}")
    return 0


def _cmd_evaluate(args):
    if args.pred_out:
        _check_writable(args.pred_out)
    examples = data.parse_dataset(args.data)
    tags = sorted({ex.tag for ex in examples})
    models_by_tag = _models_by_tag(args, tags)
    lm = charlm.load_lm(args.lm) if args.lm else None
    rerank_model = reranker.load_weights(args.rerank) if args.rerank else None
    report = evaluate.evaluate_accuracy(
        models_by_tag, examples,
        beam_width=(args.beam_width or 20) if args.beam or args.rerank else None,
        lm=lm, lam=args.interp_lambda, rerank_model=rerank_model,
        max_len_slack=args.max_len_slack)
    for tag in sorted(report.per_tag):
        print(f"tag\t{tag}\t{report.per_tag[tag]!r}\t{report.counts[tag]}")
    print(f"macro\t{report.macro!r}")
    if args.by_length:
        preds = [p for _, _, _, p in report.predictions]
        golds = [g for _, _, g, _ in report.predictions]
        for label, acc in evaluate.accuracy_by_length(preds, golds).items():
            print(f"length\t{label}\t{acc!r}")
    if args.harmony:
        fraction, _ = evaluate.vowel_harmony_check([p for _, _, _, p in report.predictions])
        print(f"harmonic-fraction\t{fraction!r}")
    if args.pred_out:
        _write_lines(args.pred_out,
                     [f"{lemma}\t{tag}\t{pred}"
                      for lemma, tag, _, pred in report.predictions])
    return 0


def _cmd_analyze_length(args):
    preds = {(lemma, tag): pred
             for lemma, tag, pred in _read_columns(args.pred, (3,))}
    golds = data.parse_dataset(args.data)
    pred_list, gold_list = [], []
    for ex in golds:
        key = (ex.lemma, ex.tag)
        if key not in preds:
            raise MorphogenError(f"no prediction for {ex.lemma!r} / {ex.tag!r}")
        pred_list.append(preds[key])
        gold_list.append(ex.inflected)
    for label, acc in evaluate.accuracy_by_length(pred_list, gold_list).items():
        print(f"{label}\t{acc!r}")
    return 0


def _cmd_analyze_harmony(args):
    if bool(args.words) == bool(args.pred):
        raise _Usage("give exactly one of --words or --pred")
    if args.words:
        words = data.read_wordlist(args.words)
    else:
        words = [pred for _, _, pred in _read_columns(args.pred, (3,))]
    fraction, verdicts = evaluate.vowel_harmony_check(words)
    print(f"harmonic-fraction\t{fraction!r}")
    for word, ok in zip(words, verdicts):
        print(f"{word}\t{int(ok)}")
    return 0


def _cmd_export_embeddings(args):
    model = load_model(args.model)
    evaluate.export_embeddings(model, args.chars, args.out)
    return 0


def _cmd_synth_data(args):
    seed = _seed(args)
    spec = data.default_synth_spec()
    tables = data.synth_language(spec, args.size, seed=seed)
    split = data.split_tables(tables, seed=seed)
    words = data.synth_wordlist(spec, args.wordlist_size, seed=seed + 1)
    _make_dir(args.out_dir)
    for name, part in (("train", split.train), ("dev", split.dev), ("test", split.test)):
        data.write_dataset(data.tables_to_examples(part),
                           os.path.join(args.out_dir, f"{name}.tsv"))
    data.write_wordlist(words, os.path.join(args.out_dir, "words.txt"))
    return 0


def _make_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise MorphogenError(f"cannot create directory {path}: {exc}") from exc


def _check_writable(path):
    """Fail before a long run if no file can be created where path goes."""
    if os.path.isdir(path):
        raise MorphogenError(f"cannot write {path}: it is a directory")
    try:
        with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))):
            pass
    except OSError as exc:
        raise MorphogenError(f"cannot write {path}: {exc}") from exc


def _write_lines(path, lines):
    with data.open_text(path, "w") as f:
        for line in lines:
            f.write(line + "\n")


def build_parser():
    parser = _Parser(prog="morphogen",
                     description="Character-level inflection generation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train inflection models")
    p.add_argument("--mode", choices=("factored", "joint", "interpolated"),
                   default="factored")
    p.add_argument("--data", required=True, help="training TSV (lemma TAB tag TAB form)")
    p.add_argument("--dev", default=None, help="development TSV for epoch selection")
    p.add_argument("--tag", type=_nfc, default=None)
    p.add_argument("--out", default=None, help="checkpoint path (.N appended for ensembles)")
    p.add_argument("--out-dir", default=None, help="joint mode: one <tag>.ckpt per tag")
    p.add_argument("--lm", default=None, help="LM file for interpolated mode")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--l2", type=float, default=1e-5)
    p.add_argument("--ensemble-k", type=int, default=1)
    p.add_argument("--max-len-slack", type=_non_negative_int, default=10)
    p.add_argument("--lambda-init", type=float, default=None,
                   help="interpolated mode: initial lambda_hat, lambda = softplus(lambda_hat) "
                        "(default 0.0)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("lm-train", help="train the character language model")
    p.add_argument("--words", required=True, help="wordlist, one word per line")
    p.add_argument("--data", default=None,
                   help="optional training TSV; filters the wordlist to its alphabet")
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lm_train)

    for name in ("predict", "beam"):
        p = sub.add_parser(name, help=f"{name} with trained models")
        p.add_argument("--model", action="append", required=True,
                       help="checkpoint path; repeat for an ensemble")
        p.add_argument("--data", required=True, help="inputs: lemma TAB tag[ TAB form]")
        p.add_argument("--out", required=True)
        p.add_argument("--lm", default=None)
        p.add_argument("--interp-lambda", type=float, default=None,
                       help="override the checkpoint's interpolation weight")
        p.add_argument("--max-len-slack", type=_non_negative_int, default=10)
        if name == "beam":
            p.add_argument("--beam-width", type=int, default=20)
        p.set_defaults(func=_cmd_decode, parser=p)

    p = sub.add_parser("rerank-train", help="fit reranker weights on beam output")
    p.add_argument("--nbest", required=True)
    p.add_argument("--data", required=True, help="gold TSV for the beamed sources")
    p.add_argument("--lm", required=True)
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_rerank_train)

    p = sub.add_parser("evaluate", help="exact-match accuracy of trained models")
    p.add_argument("--model", action="append", default=None,
                   help="PATH for all tags, or TAG=PATH for a tag of the data "
                        "(tags may contain '='); repeatable")
    p.add_argument("--models-dir", default=None, help="directory of <tag>.ckpt files")
    p.add_argument("--data", required=True)
    p.add_argument("--beam", action="store_true", help="beam decode instead of greedy")
    p.add_argument("--beam-width", type=int, default=None,
                   help="with --beam or --rerank (default 20)")
    p.add_argument("--rerank", default=None, help="reranker weights file (implies beam)")
    p.add_argument("--lm", default=None)
    p.add_argument("--interp-lambda", type=float, default=None,
                   help="override every tag's learned interpolation weight (not with --rerank)")
    p.add_argument("--max-len-slack", type=_non_negative_int, default=10)
    p.add_argument("--by-length", action="store_true")
    p.add_argument("--harmony", action="store_true")
    p.add_argument("--pred-out", default=None)
    p.set_defaults(func=_cmd_evaluate, parser=p)

    p = sub.add_parser("analyze-length", help="accuracy by gold-form length bin")
    p.add_argument("--pred", required=True, help="predictions TSV")
    p.add_argument("--data", required=True, help="gold TSV")
    p.set_defaults(func=_cmd_analyze_length)

    p = sub.add_parser("analyze-harmony", help="vowel-harmony check of word forms")
    p.add_argument("--words", default=None)
    p.add_argument("--pred", default=None, help="predictions TSV (third column)")
    p.set_defaults(func=_cmd_analyze_harmony)

    p = sub.add_parser("export-embeddings", help="dump character vectors")
    p.add_argument("--model", required=True)
    p.add_argument("--chars", type=_nfc, required=True,
                   help="characters to export, e.g. 'aeiouy'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_embeddings)

    p = sub.add_parser("synth-data", help="generate the synthetic harmony language")
    p.add_argument("--size", type=_positive_int, default=300, help="number of inflection tables")
    p.add_argument("--wordlist-size", type=_positive_int, default=500)
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_synth_data)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        _check_decode_flags(args)   # before any command loads a file
        return args.func(args)
    except _Usage as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except MorphogenError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size too large to allocate
        sizes = ", ".join(f"--{key.replace('_', '-')} {val}" for key, val in vars(args).items()
                          if key in ("hidden", "embed_dim", "order") and val is not None)
        print(f"{parser.prog}: error: {str(exc) or 'out of memory'}"
              + (f" (sizes: {sizes})" if sizes else ""), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(f"{parser.prog}: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
