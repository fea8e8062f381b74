"""Exact-match evaluation plus the post-hoc analyses: accuracy by output
length, a whole-word vowel-harmony check, and embedding export.

decode_lemmas is the one entry for decoding a run of lemmas with one model
or ensemble: CLI predict and beam, evaluate_accuracy and the trainer's dev
evaluation all reach it. A greedy run decodes as rows of one batch
(search.greedy_decode_batch); a beam decodes word by word.
"""

from dataclasses import dataclass

from .data import open_text
from .errors import DataError, SearchError
from .reranker import rerank as rerank_pick
from .search import beam_decode, greedy_decode_batch

__all__ = [
    "EvalReport",
    "decode_lemmas",
    "evaluate_accuracy",
    "LENGTH_BIN_LABELS",
    "bin_of_length",
    "accuracy_by_length",
    "FRONT_VOWELS",
    "BACK_VOWELS",
    "NEUTRAL_VOWELS",
    "is_harmonic",
    "vowel_harmony_check",
    "export_embeddings",
    "read_embeddings",
]


@dataclass(frozen=True)
class EvalReport:
    per_tag: dict      # tag -> exact-match accuracy
    counts: dict       # tag -> number of test examples
    macro: float       # mean of per-tag accuracies
    predictions: tuple  # (lemma, tag, gold, predicted) per example


def _as_ensemble(value):
    return list(value) if isinstance(value, (list, tuple)) else [value]


def decode_lemmas(models, lemmas, *, beam_width=None, lm=None, lam=None, max_len_slack=10):
    """Each lemma's DecodeResult list under one model or ensemble list: the greedy
    result, or the n-best of a beam of beam_width. An output may run max_len_slack
    symbols past its lemma; lam defaults as for search.greedy_decode. Greedy
    decodes all lemmas as rows (search.greedy_decode_batch), whose ids and flags
    are greedy_decode's and whose log-probs agree with it to rounding."""
    if not models:
        raise SearchError("decoding needs at least one model")
    vocab = models[0].vocab
    sources = [vocab.encode(lemma) for lemma in lemmas]
    max_lens = [len(x_ids) + max_len_slack for x_ids in sources]
    if beam_width is None:
        return [[r] for r in greedy_decode_batch(models, sources, max_lens, lm=lm, lam=lam)]
    return [beam_decode(models, x_ids, beam_width, max_len, lm=lm, lam=lam)
            for x_ids, max_len in zip(sources, max_lens)]


def evaluate_accuracy(models_by_tag, examples, *, beam_width=None, lm=None,
                      lam=None, rerank_model=None, max_len_slack=10):
    """Per-tag and macro exact-match accuracy over labelled examples.

    models_by_tag maps each tag to a model or ensemble list. Decoding is
    greedy unless beam_width is given; a reranker needs beam_width and an LM,
    and picks from a beam decoded without it. Without lam, each tag decodes
    with its first member's learned lm_lambda, else 1.0. Tags mapped to the
    same list (or model) object decode each distinct lemma of theirs once,
    in one decode_lemmas call.
    """
    if not examples:
        raise DataError("evaluate_accuracy: no examples given")
    tags = dict.fromkeys(ex.tag for ex in examples)
    missing = set(tags) - set(models_by_tag)
    if missing:
        raise DataError(f"no model for tags: {sorted(missing)}")
    if rerank_model is not None:
        if lm is None:
            raise DataError("reranking needs a language model for its features")
        if beam_width is None:
            raise DataError("reranking needs a beam width")
    # tags that share one model list (evaluate --model PATH gives every tag
    # the same list) decode each of their distinct lemmas once, in one run
    groups = {}
    for tag in tags:
        groups.setdefault(id(models_by_tag[tag]), []).append(tag)
    preds = {}   # example -> predicted form
    for group in groups.values():
        models = _as_ensemble(models_by_tag[group[0]])
        group_examples = [ex for ex in examples if ex.tag in group]
        lemmas = list(dict.fromkeys(ex.lemma for ex in group_examples))
        results = dict(zip(lemmas, decode_lemmas(
            models, lemmas, beam_width=beam_width, lm=lm if rerank_model is None else None,
            lam=lam, max_len_slack=max_len_slack)))
        vocab = models[0].vocab
        for ex in group_examples:
            nbest = results[ex.lemma]
            preds[ex] = nbest[0].text(vocab) if rerank_model is None else rerank_pick(
                [(r.text(vocab), r.logprob) for r in nbest], rerank_model, lm, ex.lemma)
    per_tag, counts = {}, {}
    for tag in tags:
        tag_examples = [ex for ex in examples if ex.tag == tag]
        counts[tag] = len(tag_examples)
        per_tag[tag] = sum(preds[ex] == ex.inflected for ex in tag_examples) / counts[tag]
    predictions = tuple((ex.lemma, ex.tag, ex.inflected, preds[ex]) for ex in examples)
    return EvalReport(per_tag=per_tag, counts=counts, macro=sum(per_tag.values()) / len(per_tag),
                      predictions=predictions)


LENGTH_BIN_LABELS = ("<5", "[5,10)", "[10,15)", ">=15")


def bin_of_length(n):
    if n < 5:
        return LENGTH_BIN_LABELS[0]
    if n < 10:
        return LENGTH_BIN_LABELS[1]
    if n < 15:
        return LENGTH_BIN_LABELS[2]
    return LENGTH_BIN_LABELS[3]


def accuracy_by_length(predictions, golds):
    """Exact-match accuracy grouped by gold-form length; empty bins omitted."""
    if len(predictions) != len(golds):
        raise DataError(
            f"accuracy_by_length: {len(predictions)} predictions vs {len(golds)} golds")
    hits, counts = {}, {}
    for pred, gold in zip(predictions, golds):
        label = bin_of_length(len(gold))
        counts[label] = counts.get(label, 0) + 1
        hits[label] = hits.get(label, 0) + (pred == gold)
    return {label: hits[label] / counts[label]
            for label in LENGTH_BIN_LABELS if label in counts}


FRONT_VOWELS = "äöy"
BACK_VOWELS = "aou"
NEUTRAL_VOWELS = "ei"


def is_harmonic(word):
    """Whole-word harmony: front and back vowels never co-occur."""
    has_front = any(ch in FRONT_VOWELS for ch in word)
    has_back = any(ch in BACK_VOWELS for ch in word)
    return not (has_front and has_back)


def vowel_harmony_check(words):
    """(fraction of harmonic words, per-word verdicts); vacuously 1.0 if empty.

    No segmentation is attempted, so compounds mixing harmony classes across
    constituent words count as violations; the verdict list lets callers
    filter those out.
    """
    verdicts = [is_harmonic(w) for w in words]
    fraction = sum(verdicts) / len(verdicts) if verdicts else 1.0
    return fraction, verdicts


def export_embeddings(model, chars, path):
    """Write one `char TAB components...` line per char, floats via repr."""
    if not chars:
        raise DataError("no characters to export")
    vocab = model.vocab
    known = set(vocab.data_chars)
    rows = []
    for ch in chars:
        if ch not in known:
            raise DataError(f"character {ch!r} is not in the model vocabulary")
        vec = model.embed.value[vocab.id_of(ch)]
        rows.append(ch + "\t" + "\t".join(repr(float(v)) for v in vec))
    with open_text(path, "w", what="embedding file") as f:
        f.write("\n".join(rows) + "\n")


def read_embeddings(path):
    out = {}
    with open_text(path, what="embedding file") as f:
        for line in f:
            char, *components = line.rstrip("\n").split("\t")
            try:
                vec = [float(v) for v in components]
            except ValueError:
                vec = []
            if not vec:
                raise DataError(f"embedding file {path}: malformed line {line!r}")
            out[char] = vec
    return out
