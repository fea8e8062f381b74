"""Dataset ingestion, inflection tables, splits, and the synthetic language.

The on-disk format is a UTF-8 TSV of `lemma TAB tag TAB inflected` lines;
`#` comments and blank lines are skipped and all text is NFC-normalized.
"""

import contextlib
import os
import random
import unicodedata
from dataclasses import dataclass, field

from .errors import DataError
from .vocab import CharVocab

__all__ = [
    "Example",
    "InflectionTable",
    "DatasetSplit",
    "open_text",
    "split_fields",
    "parse_dataset",
    "parse_dataset_lines",
    "serialize_examples",
    "write_dataset",
    "build_vocab",
    "split_tables",
    "tables_to_examples",
    "read_wordlist",
    "write_wordlist",
    "SynthSpec",
    "default_synth_spec",
    "synth_language",
    "synth_wordlist",
    "apply_harmony_rule",
]


@dataclass(frozen=True)
class Example:
    lemma: str
    tag: str
    inflected: str

    def __post_init__(self):
        if not self.lemma or not self.tag or not self.inflected:
            raise DataError(f"example with empty field: {self!r}")


@dataclass
class InflectionTable:
    lemma: str
    forms: dict  # tag -> inflected form

    def examples(self):
        return [Example(self.lemma, tag, form) for tag, form in self.forms.items()]


@dataclass
class DatasetSplit:
    train: list
    dev: list
    test: list


@contextlib.contextmanager
def open_text(path, mode="r", what="file", error=DataError):
    """Open path as UTF-8 text with "\\n" line ends on write.

    A write goes to a temporary file beside the target, which replaces the
    target only when the block completes: a write that fails or is
    interrupted leaves the old file as it was and no partial file behind.
    (A target that exists but is not a regular file, such as a device or a
    pipe, is written in place.) An OSError, or invalid UTF-8 met while
    reading inside the block, becomes `error` with a one-line message naming
    the file.
    """
    writing = mode == "w"
    target = os.path.realpath(path) if writing else path
    tmp = None
    if writing and (os.path.isfile(target) or not os.path.exists(target)):
        head, tail = os.path.split(target)
        tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        try:
            with open(tmp or path, "x" if tmp else mode, encoding="utf-8",
                      newline="\n" if writing else None) as f:
                yield f
            if tmp:
                os.replace(tmp, target)
        except BaseException:
            if tmp:
                with contextlib.suppress(OSError):
                    os.remove(tmp)
            raise
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path}: not valid UTF-8 ({exc})") from exc
    except OSError as exc:
        if writing:
            raise error(f"cannot write {what} {path}: {exc.strerror or exc}") from exc
        raise error(f"cannot read {what} {path}: {exc}") from exc


def split_fields(lines, widths, source="<input>"):
    """(line number, tab-separated NFC-normalized fields) of each line;
    blank and # lines are skipped, and a line whose field count is not in
    `widths` is a DataError. Every tab-separated input is read through here,
    so a decomposed file reads as its composed form."""
    for lineno, line in enumerate(lines, start=1):
        line = unicodedata.normalize("NFC", line.rstrip("\n"))
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in widths:
            raise DataError(f"{source}:{lineno}: expected {' or '.join(map(str, widths))} "
                            f"tab-separated fields, got {len(fields)}")
        yield lineno, fields


def parse_dataset(path):
    with open_text(path, what="dataset") as f:
        return parse_dataset_lines(f, source=str(path))


def parse_dataset_lines(lines, source="<input>"):
    examples = []
    for lineno, (lemma, tag, inflected) in split_fields(lines, (3,), source):
        try:
            examples.append(Example(lemma, tag, inflected))
        except DataError as exc:
            raise DataError(f"{source}:{lineno}: {exc}") from exc
    return examples


def serialize_examples(examples):
    return "".join(f"{e.lemma}\t{e.tag}\t{e.inflected}\n" for e in examples)


def write_dataset(examples, path):
    with open_text(path, "w", what="dataset") as f:
        f.write(serialize_examples(examples))


def build_vocab(examples):
    """Characters of every lemma and inflected form, behind the specials."""
    if not examples:
        raise DataError("build_vocab: no examples")
    chars = set()
    for e in examples:
        chars.update(e.lemma)
        chars.update(e.inflected)
    return CharVocab(chars)


SPLIT_RATIOS = (0.8, 0.1, 0.1)   # train, dev, test; train takes the rest after rounding


def split_tables(tables, seed=0):
    """Seeded shuffle and three-way split at whole-table granularity."""
    lemmas = [t.lemma for t in tables]
    if len(set(lemmas)) != len(lemmas):
        raise DataError("split_tables: duplicate lemmas across tables")
    shuffled = list(tables)
    random.Random(seed).shuffle(shuffled)
    n = len(shuffled)
    n_dev = int(n * SPLIT_RATIOS[1])
    n_test = int(n * SPLIT_RATIOS[2])
    n_train = n - n_dev - n_test
    for count, name in ((n_train, "train"), (n_dev, "dev"), (n_test, "test")):
        if count == 0:
            raise DataError(f"split_tables: {n} tables leave the {name} split empty")
    return DatasetSplit(train=shuffled[:n_train],
                        dev=shuffled[n_train:n_train + n_dev],
                        test=shuffled[n_train + n_dev:])


def tables_to_examples(tables):
    out = []
    for t in tables:
        out.extend(t.examples())
    return out


def read_wordlist(path):
    """The file's non-blank lines, stripped and NFC-normalized."""
    with open_text(path, what="wordlist") as f:
        return [unicodedata.normalize("NFC", line.strip()) for line in f if line.strip()]


def write_wordlist(words, path):
    with open_text(path, "w", what="wordlist") as f:
        for w in words:
            f.write(w + "\n")


# --- synthetic vowel-harmony language -------------------------------------
#
# Finnish-flavoured toy language used for desk-scale end-to-end checks:
# random CV stems whose vowels are drawn from one harmony class, inflected by
# appending the suffix variant selected by the stem's vowels (back wins if
# any back vowel is present, front otherwise).


@dataclass
class SynthSpec:
    consonants: str = "klnst"
    back_vowels: str = "aou"
    front_vowels: str = "äö"
    neutral_vowels: str = "ei"
    stem_len: tuple = (3, 7)
    # tag -> (front variant, back variant)
    suffixes: dict = field(default_factory=dict)

    def alphabet(self):
        return set(self.consonants + self.back_vowels + self.front_vowels
                   + self.neutral_vowels)

    def validate(self):
        if not self.consonants or not self.back_vowels or not self.front_vowels:
            raise DataError("synth spec: consonants, back and front vowels are required")
        if not self.suffixes:
            raise DataError("synth spec: no suffix pairs")
        if self.stem_len[0] < 1 or self.stem_len[1] < self.stem_len[0]:
            raise DataError(f"synth spec: bad stem length range {self.stem_len}")
        alpha = self.alphabet()
        for tag, pair in self.suffixes.items():
            if len(pair) != 2:
                raise DataError(f"synth spec: tag {tag!r} needs (front, back) variants")
            for suffix in pair:
                if not set(suffix) <= alpha:
                    raise DataError(f"synth spec: suffix {suffix!r} uses characters "
                                    "outside the alphabet")

    def stem_count(self):
        """How many distinct stems synth_language can draw. A stem of length
        L has ceil(L/2) consonant slots and floor(L/2) vowel slots, filled
        from back+neutral (X) or front+neutral (Y) vowels; neutral-only
        stems lie in both, so a length has |C|^ceil(L/2) * (|X|^k + |Y|^k -
        |X & Y|^k) of them, k = floor(L/2)."""
        C = len(set(self.consonants))
        X = set(self.back_vowels + self.neutral_vowels)
        Y = set(self.front_vowels + self.neutral_vowels)
        lo, hi = self.stem_len
        return sum(C ** ((L + 1) // 2) * (len(X) ** (L // 2) + len(Y) ** (L // 2)
                                          - len(X & Y) ** (L // 2))
                   for L in range(lo, hi + 1))


def default_synth_spec():
    """12-character alphabet, 4 locative-style cases."""
    return SynthSpec(suffixes={
        "case=inessive": ("ssä", "ssa"),
        "case=elative": ("stä", "sta"),
        "case=adessive": ("llä", "lla"),
        "case=ablative": ("ltä", "lta"),
    })


def apply_harmony_rule(spec, stem, tag):
    """Back suffix variant iff the stem contains a back vowel, front otherwise."""
    front, back = spec.suffixes[tag]
    if any(ch in spec.back_vowels for ch in stem):
        return stem + back
    return stem + front


def synth_language(spec, size, seed=0):
    """`size` tables: unique stems, each inflected for every tag in the spec."""
    spec.validate()
    if size < 1:
        raise DataError(f"synth_language: size must be >= 1, got {size}")
    stem_count = spec.stem_count()
    if size > stem_count:
        raise DataError(f"synth_language: size {size} is more than the "
                        f"{stem_count} distinct stems the spec can draw")
    rng = random.Random(seed)
    stems = set()
    tables = []
    vowel_classes = tuple(v for v in (spec.back_vowels + spec.neutral_vowels,
                                      spec.front_vowels + spec.neutral_vowels,
                                      spec.neutral_vowels) if v)
    attempts = 0
    while len(stems) < size:
        attempts += 1
        if attempts > 100 * size + 1000:
            raise DataError(f"synth_language: cannot draw {size} unique stems")
        vowels = vowel_classes[rng.randrange(len(vowel_classes))]
        length = rng.randint(*spec.stem_len)
        stem = "".join(rng.choice(spec.consonants) if i % 2 == 0 else rng.choice(vowels)
                       for i in range(length))
        if stem in stems:
            continue
        stems.add(stem)
        tables.append(InflectionTable(
            stem, {tag: apply_harmony_rule(spec, stem, tag) for tag in spec.suffixes}))
    return tables


def synth_wordlist(spec, size, seed=0):
    """Unlabeled inflected forms from fresh stems (for language-model training)."""
    seen = dict.fromkeys(ex.inflected
                         for t in synth_language(spec, size, seed=seed)
                         for ex in t.examples())
    return list(seen)
