"""Corpus ingestion, BIO/BIOES conversion, span extraction and span F1.

Sentences are pre-tokenized; a CoNLL file has one `token label` pair per
line (whitespace-separated) and a blank line between sentences. All corpus
functions are pure; repairs of noisy label transitions are logged as
warnings rather than rejected, since public corpora contain such noise.

Spans have one parser, `_span_arrays`, which parses a whole corpus in one
numpy pass; scheme conversion, token substitution, span F1 and the entity
dictionary all take their spans from it, a corpus at a time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .textio import open_text

logger = logging.getLogger(__name__)

SCHEMES = ("BIO", "BIOES")
_PREFIXES = {"BIO": {"B", "I", "O"}, "BIOES": {"B", "I", "O", "E", "S"}}


class CorpusFormatError(ValueError):
    """Malformed corpus file; message carries path and line number."""


class Span(NamedTuple):
    """A typed entity span with inclusive token boundaries.

    A named tuple, not a dataclass: `sentence_spans` builds one per span of a
    corpus, and a tuple is built in a fraction of the time.
    """

    entity_type: str
    start: int
    end: int


@dataclass(frozen=True)
class LabeledSequence:
    """One sentence with its label sequence in a declared tagging scheme."""

    tokens: tuple[str, ...]
    labels: tuple[str, ...]
    scheme: str = "BIOES"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if len(self.tokens) != len(self.labels) or not self.tokens:
            raise ValueError("tokens and labels must be equal-length and nonempty")
        for lab in dict.fromkeys(self.labels):
            validate_label(lab, self.scheme)

    def __len__(self) -> int:
        return len(self.tokens)


def validate_label(label: str, scheme: str) -> tuple[str, str]:
    """Split a label into (prefix, entity_type); raises on invalid labels."""
    if label == "O":
        return "O", ""
    prefix, sep, etype = label.partition("-")
    if prefix not in _PREFIXES[scheme] or prefix == "O" or not sep or not etype:
        raise ValueError(f"label {label!r} invalid for scheme {scheme}")
    return prefix, etype


@dataclass
class Corpus:
    """An ordered list of labeled sentences sharing one tagging scheme."""

    examples: list[LabeledSequence]
    scheme: str = "BIOES"
    label_vocab: list[str] = field(default_factory=list)
    token_vocab: list[str] = field(default_factory=list)

    PAD = "<pad>"
    UNK = "<unk>"

    def __post_init__(self):
        for ex in self.examples:
            if ex.scheme != self.scheme:
                raise ValueError("all examples must share the corpus scheme")
        if not self.label_vocab:
            labels = sorted({lab for ex in self.examples for lab in ex.labels})
            if "O" not in labels:
                labels = sorted(labels + ["O"])
            self.label_vocab = labels
        if not self.token_vocab:
            toks = sorted({tok for ex in self.examples for tok in ex.tokens})
            self.token_vocab = [self.PAD, self.UNK] + toks

    def __len__(self) -> int:
        return len(self.examples)

    def convert(self, target: str, warn: bool = True) -> "Corpus":
        """This corpus in `target`; every sentence keeps its entity spans.

        BIOES to BIOES keeps each sentence that is its own conversion, as the
        same object. The others are parsed in one `_span_arrays` pass, which
        logs each repair when `warn`, and rendered in `target`. The label
        vocabulary is carried when no sentence changed.
        """
        if target not in SCHEMES:
            raise ValueError(f"unknown scheme {target!r}")
        examples = list(self.examples)
        as_read = target == self.scheme == "BIOES"
        redo = [
            i
            for i, ex in enumerate(examples)
            if not (as_read and _renders_as_itself(ex.labels))
        ]
        spans = sentence_spans([examples[i].labels for i in redo], self.scheme, warn)
        for i, found in zip(redo, spans):
            ex = examples[i]
            labels = render_labels(len(ex), found, target)
            examples[i] = LabeledSequence(ex.tokens, labels, scheme=target)
        kept = target == self.scheme and not redo
        return Corpus(
            examples,
            scheme=target,
            label_vocab=list(self.label_vocab) if kept else [],
            token_vocab=list(self.token_vocab),
        )


def scheme_of(labels: Iterable[str]) -> str:
    """BIOES if any E-/S- label appears, else BIO."""
    return "BIOES" if any(lab[:2] in ("E-", "S-") for lab in labels) else "BIO"


def read_conll(path: str | Path, scheme: str | None = "BIOES") -> Corpus:
    """Parse a two-column CoNLL file into a corpus in the declared scheme.

    With `scheme=None` the scheme is `scheme_of` the labels in the file's
    last column, read from the same lines that are then parsed.
    """
    path = Path(path)
    examples: list[LabeledSequence] = []
    tokens: list[str] = []
    labels: list[str] = []
    # One string object per distinct token and label of the file: a corpus
    # holds each once, not once per occurrence.
    seen: dict[str, str] = {}
    valid: dict[str, str] = {}  # labels of this file already checked

    def flush():
        if tokens:
            examples.append(
                LabeledSequence(tuple(tokens), tuple(labels), scheme=scheme)
            )
            tokens.clear()
            labels.clear()

    with open_text(path, CorpusFormatError) as fh:
        lines: Iterable[str] = fh
        if scheme is None:
            lines = fh.readlines()
            scheme = scheme_of(p[-1] for p in map(str.split, lines) if len(p) >= 2)
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line:
                flush()
                continue
            cols = line.split()
            if len(cols) != 2:
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected 2 columns (token label), got {len(cols)}: {line!r}"
                )
            token, label = cols
            if label not in valid:
                try:
                    validate_label(label, scheme)
                except ValueError as exc:
                    raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
                valid[label] = label
            tokens.append(seen.setdefault(token, token))
            labels.append(valid[label])
    flush()
    return Corpus(examples, scheme=scheme)


def write_conll(corpus_or_examples: Corpus | Iterable[LabeledSequence], path: str | Path) -> None:
    """Write sentences in the same two-column format read_conll accepts."""
    examples = (
        corpus_or_examples.examples
        if isinstance(corpus_or_examples, Corpus)
        else list(corpus_or_examples)
    )
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            for tok, lab in zip(ex.tokens, ex.labels):
                fh.write(f"{tok} {lab}\n")
            fh.write("\n")


def _renders_as_itself(labels: Sequence[str]) -> bool:
    """Whether valid BIOES `labels` equal render_labels of their parsed spans.

    They do when every span is B-X I-X... E-X or S-X and nothing else
    follows an open B-X or I-X: one pass that carries the open type.
    """
    open_type = None
    for label in labels:
        if label == "O":
            if open_type is not None:
                return False
            continue
        prefix, etype = label[0], label[2:]
        if prefix == "B" or prefix == "S":
            if open_type is not None:
                return False
            if prefix == "B":
                open_type = etype
        elif open_type != etype:
            return False
        elif prefix == "E":
            open_type = None
    return open_type is None


def render_labels(length: int, spans: Iterable[Span], scheme: str) -> tuple[str, ...]:
    """Labels of a `length`-token sentence whose entities are `spans`, others O."""
    labels = ["O"] * length
    for span in spans:
        if span.start == span.end:
            labels[span.start] = (
                f"S-{span.entity_type}" if scheme == "BIOES" else f"B-{span.entity_type}"
            )
            continue
        labels[span.start] = f"B-{span.entity_type}"
        for i in range(span.start + 1, span.end + 1):
            labels[i] = f"I-{span.entity_type}"
        if scheme == "BIOES":
            labels[span.end] = f"E-{span.entity_type}"
    return tuple(labels)


def sentence_spans(
    sequences: Sequence[Sequence[str]], scheme: str, warn: bool = False
) -> list[list[Span]]:
    """Each label sequence's spans in start order, from one `_span_arrays` pass."""
    types: dict[str, int] = {}
    sentence, start, end, typ = _span_arrays(sequences, scheme, types, warn)
    names = list(types)
    out: list[list[Span]] = [[] for _ in sequences]
    for i, s, e, t in zip(sentence.tolist(), start.tolist(), end.tolist(), typ.tolist()):
        out[i].append(Span(names[t], s, e))
    return out


def _span_arrays(
    sequences: Sequence[Sequence[str]],
    scheme: str,
    types: dict[str, int],
    warn: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every span of many label sequences, repaired leniently.

    Returns (sentence, start, end, type) int64 arrays, one entry per span in
    sentence then start order; `start` and `end` are inclusive positions in
    the sentence, and `type` indexes `types`, which is extended with any new
    entity type. Each distinct label is validated once. The repair policy is
    local: position i continues the open span exactly when, in the same
    sentence, label i is I-X or E-X and label i-1 is B-X or I-X. A span starts
    at each non-O position that does not continue and ends where the next
    position does not. So an I-X or E-X with no open X span starts a new
    span (which an E-X also ends), and any other label closes an open span.
    With `warn`, each I-/E- that starts a span is logged as a repair; scoring
    paths leave it off because model output is routinely ill-formed early in
    training.
    """
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    flat = list(chain.from_iterable(sequences))
    index = {label: i for i, label in enumerate(dict.fromkeys(flat))}
    # Per distinct label: its type id (-1 for O), the type it leaves open
    # (B-, I-) and the type it continues (I-, E-); -1 and -2 match nothing.
    typ = np.full(len(index), -1, dtype=np.int64)
    opens = np.full(len(index), -1, dtype=np.int64)
    joins = np.full(len(index), -2, dtype=np.int64)
    for label, i in index.items():
        prefix, etype = validate_label(label, scheme)
        if prefix != "O":
            typ[i] = types.setdefault(etype, len(types))
            if prefix in "BI":
                opens[i] = typ[i]
            if prefix in "IE":
                joins[i] = typ[i]
    codes = np.fromiter(map(index.__getitem__, flat), dtype=np.int64, count=len(flat))
    offsets = np.cumsum(lengths) - lengths
    cont = np.zeros(len(flat) + 1, dtype=bool)  # one past the end never continues
    cont[1 : len(flat)] = joins[codes[1:]] == opens[codes[:-1]]
    cont[offsets] = False  # a sentence's first position continues nothing
    entity = typ[codes] >= 0
    starts = np.flatnonzero(entity & ~cont[:-1])
    ends = np.flatnonzero(entity & ~cont[1:])
    sentence = np.repeat(np.arange(len(lengths)), lengths)[starts]
    start, end = starts - offsets[sentence], ends - offsets[sentence]
    if warn:
        names = list(index)
        for pos, code in zip(start.tolist(), codes[starts].tolist()):
            if joins[code] >= 0:
                logger.warning(
                    "repairing stray %s at position %d: treating as B-%s",
                    names[code], pos, names[code][2:],
                )
    return sentence, start, end, typ[codes[starts]]


def _raise_first_error(
    pred: Sequence[Sequence[str]], gold: Sequence[Sequence[str]], scheme: str
) -> None:
    """Raise the error a sentence-by-sentence scan of pred and gold meets first."""
    for p_labels, g_labels in zip(pred, gold):
        if len(p_labels) != len(g_labels):
            raise ValueError("sentence length mismatch between pred and gold")
        for label in chain(p_labels, g_labels):
            validate_label(label, scheme)


def span_f1(
    pred: Sequence[Sequence[str]],
    gold: Sequence[Sequence[str]],
    scheme: str = "BIOES",
) -> dict[str, float]:
    """Micro-averaged exact span match (type + boundaries).

    Precision and recall use the 0-when-undefined convention; F1 is 0 when
    P + R = 0. `support` counts gold spans. Each side's spans are parsed in
    one `_span_arrays` pass, silently repaired, and matched as int64 keys.
    """
    if len(pred) != len(gold):
        raise ValueError(f"pred has {len(pred)} sentences, gold has {len(gold)}")
    types: dict[str, int] = {}
    try:
        if any(map(int.__ne__, map(len, pred), map(len, gold))):
            raise ValueError("sentence length mismatch between pred and gold")
        p_spans = _span_arrays(pred, scheme, types)
        g_spans = _span_arrays(gold, scheme, types)
    except ValueError:
        _raise_first_error(pred, gold, scheme)  # the error the scan meets first
        raise
    width = max(map(len, gold), default=0)

    def keys(spans):
        sentence, start, end, typ = spans
        return ((sentence * width + start) * width + end) * len(types) + typ

    tp = len(set(keys(p_spans).tolist()).intersection(keys(g_spans).tolist()))
    fp = len(p_spans[0]) - tp
    fn = len(g_spans[0]) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1, "support": tp + fn}


def subsample(corpus: Corpus, fraction: float, seed: int) -> Corpus:
    """Uniform sample without replacement of round(fraction * N) examples.

    Deterministic per seed; kept examples preserve their original order.
    Rounding is half-up so the sample size is exact and predictable.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    n = len(corpus)
    k = int(np.floor(fraction * n + 0.5))
    if k == 0:
        raise ValueError(f"subsample of {n} examples at fraction {fraction} is empty")
    if k == n:
        return Corpus(list(corpus.examples), scheme=corpus.scheme)
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(n, size=k, replace=False))
    return Corpus([corpus.examples[i] for i in keep], scheme=corpus.scheme)
