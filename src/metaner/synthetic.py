"""Template-generated NER corpora for experiments and acceptance checks.

Sentences come from a small set of templates with PER/LOC/ORG slots filled by
fixed mention pools. The accompanying vector file places synonym groups of
filler words on nearby directions, so the synonym dictionary built from it
recovers the groups, and the stop-word list covers the function words.
The task is deliberately easy: surface forms identify entity types, so a
small BiLSTM-CRF can reach high span F1 within seconds of CPU training.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .corpus import Corpus, LabeledSequence, Span, render_labels
from .vectors import write_vector_file

MENTIONS: dict[str, list[tuple[str, ...]]] = {
    "PER": [
        ("john",),
        ("mary",),
        ("susan",),
        ("peter",),
        ("alice",),
        ("bob",),
        ("john", "smith"),
        ("mary", "jones"),
        ("david", "kim"),
    ],
    "LOC": [
        ("paris",),
        ("rome",),
        ("berlin",),
        ("london",),
        ("oslo",),
        ("tokyo",),
        ("new", "york"),
    ],
    "ORG": [
        ("acme",),
        ("globex",),
        ("initech",),
        ("hooli",),
        ("umbrella",),
        ("stark", "industries"),
    ],
}

# Entity slots in caps; every other word is an O token.
TEMPLATES: list[str] = [
    "PER visits LOC today",
    "PER works at ORG",
    "ORG hires PER",
    "ORG opened an office in LOC",
    "PER travelled to LOC yesterday",
    "LOC welcomes PER",
    "ORG and ORG signed a deal",
    "PER leads ORG",
    "PER met PER in LOC",
    "ORG moved its office to LOC",
]

# Interchangeable filler words; members share a direction in the vector file.
SYNONYM_GROUPS: list[list[str]] = [
    ["visits", "tours", "sees"],
    ["hires", "recruits", "employs"],
    ["opened", "launched", "started"],
    ["works", "serves"],
    ["welcomes", "greets"],
    ["signed", "sealed"],
    ["leads", "runs", "heads"],
    ["deal", "pact", "agreement"],
    ["office", "branch", "bureau"],
    ["travelled", "journeyed", "flew"],
    ["met", "greeted"],
    ["moved", "relocated"],
    ["today", "tonight"],
    ["yesterday", "recently"],
]

STOPWORDS: list[str] = ["a", "an", "and", "at", "in", "its", "to", "the"]


def _fill(template: str, rng: np.random.Generator) -> LabeledSequence:
    tokens: list[str] = []
    spans: list[Span] = []
    for word in template.split():
        if word in MENTIONS:
            pool = MENTIONS[word]
            mention = pool[int(rng.integers(len(pool)))]
            spans.append(Span(word, len(tokens), len(tokens) + len(mention) - 1))
            tokens.extend(mention)
        else:
            group = next((g for g in SYNONYM_GROUPS if word in g), None)
            if group is not None:
                word = group[int(rng.integers(len(group)))]
            tokens.append(word)
    labels = render_labels(len(tokens), spans, "BIOES")
    return LabeledSequence(tuple(tokens), labels, scheme="BIOES")


def synthetic_corpus(n_sentences: int, seed: int = 0) -> Corpus:
    rng = np.random.default_rng(seed)
    examples = [
        _fill(TEMPLATES[int(rng.integers(len(TEMPLATES)))], rng)
        for _ in range(n_sentences)
    ]
    return Corpus(examples)


def synthetic_vectors(dim: int = 12, seed: int = 0) -> dict[str, np.ndarray]:
    """Vectors for the full corpus vocabulary.

    Each synonym group shares a random unit direction plus small noise, so
    group members are mutual nearest neighbors by cosine. All other words
    (entity tokens, stop-words) get independent random directions. Norms are
    exact sums (`math.fsum`), not BLAS dots, so the vectors have the same
    bits whichever kernel OpenBLAS picks for the CPU.
    """
    rng = np.random.default_rng(seed)
    vectors: dict[str, np.ndarray] = {}

    def normalized(v: np.ndarray) -> np.ndarray:
        return v / math.sqrt(math.fsum(v * v))

    def unit() -> np.ndarray:
        return normalized(rng.normal(size=dim))

    for group in SYNONYM_GROUPS:
        center = unit()
        for word in group:
            vectors[word] = normalized(center + 0.05 * rng.normal(size=dim))
    for pool in MENTIONS.values():
        for mention in pool:
            for word in mention:
                if word not in vectors:
                    vectors[word] = unit()
    for word in STOPWORDS:
        if word not in vectors:
            vectors[word] = unit()
    return vectors


def write_synthetic_dataset(
    out_dir: str | Path,
    train: int = 200,
    dev: int = 50,
    test: int = 50,
    seed: int = 0,
    dim: int = 12,
) -> dict[str, Path]:
    """Write train/dev/test CoNLL files plus vectors and stop-words."""
    from .corpus import write_conll

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, count, offset in (("train", train, 0), ("dev", dev, 1), ("test", test, 2)):
        corpus = synthetic_corpus(count, seed=seed + offset)
        paths[name] = out / f"{name}.conll"
        write_conll(corpus, paths[name])
    paths["vectors"] = out / "vectors.txt"
    write_vector_file(paths["vectors"], synthetic_vectors(dim=dim, seed=seed))
    paths["stopwords"] = out / "stopwords.txt"
    paths["stopwords"].write_text("\n".join(STOPWORDS) + "\n", encoding="utf-8")
    return paths
