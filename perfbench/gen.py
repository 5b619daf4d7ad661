"""CoNLL-shaped NER corpus and word vectors for the benchmark.

Everything is drawn from `numpy` generators seeded only by the workload seed,
so the same seed always writes the same files. The shape follows CoNLL-2003 at
about a third of its training-set size:

- sentences of 8 to 24 tokens, uniformly;
- four entity types (PER, LOC, ORG, MISC), 1 to 3 tokens per mention,
  labelled in BIOES;
- ordinary (O) words from a 4000-word lexicon with Zipf frequencies, entity
  tokens from a large per-type lexicon, so the training split has about 16k
  distinct tokens;
- 100-dimensional vectors for the O-word lexicon only. The exhaustive synonym
  search is quadratic in the number of vectors, and covering the whole
  vocabulary would make set-up dominate every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ENTITY_TYPES = ("PER", "LOC", "ORG", "MISC")
MIN_LEN, MAX_LEN = 8, 24
O_LEXICON = 4000
ENTITY_LEXICON = 20000  # per type
MENTION_LENGTHS = (1, 2, 3)
MENTION_LENGTH_P = (0.5, 0.35, 0.15)
MENTIONS_PER_SENTENCE = (0, 1, 2, 3, 4)
MENTIONS_PER_SENTENCE_P = (0.15, 0.3, 0.3, 0.15, 0.1)
SYNONYM_GROUP = 4  # O-words per shared vector direction
STOPWORDS = 20  # the most frequent O-words


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]
    labels: tuple[str, ...]


def _o_word(rank: int) -> str:
    return f"w{rank}"


def _entity_token(entity_type: str, index: int) -> str:
    return f"{entity_type.lower()}{index}"


def _mention_labels(entity_type: str, length: int) -> list[str]:
    if length == 1:
        return [f"S-{entity_type}"]
    return [f"B-{entity_type}"] + [f"I-{entity_type}"] * (length - 2) + [f"E-{entity_type}"]


class _Sampler:
    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        zipf = 1.0 / np.arange(1, O_LEXICON + 1)
        self.o_p = zipf / zipf.sum()

    def sentence(self) -> Sentence:
        rng = self.rng
        length = int(rng.integers(MIN_LEN, MAX_LEN + 1))
        n_mentions = int(rng.choice(MENTIONS_PER_SENTENCE, p=MENTIONS_PER_SENTENCE_P))
        mentions = []
        budget = length
        for _ in range(n_mentions):
            size = int(rng.choice(MENTION_LENGTHS, p=MENTION_LENGTH_P))
            if size > budget - 1:  # keep at least one O-word per sentence
                break
            etype = ENTITY_TYPES[int(rng.integers(len(ENTITY_TYPES)))]
            toks = [_entity_token(etype, int(i)) for i in rng.integers(ENTITY_LEXICON, size=size)]
            mentions.append((toks, _mention_labels(etype, size)))
            budget -= size
        o_words = [_o_word(int(r)) for r in rng.choice(O_LEXICON, size=budget, p=self.o_p)]
        segments = mentions + [([w], ["O"]) for w in o_words]
        tokens: list[str] = []
        labels: list[str] = []
        for k in rng.permutation(len(segments)):
            toks, labs = segments[int(k)]
            tokens.extend(toks)
            labels.extend(labs)
        return Sentence(tuple(tokens), tuple(labels))


def conll_corpus(seed: int, n_train: int, n_dev: int, n_test: int) -> dict[str, list[Sentence]]:
    """Train, dev and test splits drawn from the same lexicons."""
    sampler = _Sampler(np.random.default_rng([seed, 0]))
    return {
        name: [sampler.sentence() for _ in range(count)]
        for name, count in (("train", n_train), ("dev", n_dev), ("test", n_test))
    }


def o_word_vectors(seed: int, dim: int = 100) -> dict[str, np.ndarray]:
    """Unit vectors for the O-word lexicon, in groups sharing a direction."""
    rng = np.random.default_rng([seed, 1])
    vectors = {}
    for start in range(0, O_LEXICON, SYNONYM_GROUP):
        center = rng.normal(size=dim)
        for rank in range(start, min(start + SYNONYM_GROUP, O_LEXICON)):
            v = center + 0.3 * rng.normal(size=dim)
            vectors[_o_word(rank)] = v / np.linalg.norm(v)
    return vectors


def write_conll(sentences: list[Sentence], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in sentences:
            fh.writelines(f"{t} {lab}\n" for t, lab in zip(s.tokens, s.labels))
            fh.write("\n")


def write_vectors(vectors: dict[str, np.ndarray], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word, vec in vectors.items():
            fh.write(word + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")


def write_conll_dataset(
    out_dir: Path, seed: int, n_train: int, n_dev: int, n_test: int
) -> dict[str, Path]:
    """Write train/dev/test CoNLL files, O-word vectors and stop-words."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, sentences in conll_corpus(seed, n_train, n_dev, n_test).items():
        paths[name] = out_dir / f"{name}.conll"
        write_conll(sentences, paths[name])
    paths["vectors"] = out_dir / "vectors.txt"
    write_vectors(o_word_vectors(seed), paths["vectors"])
    paths["stopwords"] = out_dir / "stopwords.txt"
    paths["stopwords"].write_text(
        "".join(_o_word(r) + "\n" for r in range(STOPWORDS)), encoding="utf-8"
    )
    return paths
