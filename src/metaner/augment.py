"""Self-augmentation for sequence labeling: token substitution and mixup.

Token substitution edits a sentence in place: gold entity spans are swapped
for same-type mentions from an entity dictionary, and ordinary words are
swapped for embedding-space synonyms. Mixup never materializes tokens at all;
it pairs two training sentences and interpolates their representations inside
the model, with the pair's losses combined by the same coefficient.

Both paths record enough provenance (which sites changed, which pair was
mixed) for downstream weighting and inspection.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Corpus, LabeledSequence, extract_spans
from .tagger import TaggerModel, crf_log_partition, crf_score
from .vectors import read_vector_file

logger = logging.getLogger(__name__)

MIX_LAYERS = ("embedding", "encoder")

# Retry budgets for the forced-substitution loop. Small and fixed: a sentence
# that cannot change in this many attempts has no usable site.
_SUBSTITUTE_RETRIES = 25
_GENERATE_REDRAWS = 50


@dataclass
class AugConfig:
    """Knobs for both augmentation families.

    gamma splits substitution operations between entity mentions and ordinary
    words; p_sub is the per-site firing probability, so an entity site fires
    at gamma * p_sub and a synonym site at (1 - gamma) * p_sub.
    """

    gamma: float = 0.2
    p_sub: float = 0.3
    k: int = 5
    times: int = 1
    alpha: float = 7.0
    mix_layer: str = "embedding"

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.p_sub <= 1.0:
            raise ValueError(f"p_sub must be in [0, 1], got {self.p_sub}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.times < 0:
            raise ValueError(f"times must be >= 0, got {self.times}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.mix_layer not in MIX_LAYERS:
            raise ValueError(
                f"mix_layer must be one of {MIX_LAYERS}, got {self.mix_layer!r}"
            )


# --- dictionaries ---------------------------------------------------------------


@dataclass
class EntityDict:
    """entity_type -> deduplicated mentions, each a token tuple."""

    mentions: dict[str, list[tuple[str, ...]]] = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(len(v) for v in self.mentions.values())

    def sample(self, entity_type: str, rng: np.random.Generator) -> tuple[str, ...] | None:
        pool = self.mentions.get(entity_type)
        if not pool:
            return None
        return pool[int(rng.integers(len(pool)))]

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for etype, pool in self.mentions.items():
                cells = [etype] + [" ".join(m) for m in pool]
                fh.write("\t".join(cells) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "EntityDict":
        mentions: dict[str, list[tuple[str, ...]]] = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                etype, *cells = line.split("\t")
                mentions[etype] = [tuple(c.split(" ")) for c in cells]
        return cls(mentions)


@dataclass
class SynonymDict:
    """word -> synonyms ranked by descending cosine similarity."""

    synonyms: dict[str, list[tuple[str, float]]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.synonyms)

    def __contains__(self, word: str) -> bool:
        return bool(self.synonyms.get(word))

    def sample(self, word: str, rng: np.random.Generator) -> str | None:
        pool = self.synonyms.get(word)
        if not pool:
            return None
        return pool[int(rng.integers(len(pool)))][0]

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for word, pool in self.synonyms.items():
                cells = [word] + [f"{syn} {repr(score)}" for syn, score in pool]
                fh.write("\t".join(cells) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "SynonymDict":
        synonyms: dict[str, list[tuple[str, float]]] = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                word, *cells = line.split("\t")
                pool = []
                for cell in cells:
                    syn, score = cell.rsplit(" ", 1)
                    pool.append((syn, float(score)))
                synonyms[word] = pool
        return cls(synonyms)


def build_entity_dict(corpus: Corpus) -> EntityDict:
    """Collect every gold mention under its entity type, first-seen order."""
    mentions: dict[str, list[tuple[str, ...]]] = {}
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for ex in corpus.examples:
        for span in sorted(extract_spans(ex), key=lambda s: s.start):
            surface = tuple(ex.tokens[span.start : span.end + 1])
            key = (span.entity_type, surface)
            if key in seen:
                continue
            seen.add(key)
            mentions.setdefault(span.entity_type, []).append(surface)
    if not mentions:
        logger.warning("corpus has no entity spans; entity substitution disabled")
    return EntityDict(mentions)


def build_synonym_dict(
    vectors: dict[str, np.ndarray] | str | Path,
    k: int,
    stopwords: Iterable[str] = (),
) -> SynonymDict:
    """Top-k cosine neighbors for every word, by exhaustive exact search.

    Stop-words are dropped from both sides of the mapping, and words with a
    zero vector are dropped because their cosine is undefined.
    """
    if not isinstance(vectors, dict):
        vectors = read_vector_file(vectors)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    stop = set(stopwords)
    words = [w for w in vectors if w not in stop]
    kept = []
    for w in words:
        if np.linalg.norm(vectors[w]) == 0.0:
            logger.warning("dropping %r from synonym dictionary: zero vector", w)
        else:
            kept.append(w)
    words = kept
    if len(words) < 2:
        return SynonymDict({})
    mat = np.stack([vectors[w] for w in words])
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = mat @ mat.T
    np.fill_diagonal(sims, -np.inf)
    out: dict[str, list[tuple[str, float]]] = {}
    top = min(k, len(words) - 1)
    for i, w in enumerate(words):
        order = np.argsort(-sims[i], kind="stable")[:top]
        out[w] = [(words[j], float(sims[i, j])) for j in order]
    return SynonymDict(out)


# --- token substitution -----------------------------------------------------------


@dataclass(frozen=True)
class Replacement:
    """One substitution site: which source positions changed and to what."""

    kind: str  # "entity" or "synonym"
    start: int  # position span in the source sentence, end inclusive
    end: int
    original: tuple[str, ...]
    replacement: tuple[str, ...]


@dataclass(frozen=True)
class Substituted:
    example: LabeledSequence
    replacements: tuple[Replacement, ...]
    source_index: int = -1


@dataclass(frozen=True)
class MixedExample:
    """A sampled mixup pair; the mixed input exists only as representations."""

    first: LabeledSequence
    second: LabeledSequence
    lam: float
    first_index: int = -1
    second_index: int = -1

    def __post_init__(self):
        if not (np.isfinite(self.lam) and 0.0 <= self.lam <= 1.0):
            raise ValueError(f"lambda must be finite in [0, 1], got {self.lam}")

    @property
    def length(self) -> int:
        return max(len(self.first), len(self.second))

    def _padded(self, labels: tuple[str, ...]) -> tuple[str, ...]:
        return labels + ("O",) * (self.length - len(labels))

    def labels_first(self) -> tuple[str, ...]:
        return self._padded(self.first.labels)

    def labels_second(self) -> tuple[str, ...]:
        return self._padded(self.second.labels)


PseudoExample = Union[Substituted, MixedExample]


def _span_labels(entity_type: str, length: int) -> list[str]:
    if length == 1:
        return [f"S-{entity_type}"]
    return (
        [f"B-{entity_type}"]
        + [f"I-{entity_type}"] * (length - 2)
        + [f"E-{entity_type}"]
    )


def token_substitute(
    ex: LabeledSequence,
    edict: EntityDict,
    sdict: SynonymDict,
    cfg: AugConfig,
    rng: np.random.Generator,
) -> Substituted | None:
    """Substitute entity mentions and ordinary words in one sentence.

    Walks the sentence left to right. Each entity span backed by the entity
    dictionary fires with probability gamma * p_sub and is replaced by a
    uniformly sampled same-type mention (labels re-rendered for the new
    length). Each O token present in the synonym dictionary fires with
    probability (1 - gamma) * p_sub. Coin flips are redrawn until the output
    differs from the input; returns None when the retry budget runs out,
    which signals the sentence has no usable site.
    """
    if ex.scheme != "BIOES":
        raise ValueError(f"token substitution expects BIOES input, got {ex.scheme}")
    spans = {s.start: s for s in extract_spans(ex)}
    for _ in range(_SUBSTITUTE_RETRIES):
        tokens: list[str] = []
        labels: list[str] = []
        records: list[Replacement] = []
        i = 0
        while i < len(ex):
            span = spans.get(i)
            if span is not None:
                surface = tuple(ex.tokens[span.start : span.end + 1])
                pool = edict.mentions.get(span.entity_type)
                mention = surface
                if pool and rng.random() < cfg.gamma * cfg.p_sub:
                    mention = pool[int(rng.integers(len(pool)))]
                    records.append(
                        Replacement("entity", span.start, span.end, surface, mention)
                    )
                tokens.extend(mention)
                labels.extend(_span_labels(span.entity_type, len(mention)))
                i = span.end + 1
                continue
            token = ex.tokens[i]
            if (
                ex.labels[i] == "O"
                and token in sdict
                and rng.random() < (1.0 - cfg.gamma) * cfg.p_sub
            ):
                synonym = sdict.sample(token, rng)
                records.append(Replacement("synonym", i, i, (token,), (synonym,)))
                tokens.append(synonym)
            else:
                tokens.append(token)
            labels.append(ex.labels[i])
            i += 1
        if tuple(tokens) != ex.tokens:
            out = LabeledSequence(tuple(tokens), tuple(labels), scheme="BIOES")
            return Substituted(out, tuple(records))
    return None


# --- mixup ----------------------------------------------------------------------


def sample_mixup_pair(
    corpus: Corpus, cfg: AugConfig, rng: np.random.Generator
) -> MixedExample:
    """Uniformly sample two distinct examples and a Beta(alpha, alpha) weight."""
    n = len(corpus)
    if n < 2:
        raise ValueError("mixup needs at least 2 examples to form a pair")
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    if j >= i:
        j += 1
    lam = float(rng.beta(cfg.alpha, cfg.alpha))
    return MixedExample(corpus.examples[i], corpus.examples[j], lam, i, j)


def mix_embeddings(e1: Tensor, e2: Tensor, lam: float, n: int) -> Tensor:
    """Positionwise convex combination, zero-padding both inputs to n rows."""
    if e1.data.ndim != 2 or e2.data.ndim != 2 or e1.shape[1] != e2.shape[1]:
        raise ValueError(
            f"mix inputs must be (n, d) with equal d, got {e1.shape} and {e2.shape}"
        )
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    if n < max(e1.shape[0], e2.shape[0]):
        raise ValueError("mix length shorter than an input sequence")
    return ad.add(
        ad.scale(ad.pad_rows(e1, n), lam), ad.scale(ad.pad_rows(e2, n), 1.0 - lam)
    )


def mixup_loss(
    model: TaggerModel,
    mx: MixedExample,
    mix_layer: str = "embedding",
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Composite CRF loss of a mixed pair: lam * L(mix, Y1) + (1-lam) * L(mix, Y2).

    Both label sequences are scored against one shared emission/partition
    computation on the mixed representation, so the composite is the exact
    lam-combination of the two single-label losses.
    """
    if mix_layer not in MIX_LAYERS:
        raise ValueError(f"mix_layer must be one of {MIX_LAYERS}, got {mix_layer!r}")
    n = mx.length
    if mix_layer == "embedding":
        e1 = model.lookup_embeddings(mx.first.tokens)
        e2 = model.lookup_embeddings(mx.second.tokens)
        mixed = mix_embeddings(e1, e2, mx.lam, n)
        if train:
            mixed = model.dropout(mixed, rng)
        states = model.encode(mixed, train, rng)
    else:
        h1 = model.encode_states(model.embed(mx.first.tokens, train, rng))
        h2 = model.encode_states(model.embed(mx.second.tokens, train, rng))
        states = mix_embeddings(h1, h2, mx.lam, n)
        if train:
            states = model.dropout(states, rng)
    o = model.emissions(states)
    t = model.transitions()
    log_z = crf_log_partition(o, t)
    s1 = crf_score(o, t, model.label_indices(mx.labels_first()))
    s2 = crf_score(o, t, model.label_indices(mx.labels_second()))
    return ad.sub(log_z, ad.add(ad.scale(s1, mx.lam), ad.scale(s2, 1.0 - mx.lam)))


# --- batch generation --------------------------------------------------------------


def generate_augmented_set(
    corpus: Corpus,
    cfg: AugConfig,
    seed: int,
    edict: EntityDict | None = None,
    sdict: SynonymDict | None = None,
    use_ts: bool = True,
    use_mixup: bool = False,
) -> list[PseudoExample]:
    """Produce times * |corpus| pseudo examples, split evenly across methods.

    Each output slot draws from its own generator seeded with
    SeedSequence([seed, slot]), so slots are independent of each other and
    across seeds, and the whole set is reproducible (and could be filled in
    parallel).
    """
    total = cfg.times * len(corpus)
    if total == 0:
        return []
    if not use_ts and not use_mixup:
        raise ValueError("no augmentation method enabled")
    if use_ts:
        edict = edict if edict is not None else EntityDict({})
        sdict = sdict if sdict is not None else SynonymDict({})
    if use_ts and use_mixup:
        ts_slots = total - total // 2
    elif use_ts:
        ts_slots = total
    else:
        ts_slots = 0

    out: list[PseudoExample] = []
    for slot in range(total):
        slot_rng = np.random.default_rng(np.random.SeedSequence([seed, slot]))
        if slot < ts_slots:
            produced = None
            for _ in range(_GENERATE_REDRAWS):
                idx = int(slot_rng.integers(len(corpus)))
                produced = token_substitute(
                    corpus.examples[idx], edict, sdict, cfg, slot_rng
                )
                if produced is not None:
                    produced = replace(produced, source_index=idx)
                    break
            if produced is None:
                raise RuntimeError(
                    "token substitution could not change any sampled sentence; "
                    "are the entity and synonym dictionaries empty?"
                )
            out.append(produced)
        else:
            out.append(sample_mixup_pair(corpus, cfg, slot_rng))
    return out
