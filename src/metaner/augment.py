"""Self-augmentation for sequence labeling: token substitution and mixup.

Token substitution edits a sentence in place: gold entity spans are swapped
for same-type mentions from an entity dictionary, and ordinary words are
swapped for embedding-space synonyms. Mixup never materializes tokens at all;
it pairs two training sentences and interpolates their representations inside
the model, with the pair's losses combined by the same coefficient.

`TaggerModel.batch_loss` runs a batch of plain sentences and mixup pairs
(`MixedExample`, defined next to it and re-exported here) as lanes of one
graph: a pair is one lane mixed from its two sentences' embedding rows, or two
BiLSTM lanes whose states mix into one, and its lane scores both gold paths.
`mixup_loss` is the one-pair case.

Both paths record enough provenance (which sites changed, which pair was
mixed) for downstream weighting and inspection.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .corpus import (
    Corpus,
    LabeledSequence,
    Span,
    render_labels,
    sentence_spans,
)
from .tagger import MIX_LAYERS, LaneSum, MixedExample, TaggerModel
from .vectors import read_vector_file

logger = logging.getLogger(__name__)

# Retry budgets for the forced-substitution loop. Small and fixed: a sentence
# that cannot change in this many attempts has no usable site.
_SUBSTITUTE_RETRIES = 25
_GENERATE_REDRAWS = 50

# Rows of the similarity matrix that `build_synonym_dict` holds at once. Small
# and fixed: a block is this many rows of V floats, its candidate mask this
# many rows of V bytes, and at 4000 words 512- or 1024-row blocks were no faster.
_SYNONYM_BLOCK = 256
# Column groups per synonym wanted; their maxima bound each row's k-th best
# similarity. With 16k groups, two of a row's k best share a group, which
# loosens the bound and lets more candidates through, about k/32 of the time.
_SYNONYM_GROUPS_PER_K = 16


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
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
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

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for etype, pool in self.mentions.items():
                cells = [etype] + [" ".join(m) for m in pool]
                fh.write("\t".join(cells) + "\n")


@dataclass
class SynonymDict:
    """word -> synonyms ranked by descending cosine similarity."""

    synonyms: dict[str, list[tuple[str, float]]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.synonyms)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for word, pool in self.synonyms.items():
                cells = [word] + [f"{syn} {repr(score)}" for syn, score in pool]
                fh.write("\t".join(cells) + "\n")


def build_entity_dict(
    corpus: Corpus, spans: Sequence[Sequence[Span]] | None = None
) -> EntityDict:
    """Collect every gold mention under its entity type, first-seen order.

    `spans` are each sentence's spans, as `sentence_spans` parses them; when
    not given they are parsed here, and each stray I-/E- repair is logged.
    """
    if spans is None:
        spans = sentence_spans([ex.labels for ex in corpus.examples], corpus.scheme, warn=True)
    found: dict[str, dict[tuple[str, ...], None]] = {}
    for ex, sentence in zip(corpus.examples, spans):
        for span in sentence:
            found.setdefault(span.entity_type, {})[ex.tokens[span.start : span.end + 1]] = None
    if not found:
        logger.warning("corpus has no entity spans; entity substitution disabled")
    return EntityDict({etype: list(pool) for etype, pool in found.items()})


def build_synonym_dict(
    vectors: dict[str, np.ndarray] | str | Path,
    k: int,
    stopwords: Iterable[str] = (),
) -> SynonymDict:
    """Top-k cosine neighbors for every word, by exact search in row blocks.

    The similarities are taken `_SYNONYM_BLOCK` rows at a time, each row
    against every word, so only a block is held, never the V x V matrix.
    A block's synonyms are chosen all at once. The columns fall into at least
    k groups, and the k-th largest of a row's group maxima bounds its k-th
    largest similarity from below, so every word scoring at least that much
    is a candidate, ties included. One `lexsort` ranks the block's candidates
    by row, then descending similarity, then vector-file order, and each row
    keeps its first k. The result equals a stable sort of each whole row, cut
    to k.

    Stop-words are dropped from both sides of the mapping, and words with a
    zero vector are dropped because their cosine is undefined.
    """
    if not isinstance(vectors, dict):
        vectors = read_vector_file(vectors)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    stop = set(stopwords)
    words = [w for w in vectors if w not in stop]
    if not words:
        return SynonymDict({})
    mat = np.stack([vectors[w] for w in words])
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    zero = norms[:, 0] == 0.0
    for w in itertools.compress(words, zero):
        logger.warning("dropping %r from synonym dictionary: zero vector", w)
    words = list(itertools.compress(words, ~zero))
    if len(words) < 2:
        return SynonymDict({})
    mat = mat[~zero] / norms[~zero]
    n = len(words)
    top = min(k, n - 1)
    # Group starts: at least `top` groups, so the bound below exists.
    groups = np.arange(0, n, max(1, n // (_SYNONYM_GROUPS_PER_K * top)))
    chosen = np.empty((n, top), dtype=np.intp)
    scores = np.empty((n, top))
    # One buffer serves every block: a fresh block per iteration would be
    # allocated before the previous one is freed.
    buf = np.empty((min(_SYNONYM_BLOCK, n), n))
    for lo in range(0, n, _SYNONYM_BLOCK):
        block = mat[lo : lo + _SYNONYM_BLOCK]
        sims = np.matmul(block, mat.T, out=buf[: len(block)])
        rows = np.arange(len(sims))
        sims[rows, lo + rows] = -np.inf
        maxima = np.maximum.reduceat(sims, groups, axis=1)
        bound = np.partition(maxima, len(groups) - top, axis=1)[:, len(groups) - top]
        cand = np.flatnonzero(sims >= bound[:, None])
        row, col = np.divmod(cand, n)
        score = sims.ravel()[cand]
        ranked = np.lexsort((col, -score, row))
        counts = np.bincount(row, minlength=len(sims))
        best = ranked[(np.cumsum(counts) - counts)[:, None] + np.arange(top)]
        chosen[lo : lo + len(sims)] = col[best]
        scores[lo : lo + len(sims)] = score[best]
    pairs = list(zip([words[j] for j in chosen.ravel().tolist()], scores.ravel().tolist()))
    return SynonymDict({w: pairs[i * top : (i + 1) * top] for i, w in enumerate(words)})


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


PseudoExample = Union[Substituted, MixedExample]


def token_substitute(
    ex: LabeledSequence,
    edict: EntityDict,
    sdict: SynonymDict,
    cfg: AugConfig,
    rng: np.random.Generator,
    spans: Iterable[Span],
) -> Substituted | None:
    """Substitute entity mentions and ordinary words in one sentence.

    `spans` are the sentence's entity spans, as `sentence_spans` parses them.
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
    starts = {s.start: s for s in spans}
    source, source_labels, n = ex.tokens, ex.labels, len(ex.tokens)
    mentions, synonyms = edict.mentions, sdict.synonyms
    p_entity, p_synonym = cfg.gamma * cfg.p_sub, (1.0 - cfg.gamma) * cfg.p_sub
    for _ in range(_SUBSTITUTE_RETRIES):
        tokens: list[str] = []
        labels: list[str] = []
        records: list[Replacement] = []
        i = 0
        while i < n:
            span = starts.get(i)
            if span is not None:
                surface = tuple(source[span.start : span.end + 1])
                pool = mentions.get(span.entity_type)
                mention = surface
                if pool and rng.random() < p_entity:
                    mention = pool[int(rng.integers(len(pool)))]
                    records.append(
                        Replacement("entity", span.start, span.end, surface, mention)
                    )
                tokens.extend(mention)
                whole = Span(span.entity_type, 0, len(mention) - 1)
                labels.extend(render_labels(len(mention), [whole], "BIOES"))
                i = span.end + 1
                continue
            token = source[i]
            pool = synonyms.get(token) if source_labels[i] == "O" else None
            if pool and rng.random() < p_synonym:
                synonym = pool[int(rng.integers(len(pool)))][0]
                records.append(Replacement("synonym", i, i, (token,), (synonym,)))
                tokens.append(synonym)
            else:
                tokens.append(token)
            labels.append(source_labels[i])
            i += 1
        if tuple(tokens) != source:
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


def mixup_loss(
    model: TaggerModel,
    mx: MixedExample,
    mix_layer: str = "embedding",
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> LaneSum:
    """Composite CRF loss of a mixed pair: lam * L(mix, Y1) + (1-lam) * L(mix, Y2).

    Both label sequences are scored against one shared emission/partition
    computation on the mixed representation, so the composite is the exact
    lam-combination of the two single-label losses. It is the one-pair case
    of `TaggerModel.batch_loss`.
    """
    return model.batch_loss([mx], train, rng, mix_layer)


# --- batch generation --------------------------------------------------------------


def generate_augmented_set(
    corpus: Corpus,
    cfg: AugConfig,
    seed: int,
    edict: EntityDict | None = None,
    sdict: SynonymDict | None = None,
    use_ts: bool = True,
    use_mixup: bool = False,
    spans: Sequence[Sequence[Span]] | None = None,
) -> list[PseudoExample]:
    """Produce times * |corpus| pseudo examples, split evenly across methods.

    Each output slot draws its own Philox stream: the run seed is the key,
    and the slot number sits in a high word of the counter. So slots never
    share a block of output, different seeds are different keys, and the
    whole set is reproducible (and could be filled in parallel).
    `_slot_generators` resets one generator to each slot's counter in turn.
    `spans` are as for `build_entity_dict`, which can share them; when not
    given they are parsed here, with no repair logged.
    """
    total = cfg.times * len(corpus)
    if total == 0:
        return []
    if not use_ts and not use_mixup:
        raise ValueError("no augmentation method enabled")
    if use_ts:
        edict = edict if edict is not None else EntityDict({})
        sdict = sdict if sdict is not None else SynonymDict({})
        if spans is None:
            spans = sentence_spans([ex.labels for ex in corpus.examples], corpus.scheme)
    if use_ts and use_mixup:
        ts_slots = total - total // 2
    elif use_ts:
        ts_slots = total
    else:
        ts_slots = 0

    out: list[PseudoExample] = []
    for slot, slot_rng in enumerate(_slot_generators(seed, total)):
        if slot < ts_slots:
            produced = None
            for _ in range(_GENERATE_REDRAWS):
                idx = int(slot_rng.integers(len(corpus)))
                produced = token_substitute(
                    corpus.examples[idx], edict, sdict, cfg, slot_rng, spans[idx]
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


def _slot_generators(seed: int, total: int) -> Iterator[np.random.Generator]:
    """The generator of each slot, in order: the stream of
    `np.random.Generator(np.random.Philox(seed, counter=[0, 0, slot, 0]))`.

    Philox is counter-based: its key comes from `SeedSequence(seed)`, and
    each block of output is the key's cipher of the counter. Philox counts
    up from word 0, so a slot held in word 2 starts 2**128 blocks away from
    the next slot. One generator is reset to each slot's counter in turn,
    with an empty buffer, so draw from it before taking the next.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    bit_generator = np.random.Philox(seed)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state  # a fresh one: empty buffer, no half word
    for slot in range(total):
        state["state"]["counter"] = [0, 0, slot, 0]
        bit_generator.state = state
        yield rng
