"""BiLSTM-CRF sequence tagger over the autodiff core.

The encoder is a trainable embedding table (optionally initialized from a
pretrained word-vector file) followed by a single-layer BiLSTM. A linear
projection produces per-position label scores; a transition matrix with a
dedicated START row scores adjacent label pairs. Sequence score:

    s(Y|X) = sum_i ( T[y_{i-1}, y_i] + o_i[y_i] ),   y_0 = START

and the training loss is the negative log-likelihood with the partition
computed by the forward algorithm. There is no terminal transition: the sum
ends at position n.

Dropout sits at the BiLSTM input and output, realized as explicit masks
sampled per forward pass, so gradient checks can freeze randomness by
re-seeding the generator.

A batch of sentences travels as packed rows, the sentences' rows concatenated,
plus one `Lanes` that the BiLSTM, both CRF nodes and Viterbi share. It lays
the sentences out time-major, sorted longest first, so the sentences still
running at a timestep are a prefix of the lanes and each step is one slice,
with no padding and no masks; and it keeps the example that owns each row,
which the parameter gradients carry (see `autodiff`). One sentence
(`lanes=None`) is the one-lane case of the same code.

`batch_loss` is the one training forward: it takes plain sentences and mixup
pairs (`MixedExample`), looks the batch up once, mixes each pair's rows into
one lane with `autodiff.mix_rows`, draws one dropout mask per layer over the
batch, and runs one BiLSTM node and one CRF partition node.

Decoding builds no graph. `sentence_paths` runs chunks of consecutive
sentences, about 512 rows each, through the BiLSTM recursion the training
node uses and then one packed Viterbi, on one `Lanes` per chunk; `decode`
labels one sentence. A sentence's states are the same bits in any chunk, but
one product over a chunk's states rounds some rows unlike the sentence's own
product, so each sentence's emissions are its own product: emissions and
labels are those of decoding the sentence alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor, _logsumexp_stable
from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_checkpoint_into,
    save_checkpoint,
)
from .corpus import Corpus, LabeledSequence, validate_label

_LSTM_PARAMS = [f"lstm.{d}.{name}" for d in ("fw", "bw") for name in ("Wx", "Wh", "b")]
_DECODE_ROWS = 512  # packed rows per decode chunk of `TaggerModel.sentence_paths`
MIX_LAYERS = ("embedding", "encoder")  # where `TaggerModel.batch_loss` mixes a pair


@dataclass
class ModelConfig:
    emb_dim: int = 100
    hidden: int = 100
    dropout: float = 0.5
    lowercase: bool = False

    def __post_init__(self):
        for name in ("emb_dim", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.dropout < 1:  # NaN fails too
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


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


class EmbeddingTable:
    """Vocabulary-indexed embedding matrix with PAD and UNK rows.

    Row 0 is PAD: all-zero and never looked up, so it stays zero under
    AdamW (zero gradient, decay of zero). Row 1 is UNK for out-of-vocabulary
    tokens.
    """

    PAD_INDEX = 0
    UNK_INDEX = 1

    def __init__(self, vocab: Sequence[str], lowercase: bool = False):
        self.vocab = list(vocab)
        self.lowercase = lowercase
        self._index = {tok: i for i, tok in enumerate(self.vocab)}

    def index(self, token: str) -> int:
        if self.lowercase:
            token = token.lower()
        return self._index.get(token, self.UNK_INDEX)

    def indices(self, tokens: Sequence[str]) -> list[int]:
        return [self.index(t) for t in tokens]

    def init_matrix(
        self,
        dim: int,
        rng: np.random.Generator,
        pretrained: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        mat = rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(self.vocab), dim))
        mat[self.PAD_INDEX] = 0.0
        if pretrained:
            for i, tok in enumerate(self.vocab):
                if i == self.PAD_INDEX:
                    continue
                vec = pretrained.get(tok)
                if vec is not None:
                    if vec.size != dim:
                        raise ValueError(
                            f"pretrained vectors have dim {vec.size}, model expects {dim}"
                        )
                    mat[i] = vec
        return mat


def _lstm_direction(
    store: ParamStore, prefix: str, emb_dim: int, hidden: int, rng: np.random.Generator
) -> None:
    k = 1.0 / np.sqrt(hidden)
    store.add(f"{prefix}.Wx", rng.uniform(-k, k, size=(4 * hidden, emb_dim)))
    store.add(f"{prefix}.Wh", rng.uniform(-k, k, size=(4 * hidden, hidden)))
    bias = np.zeros(4 * hidden)
    bias[hidden : 2 * hidden] = 1.0  # forget-gate bias
    store.add(f"{prefix}.b", bias)


class TaggerModel:
    """Parameter bundle plus the forward paths used for training and decoding."""

    def __init__(
        self,
        table: EmbeddingTable,
        label_vocab: Sequence[str],
        config: ModelConfig,
        params: ParamStore,
    ):
        self.table = table
        self.label_vocab = list(label_vocab)
        self.label_index = {lab: i for i, lab in enumerate(self.label_vocab)}
        self.config = config
        self.params = params
        self.num_labels = len(self.label_vocab)
        self.start_index = self.num_labels  # START row of the transition matrix

    @classmethod
    def build(
        cls,
        corpus: Corpus,
        config: ModelConfig,
        seed: int = 0,
        vectors: dict[str, np.ndarray] | None = None,
    ) -> "TaggerModel":
        """A fresh model; the embedding rows of words in `vectors` start from them."""
        rng = np.random.default_rng(seed)
        vocab = list(corpus.token_vocab)
        if config.lowercase:
            lowered = sorted({t.lower() for t in vocab[2:]})
            vocab = vocab[:2] + lowered
        table = EmbeddingTable(vocab, lowercase=config.lowercase)
        if vectors and config.lowercase:
            vectors = {w.lower(): v for w, v in vectors.items()}

        store = ParamStore()
        store.add("embed.table", table.init_matrix(config.emb_dim, rng, vectors))
        _lstm_direction(store, "lstm.fw", config.emb_dim, config.hidden, rng)
        _lstm_direction(store, "lstm.bw", config.emb_dim, config.hidden, rng)
        num_labels = len(corpus.label_vocab)
        glorot = np.sqrt(6.0 / (2 * config.hidden + num_labels))
        store.add(
            "crf.W", rng.uniform(-glorot, glorot, size=(2 * config.hidden, num_labels))
        )
        store.add("crf.b", np.zeros(num_labels))
        store.add("crf.T", np.zeros((num_labels + 1, num_labels)))
        return cls(table, corpus.label_vocab, config, store)

    # --- forward paths ---------------------------------------------------

    def lookup_embeddings(
        self, tokens: Sequence[str], owners: np.ndarray | None = None
    ) -> Tensor:
        """Raw embedding rows, one per token, before any dropout.

        Token k belongs to example `owners[k]` (None: all to one example),
        and its gradient row carries that index; `emissions` takes `owners`
        the same way, and the BiLSTM and CRF read them from their `Lanes`.
        """
        return ad.embed_rows(
            self.params["embed.table"], self.table.indices(tokens), owners
        )

    def dropout(self, x: Tensor, rng: np.random.Generator) -> Tensor:
        """Inverted dropout at the configured rate; BiLSTM inputs and outputs."""
        rate = self.config.dropout
        if rate <= 0.0:
            return x
        keep = 1.0 - rate
        mask = (rng.random(x.shape) < keep) / keep
        return ad.scale(x, mask)

    def encode_states(self, emb: Tensor, lanes: Lanes | None = None) -> Tensor:
        """BiLSTM states h_i = [forward_i ; backward_i], an (n, 2H) tensor.

        `emb` holds packed sentences laid out by `lanes` (None: one sentence).
        """
        weights = [self.params[name] for name in _LSTM_PARAMS]
        return bilstm(emb, weights, lanes)

    def emissions(self, states: Tensor, owners: np.ndarray | None = None) -> Tensor:
        """Per-position label scores o = H W + b, shape (n, L)."""
        return ad.affine(states, self.params["crf.W"], self.params["crf.b"], owners)

    def transitions(self) -> Tensor:
        return self.params["crf.T"]

    def forward(
        self,
        tokens: Sequence[str],
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Emissions and transitions of one sentence."""
        emb = self.lookup_embeddings(tokens)
        if train:
            emb = self.dropout(emb, rng)
        states = self.encode_states(emb)
        if train:
            states = self.dropout(states, rng)
        return self.emissions(states), self.transitions()

    # --- losses and decoding ----------------------------------------------

    def label_indices(self, labels: Sequence[str]) -> list[int]:
        return [self.label_index[lab] for lab in labels]

    def batch_loss(
        self,
        examples: Sequence[LabeledSequence | MixedExample],
        train: bool = False,
        rng: np.random.Generator | None = None,
        mix_layer: str = "embedding",
    ) -> LaneSum:
        """Summed NLL of plain sentences and mixup pairs over one packed graph.

        Example i is lane i of the CRF and owns every row computed for it, so
        `per_lane[i]` is its loss and the gradient's rows carry i. One lookup
        serves every sentence, a pair's two included, then one BiLSTM node and
        one CRF partition node. A pair's sentences mix into its lane at
        `mix_layer`: their rows before the BiLSTM ("embedding"), or their
        states after it ("encoder"). The lane scores both gold paths, lambda
        times the first's and 1 - lambda the second's. When training, each
        dropout layer draws one mask over the batch's rows.

        One `Lanes` lays out the pass, or two when pairs mix at the encoder:
        the sentences' for the BiLSTM, then the lanes' for the CRF.
        """
        if mix_layer not in MIX_LAYERS:
            raise ValueError(f"mix_layer must be one of {MIX_LAYERS}, got {mix_layer!r}")
        sentences: list[LabeledSequence] = []
        sentence_owner: list[int] = []
        rows: tuple[list[int], list[int]] = ([], [])  # mixed row -> sentence row, -1 none
        coefs: tuple[list[float], list[float]] = ([], [])  # per mixed row
        paths: tuple[list[int], list[int]] = ([], [])
        path_coefs: tuple[list[float], list[float]] = ([], [])  # per lane
        lane_lengths: list[int] = []
        offset = 0
        for i, ex in enumerate(examples):
            if isinstance(ex, MixedExample):
                pair, lams = (ex.first, ex.second), (ex.lam, 1.0 - ex.lam)
                gold = [self.label_indices(y) for y in (ex.labels_first(), ex.labels_second())]
            else:
                pair, lams, gold = (ex,), (1.0, 0.0), [self.label_indices(ex.labels)] * 2
            n = max(len(s) for s in pair)
            for j in range(2):
                k = len(pair[j]) if j < len(pair) else 0
                rows[j].extend(range(offset, offset + k))
                rows[j].extend([-1] * (n - k))
                offset += k
                coefs[j].extend([lams[j]] * n)
                paths[j].extend(gold[j])
                path_coefs[j].append(lams[j])
            sentences.extend(pair)
            sentence_owner.extend([i] * len(pair))
            lane_lengths.append(n)
        lengths = [len(s) for s in sentences]
        owners = np.repeat(sentence_owner, lengths)
        mixed = len(sentences) > len(lane_lengths)
        lane_owners = np.repeat(np.arange(len(lane_lengths)), lane_lengths)
        x = self.lookup_embeddings([tok for s in sentences for tok in s.tokens], owners)
        if mixed and mix_layer == "embedding":
            x = ad.mix_rows(x, x, *rows, *coefs)
            lengths, owners = lane_lengths, lane_owners
        lanes = Lanes(lengths, len(owners), owners)
        if train:
            x = self.dropout(x, rng)
        states = self.encode_states(x, lanes)
        if mixed and mix_layer == "encoder":
            states = ad.mix_rows(states, states, *rows, *coefs)
            lanes = Lanes(lane_lengths, len(lane_owners), lane_owners)
        if train:
            states = self.dropout(states, rng)
        if not mixed:  # one gold path per lane
            paths, path_coefs = paths[0], None
        o = self.emissions(states, lanes.owners)
        return crf_nll(o, self.transitions(), paths, lanes, path_coefs)

    def sequence_loss(
        self,
        seq: LabeledSequence,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        return self.batch_loss([seq], train, rng)

    def sentence_paths(self, sentences: Sequence[Sequence[str]]) -> Iterator[list[int]]:
        """Each sentence's Viterbi label indices, in order, with no graph.

        Consecutive sentences share one pass, in chunks of at most
        `_DECODE_ROWS` rows (a longer sentence is a chunk of its own): the
        BiLSTM recursion over rows looked up straight from the embedding
        table, then one packed `viterbi`, on the chunk's one `Lanes`. A
        sentence's states are the same bits in any chunk, but rows of one
        product over the chunk are not the rows of the sentence's own
        product, so each sentence's emissions are its own `states @ W + b`,
        the bits `forward` gives, and its path is the path of its rows alone.
        """
        table = self.params["embed.table"].data
        weights = [self.params[name].data for name in _LSTM_PARAMS]
        w, b, t = (self.params[name].data for name in ("crf.W", "crf.b", "crf.T"))
        lengths = [len(tokens) for tokens in sentences]
        for chunk in _chunks(lengths, _DECODE_ROWS):
            sizes = lengths[chunk]
            tokens = [tok for sentence in sentences[chunk] for tok in sentence]
            lanes = Lanes(sizes, len(tokens))
            states = _bilstm_forward(table[self.table.indices(tokens)], weights, lanes)[0]
            parts = np.split(states, np.cumsum(sizes)[:-1])
            path = viterbi(np.concatenate([part @ w + b for part in parts]), t, lanes)
            for end, size in zip(itertools.accumulate(sizes), sizes):
                yield path[end - size : end]

    def decode(
        self, tokens: Sequence[str], path: Sequence[int] | None = None
    ) -> list[str]:
        """Viterbi labels of one sentence.

        `path` is the sentence's label indices from `sentence_paths`; None
        decodes this sentence alone through the same pass.
        """
        if path is None:
            (path,) = self.sentence_paths([tokens])
        if len(path) != len(tokens):
            raise ValueError(f"path has {len(path)} labels for {len(tokens)} tokens")
        return [self.label_vocab[i] for i in path]

    def decode_all(self, sentences: Sequence[Sequence[str]]) -> list[list[str]]:
        """`decode` of each sentence, once each and in order, over one chunked pass."""
        paths = self.sentence_paths(sentences)
        return [self.decode(tokens, path) for tokens, path in zip(sentences, paths)]

    # --- persistence --------------------------------------------------------

    def save(self, path: str | Path, extra_config: dict | None = None) -> None:
        config = {
            "model": {
                "emb_dim": self.config.emb_dim,
                "hidden": self.config.hidden,
                "dropout": self.config.dropout,
                "lowercase": self.config.lowercase,
            },
            "label_vocab": self.label_vocab,
            "token_vocab": self.table.vocab,
        }
        if extra_config:
            config["run"] = extra_config
        arrays = {name: t.data for name, t in self.params.items()}
        save_checkpoint(path, arrays, config)

    def load_params(self, path: str | Path) -> None:
        """Read the parameters `save` wrote to `path` straight into this
        model's arrays, which keep their identity. Arrays whose names or
        shapes do not fit the model raise `CheckpointError`."""
        load_checkpoint_into(path, {name: t.data for name, t in self.params.items()})

    @classmethod
    def load(cls, path: str | Path) -> "TaggerModel":
        """The model `save` wrote; a config or arrays that do not fit raise
        `CheckpointError` naming the file."""
        arrays, config, _ = load_checkpoint(path)
        kinds = {"model": dict, "label_vocab": list, "token_vocab": list}
        invalid = [k for k, kind in kinds.items() if not isinstance(config.get(k), kind)]
        if invalid:
            raise CheckpointError(f"{path}: config has no valid {', '.join(invalid)}")
        labels, tokens = config["label_vocab"], config["token_vocab"]
        try:
            if not all(isinstance(s, str) for s in labels + tokens):
                raise ValueError("label_vocab and token_vocab must hold strings")
            if not labels or len(set(labels)) < len(labels) or len(tokens) < 2:
                raise ValueError("label_vocab must hold distinct labels, token_vocab PAD and UNK")
            for label in labels:  # BIOES accepts every BIO label too
                validate_label(label, "BIOES")
        except ValueError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        for key, kind in {"emb_dim": int, "hidden": int, "lowercase": bool}.items():
            if type(config["model"].get(key)) is not kind:  # exact: a JSON true is no int
                raise CheckpointError(f"{path}: model {key} must be {kind.__name__}")
        try:
            mc = ModelConfig(**config["model"])
        except (TypeError, ValueError) as exc:  # an unknown key, or a bad value
            raise CheckpointError(f"{path}: bad model config: {exc}") from exc
        table = EmbeddingTable(config["token_vocab"], lowercase=mc.lowercase)
        e, h, n = mc.emb_dim, mc.hidden, len(config["label_vocab"])
        want = {
            "embed.table": (len(table.vocab), e),
            "crf.W": (2 * h, n), "crf.b": (n,), "crf.T": (n + 1, n),
        }
        for d in ("fw", "bw"):
            want |= {f"lstm.{d}.Wx": (4 * h, e), f"lstm.{d}.Wh": (4 * h, h)}
            want[f"lstm.{d}.b"] = (4 * h,)
        got = {name: arr.shape for name, arr in arrays.items()}
        bad = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        if bad:
            raise CheckpointError(
                f"{path}: arrays do not fit the model config: "
                + ", ".join(
                    f"{k} is {got.get(k, 'missing')}, expected {want.get(k, 'no array')}"
                    for k in bad
                )
            )
        store = ParamStore()
        for name, arr in arrays.items():
            store.add(name, arr)
        return cls(table, config["label_vocab"], mc, store)


# --- packed sentences -----------------------------------------------------------


def _chunks(lengths: Sequence[int], budget: int) -> Iterator[slice]:
    """Runs of consecutive sentences whose `lengths` sum to at most `budget`
    rows; a sentence longer than `budget` is a run of its own."""
    first, rows = 0, 0
    for k, size in enumerate(lengths):
        if k > first and rows + size > budget:
            yield slice(first, k)
            first, rows = k, 0
        rows += size
    if first < len(lengths):
        yield slice(first, len(lengths))


class Lanes:
    """Layout of one packed pass: `lengths` splits the n rows into sentences,
    one lane each (None: one sentence), and row r belongs to example
    `owners[r]` (None: all to one example).

    Lanes are sorted by length, longest first, so the lanes live at timestep
    k are a prefix `[:active]` and step k owns the time-major positions
    `start : start + active`; `steps` lists those (start, active) pairs.
    Position p reads packed row `fw[p]` in the forward direction and `bw[p]`
    in the backward one, which reads each sentence reversed within its own
    length. `lane[p]` is the position's lane, `prev[p - a0]` is the position
    the same lane held one step earlier (for every p after the a0 positions
    of the first step), `last[j]` is lane j's final position and `order[j]`
    the sentence lane j runs. `sizes` holds the lengths, `owners` the rows'
    owners and `fw_owners` the owners by time-major position.
    """

    __slots__ = ("sizes", "steps", "fw", "bw", "lane", "prev", "last", "order", "owners",
                 "fw_owners")

    def __init__(self, lengths: Sequence[int] | None, n: int, owners: np.ndarray | None = None):
        sizes = [n] if lengths is None else [int(k) for k in lengths]
        if not sizes or min(sizes) < 1 or sum(sizes) != n:
            raise ValueError(
                f"lengths must be positive and sum to the {n} packed rows, got {sizes}"
            )
        self.sizes = sizes
        self.owners = None if owners is None else np.asarray(owners)
        if len(sizes) == 1:  # the layout below, without its per-call numpy overhead
            self.fw = np.arange(n)
            self.bw = self.fw[::-1]
            self.lane = np.zeros(n, dtype=np.intp)
            self.prev = self.fw[:-1]
            self.last = self.fw[-1:]
            self.order = self.lane[:1]
            self.steps = [(k, 1) for k in range(n)]
            self.fw_owners = self.owners
            return
        sizes = np.array(sizes)
        firsts = np.cumsum(sizes) - sizes
        order = np.argsort(-sizes, kind="stable")
        by_lane = sizes[order]
        active = len(sizes) - np.cumsum(np.bincount(by_lane))[:-1]  # lanes longer than k
        starts = np.cumsum(active) - active
        step = np.repeat(np.arange(len(active)), active)
        self.lane = np.arange(n) - starts[step]
        sentence = order[self.lane]
        self.fw = firsts[sentence] + step
        self.bw = firsts[sentence] + sizes[sentence] - 1 - step
        a0 = int(active[0])
        self.prev = starts[step[a0:] - 1] + self.lane[a0:]
        self.last = starts[by_lane - 1] + np.arange(len(by_lane))
        self.order = order
        self.steps = list(zip(starts.tolist(), active.tolist()))
        self.fw_owners = None if owners is None else self.owners[self.fw]


def _lanes(lanes: Lanes | None, n: int) -> Lanes:
    """`lanes`, or one sentence's when None; they must lay out the node's n rows."""
    if lanes is None:
        return Lanes(None, n)
    if len(lanes.fw) != n:
        raise ValueError(f"lanes lay out {len(lanes.fw)} rows, the node has {n}")
    return lanes


# --- fused BiLSTM --------------------------------------------------------------


def _bilstm_forward(
    x: np.ndarray, w: Sequence[np.ndarray], lanes: Lanes
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The LSTM recursion of both directions over packed rows `x`, laid out by `lanes`.

    `w` holds (Wx, Wh, b) of the forward direction, then of the backward
    one; gate order is (i, f, g, o). Both directions of every sentence step
    together: the live lanes at a timestep are a prefix, so a step is one
    (2, a, H)·(2, H, 4H) matmul with no masking. The input projection
    X Wx^T + b is one GEMM. All four gates come from one tanh, since
    sigma(x) = (1 + tanh(x/2)) / 2 and halving the i, f, o rows is exact.
    Every product has at least two rows, since BLAS rounds a one-row product
    differently (a matrix-vector kernel): so a sentence's states are the same
    bits whichever sentences share its lanes.

    Returns the states (n, 2H) in packed row order, and the time-major
    inputs, activated gates, cells, tanh of the cells and hidden states that
    backpropagation reads, each (2, n, ·).
    """
    n = x.shape[0]
    hid = w[1].shape[1]
    scale = np.full(4 * hid, 0.5)
    scale[2 * hid : 3 * hid] = 1.0
    shift = 1.0 - scale  # tanh(x/2) -> sigma(x) on i, f, o; g stays tanh(x)
    xs = np.stack([x[lanes.fw], x[lanes.bw]])  # (2, n, E), time-major
    # X Wx^T + b, scaled; each step activates its positions' i, f, g, o in place.
    gates = np.empty((2, n, 4 * hid))
    wh_t = np.empty((2, hid, 4 * hid))  # Wh^T of both directions, scaled
    for d in range(2):
        wx, wh, b = w[3 * d : 3 * d + 3]
        if n > 1:
            np.matmul(xs[d], wx.T, out=gates[d])
        else:
            gates[d] = (xs[d, [0, 0]] @ wx.T)[:1]
        gates[d] += b
        np.multiply(wh.T, scale, out=wh_t[d])
    gates *= scale
    cells = np.empty((2, n, hid))
    tanh_c = np.empty((2, n, hid))
    hs = np.zeros((2, n, hid))  # a lone lane's step reads one row past it
    i_g, f_g, g_g, o_g = (gates[..., j * hid : (j + 1) * hid] for j in range(4))
    prev = 0
    for k, (s, a) in enumerate(lanes.steps):
        cur, last = slice(s, s + a), slice(prev, prev + a)
        pre = gates[:, cur]
        if k:  # prev + 1 <= s < n, so the second row exists
            pre = pre + (hs[:, prev : prev + max(a, 2)] @ wh_t)[:, :a]
        act = np.tanh(pre, out=gates[:, cur])
        act *= scale
        act += shift
        c = np.multiply(i_g[:, cur], g_g[:, cur], out=cells[:, cur])
        if k:
            c += f_g[:, cur] * cells[:, last]
        np.multiply(o_g[:, cur], np.tanh(c, out=tanh_c[:, cur]), out=hs[:, cur])
        prev = s
    out = np.empty((n, 2 * hid))
    out[lanes.fw, :hid] = hs[0]
    out[lanes.bw, hid:] = hs[1]
    return out, (xs, gates, cells, tanh_c, hs)


def bilstm(emb: Tensor, weights: Sequence[Tensor], lanes: Lanes | None = None) -> Tensor:
    """Both LSTM directions over packed sentences as one graph node, (n, 2H).

    `emb` holds the sentences' rows concatenated, laid out by `lanes`
    (None: one sentence). `weights` holds (Wx, Wh, b) of the forward
    direction, then of the backward one; the forward pass is
    `_bilstm_forward`, so a sentence's states are the same bits whichever
    sentences share its batch.

    The vjp is backpropagation through time over the cached gates and cells.
    It returns the weight gradients factored by position, each position
    owned by the owner of its packed row: `Outer(d_pre, x)` for Wx,
    `Outer(d_pre, h_prev)` for Wh and `RowSum(d_pre)` for b.
    """
    lanes = _lanes(lanes, emb.shape[0])
    w = [t.data for t in weights]
    hid = w[1].shape[1]
    out, (xs, gates, cells, tanh_c, hs) = _bilstm_forward(emb.data, w, lanes)
    i_g, f_g, g_g, o_g = (gates[..., j * hid : (j + 1) * hid] for j in range(4))

    def vjp(g: np.ndarray):
        # Stacked again rather than kept, so a live graph holds no weight copies.
        wh = np.stack(w[1::3])
        dh_out = np.stack([g[lanes.fw, :hid], g[lanes.bw, hid:]])  # time-major
        a0 = lanes.steps[0][1]
        # d pre_k = [dc_k, dc_k, dc_k, dh_k] * coef_k, since c_k = f c_{k-1} + i g
        # and h_k = o tanh(c_k): coef_k is [g, c_{k-1}, i, tanh c_k] times the
        # slope of each gate's activation, and c_{k-1} is zero at a lane's first
        # step. d_pre holds coef_k, built block by block in place (the live graph
        # already holds arrays of its size), until the walk below overwrites it
        # with d pre_k.
        d_pre = np.empty_like(gates)
        d_i, d_f, d_g, d_o = (d_pre[..., j * hid : (j + 1) * hid] for j in range(4))
        for d, gate in ((d_i, i_g), (d_f, f_g), (d_o, o_g)):
            np.subtract(1.0, gate, out=d)
            d *= gate  # sigmoid'
        np.multiply(g_g, g_g, out=d_g)
        np.subtract(1.0, d_g, out=d_g)  # tanh'
        d_i *= g_g
        d_f[:, :a0] = 0.0
        d_f[:, a0:] *= cells[:, lanes.prev]
        d_g *= i_g
        d_o *= tanh_c
        dc_dh = o_g * (1.0 - tanh_c * tanh_c)
        # Carried per lane; a lane's entries stay zero until its last step.
        dh_all = np.zeros((2, a0, hid))
        dc_all = np.zeros((2, a0, hid))
        for s, a in reversed(lanes.steps):
            cur = slice(s, s + a)
            dh, dc = dh_all[:, :a], dc_all[:, :a]
            dh += dh_out[:, cur]
            dc += dh * dc_dh[:, cur]
            dcdh = np.concatenate([dc, dc, dc, dh], axis=2)
            np.multiply(dcdh, d_pre[:, cur], out=d_pre[:, cur])
            dc *= f_g[:, cur]
            np.matmul(d_pre[:, cur], wh, out=dh)
        dx = np.empty_like(emb.data)
        dx[lanes.fw] = d_pre[0] @ w[0]
        dx[lanes.bw] += d_pre[1] @ w[3]
        h_prev = hs[:, lanes.prev]
        own = lanes.fw_owners
        own_prev = None if own is None else own[a0:]
        grads = []
        for d in range(2):
            grads += [
                ad.Outer(d_pre[d], xs[d], own),
                ad.Outer(d_pre[d, a0:], h_prev[d], own_prev),
                ad.RowSum(d_pre[d], own),
            ]
        return dx, *grads

    return Tensor(out, (emb, *weights), vjp)


# --- CRF scoring -------------------------------------------------------------


class LaneSum(Tensor):
    """A scalar node whose value sums one term per lane; `per_lane` keeps the
    terms, in the packed order of the lanes' sentences."""

    __slots__ = ("per_lane",)

    def __init__(self, data, parents, vjp, per_lane: np.ndarray):
        super().__init__(data, parents, vjp)
        self.per_lane = per_lane


def crf_score(
    o: Tensor,
    t: Tensor,
    labels: Sequence[int] | Sequence[Sequence[int]],
    lanes: Lanes | None = None,
    coefs: Sequence[Sequence[float]] | None = None,
) -> LaneSum:
    """Transition-augmented score summed over packed sentences, as one node.

    `labels` runs over the packed rows of `o`, laid out by `lanes` (None:
    one sentence); each sentence's first position uses the START row. The
    score is the sum of the gold path's emission entries plus the sum of its
    transition entries; the vjp adds the upstream gradient into each entry
    the path read, once per read.

    A lane can hold more than one gold path: `labels` is then (k, rows) and
    `coefs` (k, lanes), path j of lane s counting coefs[j][s] times (a mixup
    pair's lambda and 1 - lambda; 1 and 0 for a plain sentence). The
    transitions' gradient is a `RowGrad` over the rows of `t` the paths read.
    """
    n, num_labels = o.shape
    start = t.shape[0] - 1
    paths = np.array(labels, dtype=np.intp)
    if paths.ndim == 1:
        paths = paths[None]
    if paths.ndim != 2 or paths.shape[1] != n:
        raise ValueError(f"label sequence length {paths.shape[-1]} != {n} positions")
    if np.any((paths < 0) | (paths >= num_labels)):
        raise ValueError("label index out of range")
    lanes = _lanes(lanes, n)
    sizes = lanes.sizes
    weight = np.ones((1, len(sizes))) if coefs is None else np.asarray(coefs, float)
    if weight.shape != (len(paths), len(sizes)):
        raise ValueError(f"coefs must be (paths, lanes) = {(len(paths), len(sizes))}")
    lane = np.repeat(np.arange(len(sizes)), sizes)
    weight = weight[:, lane]  # per row; a coefficient of 1 changes no bits
    prev = np.empty_like(paths)
    prev[:, 1:] = paths[:, :-1]
    prev[:, np.cumsum(sizes) - sizes] = start
    rows = np.arange(n)
    emit = weight * o.data[rows, paths]
    trans = weight * t.data[prev, paths]
    score = sum(e.sum() + r.sum() for e, r in zip(emit, trans))
    per_lane = np.bincount(lane, weights=(emit + trans).sum(axis=0), minlength=len(sizes))

    def vjp(g: np.ndarray):
        vals = g * weight
        d_o = np.zeros_like(o.data)
        for y, v in zip(paths, vals):
            np.add.at(d_o, (rows, y), v)
        hits = np.zeros((paths.size, num_labels))
        hits[np.arange(paths.size), paths.ravel()] = vals.ravel()
        own = None if lanes.owners is None else np.tile(lanes.owners, len(paths))
        return d_o, ad.RowGrad(t.shape, prev.ravel(), hits, own)

    return LaneSum(score, (o, t), vjp, per_lane)


def crf_log_partition(o: Tensor, t: Tensor, lanes: Lanes | None = None) -> LaneSum:
    """Sum over packed sentences of log sum_Y exp(score), by the forward algorithm.

    `o` holds the sentences' emission rows concatenated, laid out by `lanes`
    (None: one sentence). One graph node: the alpha recursion runs over all
    sentences at once, lane by lane, and the vjp runs the beta
    recursion the same way and returns the marginals (Sutton & McCallum,
    arXiv 1011.4088): d logZ/d o[i, y] is p(y_i = y), d logZ/d T[j, k] is
    sum_i p(y_{i-1} = j, y_i = k), and the START row takes each sentence's
    position-0 marginals. The transitions' gradient is a `RowSum` of one
    (L+1, L) block per position: its pair marginals, or for a first position
    its START row.
    """
    od, td = o.data, t.data
    n, num_labels = od.shape
    lanes = _lanes(lanes, n)
    start = td.shape[0] - 1
    body = td[:num_labels]
    ot = od[lanes.fw]  # emissions, time-major
    steps = lanes.steps
    a0 = steps[0][1]
    alpha = np.empty((n, num_labels))
    alpha[:a0] = td[start] + ot[:a0]
    for (p, _), (s, a) in zip(steps, steps[1:]):
        alpha[s : s + a] = (
            _logsumexp_stable(alpha[p : p + a, :, None] + body, axis=1) + ot[s : s + a]
        )
    log_z = _logsumexp_stable(alpha[lanes.last], axis=1)  # one per lane
    per_lane = np.empty_like(log_z)
    per_lane[lanes.order] = log_z

    def vjp(g: np.ndarray):
        beta = np.zeros((n, num_labels))
        for (p, _), (s, a) in reversed(list(zip(steps, steps[1:]))):
            beta[p : p + a] = _logsumexp_stable(
                body + (ot[s : s + a] + beta[s : s + a])[:, None, :], axis=2
            )
        z = log_z[lanes.lane, None]
        node = np.exp(alpha + beta - z)
        d_o = np.empty_like(od)
        d_o[lanes.fw] = node
        blocks = np.zeros((n,) + td.shape)
        pair = blocks[a0:, :num_labels]  # the pair marginals, computed in place
        np.add(alpha[lanes.prev, :, None], body, out=pair)
        pair += (ot[a0:] + beta[a0:])[:, None, :]
        pair -= z[a0:, :, None]
        np.exp(pair, out=pair)
        blocks[:a0, start] = node[:a0]
        return g * d_o, ad.RowSum(blocks, lanes.fw_owners, g)

    return LaneSum(log_z.sum(), (o, t), vjp, per_lane)


def crf_nll(
    o: Tensor,
    t: Tensor,
    labels: Sequence[int] | Sequence[Sequence[int]],
    lanes: Lanes | None = None,
    coefs: Sequence[Sequence[float]] | None = None,
) -> LaneSum:
    """Negative log-likelihood -log p(Y|X), summed over packed sentences.

    With several gold paths per lane (see `crf_score`) it is the
    coefficient-weighted sum of their NLLs; `per_lane` holds each lane's.
    Both nodes read the one `lanes`, built once for the pass.
    """
    lanes = _lanes(lanes, o.shape[0])
    log_z = crf_log_partition(o, t, lanes)
    score = crf_score(o, t, labels, lanes, coefs)
    nll, per_lane = log_z.data - score.data, log_z.per_lane - score.per_lane
    return LaneSum(nll, (log_z, score), lambda g: (g, -g), per_lane)


def viterbi(o: np.ndarray, t: np.ndarray, lanes: Lanes | None = None) -> list[int]:
    """Highest-scoring label path of each packed sentence, concatenated.

    `o` holds the sentences' emission rows, laid out by `lanes` (None: one
    sentence). The recursion runs over all sentences at once, lane by lane,
    one (a, L, L) add and argmax per timestep; ties resolve to the
    lowest label index, and each path is the path of its sentence alone.
    """
    n, num_labels = o.shape
    lanes = _lanes(lanes, n)
    steps = lanes.steps
    body = t[:num_labels]
    ot = o[lanes.fw]  # emissions, time-major
    delta = np.empty((n, num_labels))
    delta[: steps[0][1]] = t[-1] + ot[: steps[0][1]]
    back = np.zeros((n, num_labels), dtype=np.intp)  # best previous label per label
    for (p, _), (s, a) in zip(steps, steps[1:]):
        scores = delta[p : p + a, :, None] + body
        prev = scores.argmax(axis=1)  # first (lowest) index wins ties
        back[s : s + a] = prev
        # The maxima, gathered at the argmax: a second `max` over `scores`
        # made this loop about a fifth slower on CoNLL-shaped chunks.
        top = np.take_along_axis(scores, prev[:, None], axis=1)[:, 0]
        delta[s : s + a] = top + ot[s : s + a]
    final = delta[lanes.last].argmax(axis=1)  # one label per lane
    y = np.empty_like(final)
    rows = np.arange(len(final))
    best = np.empty(n, dtype=np.intp)  # time-major
    for (s, a), (_, a_next) in zip(reversed(steps), reversed(steps[1:] + [(n, 0)])):
        y[a_next:a] = final[a_next:a]  # the lanes whose last step this is
        best[s : s + a] = y[:a]
        y[:a] = back[s : s + a][rows[:a], y[:a]]
    path = np.empty(n, dtype=np.intp)
    path[lanes.fw] = best
    return path.tolist()
