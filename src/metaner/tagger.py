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
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor, _logsumexp_stable, _sigmoid_stable
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import Corpus, LabeledSequence
from .vectors import read_vector_file


@dataclass
class ModelConfig:
    emb_dim: int = 100
    hidden: int = 100
    dropout: float = 0.5
    lowercase: bool = False


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
        vector_path: str | Path | None = None,
    ) -> "TaggerModel":
        rng = np.random.default_rng(seed)
        vocab = list(corpus.token_vocab)
        if config.lowercase:
            lowered = sorted({t.lower() for t in vocab[2:]})
            vocab = vocab[:2] + lowered
        table = EmbeddingTable(vocab, lowercase=config.lowercase)
        pretrained = read_vector_file(vector_path) if vector_path else None
        if pretrained and config.lowercase:
            pretrained = {w.lower(): v for w, v in pretrained.items()}

        store = ParamStore()
        store.add("embed.table", table.init_matrix(config.emb_dim, rng, pretrained))
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

    def lookup_embeddings(self, tokens: Sequence[str]) -> Tensor:
        """Raw embedding rows, one per token, before any dropout."""
        return ad.embed_rows(self.params["embed.table"], self.table.indices(tokens))

    def dropout(self, x: Tensor, rng: np.random.Generator) -> Tensor:
        """Inverted dropout at the configured rate; BiLSTM inputs and outputs."""
        rate = self.config.dropout
        if rate <= 0.0:
            return x
        keep = 1.0 - rate
        mask = (rng.random(x.shape) < keep) / keep
        return ad.mul(x, ad.constant(mask))

    def embed(
        self, tokens: Sequence[str], train: bool = False, rng: np.random.Generator | None = None
    ) -> Tensor:
        """Embedding stage: table lookup plus BiLSTM-input dropout when training."""
        emb = self.lookup_embeddings(tokens)
        if train:
            emb = self.dropout(emb, rng)
        return emb

    def encode_states(self, emb: Tensor) -> Tensor:
        """BiLSTM states h_i = [forward_i ; backward_i], an (n, 2H) tensor."""
        weights = [
            self.params[f"{prefix}.{name}"]
            for prefix in ("lstm.fw", "lstm.bw")
            for name in ("Wx", "Wh", "b")
        ]
        return bilstm(emb, weights)

    def encode(
        self, emb: Tensor, train: bool = False, rng: np.random.Generator | None = None
    ) -> Tensor:
        states = self.encode_states(emb)
        if train:
            states = self.dropout(states, rng)
        return states

    def emissions(self, states: Tensor) -> Tensor:
        """Per-position label scores o = H W + b, shape (n, L)."""
        return ad.add(ad.matmul(states, self.params["crf.W"]), self.params["crf.b"])

    def transitions(self) -> Tensor:
        return self.params["crf.T"]

    def forward_from_embeddings(
        self, emb: Tensor, train: bool = False, rng: np.random.Generator | None = None
    ) -> tuple[Tensor, Tensor]:
        """Encoder and emission stages with the embedding stage bypassed."""
        if emb.data.ndim != 2 or emb.shape[1] != self.config.emb_dim:
            raise ValueError(
                f"embedding input must be (n, {self.config.emb_dim}), got {emb.shape}"
            )
        return self.emissions(self.encode(emb, train, rng)), self.transitions()

    def forward(
        self, tokens: Sequence[str], train: bool = False, rng: np.random.Generator | None = None
    ) -> tuple[Tensor, Tensor]:
        return self.forward_from_embeddings(self.embed(tokens, train, rng), train, rng)

    # --- losses and decoding ----------------------------------------------

    def label_indices(self, labels: Sequence[str]) -> list[int]:
        return [self.label_index[lab] for lab in labels]

    def sequence_loss(
        self,
        seq: LabeledSequence,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        o, t = self.forward(seq.tokens, train, rng)
        return crf_nll(o, t, self.label_indices(seq.labels))

    def decode(self, tokens: Sequence[str]) -> list[str]:
        o, t = self.forward(tokens, train=False)
        path = viterbi(o.data, t.data)
        return [self.label_vocab[i] for i in path]

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
        save_checkpoint(path, self.params.snapshot(), config)

    @classmethod
    def load(cls, path: str | Path) -> "TaggerModel":
        arrays, config, _ = load_checkpoint(path)
        mc = ModelConfig(**config["model"])
        table = EmbeddingTable(config["token_vocab"], lowercase=mc.lowercase)
        store = ParamStore()
        for name, arr in arrays.items():
            store.add(name, arr)
        return cls(table, config["label_vocab"], mc, store)


# --- fused BiLSTM --------------------------------------------------------------


def bilstm(emb: Tensor, weights: Sequence[Tensor]) -> Tensor:
    """Both LSTM directions over `emb` as one graph node, an (n, 2H) tensor.

    `weights` holds (Wx, Wh, b) of the forward direction, then of the backward
    one; gate order is (i, f, g, o). The two directions step together as a
    batch of two, the backward one reading the sequence reversed. The input
    projection X Wx^T + b is one GEMM; only the recurrence loops over time.
    The vjp is backpropagation through time over the cached gates and cells,
    ending in one GEMM per weight matrix.
    """
    n = emb.shape[0]
    w = [t.data for t in weights]
    wx, wh, b = np.stack(w[0::3]), np.stack(w[1::3]), np.stack(w[2::3])
    hid = wh.shape[2]
    xs = np.stack([emb.data, emb.data[::-1]])  # (2, n, E), in step order
    pre_x = xs @ wx.transpose(0, 2, 1) + b[:, None, :]
    gates = np.empty((2, n, 4 * hid))  # activated i, f, g, o per step
    cells = np.zeros((2, n + 1, hid))  # cells[:, k] is c entering step k
    hs = np.zeros((2, n + 1, hid))  # hs[:, k] is h entering step k
    tanh_c = np.empty((2, n, hid))
    i_g, f_g, g_g, o_g = np.split(gates, 4, axis=2)
    for k in range(n):
        pre = pre_x[:, k] + (wh @ hs[:, k, :, None])[..., 0]
        gates[:, k] = _sigmoid_stable(pre)
        g_g[:, k] = np.tanh(pre[:, 2 * hid : 3 * hid])
        cells[:, k + 1] = f_g[:, k] * cells[:, k] + i_g[:, k] * g_g[:, k]
        tanh_c[:, k] = np.tanh(cells[:, k + 1])
        hs[:, k + 1] = o_g[:, k] * tanh_c[:, k]
    out = np.concatenate([hs[0, 1:], hs[1, 1:][::-1]], axis=1)

    def vjp(g: np.ndarray):
        # Stacked again rather than kept, so a live graph holds no weight copies.
        wx, wh = np.stack(w[0::3]), np.stack(w[1::3])
        dh_out = np.stack([g[:, :hid], g[::-1, hid:]])  # (2, n, H), in step order
        slope = gates * (1.0 - gates)  # sigmoid' for i, f, o
        slope[..., 2 * hid : 3 * hid] = 1.0 - g_g * g_g  # tanh' for g
        # d pre_k = [dc_k, dc_k, dc_k, dh_k] * coef_k, since c_k = f c_{k-1} + i g
        # and h_k = o tanh(c_k).
        coef = np.concatenate([g_g, cells[:, :-1], i_g, tanh_c], axis=2) * slope
        dc_dh = o_g * (1.0 - tanh_c * tanh_c)
        d_pre = np.empty_like(gates)
        dh = np.zeros((2, hid))
        dc = np.zeros((2, hid))
        for k in range(n - 1, -1, -1):
            dh += dh_out[:, k]
            dc += dh * dc_dh[:, k]
            d_pre[:, k] = np.concatenate([dc, dc, dc, dh], axis=1) * coef[:, k]
            dc *= f_g[:, k]
            dh = (d_pre[:, k, None, :] @ wh)[:, 0]
        d_pre_t = d_pre.transpose(0, 2, 1)
        dwx = d_pre_t @ xs
        dwh = d_pre_t @ hs[:, :-1]
        db = d_pre.sum(axis=1)
        dxs = d_pre @ wx
        dx = dxs[0] + dxs[1][::-1]
        return dx, dwx[0], dwh[0], db[0], dwx[1], dwh[1], db[1]

    return Tensor(out, (emb, *weights), vjp)


# --- CRF scoring -------------------------------------------------------------


def crf_score(o: Tensor, t: Tensor, labels: Sequence[int]) -> Tensor:
    """Transition-augmented sequence score; position 1 uses the START row."""
    n, num_labels = o.shape
    start = t.shape[0] - 1
    labels = list(labels)
    if len(labels) != n:
        raise ValueError(f"label sequence length {len(labels)} != {n} positions")
    if any(not 0 <= y < num_labels for y in labels):
        raise ValueError("label index out of range")
    emit = ad.tsum(ad.gather(o, list(range(n)), labels))
    trans = ad.tsum(ad.gather(t, [start] + labels[:-1], labels))
    return ad.add(emit, trans)


def crf_log_partition(o: Tensor, t: Tensor) -> Tensor:
    """log sum over all label sequences of exp(score), by the forward algorithm.

    One graph node. Its vjp runs the backward recursion and returns the
    marginals (Sutton & McCallum, arXiv 1011.4088): d logZ/d o[i, y] is
    p(y_i = y), d logZ/d T[j, k] is sum_i p(y_{i-1} = j, y_i = k), and the
    START row takes the position-0 marginals.
    """
    od, td = o.data, t.data
    n, num_labels = od.shape
    start = td.shape[0] - 1
    body = td[:num_labels]
    alpha = np.empty((n, num_labels))
    alpha[0] = td[start] + od[0]
    for i in range(1, n):
        alpha[i] = _logsumexp_stable(alpha[i - 1][:, None] + body, axis=0) + od[i]
    log_z = _logsumexp_stable(alpha[-1])

    def vjp(g: np.ndarray):
        beta = np.zeros((n, num_labels))
        for i in range(n - 1, 0, -1):
            beta[i - 1] = _logsumexp_stable(body + (od[i] + beta[i]), axis=1)
        d_o = np.exp(alpha + beta - log_z)
        d_t = np.zeros_like(td)
        d_t[:num_labels] = np.exp(
            alpha[:-1, :, None] + body + (od[1:] + beta[1:])[:, None, :] - log_z
        ).sum(axis=0)
        d_t[start] = d_o[0]
        return g * d_o, g * d_t

    return Tensor(log_z, (o, t), vjp)


def crf_nll(o: Tensor, t: Tensor, labels: Sequence[int]) -> Tensor:
    """Negative log-likelihood -log p(Y|X); non-negative by construction."""
    return ad.sub(crf_log_partition(o, t), crf_score(o, t, labels))


def viterbi(o: np.ndarray, t: np.ndarray) -> list[int]:
    """Highest-scoring label sequence; ties resolve to the lowest label index."""
    n, num_labels = o.shape
    start = t.shape[0] - 1
    delta = t[start] + o[0]
    back: list[np.ndarray] = []
    for i in range(1, n):
        scores = delta[:, None] + t[:num_labels]
        best_prev = scores.argmax(axis=0)  # first (lowest) index wins ties
        back.append(best_prev)
        delta = scores[best_prev, np.arange(num_labels)] + o[i]
    last = int(delta.argmax())
    path = [last]
    for bp in reversed(back):
        path.append(int(bp[path[-1]]))
    path.reverse()
    return path
