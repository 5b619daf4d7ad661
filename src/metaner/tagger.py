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

A batch of sentences travels as packed rows: the sentences' rows concatenated,
(sum of lengths, width), plus their `lengths`; `lengths=None` means the rows
are one sentence. `batch_loss` looks the batch up once, draws one dropout mask
per layer over its real tokens, and runs one BiLSTM node and one CRF partition
node. Those nodes lay the sentences out time-major in `Lanes`, sorted longest
first, so the sentences still running at a timestep are a prefix of the lanes
and each step is one slice, with no padding and no masks. One sentence is the
one-lane case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor, _logsumexp_stable
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import Corpus, LabeledSequence
from .vectors import read_vector_file


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

    def encode_states(self, emb: Tensor, lengths: Sequence[int] | None = None) -> Tensor:
        """BiLSTM states h_i = [forward_i ; backward_i], an (n, 2H) tensor.

        `emb` holds packed sentences split by `lengths` (None: one sentence).
        """
        weights = [
            self.params[f"{prefix}.{name}"]
            for prefix in ("lstm.fw", "lstm.bw")
            for name in ("Wx", "Wh", "b")
        ]
        return bilstm(emb, weights, lengths)

    def encode(
        self,
        emb: Tensor,
        train: bool = False,
        rng: np.random.Generator | None = None,
        lengths: Sequence[int] | None = None,
    ) -> Tensor:
        states = self.encode_states(emb, lengths)
        if train:
            states = self.dropout(states, rng)
        return states

    def emissions(self, states: Tensor) -> Tensor:
        """Per-position label scores o = H W + b, shape (n, L)."""
        return ad.affine(states, self.params["crf.W"], self.params["crf.b"])

    def transitions(self) -> Tensor:
        return self.params["crf.T"]

    def forward_from_embeddings(
        self,
        emb: Tensor,
        train: bool = False,
        rng: np.random.Generator | None = None,
        lengths: Sequence[int] | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Encoder and emission stages with the embedding stage bypassed."""
        if emb.data.ndim != 2 or emb.shape[1] != self.config.emb_dim:
            raise ValueError(
                f"embedding input must be (n, {self.config.emb_dim}), got {emb.shape}"
            )
        return self.emissions(self.encode(emb, train, rng, lengths)), self.transitions()

    def forward(
        self,
        tokens: Sequence[str],
        train: bool = False,
        rng: np.random.Generator | None = None,
        lengths: Sequence[int] | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Emissions and transitions of packed sentences split by `lengths`."""
        emb = self.embed(tokens, train, rng)
        return self.forward_from_embeddings(emb, train, rng, lengths)

    # --- losses and decoding ----------------------------------------------

    def label_indices(self, labels: Sequence[str]) -> list[int]:
        return [self.label_index[lab] for lab in labels]

    def batch_loss(
        self,
        seqs: Sequence[LabeledSequence],
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Summed NLL of `seqs` over one packed graph.

        One embedding lookup, one BiLSTM node and one CRF partition node
        serve every sentence; when training, each dropout layer draws one
        mask over the batch's real tokens.
        """
        tokens = [tok for seq in seqs for tok in seq.tokens]
        labels = [y for seq in seqs for y in self.label_indices(seq.labels)]
        lengths = [len(seq) for seq in seqs]
        o, t = self.forward(tokens, train, rng, lengths)
        return crf_nll(o, t, labels, lengths)

    def sequence_loss(
        self,
        seq: LabeledSequence,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        return self.batch_loss([seq], train, rng)

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


# --- packed sentences -----------------------------------------------------------


def _sentence_lengths(lengths: Sequence[int] | None, n: int) -> list[int]:
    """Lengths of the sentences packed into `n` rows; None is one sentence."""
    sizes = [n] if lengths is None else [int(k) for k in lengths]
    if not sizes or min(sizes) < 1 or sum(sizes) != n:
        raise ValueError(
            f"lengths must be positive and sum to the {n} packed rows, got {sizes}"
        )
    return sizes


class Lanes:
    """Time-major layout of packed sentences, one lane per sentence.

    Lanes are sorted by length, longest first, so the lanes live at timestep
    k are a prefix `[:active]` and step k owns the time-major positions
    `start : start + active`; `steps` lists those (start, active) pairs.
    Position p reads packed row `fw[p]` in the forward direction and `bw[p]`
    in the backward one, which reads each sentence reversed within its own
    length. `lane[p]` is the position's lane, `prev[p - a0]` is the position
    the same lane held one step earlier (for every p after the a0 positions
    of the first step) and `last[j]` is lane j's final position.
    """

    __slots__ = ("steps", "fw", "bw", "lane", "prev", "last")

    def __init__(self, lengths: Sequence[int] | None, n: int):
        sizes = _sentence_lengths(lengths, n)
        if len(sizes) == 1:  # the layout below, without its per-call numpy overhead
            self.fw = np.arange(n)
            self.bw = self.fw[::-1]
            self.lane = np.zeros(n, dtype=np.intp)
            self.prev = self.fw[:-1]
            self.last = self.fw[-1:]
            self.steps = [(k, 1) for k in range(n)]
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
        self.steps = list(zip(starts.tolist(), active.tolist()))


# --- fused BiLSTM --------------------------------------------------------------


def bilstm(
    emb: Tensor, weights: Sequence[Tensor], lengths: Sequence[int] | None = None
) -> Tensor:
    """Both LSTM directions over packed sentences as one graph node, (n, 2H).

    `emb` holds the sentences' rows concatenated, split by `lengths`
    (None: one sentence). `weights` holds (Wx, Wh, b) of the forward
    direction, then of the backward one; gate order is (i, f, g, o). Both
    directions of every sentence step together over the `Lanes` layout: the
    live lanes at a timestep are a prefix, so a step is one
    (2, a, H)·(2, H, 4H) matmul with no masking. The input projection
    X Wx^T + b is one GEMM. All four gates come from one tanh, since
    sigma(x) = (1 + tanh(x/2)) / 2 and halving the i, f, o rows is exact.
    The vjp is backpropagation through time over the cached gates and cells,
    ending in one GEMM per weight matrix.
    """
    n = emb.shape[0]
    lanes = Lanes(lengths, n)
    w = [t.data for t in weights]
    hid = w[1].shape[1]
    scale = np.full(4 * hid, 0.5)
    scale[2 * hid : 3 * hid] = 1.0
    shift = 1.0 - scale  # tanh(x/2) -> sigma(x) on i, f, o; g stays tanh(x)
    xs = np.stack([emb.data[lanes.fw], emb.data[lanes.bw]])  # (2, n, E), time-major
    pre_x = np.empty((2, n, 4 * hid))
    wh_t = np.empty((2, hid, 4 * hid))  # Wh^T of both directions, scaled
    for d in range(2):
        wx, wh, b = w[3 * d : 3 * d + 3]
        np.matmul(xs[d], wx.T, out=pre_x[d])
        pre_x[d] += b
        np.multiply(wh.T, scale, out=wh_t[d])
    pre_x *= scale
    gates = np.empty((2, n, 4 * hid))  # activated i, f, g, o per position
    cells = np.empty((2, n, hid))
    tanh_c = np.empty((2, n, hid))
    hs = np.empty((2, n, hid))
    i_g, f_g, g_g, o_g = (gates[..., j * hid : (j + 1) * hid] for j in range(4))
    prev = 0
    for k, (s, a) in enumerate(lanes.steps):
        cur, last = slice(s, s + a), slice(prev, prev + a)
        pre = pre_x[:, cur]
        if k:
            pre = pre + hs[:, last] @ wh_t
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

    def vjp(g: np.ndarray):
        # Stacked again rather than kept, so a live graph holds no weight copies.
        wh = np.stack(w[1::3])
        dh_out = np.stack([g[lanes.fw, :hid], g[lanes.bw, hid:]])  # time-major
        a0 = lanes.steps[0][1]
        c_prev = np.zeros_like(cells)
        c_prev[:, a0:] = cells[:, lanes.prev]
        slope = gates * (1.0 - gates)  # sigmoid' for i, f, o
        slope[..., 2 * hid : 3 * hid] = 1.0 - g_g * g_g  # tanh' for g
        # d pre_k = [dc_k, dc_k, dc_k, dh_k] * coef_k, since c_k = f c_{k-1} + i g
        # and h_k = o tanh(c_k).
        coef = np.concatenate([g_g, c_prev, i_g, tanh_c], axis=2) * slope
        dc_dh = o_g * (1.0 - tanh_c * tanh_c)
        d_pre = np.empty_like(gates)
        # Carried per lane; a lane's entries stay zero until its last step.
        dh_all = np.zeros((2, a0, hid))
        dc_all = np.zeros((2, a0, hid))
        for s, a in reversed(lanes.steps):
            cur = slice(s, s + a)
            dh, dc = dh_all[:, :a], dc_all[:, :a]
            dh += dh_out[:, cur]
            dc += dh * dc_dh[:, cur]
            dcdh = np.concatenate([dc, dc, dc, dh], axis=2)
            np.multiply(dcdh, coef[:, cur], out=d_pre[:, cur])
            dc *= f_g[:, cur]
            np.matmul(d_pre[:, cur], wh, out=dh)
        d_pre_t = d_pre.transpose(0, 2, 1)
        dwx = d_pre_t @ xs
        dwh = d_pre_t[:, :, a0:] @ hs[:, lanes.prev]
        db = d_pre.sum(axis=1)
        dx = np.empty_like(emb.data)
        dx[lanes.fw] = d_pre[0] @ w[0]
        dx[lanes.bw] += d_pre[1] @ w[3]
        return dx, dwx[0], dwh[0], db[0], dwx[1], dwh[1], db[1]

    return Tensor(out, (emb, *weights), vjp)


# --- CRF scoring -------------------------------------------------------------


def crf_score(
    o: Tensor, t: Tensor, labels: Sequence[int], lengths: Sequence[int] | None = None
) -> Tensor:
    """Transition-augmented score summed over packed sentences, as one node.

    `labels` runs over the packed rows of `o`, split by `lengths` (None: one
    sentence); each sentence's first position uses the START row. The score
    is the sum of the gold path's emission entries plus the sum of its
    transition entries; the vjp adds the upstream gradient into each entry
    the path read, once per read.
    """
    n, num_labels = o.shape
    start = t.shape[0] - 1
    labels = np.array(labels, dtype=np.intp)
    if labels.shape != (n,):
        raise ValueError(f"label sequence length {labels.size} != {n} positions")
    if np.any((labels < 0) | (labels >= num_labels)):
        raise ValueError("label index out of range")
    sizes = _sentence_lengths(lengths, n)
    prev = np.empty_like(labels)
    prev[1:] = labels[:-1]
    prev[np.cumsum(sizes) - sizes] = start
    rows = np.arange(n)
    score = o.data[rows, labels].sum() + t.data[prev, labels].sum()

    def vjp(g: np.ndarray):
        d_o = np.zeros_like(o.data)
        np.add.at(d_o, (rows, labels), g)
        d_t = np.zeros_like(t.data)
        np.add.at(d_t, (prev, labels), g)
        return d_o, d_t

    return Tensor(score, (o, t), vjp)


def crf_log_partition(
    o: Tensor, t: Tensor, lengths: Sequence[int] | None = None
) -> Tensor:
    """Sum over packed sentences of log sum_Y exp(score), by the forward algorithm.

    `o` holds the sentences' emission rows concatenated, split by `lengths`
    (None: one sentence). One graph node: the alpha recursion runs over all
    sentences at once on the `Lanes` layout, and the vjp runs the beta
    recursion the same way and returns the marginals (Sutton & McCallum,
    arXiv 1011.4088): d logZ/d o[i, y] is p(y_i = y), d logZ/d T[j, k] is
    sum_i p(y_{i-1} = j, y_i = k), and the START row takes each sentence's
    position-0 marginals.
    """
    od, td = o.data, t.data
    n, num_labels = od.shape
    lanes = Lanes(lengths, n)
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
        d_t = np.zeros_like(td)
        d_t[:num_labels] = np.exp(
            alpha[lanes.prev, :, None]
            + body
            + (ot[a0:] + beta[a0:])[:, None, :]
            - z[a0:, :, None]
        ).sum(axis=0)
        d_t[start] = node[:a0].sum(axis=0)
        return g * d_o, g * d_t

    return Tensor(log_z.sum(), (o, t), vjp)


def crf_nll(
    o: Tensor, t: Tensor, labels: Sequence[int], lengths: Sequence[int] | None = None
) -> Tensor:
    """Negative log-likelihood -log p(Y|X), summed over packed sentences."""
    return ad.sub(crf_log_partition(o, t, lengths), crf_score(o, t, labels, lengths))


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
