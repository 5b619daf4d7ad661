"""Reference implementations used as test oracles.

The CRF references are deliberately brute force and written against plain
numpy arrays, not the autodiff graph, so they cannot share bugs with the code
under test. The others are earlier, simpler versions of the program, kept
verbatim so that the faster code replacing them can be checked against them:
the dense weighted update, the one-sentence BiLSTM and CRF partition nodes,
the uniform and the reweighted step with one graph and one gradient per
example (and the lookahead values they take), decoding through one
sentence's graph and one sentence's Viterbi, `_parse_spans`, which parses
one sentence's spans, with the scheme conversion, span F1 and entity
dictionary built on one call of it per sentence, the synonym search over
the whole similarity matrix, and the vector file reader that called `float` on
every value. `finite_diff_check` compares the engine's gradients with
central differences. `add`, `sub`, `mul`, `pick`, `tsum` and
`mix_embeddings` are graph ops that only tests build. The last helpers are
conveniences only tests use: parameter snapshots, which the literal lookahead
restores, and the one-sentence views `extract_spans` and `convert_sentence` of
the program's corpus functions.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from pathlib import Path

import numpy as np

from metaner import autodiff as ad
from metaner.augment import EntityDict, MixedExample, SynonymDict
from metaner.autodiff import (
    GradientMap,
    NumericError,
    ParamStore,
    RowGrad,
    Tensor,
    _logsumexp_stable,
    _sigmoid_stable,
    grad,
)
from metaner.corpus import (
    SCHEMES,
    Corpus,
    LabeledSequence,
    Span,
    render_labels,
    sentence_spans,
    validate_label,
)
from metaner.optim import AdamWState, clip_global_norm
from metaner.tagger import crf_log_partition, crf_score
from metaner.trainer import reweight
from metaner.vectors import read_vector_file

logger = logging.getLogger(__name__)
augment_logger = logging.getLogger("metaner.augment")  # build_entity_dict's
corpus_logger = logging.getLogger("metaner.corpus")  # the span repairs'


def brute_score(o: np.ndarray, t: np.ndarray, labels: tuple[int, ...]) -> float:
    """Explicit sum of transition + emission terms, y_0 = START (last row)."""
    start = t.shape[0] - 1
    total = 0.0
    prev = start
    for i, y in enumerate(labels):
        total += t[prev, y] + o[i, y]
        prev = y
    return total


def all_sequences(n: int, num_labels: int):
    return itertools.product(range(num_labels), repeat=n)


def brute_log_partition(o: np.ndarray, t: np.ndarray) -> float:
    """log sum over all L^n label sequences of exp(score)."""
    n, num_labels = o.shape
    scores = [brute_score(o, t, seq) for seq in all_sequences(n, num_labels)]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_nll(o: np.ndarray, t: np.ndarray, labels: tuple[int, ...]) -> float:
    return brute_log_partition(o, t) - brute_score(o, t, labels)


def brute_viterbi_score(o: np.ndarray, t: np.ndarray) -> float:
    n, num_labels = o.shape
    return max(brute_score(o, t, seq) for seq in all_sequences(n, num_labels))


def numeric_gradient(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = g.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        up = fn()
        flat_x[i] = orig - h
        down = fn()
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2 * h)
    return g


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def finite_diff_check(
    loss_fn: Callable[[], Tensor],
    params: ParamStore,
    h: float = 1e-5,
) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    `loss_fn` must be deterministic given the parameters (dropout disabled or
    its mask frozen); otherwise the result is meaningless.
    """
    analytic = grad(loss_fn(), params)
    worst = 0.0
    for name in params.names():
        t = params[name]
        flat = t.data.ravel()
        a_flat = analytic[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn().item()
            flat[i] = orig - h
            down = loss_fn().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(1.0, abs(a_flat[i]), abs(numeric))
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst


# --- dense weighted update ---------------------------------------------------------
# The weighted sum and the AdamW step as they were before the embedding gradient
# stayed row-sparse through them: every combined entry dense, every AdamW
# temporary full-size. Kept verbatim as the reference the in-place, row-sparse
# versions must reproduce.


def dense_combine(maps: Sequence[GradientMap], coeffs: Sequence[float]) -> GradientMap:
    """Linear combination sum_i coeffs[i] * maps[i], every entry dense.

    A row-sparse entry is first summed over its unique rows, then scaled and
    added into those rows only; untouched rows would have added c * 0.0, so
    the result is bit-identical to accumulating the dense arrays.
    """
    if len(maps) != len(coeffs) or not maps:
        raise ValueError("need one coefficient per gradient map")
    keys = maps[0].keys()
    out = {n: np.zeros(maps[0].stored(n).shape) for n in keys}
    for gm, c in zip(maps, coeffs):
        if gm.keys() != keys:
            raise ValueError("gradient maps have different key sets")
        for n in keys:
            g = gm.stored(n)
            if isinstance(g, RowGrad):
                uniq, totals = g.summed()
                out[n][uniq] += c * totals
            else:
                out[n] += c * g
    return GradientMap(out)


def dense_adamw_step(params: ParamStore, grads: GradientMap, state: AdamWState) -> None:
    """One AdamW update in place: bias-corrected moments, decoupled decay.

    The decay term is proportional to the parameter value itself and is not
    folded into the gradient. Aborts (raising NumericError) before touching
    any state if the gradients contain NaN/Inf.
    """
    if not grads.all_finite():
        raise NumericError("non-finite gradient; optimizer step aborted")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name in params.names():
        g = grads[name]
        p = params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        if state.weight_decay:
            p.data -= state.lr * state.weight_decay * p.data
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


# --- one sentence per node --------------------------------------------------------
# The fused BiLSTM and CRF partition nodes as they were before they took packed
# sentences: one sentence per call. Kept verbatim as the reference that the
# packed nodes must reproduce as a sum over per-sentence calls.


def sentence_bilstm(emb: Tensor, weights: Sequence[Tensor]) -> Tensor:
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


def sentence_crf_log_partition(o: Tensor, t: Tensor) -> Tensor:
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


# --- the training steps, one gradient per example -------------------------------
# The steps as they were before the augmented batch became one packed graph:
# one graph per example (a mixup pair mixed on its own, each gold path scored
# by its own node), one `grad` each, their dense weighted sum, clipping and the
# dense AdamW update. Kept verbatim as the references the packed step must
# reproduce.


def pair_loss(model, mx, mix_layer="embedding", train=False, rng=None):
    """Composite CRF loss of a mixed pair: lam * L(mix, Y1) + (1-lam) * L(mix, Y2)."""
    n = mx.length
    if mix_layer == "embedding":
        e1 = model.lookup_embeddings(mx.first.tokens)
        e2 = model.lookup_embeddings(mx.second.tokens)
        mixed = mix_embeddings(e1, e2, mx.lam, n)
        if train:
            mixed = model.dropout(mixed, rng)
        states = model.encode_states(mixed)
        if train:
            states = model.dropout(states, rng)
    else:
        hs = []
        for tokens in (mx.first.tokens, mx.second.tokens):
            e = model.lookup_embeddings(tokens)
            if train:
                e = model.dropout(e, rng)
            hs.append(model.encode_states(e))
        states = mix_embeddings(hs[0], hs[1], mx.lam, n)
        if train:
            states = model.dropout(states, rng)
    o = model.emissions(states)
    t = model.transitions()
    log_z = crf_log_partition(o, t)
    s1 = crf_score(o, t, model.label_indices(mx.labels_first()))
    s2 = crf_score(o, t, model.label_indices(mx.labels_second()))
    return sub(log_z, add(ad.scale(s1, mx.lam), ad.scale(s2, 1.0 - mx.lam)))


def example_loss(model, item, mix_layer="embedding", train=True, rng=None):
    if isinstance(item.payload, MixedExample):
        return pair_loss(model, item.payload, mix_layer, train, rng)
    return model.sequence_loss(item.payload, train, rng)


def per_example_epsilon_grad(
    params: ParamStore,
    aug_losses: Sequence[Tensor],
    meta_losses: Sequence[Tensor],
    beta: float,
) -> tuple[np.ndarray, list[GradientMap]]:
    """Closed-form weight gradients from one lookahead step, one `grad` per loss.

    The lookahead parameters are Theta - beta * sum_i eps_i g_i, linear in
    eps, so the chain rule collapses to -beta times the dot product of each
    example gradient with the meta-batch gradient. Returns the values and
    the example gradients, which the caller reuses for the weighted update.
    """
    if not aug_losses or not meta_losses:
        raise ValueError("epsilon_grad needs nonempty loss batches")
    example_grads = [grad(loss, params) for loss in aug_losses]
    meta_total = functools.reduce(add, meta_losses)
    meta_grad = grad(ad.scale(meta_total, 1.0 / len(meta_losses)), params)
    if not meta_grad.all_finite() or not all(g.all_finite() for g in example_grads):
        raise NumericError("non-finite gradients in lookahead step")
    values = np.array([-beta * meta_grad.dot(g) for g in example_grads])
    return values, example_grads


def per_example_reweighted_step(
    model, aug_batch, meta_batch, cfg, opt_state, rng, mix_layer="embedding"
):
    """The reweighting-on training step with one graph and one `grad` per example.

    Returns the lookahead values, the weights and the weighted loss.
    """
    losses = [example_loss(model, item, mix_layer, True, rng) for item in aug_batch]
    meta_loss = ad.scale(
        model.batch_loss(meta_batch, train=True, rng=rng), 1.0 / len(meta_batch)
    )
    values, example_grads = per_example_epsilon_grad(
        model.params, losses, [meta_loss], cfg.inner_lr
    )
    weights = reweight(values, cfg.delta)
    total = dense_combine(example_grads, weights.w)
    loss_value = float(np.dot(weights.w, [loss.data for loss in losses]))
    dense_adamw_step(model.params, clip_global_norm(total, cfg.clip), opt_state)
    return values, weights, loss_value


def per_sentence_uniform_step(model, aug_batch, cfg, opt_state, rng, mix_layer="embedding"):
    """The reweighting-off training step with one graph and one `grad` per example.

    This is the step as it was before the batch became one packed graph:
    each example's gradient map, their 1/n-weighted dense sum, clipping and
    the dense AdamW update.
    """
    losses = [example_loss(model, item, mix_layer, True, rng) for item in aug_batch]
    grads = [grad(loss, model.params) for loss in losses]
    total = dense_combine(grads, np.full(len(grads), 1.0 / len(grads)))
    dense_adamw_step(model.params, clip_global_norm(total, cfg.clip), opt_state)


def sentence_viterbi(o: np.ndarray, t: np.ndarray) -> list[int]:
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


def sentence_decode(model, tokens) -> tuple[np.ndarray, list[str]]:
    """Emission rows and Viterbi labels of one sentence through its own graph.

    This is decoding as it was before a corpus shared BiLSTM passes and
    Viterbi ran over many sentences at once.
    """
    o, t = model.forward(tokens, train=False)
    return o.data, [model.label_vocab[i] for i in sentence_viterbi(o.data, t.data)]


# --- span parsing, one sentence at a time ----------------------------------------
# The per-sentence parser that `corpus._span_arrays` replaced, and the scheme
# conversion, span F1 and entity dictionary built on it.


def _parse_spans(
    labels: Sequence[str], scheme: str, warn: bool = True
) -> list[Span]:
    """Lenient span parse of one sentence.

    Repair policy: an I-/E- tag without a matching open span opens a new one
    (treated as B-); an open span is closed by any incompatible tag. Repairs
    warn by default; scoring paths silence them because model output is
    routinely invalid early in training.
    """
    spans: list[Span] = []
    open_type: str | None = None
    open_start = 0

    def close(end: int):
        nonlocal open_type
        if open_type is not None:
            spans.append(Span(open_type, open_start, end))
            open_type = None

    for i, label in enumerate(labels):
        prefix, etype = validate_label(label, scheme)
        if prefix == "O":
            close(i - 1)
        elif prefix == "B":
            close(i - 1)
            open_type, open_start = etype, i
        elif prefix == "S":
            close(i - 1)
            spans.append(Span(etype, i, i))
        elif prefix == "I":
            if open_type != etype:
                if warn:
                    corpus_logger.warning(
                        "repairing stray %s at position %d: treating as B-%s",
                        label, i, etype,
                    )
                close(i - 1)
                open_type, open_start = etype, i
        else:  # "E"
            if open_type == etype:
                close(i)
            else:
                if warn:
                    corpus_logger.warning(
                        "repairing stray %s at position %d: treating as B-%s",
                        label, i, etype,
                    )
                close(i - 1)
                spans.append(Span(etype, i, i))
    close(len(labels) - 1)
    return spans


def convert_scheme(
    seq: LabeledSequence, target: str, warn: bool = True
) -> LabeledSequence:
    """Re-express the labels in `target`; the entity span set is preserved."""
    if target not in SCHEMES:
        raise ValueError(f"unknown scheme {target!r}")
    spans = _parse_spans(seq.labels, seq.scheme, warn=warn)
    return LabeledSequence(
        seq.tokens, render_labels(len(seq), spans, target), scheme=target
    )


def span_f1(
    pred: Sequence[Sequence[str]],
    gold: Sequence[Sequence[str]],
    scheme: str = "BIOES",
) -> dict[str, float]:
    """Micro-averaged exact span match (type + boundaries).

    Precision and recall use the 0-when-undefined convention; F1 is 0 when
    P + R = 0. `support` counts gold spans.
    """
    if len(pred) != len(gold):
        raise ValueError(f"pred has {len(pred)} sentences, gold has {len(gold)}")
    tp = fp = fn = 0
    for p_labels, g_labels in zip(pred, gold):
        if len(p_labels) != len(g_labels):
            raise ValueError("sentence length mismatch between pred and gold")
        p_spans = set(_parse_spans(p_labels, scheme, warn=False))
        g_spans = set(_parse_spans(g_labels, scheme, warn=False))
        tp += len(p_spans & g_spans)
        fp += len(p_spans - g_spans)
        fn += len(g_spans - p_spans)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1, "support": tp + fn}


def build_entity_dict(corpus: Corpus) -> EntityDict:
    """Collect every gold mention under its entity type, first-seen order."""
    mentions: dict[str, list[tuple[str, ...]]] = {}
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for ex in corpus.examples:
        for span in _parse_spans(ex.labels, ex.scheme):
            surface = tuple(ex.tokens[span.start : span.end + 1])
            key = (span.entity_type, surface)
            if key in seen:
                continue
            seen.add(key)
            mentions.setdefault(span.entity_type, []).append(surface)
    if not mentions:
        augment_logger.warning("corpus has no entity spans; entity substitution disabled")
    return EntityDict(mentions)


# --- graph ops only tests build ------------------------------------------------


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op} needs equal shapes, got {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a + b of two equal-shaped tensors."""
    _same_shape("add", a, b)
    out = a.data + b.data

    def vjp(g: np.ndarray):
        return g, g

    return Tensor(out, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a - b of two equal-shaped tensors."""
    _same_shape("sub", a, b)
    out = a.data - b.data

    def vjp(g: np.ndarray):
        return g, -g

    return Tensor(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a * b of two equal-shaped tensors."""
    _same_shape("mul", a, b)
    out = a.data * b.data

    def vjp(g: np.ndarray):
        return g * b.data, g * a.data

    return Tensor(out, (a, b), vjp)


def pick(a: Tensor, index: tuple[int, ...]) -> Tensor:
    """Scalar element of a tensor."""
    out = np.asarray(a.data[index])

    def vjp(g: np.ndarray):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return Tensor(out, (a,), vjp)


def tsum(a: Tensor) -> Tensor:
    """Sum of all entries of a tensor, a scalar."""
    out = a.data.sum()

    def vjp(g: np.ndarray):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return Tensor(out, (a,), vjp)


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
    pos = np.arange(n)
    rows = [np.where(pos < e.shape[0], pos, -1) for e in (e1, e2)]
    return ad.mix_rows(e1, e2, *rows, np.full(n, lam), np.full(n, 1.0 - lam))


# --- helpers only tests use ----------------------------------------------------


def snapshot(params: ParamStore) -> dict[str, np.ndarray]:
    """A fresh copy of every parameter array, sharing no memory with them."""
    return {name: t.data.copy() for name, t in params.items()}


def load_snapshot(params: ParamStore, arrays: Mapping[str, np.ndarray]) -> None:
    """Copy `arrays` into the live parameter arrays, which keep their identity."""
    for name, t in params.items():
        src = np.asarray(arrays[name], dtype=np.float64)
        if src.shape != t.data.shape:
            raise ValueError(f"shape mismatch for {name!r}: {src.shape} vs {t.data.shape}")
        np.copyto(t.data, src)


def extract_spans(seq: LabeledSequence) -> set[Span]:
    """Maximal typed entity spans of one sentence, as `sentence_spans` parses
    them, each repair logged."""
    return set(sentence_spans([seq.labels], seq.scheme, warn=True)[0])


def convert_sentence(seq: LabeledSequence, target: str) -> LabeledSequence:
    """One sentence in `target`, as `Corpus.convert` converts it."""
    return Corpus([seq], scheme=seq.scheme).convert(target).examples[0]


# --- the exhaustive synonym search ------------------------------------------------
# `build_synonym_dict` as it was before the similarities were taken in row
# blocks: the whole V x V matrix and one full stable sort per row. Kept verbatim
# as the reference the blocked search must reproduce.


def exhaustive_synonym_dict(
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


# --- the line-by-line vector reader ---------------------------------------------
# `read_vector_file` as it was before numpy's reader parsed the values: one
# `float` call per value. Kept verbatim as the reference for the vectors it
# returns and the errors it raises.


def line_vector_file(path: str | Path) -> dict[str, np.ndarray]:
    """Load word vectors; all rows must share one dimension and be finite."""
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'word v1 v2 ...'")
            word = parts[0]
            try:
                values = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad float in vector for {word!r}") from exc
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise ValueError(
                    f"{path}:{lineno}: vector for {word!r} has dim {len(values)}, expected {dim}"
                )
            # A NaN or an infinity makes the sum non-finite. So can finite values
            # that overflow, which the exact check then lets through; the sum
            # alone costs a fraction of the exact check on every line.
            if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
                raise ValueError(f"{path}:{lineno}: non-finite value in vector for {word!r}")
            vectors[word] = np.array(values, dtype=np.float64)
    return vectors
