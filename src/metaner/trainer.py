"""Meta-reweighted training loop.

Each step samples a batch from the union of clean and pseudo examples and a
meta batch of clean examples only. A one-step lookahead assigns every batch
member a scalar weight: examples whose gradient points the same way as the
clean meta gradient are upweighted, conflicting ones suppressed. Because the
lookahead is a plain SGD step, the derivative of the meta loss with respect
to each example's weight has a closed form at the evaluation point, namely

    d eps_i = -beta * <g_meta, g_i>,

so no second forward pass or higher-order machinery is needed; a
finite-difference oracle in the tests executes the literal two-stage
computation and confirms the identity.

Weights pass through sigma(-d eps) and are normalized by (sum + delta), so a
batch's weights sum to slightly under one. With reweighting disabled the step
degrades to the uniform 1/n average, which keeps the "with/without
reweighting" comparison a one-flag diff.

The step needs n dot products and one weighted sum, not n gradients.
`epsilon_grad` computes the n values: `TaggerModel.batch_loss` builds the
augmented batch as one packed graph (plain sentences and mixup pairs as
prefix-active lanes, every row tagged with the example that owns it) and the
meta batch as another. Each graph is built, walked backward once and released
before the next is built, so a step holds one training graph at a time. The
augmented walk keeps its parameter gradients factored by row
(`autodiff.ExampleGrads`): one contraction per weight against the meta
gradient gives all n values
<g_meta, g_i>, and the same rows scaled by their example's weight give
sum_i w_i g_i, one `GradientMap` for clipping and AdamW. With reweighting
disabled the augmented graph alone, scaled by 1/n, gives the update. The
acceptance gate checks `epsilon_grad` itself against the literal two-stage
lookahead.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ExampleGrads, NumericError, Tensor, _sigmoid_stable, grad
from .augment import MixedExample, PseudoExample, Substituted, mixup_loss
from .corpus import Corpus, LabeledSequence, span_f1
from .optim import AdamWState, adamw_step, clip_global_norm
from .tagger import TaggerModel
from .textio import open_text

logger = logging.getLogger(__name__)

PROVENANCES = ("clean", "ts", "mixup")


@dataclass
class TrainerConfig:
    steps: int = 500
    m: int = 16  # meta batch size
    n: int = 16  # training batch size
    lr: float = 1e-3
    beta: float | None = None  # lookahead step size; defaults to lr
    delta: float = 1e-8
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.99
    clip: float = 5.0
    seed: int = 0
    eval_every: int = 50
    meta_reweight: bool = True

    def __post_init__(self):
        # Written as `not lo < x < hi` so that NaN fails every check.
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"batch sizes must be >= 1, got m={self.m}, n={self.n}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.beta is not None and not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be finite and > 0, got {self.delta}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}"
            )
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0 < self.clip < math.inf:
            raise ValueError(f"clip must be finite and > 0, got {self.clip}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")

    @property
    def inner_lr(self) -> float:
        return self.beta if self.beta is not None else self.lr


@dataclass(frozen=True)
class TrainExample:
    """One member of the augmented pool, tagged with where it came from."""

    payload: LabeledSequence | MixedExample
    provenance: str  # "clean" | "ts" | "mixup"
    ident: str


@dataclass
class WeightVector:
    w: np.ndarray  # normalized weights, sum slightly under 1
    w_hat: np.ndarray  # raw sigmoid outputs before normalization


def epsilon_grad(
    model: TaggerModel,
    aug_batch: Sequence[TrainExample],
    meta_batch: Sequence[LabeledSequence],
    beta: float,
    mix_layer: str,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ExampleGrads, np.ndarray]:
    """Closed-form weight gradients from one lookahead step.

    The lookahead parameters are Theta - beta * sum_i eps_i g_i, linear in
    eps, so the chain rule collapses to -beta times the dot product of each
    example gradient with the meta-batch gradient. Returns the n values, the
    factored example gradients, which the caller weights for the update, and
    the augmented batch's per-example losses.

    The augmented graph is walked backward and dropped before the meta graph
    is built, so the two are never alive at once. The dropout masks are drawn
    in forward order: augmented input and states, then meta input and states.
    """
    if not aug_batch or not meta_batch:
        raise ValueError("epsilon_grad needs nonempty batches")
    losses = model.batch_loss([item.payload for item in aug_batch], True, rng, mix_layer)
    per_lane = losses.per_lane
    example_grads = grad(losses, model.params, per_example=True)
    del losses  # the meta pass never reads the augmented graph
    meta_loss = ad.scale(model.batch_loss(meta_batch, True, rng), 1.0 / len(meta_batch))
    meta_grad = grad(meta_loss, model.params)
    if not meta_grad.all_finite() or not example_grads.all_finite():
        raise NumericError("non-finite gradients in lookahead step")
    eps = -beta * example_grads.dots(meta_grad, len(aug_batch))
    return eps, example_grads, per_lane


def reweight(values: np.ndarray, delta: float = 1e-8) -> WeightVector:
    """Map weight gradients to normalized example weights."""
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    w_hat = _sigmoid_stable(-values)
    w = w_hat / (w_hat.sum() + delta)
    return WeightVector(w, w_hat)


def _uniform_weights(n: int) -> WeightVector:
    return WeightVector(np.full(n, 1.0 / n), np.full(n, 0.5))


def example_loss(
    model: TaggerModel,
    item: TrainExample,
    mix_layer: str = "embedding",
    train: bool = True,
    rng: np.random.Generator | None = None,
) -> Tensor:
    if isinstance(item.payload, MixedExample):
        return mixup_loss(model, item.payload, mix_layer, train, rng)
    return model.sequence_loss(item.payload, train, rng)


def meta_train_step(
    model: TaggerModel,
    aug_batch: Sequence[TrainExample],
    meta_batch: Sequence[LabeledSequence],
    cfg: TrainerConfig,
    opt_state: AdamWState,
    rng: np.random.Generator,
    mix_layer: str = "embedding",
) -> tuple[WeightVector, float]:
    """One outer-optimizer step; returns the batch weights and weighted loss."""
    if not aug_batch or not meta_batch:
        raise ValueError("batches must be nonempty")
    if cfg.meta_reweight:
        eps, example_grads, losses = epsilon_grad(
            model, aug_batch, meta_batch, cfg.inner_lr, mix_layer, rng
        )
        weights = reweight(eps, cfg.delta)
        if np.all(weights.w == 0.0):
            logger.warning("all example weights are zero; taking a no-op step")
        total = example_grads.weighted(weights.w)
        loss_value = float(np.dot(weights.w, losses))
    else:
        n = len(aug_batch)
        losses = model.batch_loss([item.payload for item in aug_batch], True, rng, mix_layer)
        loss = ad.scale(losses, 1.0 / n)
        weights = _uniform_weights(n)
        total = grad(loss, model.params)
        loss_value = float(loss.data)
    total = clip_global_norm(total, cfg.clip)
    adamw_step(model.params, total, opt_state)
    return weights, loss_value


# --- full training loop -----------------------------------------------------------


def evaluate(model: TaggerModel, corpus: Corpus) -> dict:
    """Span precision/recall/F1 of Viterbi decoding over a labeled corpus.

    Paths come from one pass over the corpus in length-sorted chunks, with
    one stacked emission product per length, and come back in corpus order;
    each sentence is decoded once, in corpus order.
    """
    preds = model.decode_all([ex.tokens for ex in corpus.examples])
    golds = [list(ex.labels) for ex in corpus.examples]
    return span_f1(preds, golds, scheme=corpus.scheme)


def build_pool(clean: Corpus, pseudo: Sequence[PseudoExample]) -> list[TrainExample]:
    """Union of clean examples and pseudo examples with stable identifiers."""
    pool = [
        TrainExample(ex, "clean", f"clean-{i}") for i, ex in enumerate(clean.examples)
    ]
    for j, p in enumerate(pseudo):
        if isinstance(p, Substituted):
            pool.append(TrainExample(p.example, "ts", f"ts-{j}"))
        elif isinstance(p, MixedExample):
            pool.append(TrainExample(p, "mixup", f"mixup-{j}"))
        else:
            raise TypeError(f"unknown pseudo example type: {type(p).__name__}")
    return pool


@dataclass
class TrainResult:
    model: TaggerModel
    history: list[dict]
    best_dev_f1: float
    best_step: int
    weight_rows: list[tuple[int, str, str, float]] = field(repr=False, default_factory=list)


def _mean_weights(rows: Sequence[tuple[int, str, str, float]]) -> dict[str, float | None]:
    """Per-provenance mean weight of weight rows, None for a provenance with none."""
    sums = dict.fromkeys(PROVENANCES, 0.0)
    counts = dict.fromkeys(PROVENANCES, 0)
    # `+=` in row order: from Python 3.12 `sum()` compensates, which changes bits.
    for _, _, provenance, w in rows:
        sums[provenance] += w
        counts[provenance] += 1
    return {f"mean_weight_{p}": sums[p] / counts[p] if counts[p] else None for p in PROVENANCES}


def train(
    model: TaggerModel,
    clean: Corpus,
    pseudo: Sequence[PseudoExample],
    dev: Corpus | None,
    cfg: TrainerConfig,
    mix_layer: str = "embedding",
    history_path: str | Path | None = None,
    weights_path: str | Path | None = None,
    checkpoint_path: str | Path | None = None,
    run_fields: Mapping[str, object] | None = None,
) -> TrainResult:
    """Run the full loop and return the model restored to its best dev score.

    History records are JSON lines {step, dev_f1, mean_weight_*, loss} at the
    eval cadence; every step's per-example weights are kept as TSV rows
    (step, example-id, provenance, weight) for offline inspection.

    The best parameters live only in `checkpoint_path`: each improving dev
    eval saves the model there atomically, with `run_fields` and that eval's
    step as `best_step` in the checkpoint's run block. If the best eval is
    not the last, the file is read back into the live parameter arrays at the
    end. So a run holds one copy of the parameters, and a run that diverges
    leaves its best checkpoint so far. With no improving eval (no dev corpus,
    or no steps), the parameters as they are at the end are saved with
    `best_step` 0. A dev corpus needs a checkpoint path.
    """
    if len(clean) == 0:
        raise ValueError("clean training corpus is empty")
    if dev is not None and checkpoint_path is None:
        raise ValueError("a dev corpus needs a checkpoint path to keep the best parameters")
    pool = build_pool(clean, pseudo)
    sample_ss, dropout_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    sample_rng = np.random.default_rng(sample_ss)
    dropout_rng = np.random.default_rng(dropout_ss)
    opt_state = AdamWState(
        lr=cfg.lr,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        weight_decay=cfg.weight_decay,
    )

    history: list[dict] = []
    weight_rows: list[tuple[int, str, str, float]] = []
    window_start = 0  # the rows since the last history record
    best_f1 = -1.0  # below every F1, so the first eval improves on it
    best_step = 0

    def save(best_step: int) -> None:
        run = {**(run_fields or {}), "best_step": best_step}
        model.save(checkpoint_path, extra_config=run)

    for step in range(1, cfg.steps + 1):
        aug_idx = sample_rng.integers(len(pool), size=cfg.n)
        aug_batch = [pool[int(i)] for i in aug_idx]
        meta_idx = sample_rng.integers(len(clean), size=cfg.m)
        meta_batch = [clean.examples[int(i)] for i in meta_idx]
        try:
            weights, loss_value = meta_train_step(
                model, aug_batch, meta_batch, cfg, opt_state, dropout_rng, mix_layer
            )
        except NumericError as exc:
            raise RuntimeError(
                f"training diverged at step {step}: {exc}"
            ) from exc
        for item, w in zip(aug_batch, weights.w):
            weight_rows.append((step, item.ident, item.provenance, float(w)))

        if step % cfg.eval_every == 0 or step == cfg.steps:
            record: dict = {"step": step, "loss": loss_value}
            record.update(_mean_weights(weight_rows[window_start:]))
            window_start = len(weight_rows)
            if dev is not None:
                record["dev_f1"] = evaluate(model, dev)["f1"]
                if record["dev_f1"] > best_f1:
                    best_f1 = record["dev_f1"]
                    best_step = step
                    save(best_step)
            else:
                record["dev_f1"] = None
            history.append(record)

    if best_f1 < 0:
        if checkpoint_path is not None:
            save(best_step)
    elif best_step != cfg.steps:
        model.load_params(checkpoint_path)
    if history_path is not None:
        with open(history_path, "w", encoding="utf-8") as fh:
            for record in history:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    if weights_path is not None:
        write_weight_rows(weights_path, weight_rows)
    return TrainResult(model, history, max(best_f1, 0.0), best_step, weight_rows)


# The weights.tsv format: a header, then one row per (step, example).
WEIGHT_HEADER = "step\texample_id\tprovenance\tweight"
WEIGHT_ROW = "{}\t{}\t{}\t{!r}"  # step, example id, provenance, weight


def write_weight_rows(
    path: str | Path, rows: Sequence[tuple[int, str, str, float]]
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(WEIGHT_HEADER + "\n")
        for row in rows:
            fh.write(WEIGHT_ROW.format(*row) + "\n")


def read_weight_rows(path: str | Path) -> list[tuple[int, str, str, float]]:
    """Rows of a `write_weight_rows` dump; a bad row raises naming its line."""
    rows = []
    with open_text(path, ValueError) as fh:
        header = fh.readline()
        if header.strip() != WEIGHT_HEADER:
            raise ValueError(f"{path}:1: not a weight dump header")
        for lineno, line in enumerate(fh, 2):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns, got {len(fields)}")
            step, ident, provenance, w = fields
            try:
                rows.append((int(step), ident, provenance, float(w)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return rows
