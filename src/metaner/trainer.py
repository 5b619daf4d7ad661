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
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GradientMap, NumericError, Tensor, _sigmoid_stable, combine, grad
from .augment import MixedExample, PseudoExample, Substituted, mixup_loss
from .corpus import Corpus, LabeledSequence, span_f1
from .optim import AdamWState, adamw_step, clip_global_norm
from .tagger import TaggerModel

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
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"batch sizes must be >= 1, got m={self.m}, n={self.n}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.beta is not None and self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
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
class EpsilonGrad:
    """d(meta loss)/d(example weight) at the zero point, one scalar per example."""

    values: np.ndarray
    example_grads: list[GradientMap]


@dataclass
class WeightVector:
    w: np.ndarray  # normalized weights, sum slightly under 1
    w_hat: np.ndarray  # raw sigmoid outputs before normalization


def _mean_loss(losses: Sequence[Tensor]) -> Tensor:
    total = losses[0]
    for loss in losses[1:]:
        total = ad.add(total, loss)
    return ad.scale(total, 1.0 / len(losses))


def epsilon_grad(
    params: ad.ParamStore,
    aug_losses: Sequence[Tensor],
    meta_losses: Sequence[Tensor],
    beta: float,
) -> EpsilonGrad:
    """Closed-form weight gradients from one lookahead step.

    The lookahead parameters are Theta - beta * sum_i eps_i g_i, linear in
    eps, so the chain rule collapses to -beta times the dot product of each
    example gradient with the meta-batch gradient. Gradients are evaluated
    once at the current parameters and reused by the caller for the weighted
    update.
    """
    if not aug_losses or not meta_losses:
        raise ValueError("epsilon_grad needs nonempty loss batches")
    example_grads = [grad(loss, params) for loss in aug_losses]
    meta_grad = grad(_mean_loss(meta_losses), params)
    if not meta_grad.all_finite() or not all(g.all_finite() for g in example_grads):
        raise NumericError("non-finite gradients in lookahead step")
    values = np.array([-beta * meta_grad.dot(g) for g in example_grads])
    return EpsilonGrad(values, example_grads)


def reweight(eg: EpsilonGrad, delta: float = 1e-8) -> WeightVector:
    """Map weight gradients to normalized example weights."""
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    w_hat = _sigmoid_stable(-eg.values)
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
    losses = [example_loss(model, item, mix_layer, True, rng) for item in aug_batch]
    if cfg.meta_reweight:
        meta_losses = [
            model.sequence_loss(ex, train=True, rng=rng) for ex in meta_batch
        ]
        eg = epsilon_grad(model.params, losses, meta_losses, cfg.inner_lr)
        weights = reweight(eg, cfg.delta)
        grads = eg.example_grads
    else:
        weights = _uniform_weights(len(aug_batch))
        grads = [grad(loss, model.params) for loss in losses]
    if np.all(weights.w == 0.0):
        logger.warning("all example weights are zero; taking a no-op step")
    total = combine(grads, weights.w)
    total = clip_global_norm(total, cfg.clip)
    adamw_step(model.params, total, opt_state)
    loss_value = float(np.dot(weights.w, [loss.data for loss in losses]))
    return weights, loss_value


# --- full training loop -----------------------------------------------------------


def evaluate(model: TaggerModel, corpus: Corpus) -> dict:
    """Span precision/recall/F1 of greedy decoding over a labeled corpus."""
    preds = [model.decode(ex.tokens) for ex in corpus.examples]
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


class _WindowMeans:
    """Running per-provenance weight means between two history records."""

    def __init__(self):
        self.sums = dict.fromkeys(PROVENANCES, 0.0)
        self.counts = dict.fromkeys(PROVENANCES, 0)

    def add(self, batch: Sequence[TrainExample], weights: np.ndarray) -> None:
        for item, w in zip(batch, weights):
            self.sums[item.provenance] += float(w)
            self.counts[item.provenance] += 1

    def flush(self) -> dict[str, float | None]:
        out = {}
        for p in PROVENANCES:
            out[f"mean_weight_{p}"] = (
                self.sums[p] / self.counts[p] if self.counts[p] else None
            )
        self.sums = dict.fromkeys(PROVENANCES, 0.0)
        self.counts = dict.fromkeys(PROVENANCES, 0)
        return out


def train(
    model: TaggerModel,
    clean: Corpus,
    pseudo: Sequence[PseudoExample],
    dev: Corpus | None,
    cfg: TrainerConfig,
    mix_layer: str = "embedding",
    history_path: str | Path | None = None,
    weights_path: str | Path | None = None,
) -> TrainResult:
    """Run the full loop and return the model restored to its best dev score.

    History records are JSON lines {step, dev_f1, mean_weight_*, loss} at the
    eval cadence; every step's per-example weights are kept as TSV rows
    (step, example-id, provenance, weight) for offline inspection.
    """
    if len(clean) == 0:
        raise ValueError("clean training corpus is empty")
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
    window = _WindowMeans()
    best_f1 = -1.0
    best_step = 0
    best_snapshot = model.params.snapshot()

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
        window.add(aug_batch, weights.w)
        for item, w in zip(aug_batch, weights.w):
            weight_rows.append((step, item.ident, item.provenance, float(w)))

        if step % cfg.eval_every == 0 or step == cfg.steps:
            record: dict = {"step": step, "loss": loss_value}
            record.update(window.flush())
            if dev is not None:
                record["dev_f1"] = evaluate(model, dev)["f1"]
                if record["dev_f1"] > best_f1:
                    best_f1 = record["dev_f1"]
                    best_step = step
                    best_snapshot = model.params.snapshot()
            else:
                record["dev_f1"] = None
            history.append(record)

    if dev is not None and cfg.steps > 0:
        model.params.load_snapshot(best_snapshot)
    if history_path is not None:
        with open(history_path, "w", encoding="utf-8") as fh:
            for record in history:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    if weights_path is not None:
        write_weight_rows(weights_path, weight_rows)
    return TrainResult(model, history, max(best_f1, 0.0), best_step, weight_rows)


def write_weight_rows(
    path: str | Path, rows: Sequence[tuple[int, str, str, float]]
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step\texample_id\tprovenance\tweight\n")
        for step, ident, provenance, w in rows:
            fh.write(f"{step}\t{ident}\t{provenance}\t{repr(w)}\n")


def read_weight_rows(path: str | Path) -> list[tuple[int, str, str, float]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != "step\texample_id\tprovenance\tweight":
            raise ValueError(f"{path} is not a weight dump")
        for line in fh:
            step, ident, provenance, w = line.rstrip("\n").split("\t")
            rows.append((int(step), ident, provenance, float(w)))
    return rows
