"""AdamW with decoupled weight decay, plus global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import GradientMap, NumericError, ParamStore


@dataclass
class AdamWState:
    """Optimizer hyperparameters and per-parameter moment buffers."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be > 0")


def adamw_step(params: ParamStore, grads: GradientMap, state: AdamWState) -> None:
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
    for name in params.trainable_names():
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


def clip_global_norm(grads: GradientMap, max_norm: float) -> GradientMap:
    """Scale all gradients by max_norm/norm when the global L2 norm exceeds it."""
    if max_norm <= 0:
        raise ValueError("max_norm must be > 0")
    norm = grads.global_norm()
    if norm <= max_norm:
        return grads
    return grads.scaled(max_norm / norm)
