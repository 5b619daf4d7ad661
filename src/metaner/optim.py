"""AdamW with decoupled weight decay, plus global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import GradientMap, NumericError, ParamStore, RowGrad


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


# Elements per block of the parameter update: a block of p, m, v and the two
# scratch buffers (5 x 256 KiB) stays in L2 between the update's passes.
_BLOCK = 32768


def adamw_step(params: ParamStore, grads: GradientMap, state: AdamWState) -> None:
    """One AdamW update in place: bias-corrected moments, decoupled decay.

    The decay term is proportional to the parameter value itself and is not
    folded into the gradient. Aborts (raising NumericError) before touching
    any state if the gradients contain NaN/Inf.

    A row-sparse gradient, stored with distinct indices, adds into the
    moments' touched rows only (an untouched row would add exactly 0.0). The
    moments and parameters are updated in place, block by block, with the
    same operations in the same order as the whole-array update, so results
    are bit-identical to it.
    """
    if not grads.all_finite():
        raise NumericError("non-finite gradient; optimizer step aborted")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    decay = state.lr * state.weight_decay
    names = params.trainable_names()
    largest = max((params[n].data.size for n in names), default=0)
    scratch = np.empty((2, min(largest, _BLOCK)))
    for name in names:
        g = grads.stored(name)
        p = params[name]
        if not p.data.flags.c_contiguous:  # the flat views below must alias p
            p.data = np.ascontiguousarray(p.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        v *= b2
        if isinstance(g, RowGrad):
            m[g.idx] += (1.0 - b1) * g.rows
            v[g.idx] += (1.0 - b2) * (g.rows * g.rows)
        else:
            m += (1.0 - b1) * g
            v += (1.0 - b2) * (g * g)
        p_flat, m_flat, v_flat = p.data.reshape(-1), m.reshape(-1), v.reshape(-1)
        for start in range(0, p_flat.size, _BLOCK):
            pb = p_flat[start : start + _BLOCK]
            denom, step = scratch[:, : pb.size]
            if state.weight_decay:
                np.multiply(pb, decay, out=step)
                pb -= step
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(v_flat[start : start + _BLOCK], bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += state.eps
            np.divide(m_flat[start : start + _BLOCK], bc1, out=step)
            step *= state.lr
            step /= denom
            pb -= step


def clip_global_norm(grads: GradientMap, max_norm: float) -> GradientMap:
    """Scale all gradients by max_norm/norm when the global L2 norm exceeds it."""
    if max_norm <= 0:
        raise ValueError("max_norm must be > 0")
    norm = grads.global_norm()
    if norm <= max_norm:
        return grads
    return grads.scaled(max_norm / norm)
