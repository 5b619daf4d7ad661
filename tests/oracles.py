"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force and written against plain numpy
arrays, not the autodiff graph, so it cannot share bugs with the code under
test.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

import numpy as np

from metaner.autodiff import GradientMap, NumericError, ParamStore, RowGrad
from metaner.optim import AdamWState


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
