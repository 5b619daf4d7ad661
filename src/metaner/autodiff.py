"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Computation graphs are built per example and are single-threaded. Each
`Tensor` node stores its forward value, its parent nodes and a vector-Jacobian
closure; `grad` walks the graph once in reverse topological order.

The op catalog is deliberately small:

- elementwise: add, sub, mul (all broadcasting), scale, shift, tanh, sigmoid;
- linear algebra and reductions: matmul, tsum, mean, logsumexp;
- indexing: embed_rows (gather with scatter-add gradient), gather, pick,
  pad_rows, reshape.

Sequence recurrences are not built from these ops one timestep at a time.
`tagger.bilstm` and `tagger.crf_log_partition` are hand-written nodes, each
one `Tensor(out, parents, vjp)` whose vjp is backpropagation through time or
the forward-backward marginals, so a sentence's graph has the same few dozen
nodes whatever its length.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from typing import Callable

import numpy as np

Array = np.ndarray


class NumericError(RuntimeError):
    """Raised when a numeric failure (NaN/Inf) makes a step meaningless."""


def _as_array(value, *, check_finite: bool) -> Array:
    arr = np.asarray(value, dtype=np.float64)
    if check_finite and not np.all(np.isfinite(arr)):
        raise NumericError("non-finite values in tensor input")
    return arr


class Tensor:
    """One node of a computation graph.

    Leaf tensors (parameters, constants) have no parents. Interior nodes
    carry a `vjp` closure mapping the upstream gradient to one gradient per
    parent, aligned with `parents`.
    """

    __slots__ = ("data", "parents", "vjp", "name")

    def __init__(
        self,
        data: Array,
        parents: tuple["Tensor", ...] = (),
        vjp: Callable[[Array], tuple[Array, ...]] | None = None,
        name: str | None = None,
    ):
        self.data = data
        self.parents = parents
        self.vjp = vjp
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"

    # Operator sugar; python scalars multiply/add without new leaf nodes.
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return shift(self, float(other))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return shift(self, -float(other))

    def __rsub__(self, other):
        return shift(scale(self, -1.0), float(other))

    def __matmul__(self, other):
        return matmul(self, other)


def constant(value, name: str | None = None) -> Tensor:
    """Wrap external data as a graph leaf; rejects NaN/Inf."""
    return Tensor(_as_array(value, check_finite=True), name=name)


def parameter(value, name: str) -> Tensor:
    """Named trainable leaf; rejects NaN/Inf."""
    return Tensor(_as_array(value, check_finite=True), name=name)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce `grad` back to `shape` after a numpy-broadcasted binary op."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def vjp(g: Array):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor(out, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def vjp(g: Array):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return Tensor(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def vjp(g: Array):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return Tensor(out, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    out = a.data * c

    def vjp(g: Array):
        return (g * c,)

    return Tensor(out, (a,), vjp)


def shift(a: Tensor, c: float) -> Tensor:
    out = a.data + c

    def vjp(g: Array):
        return (g,)

    return Tensor(out, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix-matrix or matrix-vector product; no higher-rank support."""
    if a.data.ndim != 2 or b.data.ndim not in (1, 2):
        raise ValueError(
            f"matmul supports (2d @ 1d) and (2d @ 2d), got {a.shape} @ {b.shape}"
        )
    out = a.data @ b.data

    if b.data.ndim == 1:

        def vjp(g: Array):
            return np.outer(g, b.data), a.data.T @ g

    else:

        def vjp(g: Array):
            return g @ b.data.T, a.data.T @ g

    return Tensor(out, (a, b), vjp)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)

    def vjp(g: Array):
        return (g * (1.0 - t * t),)

    return Tensor(t, (a,), vjp)


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid_stable(a.data)

    def vjp(g: Array):
        return (g * s * (1.0 - s),)

    return Tensor(s, (a,), vjp)


def _sigmoid_stable(x: Array) -> Array:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never overflows."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    out = a.data.sum(axis=axis)

    def vjp(g: Array):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy(),)

    return Tensor(out, (a,), vjp)


def mean(a: Tensor) -> Tensor:
    return scale(tsum(a), 1.0 / a.data.size)


def _logsumexp_stable(x: Array, axis: int | None = None) -> Array:
    """log(sum(exp(x))) over `axis` (all of x if None), max-shifted so exp never overflows."""
    m = x.max(axis=axis, keepdims=True)
    return np.squeeze(m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True)), axis=axis)


def logsumexp(a: Tensor, axis: int | None = None) -> Tensor:
    """Stable log-sum-exp via max subtraction; gradient is the softmax."""
    out = _logsumexp_stable(a.data, axis)
    soft = np.exp(a.data - (out if axis is None else np.expand_dims(out, axis)))

    def vjp(g: Array):
        if axis is None:
            return (g * soft,)
        return (np.expand_dims(g, axis) * soft,)

    return Tensor(out, (a,), vjp)


def embed_rows(table: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows `indices` of `table` into an (n, d) matrix.

    Gradient scatter-adds, so repeated indices accumulate.
    """
    idx = np.asarray(indices, dtype=np.intp)
    out = table.data[idx]

    def vjp(g: Array):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    return Tensor(out, (table,), vjp)


def pad_rows(a: Tensor, total_rows: int) -> Tensor:
    """Append zero rows to a 2-d tensor until it has total_rows rows."""
    n = a.shape[0]
    if a.data.ndim != 2:
        raise ValueError(f"pad_rows expects a 2-d tensor, got shape {a.shape}")
    if total_rows < n:
        raise ValueError(f"cannot pad {n} rows down to {total_rows}")
    if total_rows == n:
        return a
    out = np.zeros((total_rows, a.shape[1]))
    out[:n] = a.data

    def vjp(g: Array):
        return (g[:n],)

    return Tensor(out, (a,), vjp)


def gather(a: Tensor, rows_idx: Sequence[int], cols_idx: Sequence[int]) -> Tensor:
    """Pick a[r, c] for each (r, c) pair; returns a 1-d tensor."""
    ri = np.asarray(rows_idx, dtype=np.intp)
    ci = np.asarray(cols_idx, dtype=np.intp)
    out = a.data[ri, ci]

    def vjp(g: Array):
        full = np.zeros_like(a.data)
        np.add.at(full, (ri, ci), g)
        return (full,)

    return Tensor(out, (a,), vjp)


def pick(a: Tensor, index: tuple[int, ...]) -> Tensor:
    """Scalar element of a tensor."""
    out = np.asarray(a.data[index])

    def vjp(g: Array):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return Tensor(out, (a,), vjp)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def vjp(g: Array):
        return (g.reshape(a.data.shape),)

    return Tensor(out, (a,), vjp)


class ParamStore:
    """Named parameter tensors with a stable, deterministic iteration order.

    Names are unique; insertion order is the iteration order. Each entry has
    a trainable flag; `grad` and the optimizer touch trainable entries only.
    """

    def __init__(self):
        self._entries: dict[str, Tensor] = {}
        self._trainable: dict[str, bool] = {}

    def add(self, name: str, value, trainable: bool = True) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name!r}")
        t = parameter(value, name)
        self._entries[name] = t
        self._trainable[name] = trainable
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def trainable_names(self) -> list[str]:
        return [n for n, flag in self._trainable.items() if flag]

    def is_trainable(self, name: str) -> bool:
        return self._trainable[name]

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())

    def snapshot(self) -> dict[str, Array]:
        """Copy of every parameter array, e.g. for best-checkpoint keeping."""
        return {name: t.data.copy() for name, t in self._entries.items()}

    def load_snapshot(self, arrays: Mapping[str, Array]) -> None:
        for name, t in self._entries.items():
            src = np.asarray(arrays[name], dtype=np.float64)
            if src.shape != t.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: {src.shape} vs {t.data.shape}"
                )
            t.data = src.copy()


class GradientMap(Mapping):
    """Gradient arrays keyed like the ParamStore they were taken against."""

    def __init__(self, grads: dict[str, Array]):
        self._grads = grads

    def __getitem__(self, name: str) -> Array:
        return self._grads[name]

    def __iter__(self):
        return iter(self._grads)

    def __len__(self) -> int:
        return len(self._grads)

    def dot(self, other: "GradientMap") -> float:
        """Sum over parameters of elementwise-product sums."""
        if self.keys() != other.keys():
            raise ValueError("gradient maps have different key sets")
        total = 0.0
        for name, arr in self._grads.items():
            o = other[name]
            if o.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name!r}")
            total += float(np.dot(arr.ravel(), o.ravel()))
        return total

    def global_norm(self) -> float:
        return float(
            np.sqrt(sum(float(np.dot(a.ravel(), a.ravel())) for a in self._grads.values()))
        )

    def scaled(self, factor: float) -> "GradientMap":
        return GradientMap({n: a * factor for n, a in self._grads.items()})

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self._grads.values())


def combine(maps: Sequence[GradientMap], coeffs: Sequence[float]) -> GradientMap:
    """Linear combination sum_i coeffs[i] * maps[i]."""
    if len(maps) != len(coeffs) or not maps:
        raise ValueError("need one coefficient per gradient map")
    keys = maps[0].keys()
    out = {n: np.zeros_like(maps[0][n]) for n in keys}
    for gm, c in zip(maps, coeffs):
        if gm.keys() != keys:
            raise ValueError("gradient maps have different key sets")
        for n in keys:
            out[n] += c * gm[n]
    return GradientMap(out)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order DFS; recursion would overflow on long LSTM chains."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def grad(loss: Tensor, params: ParamStore) -> GradientMap:
    """Exact reverse-mode gradients of a scalar loss w.r.t. trainable params.

    Gradients accumulate (sum) over multiple uses of a parameter; parameters
    the loss does not depend on get zero gradients.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar, got shape {loss.data.shape}")
    acc: dict[int, Array] = {id(loss): np.asarray(1.0)}
    for node in reversed(_topo_order(loss)):
        g = acc.get(id(node))
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            prev = acc.get(id(parent))
            if prev is None:
                acc[id(parent)] = pg
            else:
                acc[id(parent)] = prev + pg
    out: dict[str, Array] = {}
    for name in params.trainable_names():
        t = params[name]
        g = acc.get(id(t))
        out[name] = np.zeros_like(t.data) if g is None else np.asarray(g)
    return GradientMap(out)


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
    for name in params.trainable_names():
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
