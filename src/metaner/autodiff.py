"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Computation graphs are built per example and are single-threaded. Each
`Tensor` node stores its forward value, its parent nodes and a vector-Jacobian
closure; `grad` walks the graph once in reverse topological order.

The op catalog is deliberately small:

- elementwise: add, sub, mul (all broadcasting), scale, shift, tanh, sigmoid;
- linear algebra and reductions: matmul, tsum, logsumexp;
- indexing: embed_rows, gather, pick, pad_rows, reshape.

`embed_rows` has a row-sparse gradient: a `RowGrad` holding the looked-up
indices and their upstream rows, never a zero-filled copy of the table. `grad`
keeps it row-sparse for a parameter leaf, so an embedding gradient costs the
rows a sentence touched, not the vocabulary; `GradientMap` densifies it only
when asked for the array.

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


class RowGrad:
    """Row-sparse gradient of a gather: row `rows[k]` adds into row `idx[k]`.

    Indices may repeat and stay in lookup order; `dense` scatter-adds them
    into zeros of `shape`, so repeated indices accumulate.
    """

    __slots__ = ("shape", "idx", "rows")

    def __init__(self, shape: tuple[int, ...], idx: Array, rows: Array):
        self.shape = shape
        self.idx = idx
        self.rows = rows

    @property
    def nbytes(self) -> int:
        return self.idx.nbytes + self.rows.nbytes

    def dense(self) -> Array:
        full = np.zeros(self.shape)
        np.add.at(full, self.idx, self.rows)
        return full

    def summed(self) -> tuple[Array, Array]:
        """Unique touched rows and their totals, each summed in lookup order.

        `totals[k]` is bit-identical to `dense()[uniq[k]]`.
        """
        uniq, inverse = np.unique(self.idx, return_inverse=True)
        totals = np.zeros((len(uniq),) + self.shape[1:])
        np.add.at(totals, inverse, self.rows)
        return uniq, totals

    def concat(self, other: "RowGrad") -> "RowGrad":
        return RowGrad(
            self.shape,
            np.concatenate([self.idx, other.idx]),
            np.concatenate([self.rows, other.rows]),
        )


def _dense(g: Array | RowGrad) -> Array:
    return g.dense() if isinstance(g, RowGrad) else g


def embed_rows(table: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows `indices` of `table` into an (n, d) matrix.

    The gradient is a `RowGrad` over the same indices.
    """
    idx = np.asarray(indices, dtype=np.intp)
    out = table.data[idx]

    def vjp(g: Array):
        return (RowGrad(table.data.shape, idx, g),)

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
    """Gradient arrays keyed like the ParamStore they were taken against.

    An entry is stored either dense or as a `RowGrad`. Indexing always
    returns a dense array, built afresh for a row-sparse entry; `dot`,
    `global_norm`, `all_finite` and `combine` work on the stored rows
    without densifying, `scaled` returns a dense map.
    """

    def __init__(self, grads: dict[str, Array | RowGrad]):
        self._grads = grads

    def __getitem__(self, name: str) -> Array:
        return _dense(self._grads[name])

    def __iter__(self):
        return iter(self._grads)

    def __len__(self) -> int:
        return len(self._grads)

    # Mapping derives these from __getitem__, which would densify.
    def __contains__(self, name) -> bool:
        return name in self._grads

    def keys(self):
        return self._grads.keys()

    def stored(self, name: str) -> Array | RowGrad:
        """The entry as held: a dense array or a `RowGrad`."""
        return self._grads[name]

    def densified(self) -> "GradientMap":
        return GradientMap({n: _dense(g) for n, g in self._grads.items()})

    def dot(self, other: "GradientMap") -> float:
        """Sum over parameters of elementwise-product sums."""
        if self.keys() != other.keys():
            raise ValueError("gradient maps have different key sets")
        total = 0.0
        for name, a in self._grads.items():
            b = other.stored(name)
            if a.shape != b.shape:
                raise ValueError(f"shape mismatch for {name!r}")
            total += _entry_dot(a, b)
        return total

    def global_norm(self) -> float:
        return float(np.sqrt(sum(_entry_dot(g, g) for g in self._grads.values())))

    def scaled(self, factor: float) -> "GradientMap":
        return GradientMap({n: a * factor for n, a in self.items()})

    def all_finite(self) -> bool:
        return all(
            np.all(np.isfinite(g.rows if isinstance(g, RowGrad) else g))
            for g in self._grads.values()
        )


def _entry_dot(a: Array | RowGrad, b: Array | RowGrad) -> float:
    """Elementwise-product sum of two same-shaped entries, either form."""
    if isinstance(a, RowGrad) and isinstance(b, RowGrad):
        same_row = a.idx[:, None] == b.idx[None, :]
        return float(np.sum((a.rows @ b.rows.T)[same_row]))
    if isinstance(a, RowGrad):
        a, b = b, a
    if isinstance(b, RowGrad):
        return float(np.dot(a[b.idx].ravel(), b.rows.ravel()))
    return float(np.dot(a.ravel(), b.ravel()))


def combine(maps: Sequence[GradientMap], coeffs: Sequence[float]) -> GradientMap:
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
    the loss does not depend on get zero gradients. A parameter reached only
    through `embed_rows` keeps a `RowGrad`, concatenated over its lookups.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar, got shape {loss.data.shape}")
    acc: dict[int, Array | RowGrad] = {id(loss): np.asarray(1.0)}
    for node in reversed(_topo_order(loss)):
        g = acc.get(id(node))
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(_dense(g))):
            prev = acc.get(id(parent))
            if prev is None:
                acc[id(parent)] = pg
            elif isinstance(prev, RowGrad) and isinstance(pg, RowGrad):
                acc[id(parent)] = prev.concat(pg)
            else:
                acc[id(parent)] = _dense(prev) + _dense(pg)
    out: dict[str, Array | RowGrad] = {}
    for name in params.trainable_names():
        t = params[name]
        g = acc.get(id(t))
        if g is None:
            g = np.zeros_like(t.data)
        out[name] = g if isinstance(g, RowGrad) else np.asarray(g)
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
