"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Computation graphs are built per loss and are single-threaded. Each
`Tensor` node stores its forward value, its parent nodes and a vector-Jacobian
closure; `grad` walks the graph once in reverse topological order.

The op catalog is deliberately small:

- scale: a tensor times a scalar or an array of its shape (a dropout mask);
- the output layer: affine, x @ w + b;
- rows: embed_rows (a table lookup) and mix_rows (rows of two tensors
  combined by per-row coefficients, the mixup interpolation).

`_logsumexp_stable` is a plain-array helper for the CRF in `tagger.py`, and
`_sigmoid_stable` one for the example weights in `trainer.py`.

The tagger's loss is not built from these ops one position at a time.
`tagger.bilstm`, `tagger.crf_log_partition` and `tagger.crf_score` are
hand-written nodes, each one `Tensor(out, parents, vjp)` whose vjp is
backpropagation through time, the forward-backward marginals, or a scatter
of the gold path's entries. All three take a batch of sentences packed into
one array plus one `tagger.Lanes`, the batch's layout, which they share; so a
training batch's loss is the same 18 nodes (19 with mixup pairs) whatever the
number and lengths of its sentences, and its only leaves are the parameters.

A parameter gradient is factored by row. Every node that feeds a parameter
returns its gradient as a sum over the packed rows it computed, not as a
finished array: `Outer` (sum_r a[r] b[r]^T, a weight matrix), `RowSum`
(sum_r rows[r], a bias or a block of the transitions) or `RowGrad` (row r
added into parameter row idx[r], a lookup). Each row can carry the index of
the example that owns it. `grad` then collapses the terms with unit weights
into a `GradientMap`. With `per_example=True` it keeps them as
`ExampleGrads`, from which one GEMM per weight gives every example's dot
product with another gradient and every row scaled by its example's weight
gives the weighted sum: the per-example gradient trick (Goodfellow, arXiv
1510.01799), with one backward pass for a whole batch.

`GradientMap` stores a `RowGrad` summed: one total per distinct row, indices
sorted. `dot`, `global_norm`, `scaled`, `combine` and `optim.adamw_step` read
its rows directly, so an embedding gradient costs the rows a batch touched,
not the vocabulary, from lookup to the update.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from typing import Callable

import numpy as np

Array = np.ndarray


class NumericError(RuntimeError):
    """Raised when a numeric failure (NaN/Inf) makes a step meaningless."""


class Tensor:
    """One node of a computation graph.

    Leaf tensors (parameters, constants) have no parents. Interior nodes
    carry a `vjp` closure mapping the upstream gradient to one gradient per
    parent, aligned with `parents`.
    """

    __slots__ = ("data", "parents", "vjp")

    def __init__(
        self,
        data: Array,
        parents: tuple["Tensor", ...] = (),
        vjp: Callable[[Array], tuple[Array, ...]] | None = None,
    ):
        self.data = data
        self.parents = parents
        self.vjp = vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def constant(value) -> Tensor:
    """Wrap external data as a graph leaf; rejects NaN/Inf."""
    arr = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite values in tensor input")
    return Tensor(arr)


def scale(a: Tensor, c: float | Array) -> Tensor:
    """a * c for a scalar c or an array c of a's shape (a dropout mask)."""
    if np.ndim(c) and np.shape(c) != a.shape:
        raise ValueError(f"scale needs a scalar or shape {a.shape}, got {np.shape(c)}")
    out = a.data * c

    def vjp(g: Array):
        return (g * c,)

    return Tensor(out, (a,), vjp)


def affine(x: Tensor, w: Tensor, b: Tensor, owners: Array | None = None) -> Tensor:
    """x @ w + b for x (n, d), w (d, k) and b (k,): b is added to every row.

    The gradients of w and b are factored by the rows of x, row r owned by
    example owners[r] (None: one example).
    """
    if (
        x.data.ndim != 2
        or w.data.ndim != 2
        or x.shape[1] != w.shape[0]
        or b.shape != w.shape[1:]
    ):
        raise ValueError(
            f"affine needs x (n, d), w (d, k), b (k,), got {x.shape}, {w.shape}, {b.shape}"
        )
    out = x.data @ w.data + b.data

    def vjp(g: Array):
        return g @ w.data.T, Outer(x.data, g, owners), RowSum(g, owners)

    return Tensor(out, (x, w, b), vjp)


def _sigmoid_stable(x: Array) -> Array:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never overflows."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def _logsumexp_stable(x: Array, axis: int | None = None) -> Array:
    """log(sum(exp(x))) over `axis` (all of x if None), max-shifted so exp never overflows."""
    m = x.max(axis=axis, keepdims=True)
    return np.squeeze(m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True)), axis=axis)


def _owned(owner: Array | None, n: int) -> Array:
    """Owner of each of n rows; None means every row belongs to example 0."""
    return np.zeros(n, dtype=np.intp) if owner is None else owner


def _by_owner(owner: Array | None, per_row: Array, n: int) -> Array:
    """Per-row values summed by owning example, for examples 0..n-1."""
    return np.bincount(_owned(owner, len(per_row)), weights=per_row, minlength=n)


def _row_dots(a: Array, b: Array) -> Array:
    """Dot product of row r of a with row r of b, for every r."""
    n = a.shape[0]
    return np.einsum("ij,ij->i", a.reshape(n, -1), b.reshape(n, -1))


class RowGrad:
    """Row-sparse gradient of a row lookup: row `rows[k]` adds into row `idx[k]`.

    `embed_rows` builds one in lookup order, where indices repeat, and
    `owner[k]` names the example that row k belongs to (None: one example);
    `crf_score` builds one for the transition rows its gold paths read. A
    `GradientMap` holds it in the form `summed` returns, with sorted, distinct
    indices. `dense` scatter-adds the rows into zeros of `shape`, so both
    forms stand for the same array.
    """

    __slots__ = ("shape", "idx", "rows", "owner")

    def __init__(
        self, shape: tuple[int, ...], idx: Array, rows: Array, owner: Array | None = None
    ):
        self.shape = shape
        self.idx = idx
        self.rows = rows
        self.owner = owner

    @property
    def nbytes(self) -> int:
        return self.idx.nbytes + self.rows.nbytes

    def arrays(self) -> tuple[Array, ...]:
        return (self.rows,)

    def weighted_rows(self, w: Array | None) -> Array:
        if w is None:
            return self.rows
        scale = w[_owned(self.owner, len(self.idx))]
        return self.rows * scale.reshape((-1,) + (1,) * (self.rows.ndim - 1))

    def dense(self, w: Array | None = None) -> Array:
        full = np.zeros(self.shape)
        np.add.at(full, self.idx, self.weighted_rows(w))
        return full

    def dots(self, g: Array | "RowGrad", n: int) -> Array:
        if isinstance(g, RowGrad):  # stored summed: sorted, distinct rows
            if not len(g.idx):
                return np.zeros(n)
            pos = np.minimum(np.searchsorted(g.idx, self.idx), len(g.idx) - 1)
            per_row = np.where(g.idx[pos] == self.idx, _row_dots(g.rows[pos], self.rows), 0.0)
        else:
            per_row = _row_dots(g[self.idx], self.rows)
        return _by_owner(self.owner, per_row, n)

    def summed(self) -> tuple[Array, Array]:
        """Sorted distinct rows and their totals, each summed in lookup order.

        `totals[k]` equals `dense()[uniq[k]]`, added in the same order.
        Strictly increasing indices are already in this form: their own
        `idx` and `rows` come back.
        """
        if np.all(self.idx[1:] > self.idx[:-1]):
            return self.idx, self.rows
        uniq, inverse = np.unique(self.idx, return_inverse=True)
        totals = np.zeros((len(uniq),) + self.shape[1:])
        np.add.at(totals, inverse, self.rows)
        return uniq, totals


class Outer:
    """Weight gradient sum_r outer(a[r], b[r]) = a.T @ b, row r owned by owner[r].

    For `affine` a is the input rows and b their upstream gradients; for the
    BiLSTM a is the gate pre-activation gradients and b the inputs or the
    previous hidden states.
    """

    __slots__ = ("a", "b", "owner")

    def __init__(self, a: Array, b: Array, owner: Array | None = None):
        self.a = a
        self.b = b
        self.owner = owner

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape[1], self.b.shape[1]

    def arrays(self) -> tuple[Array, ...]:
        return self.a, self.b

    def dense(self, w: Array | None = None) -> Array:
        a = self.a
        if w is not None:
            a = a * w[_owned(self.owner, len(a))][:, None]
        return a.T @ self.b

    def dots(self, g: Array | RowGrad, n: int) -> Array:
        # <G, a b^T> = a^T G b, one GEMM for all rows
        return _by_owner(self.owner, _row_dots(self.a @ _dense(g), self.b), n)


class RowSum:
    """Gradient scale * sum_r rows[r], row r owned by owner[r].

    A bias gradient sums its upstream rows; the CRF partition's transition
    gradient sums one (L+1, L) block of marginals per position.
    """

    __slots__ = ("rows", "owner", "scale")

    def __init__(self, rows: Array, owner: Array | None = None, scale=1.0):
        self.rows = rows
        self.owner = owner
        self.scale = scale

    @property
    def shape(self) -> tuple[int, ...]:
        return self.rows.shape[1:]

    def arrays(self) -> tuple[Array, ...]:
        return (self.rows,)

    def dense(self, w: Array | None = None) -> Array:
        if w is None:
            return self.scale * self.rows.sum(axis=0)
        weights = w[_owned(self.owner, len(self.rows))]
        return self.scale * np.tensordot(weights, self.rows, axes=1)

    def dots(self, g: Array | RowGrad, n: int) -> Array:
        per_row = self.rows.reshape(len(self.rows), -1) @ _dense(g).ravel()
        return _by_owner(self.owner, self.scale * per_row, n)


_FACTORED = (RowGrad, Outer, RowSum)
Term = Array | RowGrad | Outer | RowSum


def _dense(g: Term) -> Array:
    return g.dense() if isinstance(g, _FACTORED) else g


def embed_rows(
    table: Tensor, indices: Sequence[int], owners: Array | None = None
) -> Tensor:
    """Gather rows `indices` of `table` into an (n, d) matrix.

    The gradient is a `RowGrad` over the same indices, row k owned by
    example owners[k] (None: one example).
    """
    idx = np.asarray(indices, dtype=np.intp)
    out = table.data[idx]

    def vjp(g: Array):
        return (RowGrad(table.data.shape, idx, g, owners),)

    return Tensor(out, (table,), vjp)


def mix_rows(
    a: Tensor,
    b: Tensor,
    rows_a: Sequence[int],
    rows_b: Sequence[int],
    coef_a: Sequence[float],
    coef_b: Sequence[float],
) -> Tensor:
    """Rows coef_a[k] * a[rows_a[k]] + coef_b[k] * b[rows_b[k]], one per k.

    A row index of -1 reads a zero row, so a sentence shorter than its mixup
    partner is zero-padded; `a` and `b` may be the same tensor. With
    coefficients 1 and 0 an output row equals its source row exactly.
    """
    ia, ib = (np.asarray(r, dtype=np.intp) for r in (rows_a, rows_b))
    ca, cb = (np.asarray(c, dtype=np.float64)[:, None] for c in (coef_a, coef_b))
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(
            f"mix_rows needs (n, d) inputs with equal d, got {a.shape} and {b.shape}"
        )
    if not ia.shape == ib.shape == ca.shape[:1] == cb.shape[:1]:
        raise ValueError("mix_rows needs one source row and coefficient per output row")
    for rows, x in ((ia, a), (ib, b)):
        if rows.size and (rows.min() < -1 or rows.max() >= x.shape[0]):
            raise ValueError(f"mix_rows row index out of range for {x.shape[0]} rows")
    zero = np.zeros((1, a.shape[1]))
    out = ca * np.vstack([a.data, zero])[ia] + cb * np.vstack([b.data, zero])[ib]

    def vjp(g: Array):
        grads = []
        for x, rows, c in ((a, ia, ca), (b, ib, cb)):
            full = np.zeros((x.shape[0] + 1, x.shape[1]))
            np.add.at(full, rows, c * g)
            grads.append(full[:-1])
        return tuple(grads)

    return Tensor(out, (a, b), vjp)


class ParamStore:
    """Named parameter tensors with a stable, deterministic iteration order.

    Names are unique; insertion order is the iteration order. `grad` and
    the optimizer touch every entry.
    """

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, value) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name!r}")
        t = constant(value)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())


class GradientMap(Mapping):
    """Gradient arrays keyed like the ParamStore they were taken against.

    An entry is stored either dense or as a `RowGrad`, and the constructor
    sums every `RowGrad` (`RowGrad.summed`), so a stored one always has
    sorted, distinct indices. Indexing returns a dense array, built afresh
    for a row-sparse entry; `dot`, `global_norm`, `all_finite`, `scaled` and
    `combine` work on the stored rows without densifying, and `scaled` and
    `combine` keep such an entry row-sparse.
    """

    def __init__(self, grads: dict[str, Array | RowGrad]):
        self._grads = {
            n: RowGrad(g.shape, *g.summed()) if isinstance(g, RowGrad) else g
            for n, g in grads.items()
        }

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
        total = 0.0
        for g in self._grads.values():  # in order: from Python 3.12 `sum` compensates
            total += _squared_norm(g)
        return float(np.sqrt(total))

    def scaled(self, factor: float) -> "GradientMap":
        return GradientMap({n: _scaled(g, factor) for n, g in self._grads.items()})

    def all_finite(self) -> bool:
        return all(
            np.all(np.isfinite(g.rows if isinstance(g, RowGrad) else g))
            for g in self._grads.values()
        )


def _squared_norm(g: Array | RowGrad) -> float:
    if isinstance(g, RowGrad):
        g = g.rows
    return float(np.dot(g.ravel(), g.ravel()))


def _scaled(g: Array | RowGrad, factor: float) -> Array | RowGrad:
    """`g * factor`; a stored `RowGrad` holds one total per row, so its dense
    form is bit-identical to scaling the dense array."""
    if isinstance(g, RowGrad):
        return RowGrad(g.shape, g.idx, g.rows * factor)
    return g * factor


def _entry_dot(a: Array | RowGrad, b: Array | RowGrad) -> float:
    """Elementwise-product sum of two same-shaped stored entries, either form."""
    if isinstance(a, RowGrad) and isinstance(b, RowGrad):
        _, ia, ib = np.intersect1d(a.idx, b.idx, assume_unique=True, return_indices=True)
        return float(np.dot(a.rows[ia].ravel(), b.rows[ib].ravel()))
    if isinstance(a, RowGrad):
        a, b = b, a
    if isinstance(b, RowGrad):
        return float(np.dot(a[b.idx].ravel(), b.rows.ravel()))
    return float(np.dot(a.ravel(), b.ravel()))


def combine(maps: Sequence[GradientMap], coeffs: Sequence[float]) -> GradientMap:
    """Linear combination sum_i coeffs[i] * maps[i].

    A key that every map stores as a `RowGrad` stays row-sparse: each map's
    scaled rows are concatenated in map order and the result map sums them
    per row over the union of touched rows. Dense accumulation would add the
    same terms in the same order (an untouched row adds c * 0.0), so the
    result is bit-identical to the dense sum. Any other key is accumulated
    into a dense array.
    """
    if len(maps) != len(coeffs) or not maps:
        raise ValueError("need one coefficient per gradient map")
    keys = maps[0].keys()
    if any(gm.keys() != keys for gm in maps):
        raise ValueError("gradient maps have different key sets")
    out: dict[str, Array | RowGrad] = {}
    for n in keys:
        entries = [gm.stored(n) for gm in maps]
        shape = entries[0].shape
        if all(isinstance(g, RowGrad) for g in entries):
            out[n] = RowGrad(
                shape,
                np.concatenate([g.idx for g in entries]),
                np.concatenate([c * g.rows for g, c in zip(entries, coeffs)]),
            )
            continue
        acc = np.zeros(shape)
        for g, c in zip(entries, coeffs):
            if isinstance(g, RowGrad):
                acc[g.idx] += c * g.rows
            else:
                acc += c * g
        out[n] = acc
    return GradientMap(out)


class Factors:
    """One parameter's gradient as the terms the backward pass delivered to it.

    `collapse` adds the terms in arrival order, each row scaled by its
    example's weight when `w` is given; unit weights give the exact gradient
    `grad` returns. Terms that are all `RowGrad` stay row-sparse, their rows
    concatenated in arrival order.
    """

    __slots__ = ("shape", "terms")

    def __init__(self, shape: tuple[int, ...], terms: list[Term]):
        self.shape = shape
        self.terms = terms

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for t in self.terms for a in _term_arrays(t))

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for t in self.terms for a in _term_arrays(t))

    def collapse(self, w: Array | None = None) -> Array | RowGrad:
        terms = self.terms
        if not terms:
            return np.zeros(self.shape)
        if all(isinstance(t, RowGrad) for t in terms):
            if len(terms) == 1 and w is None:
                return terms[0]
            return RowGrad(
                self.shape,
                np.concatenate([t.idx for t in terms]),
                np.concatenate([t.weighted_rows(w) for t in terms]),
            )
        total = _weighted_dense(terms[0], w)
        for t in terms[1:]:
            total = total + _weighted_dense(t, w)
        return total

    def dots(self, g: Array | RowGrad, n: int) -> Array:
        total = np.zeros(n)
        for t in self.terms:
            if not isinstance(t, _FACTORED):
                raise ValueError("a dense gradient term has no per-example rows")
            total += t.dots(g, n)
        return total


def _term_arrays(t: Term) -> tuple[Array, ...]:
    return t.arrays() if isinstance(t, _FACTORED) else (np.asarray(t),)


def _weighted_dense(t: Term, w: Array | None) -> Array:
    if isinstance(t, _FACTORED):
        return t.dense(w)
    if w is not None:
        raise ValueError("a dense gradient term has no per-example rows")
    return t


class ExampleGrads(Mapping):
    """Per-example gradients of a packed loss, kept factored by row.

    Maps each parameter name to its `Factors`. Example i's gradient g_i is
    the sum of the rows example i owns; nothing per example is ever formed.
    `dots` gives <G, g_i> for every example with one contraction per term,
    and `weighted` gives sum_i w_i g_i as one `GradientMap`.
    """

    def __init__(self, factors: dict[str, Factors]):
        self._factors = factors

    def __getitem__(self, name: str) -> Factors:
        return self._factors[name]

    def __iter__(self):
        return iter(self._factors)

    def __len__(self) -> int:
        return len(self._factors)

    def all_finite(self) -> bool:
        return all(f.all_finite() for f in self._factors.values())

    def dots(self, other: GradientMap, n: int) -> Array:
        """<other, g_i> for examples i = 0..n-1."""
        if self.keys() != other.keys():
            raise ValueError("gradient maps have different key sets")
        total = np.zeros(n)
        for name, f in self._factors.items():
            total += f.dots(other.stored(name), n)
        return total

    def weighted(self, w: Array) -> GradientMap:
        """sum_i w[i] g_i."""
        w = np.asarray(w, dtype=np.float64)
        return GradientMap({name: f.collapse(w) for name, f in self._factors.items()})


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


def grad(
    loss: Tensor, params: ParamStore, per_example: bool = False
) -> GradientMap | ExampleGrads:
    """Exact reverse-mode gradients of a scalar loss w.r.t. every parameter.

    Gradients accumulate (sum) over multiple uses of a parameter; parameters
    the loss does not depend on get zero gradients. A parameter reached only
    through `embed_rows` keeps a `RowGrad`, concatenated over its lookups.
    With `per_example`, the terms are returned uncollapsed as `ExampleGrads`.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar, got shape {loss.data.shape}")
    acc: dict[int, list[Term]] = {id(loss): [np.asarray(1.0)]}
    for node in reversed(_topo_order(loss)):
        if node.vjp is None or id(node) not in acc:
            continue
        upstream = _dense(Factors(node.shape, acc.pop(id(node))).collapse())
        for parent, pg in zip(node.parents, node.vjp(upstream)):
            acc.setdefault(id(parent), []).append(pg)
    factors = {name: Factors(t.shape, acc.get(id(t), [])) for name, t in params.items()}
    if per_example:
        return ExampleGrads(factors)
    return GradientMap({name: f.collapse() for name, f in factors.items()})
