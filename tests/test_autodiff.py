"""Gradient correctness of every op in the autodiff catalog."""

import builtins
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaner import autodiff as ad
from metaner.autodiff import (
    GradientMap,
    NumericError,
    ParamStore,
    RowGrad,
    Tensor,
    combine,
    constant,
    grad,
)

from oracles import (
    add,
    finite_diff_check,
    load_snapshot,
    mul,
    numeric_gradient,
    pick,
    rel_err,
    snapshot,
    sub,
    tsum,
)


def square(t: Tensor) -> Tensor:
    """Elementwise t * t: a nonlinearity built from test-only ops."""
    return mul(t, t)


def make_store(**arrays) -> ParamStore:
    store = ParamStore()
    for name, arr in arrays.items():
        store.add(name, arr)
    return store


class TestGradBasics:
    def test_sum_of_parameter_is_all_ones(self):
        store = make_store(p=np.arange(4.0).reshape(2, 2))
        g = grad(tsum(store["p"]), store)
        np.testing.assert_array_equal(g["p"], np.ones((2, 2)))

    def test_constant_loss_gives_zero_map(self):
        store = make_store(p=np.ones((2, 2)))
        loss = ad.scale(constant(0.0), 2.0)
        g = grad(loss, store)
        np.testing.assert_array_equal(g["p"], np.zeros((2, 2)))

    def test_non_scalar_loss_rejected(self):
        store = make_store(p=np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            grad(store["p"], store)

    def test_parameter_reuse_accumulates(self):
        store = make_store(p=np.array([1.0, 2.0]))
        p = store["p"]
        loss = tsum(add(mul(p, p), p))  # sum(p^2 + p)
        g = grad(loss, store)
        np.testing.assert_allclose(g["p"], 2 * p.data + 1.0)

    def test_nan_rejected_at_construction(self):
        with pytest.raises(NumericError):
            constant(np.array([1.0, np.nan]))
        with pytest.raises(NumericError):
            ParamStore().add("bad", np.array([np.inf]))


def check_op(build_loss, arrays, tol=1e-7):
    """Compare reverse-mode against central differences for one op graph."""
    store = make_store(**arrays)
    analytic = grad(build_loss(store), store)
    for name in arrays:
        numeric = numeric_gradient(
            lambda: build_loss(store).item(), store[name].data
        )
        assert rel_err(analytic[name], numeric) < tol, name


class TestOpGradients:
    """Every differentiable op in the catalog against finite differences."""

    rng = np.random.default_rng(7)

    def test_add(self):
        arrays = {"a": self.rng.normal(size=(3, 4)), "b": self.rng.normal(size=(3, 4))}
        weights = self.rng.normal(size=(3, 4))
        check_op(lambda s: tsum(ad.scale(add(s["a"], s["b"]), weights)), arrays)

    def test_sub(self):
        arrays = {"a": self.rng.normal(size=5), "b": self.rng.normal(size=5)}
        check_op(lambda s: tsum(mul(sub(s["a"], s["b"]), s["a"])), arrays)

    def test_mul(self):
        arrays = {"a": self.rng.normal(size=(2, 3)), "b": self.rng.normal(size=(2, 3))}
        check_op(lambda s: tsum(mul(s["a"], s["b"])), arrays)

    def test_scale(self):
        arrays = {"a": self.rng.normal(size=(3, 4))}
        factor = self.rng.normal(size=(3, 4))
        check_op(lambda s: tsum(square(ad.scale(s["a"], factor))), arrays)
        check_op(lambda s: tsum(square(ad.scale(s["a"], -1.5))), arrays)

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (3, 1), (4, 3), (3, 4, 1)], ids=str)
    def test_scale_rejects_an_array_of_another_shape(self, shape):
        with pytest.raises(ValueError, match=rf"scale.*\(3, 4\)"):
            ad.scale(constant(np.zeros((3, 4))), np.ones(shape))

    def test_affine(self):
        arrays = {
            "x": self.rng.normal(size=(3, 4)),
            "w": self.rng.normal(size=(4, 2)),
            "b": self.rng.normal(size=2),
        }
        check_op(lambda s: tsum(square(ad.affine(s["x"], s["w"], s["b"]))), arrays)

    def test_affine_one_row(self):
        arrays = {
            "x": self.rng.normal(size=(1, 4)),
            "w": self.rng.normal(size=(4, 3)),
            "b": self.rng.normal(size=3),
        }
        check_op(lambda s: tsum(square(ad.affine(s["x"], s["w"], s["b"]))), arrays)

    def test_affine_values(self):
        x, w, b = np.arange(6.0).reshape(3, 2), np.ones((2, 4)), np.arange(4.0)
        out = ad.affine(constant(x), constant(w), constant(b))
        assert out.data.tobytes() == (x @ w + b).tobytes()

    @pytest.mark.parametrize(
        "shapes", [((3, 4), (5, 2), (2,)), ((3, 4), (4, 2), (3,)), ((4,), (4, 2), (2,))]
    )
    def test_affine_rejects_mismatched_shapes(self, shapes):
        x, w, b = (constant(np.zeros(shape)) for shape in shapes)
        with pytest.raises(ValueError, match="affine"):
            ad.affine(x, w, b)

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_unequal_shapes_rejected(self, op):
        fn = {"add": add, "sub": sub, "mul": mul}[op]
        a, b = constant(np.zeros((3, 4))), constant(np.zeros(4))
        with pytest.raises(ValueError, match=rf"{op}.*\(3, 4\).*\(4,\)"):
            fn(a, b)
        with pytest.raises(ValueError, match=op):
            fn(constant(np.zeros((3, 1))), constant(np.zeros((3, 4))))

    def test_logsumexp_stability(self):
        out = float(ad._logsumexp_stable(np.array([1000.0, 1000.0])))
        assert np.isfinite(out)
        assert out == pytest.approx(1000.0 + np.log(2.0))

    def test_mix_rows(self):
        arrays = {"a": self.rng.normal(size=(4, 3)), "b": self.rng.normal(size=(2, 3))}
        weights = self.rng.normal(size=(5, 3))
        rows_a, rows_b = [3, 0, -1, 1, 2], [-1, 1, 0, -1, 1]
        coef_a, coef_b = [0.3, 1.0, 0.0, 0.6, 1.0], [0.7, 0.0, 1.0, 0.4, -2.0]
        check_op(
            lambda s: tsum(
                ad.scale(ad.mix_rows(s["a"], s["b"], rows_a, rows_b, coef_a, coef_b), weights)
            ),
            arrays,
        )

    def test_mix_rows_of_one_tensor_with_itself(self):
        arrays = {"x": self.rng.normal(size=(5, 3))}
        weights = self.rng.normal(size=(3, 3))
        rows = ([0, 1, 2], [3, 4, -1])
        check_op(
            lambda s: tsum(
                ad.scale(ad.mix_rows(s["x"], s["x"], *rows, [0.4, 0.4, 1.0], [0.6, 0.6, 0.0]), weights)
            ),
            arrays,
        )

    def test_mix_rows_values_padding_and_exact_identity(self):
        x = self.rng.normal(size=(3, 2))
        out = ad.mix_rows(constant(x), constant(-x), [2, -1, 0], [0, 1, -1], [1.0, 0.5, 1.0], [0.0, 2.0, 0.3]).data
        assert out[0].tobytes() == x[2].tobytes()  # coefficients 1 and 0: the row itself
        np.testing.assert_array_equal(out[1], -2.0 * x[1])  # -1 reads zeros
        np.testing.assert_array_equal(out[2], x[0])
        with pytest.raises(ValueError, match="range"):
            ad.mix_rows(constant(x), constant(x), [3], [0], [1.0], [0.0])
        with pytest.raises(ValueError, match="one source row"):
            ad.mix_rows(constant(x), constant(x), [0, 1], [0], [1.0], [0.0])
        with pytest.raises(ValueError, match="equal d"):
            ad.mix_rows(constant(x), constant(np.zeros((3, 4))), [0], [0], [1.0], [0.0])

    def test_embedding_lookup_with_repeats(self):
        arrays = {"table": self.rng.normal(size=(5, 3))}
        idx = [1, 3, 1, 1]
        check_op(lambda s: tsum(square(ad.embed_rows(s["table"], idx))), arrays)

    def test_embedding_lookups_mixed_with_dense_uses(self):
        arrays = {"table": self.rng.normal(size=(5, 3))}
        weights = self.rng.normal(size=(5, 3))

        def loss(s):
            t = s["table"]
            twice = add(ad.embed_rows(t, [1, 3]), ad.embed_rows(t, [3, 4]))
            return add(tsum(square(twice)), tsum(ad.scale(t, weights)))

        check_op(loss, arrays)

    def test_embedding_lookup_of_interior_node(self):
        arrays = {"table": self.rng.normal(size=(5, 3))}
        check_op(
            lambda s: tsum(square(ad.embed_rows(ad.scale(s["table"], 2.0), [0, 2, 2]))),
            arrays,
        )

    def test_pick(self):
        arrays = {"m": self.rng.normal(size=(2, 3))}
        check_op(lambda s: pick(square(s["m"]), (1, 2)), arrays)

    def test_masked_dropout_frozen_mask(self):
        mask = (self.rng.random((4, 3)) < 0.5) / 0.5
        arrays = {"x": self.rng.normal(size=(4, 3))}
        check_op(lambda s: tsum(square(ad.scale(s["x"], mask))), arrays)


class TestFiniteDiffCheck:
    def test_quadratic_is_essentially_exact(self):
        store = make_store(p=np.array([0.3, -1.2, 2.0]))
        err = finite_diff_check(
            lambda: ad.scale(tsum(mul(store["p"], store["p"])), 0.5), store
        )
        assert err <= 1e-9

    def test_constant_loss_error_zero(self):
        store = make_store(p=np.ones(2))
        err = finite_diff_check(lambda: constant(3.0), store)
        assert err == 0.0

    def test_three_layer_network(self):
        rng = np.random.default_rng(11)
        store = make_store(
            w1=rng.normal(size=(3, 4)),
            b1=rng.normal(size=4),
            w2=rng.normal(size=(4, 4)),
            b2=rng.normal(size=4),
            w3=rng.normal(size=(4, 2)),
            b3=rng.normal(size=2),
            x=rng.normal(size=(1, 3)),
        )

        def loss():
            h = square(ad.affine(store["x"], store["w1"], store["b1"]))
            h = square(ad.affine(h, store["w2"], store["b2"]))
            h = square(ad.affine(h, store["w3"], store["b3"]))
            return tsum(mul(h, h))

        assert finite_diff_check(loss, store) <= 1e-4


class TestGradientMap:
    def test_global_norm_adds_in_key_order(self, monkeypatch):
        # From Python 3.12 the builtin sum compensates; the norm, and so the
        # clip, must be the same bits on every Python.
        monkeypatch.setattr(builtins, "sum", lambda it, start=0: math.fsum(it) + start)
        entries = {"big": np.array([1.0])} | {f"tiny{i}": np.array([1e-8]) for i in range(1000)}
        total = 0.0
        for g in entries.values():
            total += float(g @ g)
        assert total == 1.0  # each 1e-16 is lost against 1.0; fsum would keep them
        assert GradientMap(entries).global_norm() == math.sqrt(total)

    def test_hand_dot(self):
        # {[1,2],[3]} . {[4,5],[6]} = 1*4 + 2*5 + 3*6 = 32
        a = GradientMap({"m": np.array([1.0, 2.0]), "s": np.array([3.0])})
        b = GradientMap({"m": np.array([4.0, 5.0]), "s": np.array([6.0])})
        assert a.dot(b) == pytest.approx(32.0)

    def test_dot_with_zero_map(self):
        a = GradientMap({"m": np.array([1.0, -2.0])})
        z = GradientMap({"m": np.zeros(2)})
        assert a.dot(z) == 0.0

    def test_self_dot_is_squared_norm(self):
        rng = np.random.default_rng(3)
        a = GradientMap({"m": rng.normal(size=(2, 2)), "v": rng.normal(size=3)})
        assert a.dot(a) == pytest.approx(a.global_norm() ** 2)
        assert a.dot(a) >= 0

    def test_key_mismatch_rejected(self):
        a = GradientMap({"m": np.zeros(2)})
        b = GradientMap({"other": np.zeros(2)})
        with pytest.raises(ValueError):
            a.dot(b)

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.floats(-5, 5),
        st.floats(-5, 5),
    )
    def test_symmetric_and_bilinear(self, xs, ys, c1, c2):
        a = GradientMap({"p": np.array(xs)})
        b = GradientMap({"p": np.array(ys)})
        assert a.dot(b) == pytest.approx(b.dot(a))
        lhs = combine([a, b], [c1, c2]).dot(a)
        rhs = c1 * a.dot(a) + c2 * b.dot(a)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestRowSparseGradientMap:
    """Row-sparse entries against the dense arrays they stand for."""

    rng = np.random.default_rng(17)
    shape = (40, 3)

    def row_grad(self, n=6):
        idx = self.rng.integers(1, self.shape[0], size=n)
        idx[-1] = idx[0]  # at least one repeated row
        return RowGrad(self.shape, idx, self.rng.normal(size=(n, self.shape[1])))

    def sparse_map(self):
        return GradientMap({"table": self.row_grad(), "w": self.rng.normal(size=4)})

    def test_lookup_gradient_stays_row_sparse(self):
        table = self.rng.normal(size=self.shape)
        store = make_store(table=table)
        idx = [4, 9, 4]
        g = grad(tsum(square(ad.embed_rows(store["table"], idx))), store)
        stored = g.stored("table")
        assert isinstance(stored, RowGrad)
        np.testing.assert_array_equal(stored.idx, [4, 9])
        assert stored.nbytes < table.nbytes
        want = np.zeros_like(table)
        np.add.at(want, idx, 2.0 * table[idx])
        assert g["table"].tobytes() == want.tobytes()

    @staticmethod
    def dense_combine(maps, coeffs, name):
        want = np.zeros_like(maps[0][name])
        for gm, c in zip(maps, coeffs):
            want += c * gm[name]
        return want

    def test_combine_bit_identical_to_dense_combine(self):
        maps = [self.sparse_map() for _ in range(5)]
        coeffs = self.rng.random(5)
        got = combine(maps, coeffs)
        for name in ("table", "w"):
            assert got[name].tobytes() == self.dense_combine(maps, coeffs, name).tobytes()
        assert isinstance(got.stored("w"), np.ndarray)

    def test_combine_of_row_sparse_entries_is_row_sparse(self):
        maps = [self.sparse_map() for _ in range(5)]
        got = combine(maps, self.rng.random(5)).stored("table")
        assert isinstance(got, RowGrad) and np.all(np.diff(got.idx) > 0)
        touched = np.unique(np.concatenate([gm.stored("table").idx for gm in maps]))
        np.testing.assert_array_equal(got.idx, touched)
        assert got.rows.shape == (len(touched), self.shape[1])

    def test_combine_with_a_dense_entry_is_dense_and_bit_identical(self):
        maps = [self.sparse_map() for _ in range(3)]
        maps[1] = GradientMap(dict(maps[1].items()))
        coeffs = self.rng.random(3)
        got = combine(maps, coeffs)
        assert isinstance(got.stored("table"), np.ndarray)
        want = self.dense_combine(maps, coeffs, "table")
        assert got["table"].tobytes() == want.tobytes()

    def test_dot_matches_dense_dot(self):
        (table_a, w_a), (table_b, w_b) = [
            (self.row_grad(), self.rng.normal(size=4)) for _ in range(2)
        ]
        table_b.idx[:2] = table_a.idx[:2]  # shared rows
        a = GradientMap({"table": table_a, "w": w_a})
        b = GradientMap({"table": table_b, "w": w_b})
        dense_a, dense_b = GradientMap(dict(a.items())), GradientMap(dict(b.items()))
        want = sum(float(np.dot(dense_a[n].ravel(), dense_b[n].ravel())) for n in a)
        assert want != 0.0
        for lhs, rhs in [(a, b), (dense_a, b), (a, dense_b), (dense_a, dense_b)]:
            assert abs(lhs.dot(rhs) - want) <= 1e-12 * abs(want)

    def test_norm_and_scaling_match_dense(self):
        combined = combine([self.sparse_map() for _ in range(3)], [0.5, -1.0, 2.0])
        for a in (self.sparse_map(), combined):
            dense = GradientMap(dict(a.items()))
            assert abs(a.global_norm() - dense.global_norm()) <= 1e-12 * dense.global_norm()
            scaled = a.scaled(-2.5)
            assert isinstance(scaled.stored("table"), RowGrad)
            np.testing.assert_array_equal(scaled["table"], dense["table"] * -2.5)

    def test_map_stores_repeated_indices_summed(self):
        g = self.row_grad()
        gm = GradientMap({"table": g})
        stored = gm.stored("table")
        np.testing.assert_array_equal(stored.idx, np.unique(g.idx))
        assert stored.rows.shape == (len(stored.idx), self.shape[1])
        want = np.zeros(self.shape)
        np.add.at(want, g.idx, g.rows)
        assert gm["table"].tobytes() == want.tobytes()

    def test_sparse_dot_with_disjoint_indices_is_zero(self):
        a = GradientMap({"t": RowGrad(self.shape, np.array([3, 1, 3]), np.ones((3, 3)))})
        b = GradientMap({"t": RowGrad(self.shape, np.array([2, 7]), np.ones((2, 3)))})
        assert a.dot(b) == 0.0
        assert b.dot(a) == 0.0

    def test_all_finite_sees_nan_in_stored_row(self):
        a = self.sparse_map()
        assert a.all_finite()
        a.stored("table").rows[2, 1] = np.nan
        assert not a.all_finite()


class TestDeterminism:
    def test_same_seed_same_gradients(self):
        def run():
            rng = np.random.default_rng(42)
            store = make_store(
                x=rng.normal(size=(2, 3)), w=rng.normal(size=(3, 3)), b=rng.normal(size=3)
            )
            g = grad(tsum(square(ad.affine(store["x"], store["w"], store["b"]))), store)
            return {k: v.copy() for k, v in g.items()}

        g1, g2 = run(), run()
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])


class TestParamStoreSnapshot:
    def store(self):
        rng = np.random.default_rng(3)
        return make_store(w=rng.normal(size=(3, 4)), b=rng.normal(size=4))

    def test_load_keeps_array_identity_and_copies_values(self):
        store = self.store()
        live = {name: t.data for name, t in store.items()}
        rng = np.random.default_rng(4)
        want = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
        load_snapshot(store, want)
        for name, t in store.items():
            assert t.data is live[name], name
            np.testing.assert_array_equal(t.data, want[name])
            assert not np.shares_memory(t.data, want[name])

    def test_wrong_shape_rejected(self):
        store = self.store()
        with pytest.raises(ValueError, match="shape mismatch for 'w'"):
            load_snapshot(store, {"w": np.zeros((4, 3)), "b": np.zeros(4)})

    def test_snapshot_is_not_aliased(self):
        store = self.store()
        snap = snapshot(store)
        want = {name: arr.copy() for name, arr in snap.items()}
        for _, t in store.items():
            t.data += 1.0
        for name in want:
            np.testing.assert_array_equal(snap[name], want[name])
        load_snapshot(store, snap)
        store["w"].data *= 2.0
        np.testing.assert_array_equal(snap["w"], want["w"])
        np.testing.assert_array_equal(store["w"].data, 2.0 * want["w"])
