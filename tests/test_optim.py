"""AdamW recurrence, decoupled decay, and global-norm clipping."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import dense_adamw_step, snapshot

from metaner import optim
from metaner.autodiff import GradientMap, NumericError, ParamStore, RowGrad
from metaner.optim import AdamWState, adamw_step, clip_global_norm


def store_with(**arrays):
    s = ParamStore()
    for name, arr in arrays.items():
        s.add(name, arr)
    return s


def gmap(**arrays):
    return GradientMap({k: np.asarray(v, dtype=float) for k, v in arrays.items()})


class TestAdamW:
    def test_zero_grad_no_decay_is_identity(self):
        store = store_with(p=np.array([1.0, -2.0]))
        state = AdamWState(lr=0.1)
        adamw_step(store, gmap(p=np.zeros(2)), state)
        np.testing.assert_array_equal(store["p"].data, [1.0, -2.0])
        assert state.step_count == 1

    def test_single_step_magnitude_is_lr(self):
        # Hand-executed recurrence for p=1, g=1, lr=0.1, t=1:
        #   m = 0.1, v = 0.01, m_hat = 1, v_hat = 1
        #   update = lr * 1 / (1 + eps) ~= lr
        store = store_with(p=np.array([1.0]))
        state = AdamWState(lr=0.1, beta1=0.9, beta2=0.99, weight_decay=0.0)
        adamw_step(store, gmap(p=np.ones(1)), state)
        assert store["p"].data[0] < 1.0
        assert store["p"].data[0] == pytest.approx(0.9, abs=1e-6)

    def test_decoupled_decay_shrinks_param(self):
        store = store_with(p=np.array([2.0]))
        state = AdamWState(lr=0.5, weight_decay=1e-4)
        adamw_step(store, gmap(p=np.zeros(1)), state)
        assert store["p"].data[0] == pytest.approx(2.0 * (1 - 0.5 * 1e-4))

    def test_nan_gradient_aborts_without_touching_state(self):
        store = store_with(p=np.array([1.0]))
        state = AdamWState(lr=0.1)
        with pytest.raises(NumericError):
            adamw_step(store, gmap(p=np.array([np.nan])), state)
        assert state.step_count == 0
        assert store["p"].data[0] == 1.0

    def test_moment_shapes_track_params(self):
        store = store_with(w=np.zeros((2, 3)), b=np.zeros(3))
        state = AdamWState(lr=0.01)
        adamw_step(store, gmap(w=np.ones((2, 3)), b=np.ones(3)), state)
        assert state.m["w"].shape == (2, 3)
        assert state.v["b"].shape == (3,)

    def test_matches_reference_trajectory(self):
        # Independent loop-free reference of the AdamW recurrence.
        rng = np.random.default_rng(0)
        p0 = rng.normal(size=4)
        grads = [rng.normal(size=4) for _ in range(5)]
        lr, b1, b2, eps, wd = 1e-2, 0.9, 0.99, 1e-8, 1e-4

        p = p0.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t, g in enumerate(grads, 1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p = p - lr * wd * p
            p = p - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

        store = store_with(p=p0.copy())
        state = AdamWState(lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
        for g in grads:
            adamw_step(store, gmap(p=g), state)
        np.testing.assert_allclose(store["p"].data, p, rtol=1e-12)


class TestInPlaceAdamW:
    """The in-place, blocked, row-sparse step against the dense reference."""

    shape = (30, 4)

    def run(self, step_fn, grad_maps, sparse=True):
        rng = np.random.default_rng(5)
        store = store_with(table=rng.normal(size=self.shape), b=rng.normal(size=7))
        state = AdamWState(lr=1e-2, weight_decay=1e-3)
        for gm in grad_maps:
            step_fn(store, gm if sparse else GradientMap(dict(gm.items())), state)
        return snapshot(store), state

    def grad_maps(self, steps=4):
        rng = np.random.default_rng(6)
        maps = []
        for k in range(steps):
            idx = rng.integers(0, self.shape[0], size=9)
            idx[-1] = idx[0]
            table = RowGrad(self.shape, idx, rng.normal(size=(9, self.shape[1])))
            if k % 2:  # the form `combine` returns
                table = RowGrad(self.shape, *table.summed())
            maps.append(GradientMap({"table": table, "b": rng.normal(size=7)}))
        return maps

    def assert_bit_identical(self, got, want):
        (got_p, got_state), (want_p, want_state) = got, want
        for name in want_p:
            assert got_p[name].tobytes() == want_p[name].tobytes(), name
            assert got_state.m[name].tobytes() == want_state.m[name].tobytes(), name
            assert got_state.v[name].tobytes() == want_state.v[name].tobytes(), name

    def test_row_sparse_entry_bit_identical_to_dense_form(self):
        maps = self.grad_maps()
        want = self.run(dense_adamw_step, maps, sparse=False)
        self.assert_bit_identical(self.run(adamw_step, maps), want)
        self.assert_bit_identical(self.run(adamw_step, maps, sparse=False), want)

    def test_parameter_not_a_multiple_of_the_block(self, monkeypatch):
        monkeypatch.setattr(optim, "_BLOCK", 7)  # table has 120 elements, b has 7
        maps = self.grad_maps()
        want = self.run(dense_adamw_step, maps, sparse=False)
        self.assert_bit_identical(self.run(adamw_step, maps), want)

    def test_non_contiguous_parameter_is_updated(self):
        grads = GradientMap({"w": np.arange(6.0).reshape(2, 3)})
        contiguous = store_with(w=np.ones((2, 3)))
        transposed = store_with(w=np.ones((3, 2)).T)
        for store in (contiguous, transposed):
            adamw_step(store, grads, AdamWState(lr=0.1))
        assert transposed["w"].data.tobytes() == contiguous["w"].data.tobytes()
        assert not np.array_equal(transposed["w"].data, np.ones((2, 3)))

    def test_nan_in_stored_row_aborts_before_any_state_changes(self):
        store = store_with(table=np.ones(self.shape))
        state = AdamWState(lr=0.1)
        rows = np.ones((2, self.shape[1]))
        rows[1, 3] = np.nan
        grads = GradientMap({"table": RowGrad(self.shape, np.array([3, 5]), rows)})
        with pytest.raises(NumericError):
            adamw_step(store, grads, state)
        assert state.step_count == 0
        assert state.m == {} and state.v == {}
        np.testing.assert_array_equal(store["table"].data, 1.0)


class TestClipGlobalNorm:
    def test_under_threshold_unchanged(self):
        g = gmap(a=np.array([3.0]))  # norm 3
        out = clip_global_norm(g, 5.0)
        np.testing.assert_array_equal(out["a"], [3.0])

    def test_norm_ten_halved(self):
        g = gmap(a=np.array([6.0]), b=np.array([8.0]))  # norm 10
        out = clip_global_norm(g, 5.0)
        np.testing.assert_allclose(out["a"], [3.0])
        np.testing.assert_allclose(out["b"], [4.0])
        assert out.global_norm() == pytest.approx(5.0)

    def test_row_sparse_entry_stays_row_sparse(self):
        g = GradientMap({"t": RowGrad((5, 2), np.array([1, 3, 1]), np.full((3, 2), 2.0))})
        assert clip_global_norm(g, 10.0) is g  # norm sqrt(4*4*2 + 2*2*2) ~ 6.3
        out = clip_global_norm(g, 1.0)
        assert out is not g
        assert isinstance(out.stored("t"), RowGrad)
        assert out.global_norm() == pytest.approx(1.0)
        np.testing.assert_allclose(out["t"], g["t"] / g.global_norm())

    def test_all_zero_unchanged(self):
        g = gmap(a=np.zeros(4))
        out = clip_global_norm(g, 5.0)
        np.testing.assert_array_equal(out["a"], np.zeros(4))

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=6),
        st.floats(0.1, 20),
    )
    def test_norm_bounded_and_direction_preserved(self, values, max_norm):
        g = gmap(v=np.array(values))
        out = clip_global_norm(g, max_norm)
        assert out.global_norm() <= max_norm * (1 + 1e-12)
        norm = g.global_norm()
        if norm > 0:
            cosine = g.dot(out) / (norm * out.global_norm()) if out.global_norm() else 1.0
            assert cosine == pytest.approx(1.0, abs=1e-9)
