import math

import numpy as np
import pytest

from geostream.errors import TrainingError
from geostream.numkit import (
    ParamStore,
    finite_diff_check,
    load_matrices,
    relu,
    row_softmax,
    save_matrices,
    sgd_step,
    sigmoid,
)


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(relu([[-1.0, 2.0]]), [[0.0, 2.0]])

    def test_sigmoid_zero(self):
        np.testing.assert_array_equal(sigmoid([[0.0]]), [[0.5]])

    def test_sigmoid_closed_form(self):
        out = sigmoid([[math.log(3.0)]])
        np.testing.assert_allclose(out, [[0.75]], atol=1e-15)

    def test_sigmoid_extreme_no_overflow(self):
        out = sigmoid([[-1000.0, 1000.0]])
        assert out[0, 0] == 0.0 and out[0, 1] == 1.0


class TestRowSoftmax:
    def test_uniform_on_equal_scores(self):
        out = row_softmax([[3.7, 3.7, 3.7]])
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_closed_form(self):
        out = row_softmax([[0.0, math.log(3.0)]])
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_large_scores_stable(self):
        out = row_softmax([[1000.0, 0.0]])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_rows_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(size=(4, 6)) * 10
            out = row_softmax(x)
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
            shifted = row_softmax(x + rng.normal() * np.ones((4, 6)))
            np.testing.assert_allclose(out, shifted, atol=1e-12)


class TestParamStoreSgd:
    def test_basic_step(self):
        store = ParamStore()
        store.add("p", np.array([1.0]))
        store.accumulate("p", np.array([2.0]))
        sgd_step(store, lr=0.5)
        np.testing.assert_array_equal(store.get("p"), [0.0])
        np.testing.assert_array_equal(store.grad("p"), [0.0])
        assert store.step_count == 1

    def test_zero_gradient_keeps_params(self):
        store = ParamStore()
        store.add("p", np.array([3.0, -2.0]))
        sgd_step(store, lr=0.1)
        np.testing.assert_array_equal(store.get("p"), [3.0, -2.0])

    def test_elementwise(self):
        store = ParamStore()
        store.add("p", np.array([1.0, 1.0]))
        store.accumulate("p", np.array([1.0, -1.0]))
        sgd_step(store, lr=0.1)
        np.testing.assert_allclose(store.get("p"), [0.9, 1.1])

    def test_nonfinite_gradient_names_parameter(self):
        store = ParamStore()
        store.add("weights/w1", np.ones(2))
        store.accumulate("weights/w1", np.array([np.nan, 0.0]))
        with pytest.raises(TrainingError, match="weights/w1"):
            sgd_step(store, lr=0.1)

    def test_adopted_array_is_shared(self):
        backing = np.array([2.0, 2.0])
        store = ParamStore()
        store.add("p", backing)
        store.accumulate("p", np.array([1.0, 1.0]))
        sgd_step(store, lr=1.0)
        np.testing.assert_array_equal(backing, [1.0, 1.0])


class TestFiniteDiffCheck:
    def test_quadratic(self):
        store = ParamStore()
        store.add("p", np.array([3.0]))
        store.accumulate("p", np.array([6.0]))  # d(p^2)/dp at p=3
        report = finite_diff_check(
            lambda s: float(s.get("p")[0] ** 2), store, eps=1e-4, tol=1e-6
        )
        assert report.passed
        assert abs(report.entries[0].numeric - 6.0) < 1e-6

    def test_constant_function(self):
        store = ParamStore()
        store.add("p", np.array([1.0, -2.0, 0.5]))
        report = finite_diff_check(lambda s: 4.2, store, eps=1e-4, tol=1e-8)
        assert report.passed
        assert all(e.numeric == 0.0 for e in report.entries)

    def test_detects_wrong_gradient(self):
        store = ParamStore()
        store.add("p", np.array([3.0]))
        store.accumulate("p", np.array([1.0]))  # wrong: true grad is 6
        report = finite_diff_check(
            lambda s: float(s.get("p")[0] ** 2), store, eps=1e-4, tol=1e-4
        )
        assert not report.passed

    def test_restores_parameters(self):
        store = ParamStore()
        store.add("p", np.array([1.5, -2.5]))
        before = store.get("p").copy()
        finite_diff_check(lambda s: float(s.get("p").sum()), store)
        np.testing.assert_array_equal(store.get("p"), before)


def test_matrix_container_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    mats = {
        "a/w": rng.normal(size=(3, 4)),
        "a/b": rng.normal(size=5),
        "scalarish": np.array([2.5]),
    }
    path = tmp_path / "mats.bin"
    save_matrices(path, mats)
    loaded = load_matrices(path)
    assert set(loaded) == set(mats)
    for k in mats:
        np.testing.assert_array_equal(loaded[k], mats[k])
        assert loaded[k].shape == mats[k].shape
