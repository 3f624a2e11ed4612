import math
import re

import numpy as np
import pytest

from geostream.errors import IngestionError, TrainingError
from geostream.numkit import (
    ParamStore,
    load_matrices,
    relu,
    row_softmax,
    save_matrices,
    sgd_step,
    sigmoid,
    sigmoid_scalar,
)

from gradcheck import finite_diff_check


def two_branch_sigmoid(x) -> np.ndarray:
    """The oracle ``sigmoid``: each sign's formula on its own masked elements."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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

    def test_sigmoid_scalar_equals_the_array_form(self):
        # the legacy gates and the composite reward take the scalar form; traces
        # stay byte-identical only while it agrees with `sigmoid` bit for bit
        rng = np.random.default_rng(0)
        xs = np.concatenate([rng.normal(0, 3, 5000), rng.uniform(-800, 800, 5000),
                             [0.0, -0.0, 1e-300, -1e-300, np.inf, -np.inf]])
        assert [sigmoid_scalar(x) for x in xs] == sigmoid(xs).tolist()
        assert [sigmoid_scalar(float(x)) for x in xs] == sigmoid(xs).tolist()

    def test_sigmoid_equals_the_two_branch_oracle(self):
        # exp(-|x|) is exp(x) for x < 0 and exp(-x) otherwise, bit for bit
        rng = np.random.default_rng(1)
        for shape in [(), (1,), (7,), (9, 50), (3, 4, 5)]:
            for scale in (1.0, 30.0, 800.0):
                x = rng.normal(0, scale, size=shape)
                got = sigmoid(x)
                assert got.shape == x.shape and got.dtype == np.float64
                np.testing.assert_array_equal(got, two_branch_sigmoid(x), strict=True)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324])
        np.testing.assert_array_equal(sigmoid(special), two_branch_sigmoid(special))
        assert sigmoid(special).tolist()[:4] == [0.5, 0.5, 1.0, 0.0]
        for x in (0.0, -0.0, 2.5, -2.5, np.nan):
            np.testing.assert_array_equal(sigmoid(x), two_branch_sigmoid(x), strict=True)


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


class TestDamagedContainer:
    """A damaged file fails as ``IngestionError`` naming it; a missing one as ``OSError``."""

    def _saved(self, tmp_path):
        path = tmp_path / "mats.bin"
        save_matrices(path, {"a/w": np.arange(6.0).reshape(2, 3), "b": np.array([1.5])})
        return path, path.read_bytes()

    @pytest.mark.parametrize("cut", [2, 10, 20, -8])
    def test_cut_short(self, tmp_path, cut):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:cut])
        with pytest.raises(IngestionError, match=re.escape(str(path))):
            load_matrices(path)

    def test_bad_magic(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(b"GSMZ" + raw[4:])
        with pytest.raises(IngestionError, match="not a matrix container"):
            load_matrices(path)

    def test_bytes_after_last_matrix(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw + bytes(8))
        with pytest.raises(IngestionError, match="8 bytes after the last matrix"):
            load_matrices(path)

    def test_unknown_version(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:4] + (7).to_bytes(4, "little") + raw[8:])
        with pytest.raises(IngestionError, match=re.escape(f"{path}: matrix container version 7")):
            load_matrices(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value(self, tmp_path, bad):
        path = tmp_path / "mats.bin"
        save_matrices(path, {"b": np.array([1.5]), "a/w": np.array([[0.0, 1.0], [bad, 2.0]])})
        with pytest.raises(IngestionError, match=re.escape(f"{path}: entry 'a/w' holds a non-finite value")):
            load_matrices(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_matrices(tmp_path / "absent.bin")
