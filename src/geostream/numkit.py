"""Minimal dense numeric kernel.

Matrices are plain 2-D float64 numpy arrays in row-major order. The kernel
adds the small amount of structure the rest of the package needs on top of
numpy: stable activations, a named parameter store
with gradient accumulators, plain SGD, and a central-difference gradient
checker used to verify every hand-derived backward pass in the repo.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_scalar(x: float) -> float:
    return float(sigmoid(np.asarray([x]))[0])


def row_softmax(x) -> np.ndarray:
    """Softmax per row, stabilized by subtracting the row max."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class ParamStore:
    """Named parameter arrays with same-shape gradient accumulators.

    Arrays are adopted by reference, so a store can alias external storage
    (e.g. embedding-table rows) and in-place SGD updates stay visible to
    the owner. Gradients are zeroed by each optimizer step.
    """

    def __init__(self):
        self._params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, value) -> np.ndarray:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered")
        arr = np.asarray(value, dtype=np.float64)
        if arr.dtype != np.float64 or not arr.flags.writeable:
            arr = arr.astype(np.float64)
        self._params[name] = arr
        self._grads[name] = np.zeros_like(arr)
        return arr

    def names(self):
        return list(self._params)

    def get(self, name: str) -> np.ndarray:
        return self._params[name]

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def accumulate(self, name: str, g) -> None:
        self._grads[name] += g

    def zero_grads(self) -> None:
        for g in self._grads.values():
            g[...] = 0.0

    def snapshot_grads(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._grads.items()}


def sgd_step(store: ParamStore, lr: float = 1e-5) -> None:
    """p <- p - lr * g for every parameter, then zero gradients."""
    for name in store.names():
        g = store.grad(name)
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        store.get(name)[...] -= lr * g
    store.zero_grads()
    store.step_count += 1


@dataclass
class GradCheckEntry:
    param: str
    index: int
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    eps: float
    tol: float
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.rel_err <= self.tol for e in self.entries)

    @property
    def max_rel_err(self) -> float:
        return max((e.rel_err for e in self.entries), default=0.0)

    def failures(self) -> list[GradCheckEntry]:
        return [e for e in self.entries if e.rel_err > self.tol]


def finite_diff_check(
    f,
    store: ParamStore,
    eps: float = 1e-5,
    tol: float = 1e-4,
    analytic: dict[str, np.ndarray] | None = None,
    max_coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    The analytic gradients default to the store's current accumulators, so
    the caller runs its backward pass once before checking. Each sampled
    coordinate is perturbed in place by +/- eps and restored; the relative
    error is |analytic - numeric| / max(1, |analytic|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if analytic is None:
        analytic = store.snapshot_grads()
    report = GradCheckReport(eps=eps, tol=tol)
    for name in store.names():
        p = store.get(name)
        a = np.asarray(analytic[name], dtype=np.float64).reshape(-1)
        flat = p.reshape(-1)
        n = flat.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            picker = rng if rng is not None else np.random.default_rng(0)
            coords = picker.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(store))
            flat[i] = orig - eps
            f_minus = float(f(store))
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            ana = float(a[i])
            rel = abs(ana - numeric) / max(1.0, abs(ana))
            report.entries.append(GradCheckEntry(name, int(i), ana, numeric, rel))
    return report


_MATRIX_MAGIC = b"GSMX"


def save_matrices(path, matrices: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays as a little-endian binary container."""
    with open(path, "wb") as fh:
        fh.write(_MATRIX_MAGIC)
        fh.write(struct.pack("<IQ", 1, len(matrices)))
        for name, arr in matrices.items():
            arr = np.asarray(arr, dtype=np.float64)
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.astype("<f8").tobytes(order="C"))


def load_matrices(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MATRIX_MAGIC:
            raise IOError(f"{path}: not a matrix container (magic {magic!r})")
        _version, count = struct.unpack("<IQ", fh.read(12))
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", fh.read(2))
            name = fh.read(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", fh.read(1))
            shape = tuple(
                struct.unpack("<Q", fh.read(8))[0] for _ in range(ndim)
            )
            size = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(fh.read(size * 8), dtype="<f8").astype(np.float64)
            out[name] = data.reshape(shape)
    return out
