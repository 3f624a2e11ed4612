"""Minimal dense numeric kernel.

Matrices are plain 2-D float64 numpy arrays in row-major order. The kernel
adds the small amount of structure the rest of the package needs on top of
numpy: stable activations, a named parameter store with gradient
accumulators, plain SGD, and a binary container for named matrices.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import IngestionError, TrainingError


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: ``1/(1+exp(-x))`` for x >= 0,
    else ``exp(x)/(1+exp(x))``; ``exp(-|x|)`` is the exponential each needs."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid_scalar(x: float) -> float:
    """``sigmoid`` of one number: the same two branches, without an array per call."""
    if x >= 0:
        return float(1.0 / (1.0 + np.exp(-x)))
    ex = np.exp(x)
    return float(ex / (1.0 + ex))


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

    def load_exact(self, mats: dict[str, np.ndarray], path, prefix: str = "") -> None:
        """Copy in ``mats``, read from ``path``: exactly the store's names and shapes.

        Otherwise raise ``IngestionError`` naming the entry as in the file, ``prefix + name``.
        """
        unknown = mats.keys() - self._params.keys()
        if unknown:
            raise IngestionError(f"{path}: unknown entry {prefix + min(unknown)!r}")
        for name, p in self._params.items():
            if name not in mats:
                raise IngestionError(f"{path}: entry {prefix + name!r} missing")
            if mats[name].shape != p.shape:
                raise IngestionError(
                    f"{path}: entry {prefix + name!r} has shape {mats[name].shape}, want {p.shape}")
        for name, p in self._params.items():
            p[...] = mats[name]

    def save(self, path) -> None:
        """Write every parameter as a ``save_matrices`` container."""
        save_matrices(path, self._params)

    def load(self, path) -> None:
        """Copy in the container ``save`` wrote, as checked by ``load_exact``."""
        self.load_exact(load_matrices(path), path)


def sgd_step(store: ParamStore, lr: float = 1e-5) -> None:
    """p <- p - lr * g for every parameter, then zero gradients."""
    for name in store.names():
        g = store.grad(name)
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        store.get(name)[...] -= lr * g
    store.zero_grads()
    store.step_count += 1


_MATRIX_MAGIC = b"GSMX"
_MATRIX_VERSION = 1


def save_matrices(path, matrices: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays as a little-endian binary container."""
    with open(path, "wb") as fh:
        fh.write(_MATRIX_MAGIC)
        fh.write(struct.pack("<IQ", _MATRIX_VERSION, len(matrices)))
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
    """Read a ``save_matrices`` container.

    A missing file raises ``OSError``. A damaged one raises
    ``IngestionError`` naming the path: a wrong magic or version, a file
    cut short, a name that is not UTF-8, a non-finite value, or bytes
    after the last matrix.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MATRIX_MAGIC:
        raise IngestionError(f"{path}: not a matrix container (magic {data[:4]!r})")
    pos = 4

    def take(n: int) -> bytes:
        nonlocal pos
        if n > len(data) - pos:
            raise IngestionError(f"{path}: matrix container cut short at byte {len(data)}")
        pos += n
        return data[pos - n : pos]

    version, count = struct.unpack("<IQ", take(12))
    if version != _MATRIX_VERSION:
        raise IngestionError(f"{path}: matrix container version {version}, want {_MATRIX_VERSION}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise IngestionError(f"{path}: matrix name is not UTF-8") from None
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        data_bytes = take(8 * math.prod(shape))
        out[name] = np.frombuffer(data_bytes, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.isfinite(out[name]).all():
            raise IngestionError(f"{path}: entry {name!r} holds a non-finite value")
    if pos != len(data):
        raise IngestionError(f"{path}: {len(data) - pos} bytes after the last matrix")
    return out
