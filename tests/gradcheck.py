"""Central-difference gradient checker and its ``Embedder`` adapters.

``finite_diff_check`` verifies every hand-derived backward pass in the
package. The embedder checks perturb the live encoder parameters and raw
embeddings through one ``ParamStore`` and compare central differences
with the hand-derived gradients of ``margin_loss_and_grads``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from geostream.embed import Embedder
from geostream.numkit import ParamStore

import probes


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
        analytic = {name: store.grad(name).copy() for name in store.names()}
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


def build_check_store(embedder: Embedder, keys) -> ParamStore:
    """A ParamStore aliasing encoder params plus chosen raw embeddings.

    Perturbing the store perturbs the live table, so a loss closure over
    the embedder sees the changes.
    """
    store = ParamStore()
    for name in embedder.enc.store.names():
        store.add(name, embedder.enc.store.get(name))
    for key in keys:
        store.add(f"emb/{key[0]}:{key[1]}", probes.row(embedder, key))
    return store


def fill_check_grads(
    store: ParamStore, embedder: Embedder, emb_grads: np.ndarray
) -> dict[str, np.ndarray]:
    """Collect analytic grads matching ``build_check_store`` naming;
    ``emb_grads`` has one row per table row."""
    analytic = {}
    for name in store.names():
        if name.startswith("emb/"):
            kind, index = name[4:].split(":")
            analytic[name] = emb_grads[embedder.kg.rows[(int(kind), int(index))]]
        else:
            analytic[name] = embedder.enc.store.grad(name).copy()
    return analytic
