"""Adapters between an ``Embedder`` and ``numkit.finite_diff_check``.

The gradient checks perturb the live encoder parameters and raw
embeddings through one ``ParamStore`` and compare central differences
with the hand-derived gradients of ``margin_loss_and_grads``.
"""

from __future__ import annotations

import numpy as np

from geostream.embed import Embedder, ObjKey
from geostream.numkit import ParamStore


def build_check_store(embedder: Embedder, keys) -> ParamStore:
    """A ParamStore aliasing encoder params plus chosen raw embeddings.

    Perturbing the store perturbs the live table, so a loss closure over
    the embedder sees the changes.
    """
    store = ParamStore()
    for name in embedder.enc.store.names():
        store.add(name, embedder.enc.store.get(name))
    for key in keys:
        store.add(f"emb/{key[0]}:{key[1]}", embedder.table.get(key))
    return store


def fill_check_grads(
    store: ParamStore, embedder: Embedder, emb_grads: dict[ObjKey, np.ndarray]
) -> dict[str, np.ndarray]:
    """Collect analytic grads matching ``build_check_store`` naming."""
    analytic = {}
    for name in store.names():
        if name.startswith("emb/"):
            kind, index = name[4:].split(":")
            key = (int(kind), int(index))
            analytic[name] = np.asarray(emb_grads.get(key, np.zeros(embedder.table.d)))
        else:
            analytic[name] = embedder.enc.store.grad(name).copy()
    return analytic
