"""Views of production objects that only the tests need.

The package reads embedding rows and contexts by row index and never
lists a user's window, asks for the bare hinge loss or reads a reward
baseline's window; these helpers give the tests those views, keyed by
object, without widening the package's API.
"""

from __future__ import annotations

import numpy as np

from geostream.embed import Embedder, ObjKey, TrainBatch
from geostream.errors import ConfigError
from geostream.kgstore import DynamicKg
from geostream.reward import BaselineWindows


def table_keys(emb: Embedder) -> list[ObjKey]:
    """Every object with a table row, sorted."""
    return sorted(emb.kg.keys)


def row(emb: Embedder, key: ObjKey) -> np.ndarray:
    """The object's row, a view into ``emb.table.vecs``."""
    return emb.table.vecs[emb.kg.rows[key]]


def set_row(emb: Embedder, key: ObjKey, value) -> None:
    """Write the object's row; a changed value bumps ``table.version``,
    so the embedder's joint memo re-encodes every row."""
    table = emb.table
    value = np.asarray(value, dtype=np.float64)
    if value.shape != (table.d,):
        raise ConfigError(f"vector for {key} has shape {value.shape}, want ({table.d},)")
    if not np.array_equal(row(emb, key), value):
        table.vecs[emb.kg.rows[key]] = value
        table.version += 1


def context(kg: DynamicKg, key) -> tuple[ObjKey, ...]:
    """The objects of ``key``'s context, in ``context_of``'s order: the
    object of each row it returns. Objects the graph has not indexed yet
    are indexed first, in sorted order, as a new embedder indexes them."""
    kg.index(kg.object_keys())
    return tuple(kg.keys[r] for r in kg.context_of(key))


def margin_loss(emb: Embedder, batch: TrainBatch) -> float:
    if not batch.pairs:
        return 0.0
    hinge = emb._hinge(batch)[0]
    return float(hinge[hinge > 0.0].sum())


def window_events(kg: DynamicKg, user_id: int) -> list[tuple[int, float]]:
    """(poi, time) pairs currently in a user's window, oldest first."""
    return [(e.poi, e.time) for e in kg._windows.get(user_id, ())]


def window_contents(windows: BaselineWindows) -> tuple[list[float], list[float], list[float]]:
    """The values each reward-component baseline averages, oldest first."""
    return tuple(list(w) for w in windows._windows)
