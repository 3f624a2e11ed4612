"""Views of production objects that only the tests need.

The package reads embedding rows by index and never lists a user's
window, asks for the bare hinge loss or reads a reward baseline's
window; these helpers give the tests those views without widening the
package's API.
"""

from __future__ import annotations

import numpy as np

from geostream.embed import Embedder, EmbeddingTable, ObjKey, TrainBatch
from geostream.errors import ConfigError
from geostream.kgstore import DynamicKg
from geostream.reward import BaselineWindows


def table_keys(table: EmbeddingTable) -> list[ObjKey]:
    return sorted(table.rows)


def row(table: EmbeddingTable, key: ObjKey) -> np.ndarray:
    """The object's row, a view into ``table.vecs``."""
    return table.vecs[table.row_of(key)]


def set_row(table: EmbeddingTable, key: ObjKey, value) -> None:
    """Write (or append) the object's row; a changed value bumps ``table.version``,
    so the embedder's joint memo re-encodes every row."""
    value = np.asarray(value, dtype=np.float64)
    if value.shape != (table.d,):
        raise ConfigError(f"vector for {key} has shape {value.shape}, want ({table.d},)")
    if key not in table.rows:
        table._append([key], value[None, :])
    elif not np.array_equal(table.vecs[table.rows[key]], value):
        table.vecs[table.rows[key]] = value
        table.version += 1


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
