"""Composite recommendation reward.

Three components compare the predicted POI against the real one: the
reciprocal of their distance (floored so a perfect hit stays bounded),
the cosine similarity of their category names under pretrained word
vectors, and an exact-match indicator. Each component is centered by the
mean of its own sliding window of past values, weighted, and squashed
through a sigmoid.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError
from .geo import haversine_km
from .numkit import sigmoid_scalar

DISTANCE_FLOOR_KM = 0.1

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class PoiInfo(NamedTuple):
    poi: int
    category: str
    lat: float
    lon: float


@dataclass(frozen=True)
class RewardWeights:
    distance: float
    category: float
    exact: float

    def __post_init__(self):
        for v in (self.distance, self.category, self.exact):
            if v < 0:
                raise ConfigError("reward weights must be nonnegative")
        total = self.distance + self.category + self.exact
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"reward weights must sum to 1, got {total}")


class BaselineWindows:
    """Three fixed-capacity windows; the baseline is each window's mean."""

    def __init__(self, capacity: int = 200):
        if capacity < 1:
            raise ConfigError("baseline window capacity must be >= 1")
        self.capacity = capacity
        self._windows = tuple(deque(maxlen=capacity) for _ in range(3))

    def baselines(self) -> tuple[float, float, float]:
        return tuple(
            sum(w) / len(w) if w else 0.0 for w in self._windows
        )

    def append(self, parts: tuple[float, float, float]) -> None:
        for w, v in zip(self._windows, parts):
            w.append(float(v))

    def contents(self) -> tuple[list[float], list[float], list[float]]:
        return tuple(list(w) for w in self._windows)


class WordVectors:
    """Token -> vector map loaded from a `token v1 .. vn` text file."""

    def __init__(self, vectors: dict[str, np.ndarray] | None = None):
        self._vectors: dict[str, np.ndarray] = {}
        if vectors:
            for token, vec in vectors.items():
                self.add(token, vec)

    def add(self, token: str, vec) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if not np.any(vec):
            raise DataError(f"word vector for {token!r} is all zeros")
        self._vectors[token.lower()] = vec

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, token: str) -> bool:
        return token.lower() in self._vectors

    @classmethod
    def load(cls, path) -> "WordVectors":
        wv = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                fields = line.split()
                wv.add(fields[0], [float(v) for v in fields[1:]])
        return wv

    def category_vector(self, name: str) -> np.ndarray | None:
        """Mean of the per-token vectors; None when every token is unknown."""
        hits = [
            self._vectors[tok]
            for tok in _TOKEN_RE.findall(name.lower())
            if tok in self._vectors
        ]
        if not hits:
            return None
        return np.mean(hits, axis=0)

    def category_similarity(self, a: str, b: str) -> float:
        va = self.category_vector(a)
        vb = self.category_vector(b)
        if va is None or vb is None:
            return 0.0
        na = float(np.linalg.norm(va))
        nb = float(np.linalg.norm(vb))
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(va @ vb / (na * nb))


def component_rewards(
    pred: PoiInfo,
    real: PoiInfo,
    wv: WordVectors,
    d_floor: float = DISTANCE_FLOOR_KM,
) -> tuple[float, float, float]:
    """(distance reciprocal, category similarity, exact-match indicator)."""
    if pred.lat is None or pred.lon is None or real.lat is None or real.lon is None:
        raise DataError("POI is missing coordinates")
    dist = haversine_km(pred.lat, pred.lon, real.lat, real.lon)
    r_d = 1.0 / max(dist, d_floor)
    if pred.category == real.category:
        r_c = 1.0
    else:
        r_c = wv.category_similarity(pred.category, real.category)
    r_p = 1.0 if pred.poi == real.poi else 0.0
    return (r_d, r_c, r_p)


def compute_reward(
    parts: tuple[float, float, float],
    weights: RewardWeights,
    baselines: BaselineWindows,
) -> float:
    """Squash the baseline-centered weighted sum, then record the parts.

    Baselines are read before this sample enters the windows.
    """
    b_d, b_c, b_p = baselines.baselines()
    r_d, r_c, r_p = parts
    z = (
        weights.distance * (r_d - b_d)
        + weights.category * (r_c - b_c)
        + weights.exact * (r_p - b_p)
    )
    baselines.append(parts)
    return sigmoid_scalar(z)
