"""Evaluation metrics over (predicted, real) POI pairs.

Category precision and recall are frequency-weighted ratio-of-sums over
per-category counts of real events, predicted events and hits: a real
category's hits plus false positives is its prediction count, and its
hits plus misses is its real count. Similarity and distance average the
word-vector cosine and the great-circle distance per event.
"""

from __future__ import annotations

from collections import Counter

from .errors import DataError
from .geo import haversine_km
from .reward import PoiInfo, WordVectors

EvalLog = list[tuple[PoiInfo, PoiInfo]]


def _require_nonempty(log: EvalLog) -> None:
    if not log:
        raise DataError("metric over an empty log")


def _category_counts(log: EvalLog):
    """Per category: real events, predicted events and hits."""
    _require_nonempty(log)
    real, pred, hits = Counter(), Counter(), Counter()
    for p, r in log:
        real[r.category] += 1
        pred[p.category] += 1
        hits[r.category] += p.category == r.category
    return real, pred, hits


def prec_cat(log: EvalLog) -> float:
    """Sum of w*hits over sum of w*predictions, over real categories of
    weight w (their real count); 0 when no real category was predicted."""
    real, pred, hits = _category_counts(log)
    den = sum(w * pred[c] for c, w in real.items())
    return sum(w * hits[c] for c, w in real.items()) / den if den else 0.0


def rec_cat(log: EvalLog) -> float:
    """Weighted category recall: sum of w*hits over sum of w*w, as a real
    category's hits plus misses is its weight w."""
    real, _, hits = _category_counts(log)
    return sum(w * hits[c] for c, w in real.items()) / sum(w * w for w in real.values())


def avg_sim(log: EvalLog, wv: WordVectors) -> float:
    """Mean cosine similarity between predicted and real category names."""
    _require_nonempty(log)
    total = 0.0
    for pred, real in log:
        total += wv.category_similarity(real.category, pred.category)
    return total / len(log)


def avg_dist(log: EvalLog) -> float:
    """Mean great-circle distance in kilometers."""
    _require_nonempty(log)
    total = 0.0
    for pred, real in log:
        total += haversine_km(pred.lat, pred.lon, real.lat, real.lon)
    return total / len(log)
