"""Evaluation metrics over (predicted, real) POI pairs.

Category precision and recall are frequency-weighted ratio-of-sums over
per-category confusion counts; similarity and distance average the
word-vector cosine and the great-circle distance per event.
"""

from __future__ import annotations

from .errors import DataError
from .geo import haversine_km
from .reward import PoiInfo, WordVectors

EvalLog = list[tuple[PoiInfo, PoiInfo]]


def _require_nonempty(log: EvalLog) -> None:
    if not log:
        raise DataError("metric over an empty log")


def _confusion(log: EvalLog):
    _require_nonempty(log)
    real_count: dict[str, int] = {}
    tp: dict[str, int] = {}
    fp: dict[str, int] = {}
    fn: dict[str, int] = {}
    for pred, real in log:
        real_count[real.category] = real_count.get(real.category, 0) + 1
        if pred.category == real.category:
            tp[real.category] = tp.get(real.category, 0) + 1
        else:
            fp[pred.category] = fp.get(pred.category, 0) + 1
            fn[real.category] = fn.get(real.category, 0) + 1
    return real_count, tp, fp, fn


def _weighted_ratio(real_count, tp, misses) -> float:
    """Sum over real categories of weight * hits over weight * (hits + misses);
    a category with no hits and no misses contributes 0."""
    num = den = 0.0
    for cat, weight in real_count.items():
        hits = tp.get(cat, 0)
        total = hits + misses.get(cat, 0)
        if total == 0:
            continue
        num += weight * hits
        den += weight * total
    return num / den if den else 0.0


def prec_cat(log: EvalLog) -> float:
    """Weighted category precision; zero-denominator classes contribute 0."""
    real_count, tp, fp, _ = _confusion(log)
    return _weighted_ratio(real_count, tp, fp)


def rec_cat(log: EvalLog) -> float:
    """Weighted category recall."""
    real_count, tp, _, fn = _confusion(log)
    return _weighted_ratio(real_count, tp, fn)


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
