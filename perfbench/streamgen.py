"""Seeded check-in streams for the benchmark workloads.

Writes a Foursquare-format TSV (user, venue id, category id, category
name, latitude, longitude, timezone offset, UTC timestamp) that
``harness.run_training`` reads through ``config.dataset``, plus a
word-vector file covering every token of the category names. The same
spec and seed always give byte-identical files.

Users drift: each prefers one "home" category until ``DRIFT_AT`` of the
stream, then another. A category's POIs sit in zones of their own. A hub
category, when present, spreads its POIs over many zones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

# Zone grid of the program under test (RunConfig.cell_deg default).
CELL_DEG = 0.01
WORDVEC_DIM = 16
WORDVEC_SEED = 20220127
START_EPOCH = 1_333_476_009  # Tue Apr 03 2012, the start of the Foursquare NYC dump
P_PREFER = 0.85  # share of events made by a user at home
DRIFT_AT = 0.5  # where in the stream every user's home category moves

_WORDS = (
    "coffee", "shop", "park", "museum", "gym", "beach", "station", "bar",
    "pizza", "place", "library", "theater", "market", "bakery", "hotel",
    "office", "school", "church", "mall", "garden", "bridge", "plaza",
)


@dataclass(frozen=True)
class StreamSpec:
    n_users: int
    n_events: int
    n_categories: int  # small, spatially compact categories
    pois_per_category: int
    zones_per_category: int = 1  # each zone holds POIs of one category only
    hub_pois: int = 0  # POIs of the one hub category, 0 for none
    hub_zones: int = 1  # zones the hub POIs are spread over
    hub_slots: int = 1  # hub visits per block of one visit per small category


@dataclass(frozen=True)
class Venue:
    venue_id: str
    category_id: str
    category_name: str
    lat: float
    lon: float


def category_names(n: int) -> list[str]:
    """Distinct two-word names, so similarity under the vectors varies."""
    names = []
    for i in range(n):
        lap, j = divmod(i, len(_WORDS))
        second = _WORDS[(3 * j + 5 + lap) % len(_WORDS)]
        names.append(f"{_WORDS[j].title()} {second.title()}")
    if len(set(names)) != n:
        raise ValueError(f"cannot name {n} categories distinctly")
    return names


def _cell_center(row: int, col: int) -> tuple[float, float]:
    return 40.60 + CELL_DEG * (row + 0.5), -74.10 + CELL_DEG * (col + 0.5)


def make_venues(spec: StreamSpec, rng: np.random.Generator) -> list[Venue]:
    """Small categories first (in zones of their own), then the hub's POIs."""
    n_cats = spec.n_categories + (1 if spec.hub_pois else 0)
    names = category_names(n_cats)
    venues = []
    jitter = 0.3 * CELL_DEG
    for c in range(spec.n_categories):
        for i in range(spec.pois_per_category):
            z = c * spec.zones_per_category + i % spec.zones_per_category
            lat0, lon0 = _cell_center(z // 10, z % 10)
            venues.append(Venue(
                f"{len(venues):024x}", f"{c:024x}", names[c],
                lat0 + rng.uniform(-jitter, jitter), lon0 + rng.uniform(-jitter, jitter),
            ))
    if spec.hub_pois:
        c = spec.n_categories
        for i in range(spec.hub_pois):
            z = i % spec.hub_zones
            lat0, lon0 = _cell_center(50 + z // 10, z % 10)
            venues.append(Venue(
                f"{len(venues):024x}", f"{c:024x}", names[c],
                lat0 + rng.uniform(-jitter, jitter), lon0 + rng.uniform(-jitter, jitter),
            ))
    return venues


def make_stream(spec: StreamSpec, seed: int) -> tuple[list[Venue], list[tuple[str, int, int]]]:
    """Venues plus (user, venue index, epoch seconds) events in time order.

    Categories come in shuffled blocks that hold each small category once
    and the hub ``hub_slots`` times, so every stretch of whole blocks
    visits the categories in fixed proportions.
    That keeps weighted category precision steady across seeds: a
    predictor that ignores the user scores about the same however its
    guesses fall. The visiting user is, with ``P_PREFER``, one whose
    current home is the block's category.
    """
    rng = np.random.default_rng(seed)
    venues = make_venues(spec, rng)
    n_cats = spec.n_categories + (1 if spec.hub_pois else 0)
    slots = list(range(spec.n_categories)) + [spec.n_categories] * (spec.hub_slots if spec.hub_pois else 0)
    # each category's POIs in turn, so every seed's catalog holds them all
    orders = [rng.permutation(spec.pois_per_category) + c * spec.pois_per_category
              for c in range(spec.n_categories)]
    orders.append(rng.permutation(spec.hub_pois) + spec.n_categories * spec.pois_per_category)
    visits = [0] * len(orders)
    home_before = rng.permutation(spec.n_users) % n_cats
    home_after = rng.permutation(n_cats)[home_before]
    events = []
    ts = START_EPOCH
    block: list[int] = []
    for i in range(spec.n_events):
        if not block:
            block = list(rng.permutation(slots))
        c = int(block.pop())
        home = home_before if i < DRIFT_AT * spec.n_events else home_after
        locals_ = np.flatnonzero(home == c)
        if len(locals_) and rng.random() < P_PREFER:
            u = int(locals_[rng.integers(len(locals_))])
        else:
            u = int(rng.integers(spec.n_users))
        v = int(orders[c][visits[c] % len(orders[c])])
        visits[c] += 1
        ts += int(rng.integers(30, 900))
        events.append((f"{u + 1}", v, ts))
    return venues, events


def _foursquare_time(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%a %b %d %H:%M:%S +0000 %Y")


def write_dataset(spec: StreamSpec, seed: int, out_dir: str) -> tuple[str, str]:
    """Write ``checkins.tsv`` and ``wordvecs.txt``; return their paths."""
    venues, events = make_stream(spec, seed)
    os.makedirs(out_dir, exist_ok=True)
    tsv = os.path.join(out_dir, "checkins.tsv")
    with open(tsv, "w", encoding="utf-8") as fh:
        for user, v, ts in events:
            ven = venues[v]
            fh.write(
                f"{user}\t{ven.venue_id}\t{ven.category_id}\t{ven.category_name}"
                f"\t{ven.lat:.6f}\t{ven.lon:.6f}\t-240\t{_foursquare_time(ts)}\n"
            )
    wv_path = os.path.join(out_dir, "wordvecs.txt")
    tokens = sorted({tok for ven in venues for tok in ven.category_name.lower().split()})
    wv_rng = np.random.default_rng(WORDVEC_SEED)
    with open(wv_path, "w", encoding="utf-8") as fh:
        for tok in tokens:
            vec = wv_rng.normal(size=WORDVEC_DIM)
            fh.write(tok + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")
    return tsv, wv_path
