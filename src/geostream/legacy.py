"""Preliminary-framework baseline: separate user and spatial representations.

The user vector and the spatial triple store <heads, rel, tails> are
updated by explicit gated rules on every visit event, modulated by a
temporal-traffic context vector. Relations are never modified. The state
for the vanilla fixed-action agent concatenates the user vector with the
per-block means of the spatial store.

Every update rule is one gated blend (``_blend``) with one hand-derived
backward (``_blend_grads``), used both for the gradient checks and for
pushing reward feedback into the rule weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .errors import ConfigError, DataError, UnknownObjectError
from .numkit import ParamStore, sigmoid

REL_NAMES = ("belong_to", "locate_at")


class LegacyParams:
    """Trainable weights of the temporal transform and all update gates."""

    def __init__(self, n: int, m: int, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.n = n
        self.m = m
        self.store = ParamStore()
        s = self.store
        lim = 1.0 / np.sqrt(max(n, 1))
        s.add("temporal/w_in", rng.uniform(-lim, lim, size=(n, m)))
        s.add("temporal/w_flow", rng.uniform(-lim, lim, size=3))
        s.add("temporal/bias", np.zeros(n))
        s.add("user/w_interact", rng.uniform(-lim, lim, size=n))
        s.add("user/gate_w", rng.uniform(-lim, lim, size=n))
        s.add("user/gate_b", np.zeros(1))
        s.add("poi/w_interact", rng.uniform(-lim, lim, size=n))
        s.add("poi/gate_w", rng.uniform(-lim, lim, size=n))
        s.add("poi/gate_b", np.zeros(1))
        s.add("tail/gate_w", rng.uniform(-lim, lim, size=n))
        s.add("tail/gate_b", np.zeros(1))
        s.add("sibling/gate_w", rng.uniform(-lim, lim, size=n))
        s.add("sibling/gate_b", np.zeros(1))


def transform_temporal(t_mat: np.ndarray, params: LegacyParams):
    """sigmoid(w_in @ T @ w_flow + bias) -> vector in (0,1)^n."""
    t_mat = np.asarray(t_mat, dtype=np.float64)
    s = params.store
    w_in = s.get("temporal/w_in")
    if t_mat.shape != (params.m, 3):
        raise ConfigError(f"temporal context shape {t_mat.shape}, want ({params.m}, 3)")
    z1 = w_in @ t_mat
    z2 = z1 @ s.get("temporal/w_flow")
    z3 = z2 + s.get("temporal/bias")
    out = sigmoid(z3)
    cache = {"t": t_mat, "z1": z1, "out": out}
    return out, cache


def transform_temporal_grads(params: LegacyParams, cache, d_out: np.ndarray) -> None:
    s = params.store
    d_z3 = d_out * cache["out"] * (1.0 - cache["out"])
    s.accumulate("temporal/bias", d_z3)
    s.accumulate("temporal/w_flow", cache["z1"].T @ d_z3)
    d_z1 = np.outer(d_z3, s.get("temporal/w_flow"))
    s.accumulate("temporal/w_in", d_z1 @ cache["t"].T)


def _blend(prefix: str, x: np.ndarray, target: np.ndarray, params: LegacyParams, squash: bool = True):
    """alpha * x + (1 - alpha) * target, alpha the prefix's gate on x.

    ``x`` is one vector or a matrix of rows, each row with its own gate.
    Every update rule is this blend; all but the tail rule squash the
    result through a sigmoid.
    """
    s = params.store
    # vecdot gives each row's gate the same float as a per-row ``gate_w @ x``
    alpha = sigmoid(np.vecdot(x, s.get(f"{prefix}/gate_w")) + s.get(f"{prefix}/gate_b")[0])
    a = alpha[..., None]
    out = a * x + (1.0 - a) * target
    if squash:
        out = sigmoid(out)
    cache = {"prefix": prefix, "x": x.copy(), "target": target,
             "alpha": alpha, "squash": squash, "out": out}
    return out, cache


def _add_in_order(acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``acc`` plus each of ``rows`` one at a time, last row first: the order
    of a per-row loop run backwards. A reduce could sum pairwise instead."""
    rows = np.reshape(rows, (-1,) + acc.shape)
    return np.add.accumulate(np.concatenate([acc[None], rows[::-1]]))[-1]


def _blend_grads(params: LegacyParams, cache, d_out: np.ndarray):
    """Backward of ``_blend``; returns (d_x, d_target), d_target per row of x.

    The gate gradients of a matrix's rows add in last row first.
    """
    s = params.store
    prefix, out, alpha, x = cache["prefix"], cache["out"], cache["alpha"], cache["x"]
    d_pre = d_out * out * (1.0 - out) if cache["squash"] else d_out
    d_alpha = np.vecdot(d_pre, x - cache["target"])
    d_z = d_alpha * alpha * (1.0 - alpha)
    w, b = s.grad(f"{prefix}/gate_w"), s.grad(f"{prefix}/gate_b")
    w[...] = _add_in_order(w, d_z[..., None] * x)
    b[...] = _add_in_order(b, d_z)
    a = alpha[..., None]
    d_x = d_pre * a + d_z[..., None] * s.get(f"{prefix}/gate_w")  # direct path + through the gate
    return d_x, d_pre * (1.0 - a)


def _interact(prefix: str, x: np.ndarray, other: np.ndarray, t_tilde: np.ndarray, params: LegacyParams):
    """Blend x toward w_interact * (other . t_tilde), squashed."""
    q = float(other @ t_tilde)
    out, cache = _blend(prefix, x, params.store.get(f"{prefix}/w_interact") * q, params)
    cache.update(other=other.copy(), tt=t_tilde.copy(), q=q)
    return out, cache


def _interact_grads(params: LegacyParams, cache, d_out: np.ndarray):
    """Backward of ``_interact``; returns (d_x, d_other, d_t_tilde)."""
    s = params.store
    name = f"{cache['prefix']}/w_interact"
    d_x, d_inter = _blend_grads(params, cache, d_out)
    s.accumulate(name, d_inter * cache["q"])
    d_q = float(d_inter @ s.get(name))
    return d_x, d_q * cache["tt"], d_q * cache["other"]


def update_user(u: np.ndarray, h_poi: np.ndarray, t_tilde: np.ndarray, params: LegacyParams):
    """Gated blend of the old user vector with the POI interaction term."""
    return _interact("user", u, h_poi, t_tilde, params)


def update_user_grads(params: LegacyParams, cache, d_out: np.ndarray):
    """Returns (d_u, d_h_poi, d_t_tilde)."""
    return _interact_grads(params, cache, d_out)


class SpatialKgRep:
    """The spatial triple store as three matrices in one ``ParamStore``:
    ``heads`` (one row per POI index), ``rels`` (``REL_NAMES`` order) and
    ``tails`` (the categories, then the zones), plus the static linkage as
    row indices: ``poi_links[p]`` holds ``(tail row, rel row)`` per link of
    POI ``p`` and ``members[row]`` the index array of the POIs linked to
    tail ``row``."""

    def __init__(self, n: int, n_pois: int, n_tails: int):
        self.store = ParamStore()
        self.heads = self.store.add("heads", np.zeros((n_pois, n)))
        self.rels = self.store.add("rels", np.zeros((len(REL_NAMES), n)))
        self.tails = self.store.add("tails", np.zeros((n_tails, n)))
        self.poi_links: list[tuple[tuple[int, int], ...]] = [()] * n_pois
        self.members: list[np.ndarray] = [np.zeros(0, dtype=np.intp)] * n_tails

    @classmethod
    def from_catalog(cls, pois, n: int, rng: np.random.Generator) -> "SpatialKgRep":
        """pois: (poi_id, category_id, zone_id) for the POI indices 0..P-1 over
        dense category and zone indices; category c is tail row c, zone z row
        n_categories + z. Draws the relations, then per POI its head and each
        of its tails the first time it is seen.
        """
        pois = list(pois)
        n_cats = 1 + max((cat for _, cat, _ in pois), default=-1)
        n_zones = 1 + max((zn for _, _, zn in pois), default=-1)
        rep = cls(n, len(pois), n_cats + n_zones)
        members = [[] for _ in range(n_cats + n_zones)]
        for row in range(len(REL_NAMES)):
            rep.rels[row] = rng.uniform(-1, 1, size=n)
        for poi_id, cat, zn in pois:
            rep.heads[poi_id] = rng.uniform(0.0, 1.0, size=n)
            # belong_to links the category, locate_at the zone
            links = ((cat, 0), (n_cats + zn, 1))
            for row, _ in links:
                if not members[row]:
                    rep.tails[row] = rng.uniform(0.0, 1.0, size=n)
                members[row].append(poi_id)
            rep.poi_links[poi_id] = links
        rep.members = [np.array(m, dtype=np.intp) for m in members]
        return rep


@dataclass
class SpatialUpdate:
    poi: int
    head_cache: dict
    tail_caches: list[tuple[int, dict]]
    sibling_caches: list[tuple[np.ndarray, int, dict]]  # (sibling rows, tail row, cache) per tail


def update_spatial(rep: SpatialKgRep, poi_id: int, u: np.ndarray, t_tilde: np.ndarray,
                   params: LegacyParams) -> SpatialUpdate:
    """Visited head first, then its tails, then same-category/zone siblings.

    Mutates ``rep`` in place: the visited head is blended toward the user
    interaction, each linked tail t toward h' + rel (no outer squash), and
    the tail's other members, its siblings, toward the translation
    pre-image t' - rel as one matrix of rows. Other rows keep their values;
    relation rows are never written.
    """
    if not 0 <= poi_id < len(rep.heads):
        raise UnknownObjectError(f"unknown POI {poi_id}")
    h_new, head_cache = _interact("poi", rep.heads[poi_id], u, t_tilde, params)
    rep.heads[poi_id] = h_new
    tail_caches, sibling_caches = [], []
    for row, rel_row in rep.poi_links[poi_id]:
        rel = rep.rels[rel_row]
        t_new, t_cache = _blend("tail", rep.tails[row], h_new + rel, params, squash=False)
        rep.tails[row] = t_new
        tail_caches.append((row, t_cache))
        sibs = rep.members[row]
        sibs = sibs[sibs != poi_id]
        rep.heads[sibs], s_cache = _blend("sibling", rep.heads[sibs], t_new - rel, params)
        sibling_caches.append((sibs, row, s_cache))
    return SpatialUpdate(poi_id, head_cache, tail_caches, sibling_caches)


def update_spatial_grads(params: LegacyParams, update: SpatialUpdate,
                         d_heads: np.ndarray, d_tails: np.ndarray):
    """Backward through one spatial update; returns (d_u, d_t_tilde).

    ``d_heads`` / ``d_tails`` are the gradients w.r.t. the whole POST-update
    ``heads`` / ``tails`` matrices; only the rows the update wrote are read,
    in reverse update order.
    """
    d_heads = np.array(d_heads, dtype=np.float64)
    d_tails = np.array(d_tails, dtype=np.float64)
    d_h_visited = d_heads[update.poi]
    # siblings ran last: their grads add to the updated tails
    for sibs, row, cache in reversed(update.sibling_caches):
        d_heads[sibs], d_t = _blend_grads(params, cache, d_heads[sibs])
        d_tails[row] = _add_in_order(d_tails[row], d_t)
    for row, cache in reversed(update.tail_caches):
        _, d_h = _blend_grads(params, cache, d_tails[row])
        d_h_visited = d_h_visited + d_h
    _, d_u, d_tt = _interact_grads(params, update.head_cache, d_h_visited)
    return d_u, d_tt


def legacy_state(u: np.ndarray, rep: SpatialKgRep) -> np.ndarray:
    """concat(u, mean heads, mean rels, mean tails); fixed dimension 4n."""
    return np.concatenate([u, rep.heads.mean(0), rep.rels.mean(0), rep.tails.mean(0)])


class TrafficBins:
    """Zone-level traffic counts per time bin, one row per zone index, derived
    from the stream.

    Within the current bin, a user's consecutive visits count as inner
    traffic when both fall in one zone, otherwise as out-flow from the
    first zone and in-flow into the second.
    """

    def __init__(self, zones: int, bin_seconds: float = 3600.0):
        self.bin_seconds = bin_seconds
        self.counts = np.zeros((zones, 3))
        self._bin = None

    def record(self, prev_zone, new_zone, time: float) -> None:
        if not isfinite(time):
            raise DataError(f"visit time {time} is not finite")
        bin_id = int(time // self.bin_seconds)
        if bin_id != self._bin:
            self.counts[...] = 0.0
            self._bin = bin_id
        if prev_zone is None:
            return
        if prev_zone == new_zone:
            self.counts[prev_zone, 0] += 1
        else:
            self.counts[prev_zone, 2] += 1
            self.counts[new_zone, 1] += 1

    def matrix(self) -> np.ndarray:
        return self.counts.copy()
