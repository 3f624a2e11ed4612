"""The legacy update rules as they stood before the single gated blend,
on the spatial store as it stood before its three matrices.

Kept verbatim as the oracle that ``test_legacy.py`` compares the production
rules with: four separate forward/backward pairs (user, visited head, tail,
sibling), each with its own copy of the gated blend, and the spatial store
as string-keyed dicts of vectors with the state built from their sorted keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from geostream.errors import UnknownObjectError
from geostream.legacy import REL_NAMES, LegacyParams
from geostream.numkit import sigmoid


def _gate(prefix: str, x: np.ndarray, params: LegacyParams) -> tuple[float, float]:
    s = params.store
    z = float(s.get(f"{prefix}/gate_w") @ x + s.get(f"{prefix}/gate_b")[0])
    return 1.0 / (1.0 + np.exp(-z)) if z >= 0 else np.exp(z) / (1.0 + np.exp(z)), z


def _gate_grads(prefix: str, x: np.ndarray, alpha: float, d_alpha: float, params: LegacyParams) -> np.ndarray:
    s = params.store
    d_z = d_alpha * alpha * (1.0 - alpha)
    s.accumulate(f"{prefix}/gate_w", d_z * x)
    s.accumulate(f"{prefix}/gate_b", np.array([d_z]))
    return d_z * s.get(f"{prefix}/gate_w")  # gradient back into x


def update_user(u: np.ndarray, h_poi: np.ndarray, t_tilde: np.ndarray, params: LegacyParams):
    """Gated blend of the old user vector with the POI interaction term."""
    s = params.store
    q = float(h_poi @ t_tilde)
    inter = s.get("user/w_interact") * q
    alpha, _ = _gate("user", u, params)
    pre = alpha * u + (1.0 - alpha) * inter
    out = sigmoid(pre)
    cache = {"u": u.copy(), "h": h_poi.copy(), "tt": t_tilde.copy(),
             "q": q, "inter": inter, "alpha": alpha, "out": out}
    return out, cache


def update_user_grads(params: LegacyParams, cache, d_out: np.ndarray):
    s = params.store
    out, alpha, u, inter = cache["out"], cache["alpha"], cache["u"], cache["inter"]
    d_pre = d_out * out * (1.0 - out)
    d_alpha = float(d_pre @ (u - inter))
    d_u = d_pre * alpha
    d_inter = d_pre * (1.0 - alpha)
    s.accumulate("user/w_interact", d_inter * cache["q"])
    d_q = float(d_inter @ s.get("user/w_interact"))
    d_h = d_q * cache["tt"]
    d_tt = d_q * cache["h"]
    d_u = d_u + _gate_grads("user", u, alpha, d_alpha, params)
    return d_u, d_h, d_tt


def _update_head(h: np.ndarray, u: np.ndarray, t_tilde: np.ndarray, params: LegacyParams):
    s = params.store
    q = float(u @ t_tilde)
    inter = s.get("poi/w_interact") * q
    alpha, _ = _gate("poi", h, params)
    pre = alpha * h + (1.0 - alpha) * inter
    out = sigmoid(pre)
    cache = {"h": h.copy(), "u": u.copy(), "tt": t_tilde.copy(),
             "q": q, "inter": inter, "alpha": alpha, "out": out}
    return out, cache


def _update_head_grads(params: LegacyParams, cache, d_out: np.ndarray):
    s = params.store
    out, alpha, h, inter = cache["out"], cache["alpha"], cache["h"], cache["inter"]
    d_pre = d_out * out * (1.0 - out)
    d_alpha = float(d_pre @ (h - inter))
    d_h = d_pre * alpha
    d_inter = d_pre * (1.0 - alpha)
    s.accumulate("poi/w_interact", d_inter * cache["q"])
    d_q = float(d_inter @ s.get("poi/w_interact"))
    d_u = d_q * cache["tt"]
    d_tt = d_q * cache["u"]
    d_h = d_h + _gate_grads("poi", h, alpha, d_alpha, params)
    return d_h, d_u, d_tt


def blend_tail(t: np.ndarray, h_new: np.ndarray, rel: np.ndarray, params: LegacyParams, alpha: float | None = None):
    """t' = alpha_t * t + (1 - alpha_t) * (h' + rel); no outer squash."""
    if alpha is None:
        alpha, _ = _gate("tail", t, params)
        gated = True
    else:
        gated = False
    out = alpha * t + (1.0 - alpha) * (h_new + rel)
    cache = {"t": t.copy(), "h_new": h_new.copy(), "rel": rel.copy(),
             "alpha": alpha, "gated": gated}
    return out, cache


def blend_tail_grads(params: LegacyParams, cache, d_out: np.ndarray):
    alpha, t = cache["alpha"], cache["t"]
    target = cache["h_new"] + cache["rel"]
    d_t = d_out * alpha
    d_h = d_out * (1.0 - alpha)
    if cache["gated"]:
        d_alpha = float(d_out @ (t - target))
        d_t = d_t + _gate_grads("tail", t, alpha, d_alpha, params)
    return d_t, d_h


def blend_sibling(h: np.ndarray, t_new: np.ndarray, rel: np.ndarray, params: LegacyParams):
    """Pull a sibling head toward the translation pre-image t' - rel."""
    pre_image = t_new - rel
    alpha, _ = _gate("sibling", h, params)
    pre = alpha * h + (1.0 - alpha) * pre_image
    out = sigmoid(pre)
    cache = {"h": h.copy(), "t_new": t_new.copy(), "rel": rel.copy(),
             "pre_image": pre_image, "alpha": alpha, "out": out}
    return out, cache


def blend_sibling_grads(params: LegacyParams, cache, d_out: np.ndarray):
    out, alpha, h = cache["out"], cache["alpha"], cache["h"]
    d_pre = d_out * out * (1.0 - out)
    d_alpha = float(d_pre @ (h - cache["pre_image"]))
    d_h = d_pre * alpha
    d_t = d_pre * (1.0 - alpha)
    d_h = d_h + _gate_grads("sibling", h, alpha, d_alpha, params)
    return d_h, d_t


@dataclass
class SpatialKgRep:
    """Head vectors per POI, fixed relation vectors, tail vectors per
    category/zone, plus the static linkage needed by the update rules."""

    n: int
    heads: dict[int, np.ndarray] = field(default_factory=dict)
    rels: dict[str, np.ndarray] = field(default_factory=dict)
    tails: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)
    poi_links: dict[int, list[tuple[tuple[str, int], str]]] = field(default_factory=dict)
    members: dict[tuple[str, int], list[int]] = field(default_factory=dict)

    @classmethod
    def from_catalog(cls, pois, n: int, rng: np.random.Generator) -> "SpatialKgRep":
        """pois: iterable of (poi_id, category_id, zone_id)."""
        rep = cls(n=n)
        rep.rels = {name: rng.uniform(-1, 1, size=n) for name in REL_NAMES}
        for poi_id, cat, zn in pois:
            rep.heads[poi_id] = rng.uniform(0.0, 1.0, size=n)
            links = []
            for key, rel in (((("cat", cat)), "belong_to"), ((("zone", zn)), "locate_at")):
                if key not in rep.tails:
                    rep.tails[key] = rng.uniform(0.0, 1.0, size=n)
                    rep.members[key] = []
                rep.members[key].append(poi_id)
                links.append((key, rel))
            rep.poi_links[poi_id] = links
        return rep


@dataclass
class SpatialUpdate:
    poi: int
    head_cache: dict
    tail_caches: list[tuple[tuple[str, int], dict]]
    sibling_caches: list[tuple[int, tuple[str, int], dict]]
    touched_heads: list[int]
    touched_tails: list[tuple[str, int]]


def update_spatial(
    rep: SpatialKgRep,
    poi_id: int,
    u: np.ndarray,
    t_tilde: np.ndarray,
    params: LegacyParams,
) -> SpatialUpdate:
    """Visited head first, then its tails, then same-category/zone siblings.

    Mutates ``rep`` in place; vectors outside the touched set keep their
    identity. Relation vectors are never written.
    """
    if poi_id not in rep.heads:
        raise UnknownObjectError(f"unknown POI {poi_id}")
    h_new, head_cache = _update_head(rep.heads[poi_id], u, t_tilde, params)
    rep.heads[poi_id] = h_new
    tail_caches = []
    sibling_caches = []
    touched_heads = [poi_id]
    touched_tails = []
    for key, rel_name in rep.poi_links[poi_id]:
        rel = rep.rels[rel_name]
        t_new, t_cache = blend_tail(rep.tails[key], h_new, rel, params)
        rep.tails[key] = t_new
        tail_caches.append((key, t_cache))
        touched_tails.append(key)
        for sib in rep.members[key]:
            if sib == poi_id:
                continue
            s_new, s_cache = blend_sibling(rep.heads[sib], t_new, rel, params)
            rep.heads[sib] = s_new
            sibling_caches.append((sib, key, s_cache))
            if sib not in touched_heads:
                touched_heads.append(sib)
    return SpatialUpdate(poi_id, head_cache, tail_caches, sibling_caches,
                         touched_heads, touched_tails)


def update_spatial_grads(
    params: LegacyParams,
    update: SpatialUpdate,
    d_heads: dict[int, np.ndarray],
    d_tails: dict[tuple[str, int], np.ndarray],
):
    """Backward through one spatial update; returns (d_u, d_t_tilde).

    ``d_heads`` / ``d_tails`` seed gradients w.r.t. the POST-update values
    and are consumed in reverse update order.
    """
    n = params.n
    d_heads = {k: np.asarray(v, dtype=np.float64).copy() for k, v in d_heads.items()}
    d_tails = {k: np.asarray(v, dtype=np.float64).copy() for k, v in d_tails.items()}
    d_h_visited = d_heads.get(update.poi, np.zeros(n))
    # siblings ran last: their grads add to the updated tails
    for sib, key, cache in reversed(update.sibling_caches):
        d_sib = d_heads.get(sib)
        if d_sib is None or not np.any(d_sib):
            continue
        d_h_old, d_t = blend_sibling_grads(params, cache, d_sib)
        d_heads[sib] = d_h_old
        d_tails[key] = d_tails.get(key, np.zeros(n)) + d_t
    for key, cache in reversed(update.tail_caches):
        d_t = d_tails.get(key)
        if d_t is None or not np.any(d_t):
            continue
        d_t_old, d_h = blend_tail_grads(params, cache, d_t)
        d_tails[key] = d_t_old
        d_h_visited = d_h_visited + d_h
    d_u = np.zeros(n)
    d_tt = np.zeros(n)
    if np.any(d_h_visited):
        _, d_u, d_tt = _update_head_grads(params, update.head_cache, d_h_visited)
    return d_u, d_tt


def legacy_state(u: np.ndarray, rep: SpatialKgRep) -> np.ndarray:
    """concat(u, mean heads, mean rels, mean tails); fixed dimension 4n."""
    heads = np.mean([rep.heads[k] for k in sorted(rep.heads)], axis=0)
    rels = np.mean([rep.rels[k] for k in sorted(rep.rels)], axis=0)
    tails = np.mean([rep.tails[k] for k in sorted(rep.tails)], axis=0)
    return np.concatenate([u, heads, rels, tails])
