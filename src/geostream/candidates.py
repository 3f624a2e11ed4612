"""Meta-path POI candidate generation.

Four path templates expand from a user over the live (in-window) edges:

  UV    user -> visit -> POI
  UVA   user -> visit -> POI -> also-visit -> RPOI
  UVCB  user -> visit -> POI -> belong-to -> category -> belong-to -> POI
  UVZL  user -> visit -> POI -> locate-at -> zone -> locate-at -> POI

Each scheme's hits are ranked by lifetime popularity and the per-scheme
top K are concatenated in the order above, deduplicated keeping the
first occurrence, then padded from the global popularity ranking so the
agent always has actions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownObjectError
from .kgstore import DynamicKg

SCHEMES = ("UV", "UVA", "UVCB", "UVZL")
PAD_TAG = "pop"


@dataclass(frozen=True)
class CandidateSet:
    pois: tuple[int, ...]
    provenance: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.pois)


def expand_meta_path(kg: DynamicKg, user_id: int, scheme: str) -> set[int]:
    """All POIs reachable from the user by one instantiation of the scheme."""
    if user_id not in kg.users:
        raise UnknownObjectError(f"unknown user {user_id}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown meta-path scheme {scheme!r}")
    visited = kg.visited_pois(user_id)
    if scheme == "UV":
        return set(visited)
    result: set[int] = set()
    if scheme == "UVA":
        for p in visited:
            result.update(kg.cascade_successors(p))
        return result
    for p in visited:
        cat, zn = kg.poi_static(p)
        if scheme == "UVCB":
            result.update(kg.category_members(cat))
        else:
            result.update(kg.zone_members(zn))
    return result


def generate_candidates(kg: DynamicKg, user_id: int, k: int) -> CandidateSet:
    """Top-k per scheme, deduplicated in scheme order, popularity-padded."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ordered: list[int] = []
    tags: list[str] = []
    chosen: set[int] = set()
    known_user = user_id in kg.users
    for scheme in SCHEMES:
        hits = expand_meta_path(kg, user_id, scheme) if known_user else set()
        for p in kg.popularity(hits)[:k]:
            if p not in chosen:
                chosen.add(p)
                ordered.append(p)
                tags.append(scheme)
    limit = min(4 * k, len(kg.pois))
    if len(ordered) < limit:
        for p in kg.popularity(kg.pois):
            if p not in chosen:
                chosen.add(p)
                ordered.append(p)
                tags.append(PAD_TAG)
                if len(ordered) == limit:
                    break
    return CandidateSet(tuple(ordered), tuple(tags))


def full_candidate_set(pois) -> CandidateSet:
    """Every given POI as a candidate, sorted (no candidate generation)."""
    pois = tuple(sorted(pois))
    return CandidateSet(pois, tuple(PAD_TAG for _ in pois))
