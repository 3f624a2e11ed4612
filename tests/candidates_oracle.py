"""Candidate generation as it stood before meta-paths became kind paths.

Kept verbatim (only the imports changed) as the oracle that
``test_candidates.py`` compares the production walk with. It asks the
oracle graph store's per-scheme queries (``visited_pois``,
``cascade_successors``, ``poi_static``, ``category_members`` and
``zone_members``) in place of one ``neighbors`` step per entity kind.
"""

from __future__ import annotations

from dataclasses import dataclass

from geostream.errors import UnknownObjectError
from kg_oracle import DynamicKg

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
