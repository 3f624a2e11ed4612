"""Meta-path POI candidate generation.

A meta-path is a sequence of entity kinds; it is walked from a user over
the live (in-window) edges, one ``DynamicKg.neighbors`` step per kind:

  UV    user -> POI                      (visits)
  UVA   user -> POI -> RPOI              (visits, then also-visits)
  UVCB  user -> POI -> category -> POI   (visits, then belong-to both ways)
  UVZL  user -> POI -> zone -> POI       (visits, then locate-at both ways)

Each kind pair carries a single relation, so the kinds fix the edges.
Each scheme's hits are ranked by lifetime popularity and the per-scheme
top K are concatenated in the order above, deduplicated keeping the
first occurrence, then padded from the global popularity ranking so the
agent always has actions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .kgstore import DynamicKg, EntityKind

_U, _V = EntityKind.USER, EntityKind.POI
SCHEMES = {
    "UV": (_U, _V),
    "UVA": (_U, _V, EntityKind.RPOI),
    "UVCB": (_U, _V, EntityKind.CATEGORY, _V),
    "UVZL": (_U, _V, EntityKind.ZONE, _V),
}
PAD_TAG = "pop"


@dataclass(frozen=True)
class CandidateSet:
    pois: tuple[int, ...]
    provenance: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.pois)


def expand_meta_path(kg: DynamicKg, user_id: int, scheme: str) -> frozenset[int] | set[int]:
    """All POIs reachable from the user by one instantiation of the scheme."""
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown meta-path scheme {scheme!r}")
    path = SCHEMES[scheme]
    frontier = {user_id}
    for src, dst in zip(path, path[1:]):
        sets = [kg.neighbors((src, i), dst) for i in frontier]
        frontier = sets[0] if len(sets) == 1 else set().union(*sets)
    return frontier


def generate_candidates(kg: DynamicKg, user_id: int, k: int) -> CandidateSet:
    """Top-k per scheme, deduplicated in scheme order, popularity-padded."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    found: dict[int, str] = {}  # POI -> the first scheme that found it
    if (_U, user_id) in kg:
        for scheme in SCHEMES:
            for p in kg.most_visited(expand_meta_path(kg, user_id, scheme), k):
                found.setdefault(p, scheme)
    limit = min(4 * k, len(kg.entities(_V)))
    if len(found) < limit:
        for p in kg.by_visits():
            found.setdefault(p, PAD_TAG)
            if len(found) == limit:
                break
    return CandidateSet(tuple(found), tuple(found.values()))

