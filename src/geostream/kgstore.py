"""Dynamic geo-human knowledge graph.

The graph starts from a static spatial skeleton (POI -> category, POI ->
zone) and evolves as timestamped visit events stream in. Each user owns a
fixed-capacity sliding window of visit events; when the window overflows,
the oldest event and the triples it induced leave the graph. Lifetime
visit counts per POI survive eviction. Every object also keeps its RPOI
duplicate so visit-cascade edges never collide with the static relations.

All mutation goes through ``apply_visit``, which returns a ``DeltaReport``
listing added/removed triples and the set of objects whose context changed
(the embedding module retrains exactly this set).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .errors import (
    IngestionError,
    StreamOrderError,
    UnknownObjectError,
)


class EntityKind(IntEnum):
    USER = 0
    POI = 1
    RPOI = 2
    CATEGORY = 3
    ZONE = 4


class RelType(IntEnum):
    BELONG_TO = 0
    LOCATE_AT = 1
    VISIT = 2
    ALSO_VISIT = 3


# Object keys unify entities and relation kinds for the embedding table:
# entity keys are (EntityKind value, index); relation kinds get code 5 + rel.
REL_KEY_BASE = 5

_REL_NAMES = {
    RelType.BELONG_TO: "BelongTo",
    RelType.LOCATE_AT: "LocateAt",
    RelType.VISIT: "Visit",
    RelType.ALSO_VISIT: "AlsoVisit",
}


class EntityId(NamedTuple):
    kind: int
    index: int


class Triple(NamedTuple):
    head: EntityId
    rel: int
    tail: EntityId
    time: float | None = None


def user(i: int) -> EntityId:
    return EntityId(EntityKind.USER, i)


def poi(i: int) -> EntityId:
    return EntityId(EntityKind.POI, i)


def rpoi(i: int) -> EntityId:
    return EntityId(EntityKind.RPOI, i)


def category(i: int) -> EntityId:
    return EntityId(EntityKind.CATEGORY, i)


def zone(i: int) -> EntityId:
    return EntityId(EntityKind.ZONE, i)


def ent_key(e: EntityId) -> tuple[int, int]:
    return (int(e.kind), int(e.index))


def rel_key(rel: int) -> tuple[int, int]:
    return (REL_KEY_BASE + int(rel), 0)


def key_is_relation(key: tuple[int, int]) -> bool:
    return key[0] >= REL_KEY_BASE


@dataclass(frozen=True)
class ContextSubgraph:
    """One object's context: node keys (object first) and 0/1 adjacency."""

    nodes: tuple[tuple[int, int], ...]
    adjacency: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class DeltaReport:
    added: tuple[Triple, ...]
    removed: tuple[Triple, ...]
    affected: frozenset[tuple[int, int]]
    version: int


@dataclass
class _VisitEvent:
    poi: int
    time: float
    visit_triple: Triple
    cascade: Triple | None = None


@dataclass
class DynamicKg:
    window_capacity: int = 50
    pois: set[int] = field(default_factory=set)
    users: set[int] = field(default_factory=set)
    categories: set[int] = field(default_factory=set)
    zones: set[int] = field(default_factory=set)
    visit_counts: dict[int, int] = field(default_factory=dict)
    version: int = 0

    def __post_init__(self):
        if self.window_capacity < 1:
            raise ValueError("window capacity must be >= 1")
        # live triple -> references: 1 for a static triple; window events
        # hold one on their visit edge and one on the cascade they created
        self._refs: dict[Triple, int] = {}
        # entity -> neighbor -> live triples joining the two, either direction
        self._nbrs: dict[EntityId, dict[EntityId, set[Triple]]] = {}
        self._windows: dict[int, deque[_VisitEvent]] = {}

    # -- edge store ------------------------------------------------------

    def _add_entity(self, e: EntityId) -> None:
        self._nbrs.setdefault(e, {})

    def has_entity(self, e: EntityId) -> bool:
        return e in self._nbrs

    def _ref(self, t: Triple) -> bool:
        """Take a reference on ``t``; True if that made it live."""
        count = self._refs.get(t, 0)
        self._refs[t] = count + 1
        if count:
            return False
        self._nbrs[t.head].setdefault(t.tail, set()).add(t)
        self._nbrs[t.tail].setdefault(t.head, set()).add(t)
        return True

    def _unref(self, t: Triple) -> None:
        self._refs[t] -= 1
        if self._refs[t]:
            return
        del self._refs[t]
        for a, b in ((t.head, t.tail), (t.tail, t.head)):
            joined = self._nbrs[a][b]
            joined.discard(t)
            if not joined:
                del self._nbrs[a][b]

    def _push_event(self, user_id: int, poi_id: int, time: float, src: int | None) -> list[Triple]:
        """Append a window event referencing its visit edge and, when
        ``src`` is given, the cascade from it; return the triples made live."""
        if user_id not in self.users:
            self.users.add(user_id)
            self._add_entity(user(user_id))
            self._windows[user_id] = deque()
        visit_triple = Triple(user(user_id), RelType.VISIT, poi(poi_id), time)
        cascade = None
        if src is not None:
            cascade = Triple(poi(src), RelType.ALSO_VISIT, rpoi(poi_id))
        self._windows[user_id].append(_VisitEvent(poi_id, time, visit_triple, cascade))
        return [t for t in (visit_triple, cascade) if t is not None and self._ref(t)]

    # -- mutation --------------------------------------------------------

    def add_poi(self, poi_id: int, category_id: int, zone_id: int) -> None:
        if poi_id in self.pois:
            raise IngestionError(f"duplicate POI id {poi_id}")
        self.pois.add(poi_id)
        self.categories.add(category_id)
        self.zones.add(zone_id)
        self.visit_counts.setdefault(poi_id, 0)
        for e in (poi(poi_id), rpoi(poi_id), category(category_id), zone(zone_id)):
            self._add_entity(e)
        self._ref(Triple(poi(poi_id), RelType.BELONG_TO, category(category_id)))
        self._ref(Triple(poi(poi_id), RelType.LOCATE_AT, zone(zone_id)))

    def apply_visit(self, user_id: int, poi_id: int, time: float) -> DeltaReport:
        """Insert one visit event, evicting the user's oldest if needed."""
        if poi_id not in self.pois:
            raise UnknownObjectError(f"unknown POI {poi_id}")
        time = float(time)
        window = self._windows.get(user_id, ())
        if window and time < window[-1].time:
            raise StreamOrderError(
                f"visit at {time} precedes user {user_id}'s last event "
                f"at {window[-1].time}"
            )

        removed: list[Triple] = []
        affected: set[tuple[int, int]] = set()

        def touch(t: Triple) -> None:
            # endpoints, their current one-hop neighbors, and every relation
            # kind sharing the triple's pair
            for e in (t.head, t.tail):
                affected.add(ent_key(e))
                for nbr in self._nbrs[e]:
                    affected.add(ent_key(nbr))
            affected.add(rel_key(t.rel))
            for other in self._nbrs[t.head].get(t.tail, ()):
                affected.add(rel_key(other.rel))

        if len(window) == self.window_capacity:
            old = window.popleft()
            for tri in (old.visit_triple, old.cascade):
                if tri is None:
                    continue
                if self._refs[tri] == 1:
                    touch(tri)  # neighborhood snapshot before detaching
                    removed.append(tri)
                self._unref(tri)

        src = window[-1].poi if window else None
        added = self._push_event(user_id, poi_id, time, src)
        self.visit_counts[poi_id] += 1
        for t in added:
            touch(t)
        self.version += 1
        return DeltaReport(tuple(added), tuple(removed), frozenset(affected), self.version)

    # -- queries ---------------------------------------------------------

    def context_of(self, obj) -> ContextSubgraph:
        """Context of an entity (one-hop induced subgraph) or of a relation
        occurrence (star over the relation kinds sharing its pair).

        ``obj`` is an :class:`EntityId` or a :class:`Triple`. Triples need
        not exist in the graph; an unseen pair yields the singleton context.
        """
        if isinstance(obj, Triple):
            joined = self._nbrs.get(obj.head, {}).get(obj.tail, ())
            kinds = {t.rel for t in joined if t.head == obj.head} - {obj.rel}
            nodes = [rel_key(obj.rel)] + [rel_key(k) for k in sorted(kinds)]
            n = len(nodes)
            adj = np.zeros((n, n))
            adj[0, 1:] = 1.0
            adj[1:, 0] = 1.0
            return ContextSubgraph(tuple(nodes), adj)
        if obj not in self._nbrs:
            raise UnknownObjectError(f"unknown entity {obj}")
        members = [obj] + sorted(self._nbrs[obj])
        n = len(members)
        adj = np.zeros((n, n))
        for i in range(n):
            row = self._nbrs[members[i]]
            for j in range(i + 1, n):
                if members[j] in row:
                    adj[i, j] = adj[j, i] = 1.0
        return ContextSubgraph(tuple(ent_key(e) for e in members), adj)

    def popularity(self, pois) -> list[int]:
        """POIs by descending lifetime visits; ties by ascending index."""
        return sorted(pois, key=lambda p: (-self.visit_counts.get(p, 0), p))

    def window_events(self, user_id: int) -> list[tuple[int, float]]:
        """(poi, time) pairs currently in a user's window, oldest first."""
        return [(e.poi, e.time) for e in self._windows.get(user_id, ())]

    def visited_pois(self, user_id: int) -> list[int]:
        """Distinct in-window POIs of a user, in first-visit order."""
        seen: dict[int, None] = {}
        for e in self._windows.get(user_id, ()):
            seen.setdefault(e.poi, None)
        return list(seen)

    def _members(self, e: EntityId, kind: int) -> list[int]:
        return sorted(n.index for n in self._nbrs.get(e, ()) if n.kind == kind)

    def cascade_successors(self, poi_id: int) -> list[int]:
        """POIs visited next after ``poi_id`` per live also-visit edges."""
        # a POI meets an RPOI only through an also-visit edge
        return self._members(poi(poi_id), EntityKind.RPOI)

    def category_members(self, category_id: int) -> list[int]:
        return self._members(category(category_id), EntityKind.POI)

    def zone_members(self, zone_id: int) -> list[int]:
        return self._members(zone(zone_id), EntityKind.POI)

    def poi_static(self, poi_id: int) -> tuple[int, int]:
        """(category, zone) of a POI from the static skeleton."""
        cat = zn = None
        for nbr in self._nbrs.get(poi(poi_id), ()):
            if nbr.kind == EntityKind.CATEGORY:
                cat = nbr.index
            elif nbr.kind == EntityKind.ZONE:
                zn = nbr.index
        if cat is None or zn is None:
            raise UnknownObjectError(f"POI {poi_id} has no static skeleton")
        return cat, zn

    def triples(self) -> set[Triple]:
        return set(self._refs)

    def n_triples(self) -> int:
        return len(self._refs)

    def triples_incident_to(self, keys) -> list[Triple]:
        """Triples touching any affected entity, in a deterministic order."""
        found: set[Triple] = set()
        for key in keys:
            if key_is_relation(key):
                continue
            for joined in self._nbrs.get(EntityId(*key), {}).values():
                found.update(joined)
        return sorted(found, key=_triple_sort_key)

    def object_keys(self) -> list[tuple[int, int]]:
        """All embeddable objects: entities plus relation kinds in use."""
        keys = [ent_key(e) for e in self._nbrs]
        keys += [rel_key(r) for r in {t.rel for t in self._refs}]
        return sorted(keys)

    # -- snapshot text format ---------------------------------------------

    def export_snapshot(self) -> str:
        """Exact text form: the static skeleton, lifetime visit counts and
        every window event with the POI its cascade came from (or ``-``)."""
        lines = [_SNAPSHOT_HEADER, f"window {self.window_capacity}", f"version {self.version}"]
        for p in sorted(self.pois):
            cat, zn = self.poi_static(p)
            lines.append(f"poi {p} {cat} {zn} {self.visit_counts[p]}")
        for user_id in sorted(self._windows):
            for e in self._windows[user_id]:
                src = "-" if e.cascade is None else e.cascade.head.index
                lines.append(f"event {user_id} {e.poi} {e.time!r} {src}")
        return "\n".join(lines) + "\n"


_SNAPSHOT_HEADER = "# geostream-kg 2"


def _triple_sort_key(t: Triple):
    return (t.rel, t.time if t.time is not None else -1.0, ent_key(t.head), ent_key(t.tail))


def build_static(pois, window: int = 50) -> DynamicKg:
    """Build the static skeleton from (poi, category, zone) index triples."""
    kg = DynamicKg(window_capacity=window)
    for poi_id, category_id, zone_id in pois:
        kg.add_poi(poi_id, category_id, zone_id)
    return kg


def import_snapshot(text: str) -> DynamicKg:
    """Rebuild a graph from its exported text form by replaying its lines."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or " ".join(lines[0]) != _SNAPSHOT_HEADER:
        raise IngestionError(f"not a {_SNAPSHOT_HEADER!r} snapshot")
    try:
        if [f[0] for f in lines[1:3]] != ["window", "version"] or any(
            len(f) != 2 for f in lines[1:3]
        ):
            raise IngestionError("snapshot must start with its window and version lines")
        kg = DynamicKg(window_capacity=int(lines[1][1]), version=int(lines[2][1]))
        for tag, *fields in lines[3:]:
            if tag == "poi" and len(fields) == 4:
                p, cat, zn, visits = (int(f) for f in fields)
                kg.add_poi(p, cat, zn)
                kg.visit_counts[p] = visits
            elif tag == "event" and len(fields) == 4:
                src = None if fields[3] == "-" else int(fields[3])
                _replay_event(kg, int(fields[0]), int(fields[1]), float(fields[2]), src)
            else:
                raise IngestionError(f"bad snapshot line {' '.join([tag, *fields])!r}")
    except ValueError as exc:
        raise IngestionError(f"bad snapshot: {exc}") from None
    return kg


def _replay_event(kg: DynamicKg, user_id: int, poi_id: int, time: float, src: int | None) -> None:
    """Check a snapshot event against the window it joins, then push it."""
    window = kg._windows.get(user_id, ())
    if poi_id not in kg.pois or (src is not None and src not in kg.pois):
        raise IngestionError(f"snapshot event names an unknown POI: {poi_id}, {src}")
    if window and (src != window[-1].poi or time < window[-1].time):
        raise IngestionError(
            f"user {user_id}'s snapshot event ({poi_id}, {time!r}, {src}) "
            f"does not follow ({window[-1].poi}, {window[-1].time!r})"
        )
    if len(window) == kg.window_capacity:
        raise IngestionError(f"user {user_id} has more events than window capacity")
    kg._push_event(user_id, poi_id, time, src)
