"""Dynamic geo-human knowledge graph.

The graph starts from a static spatial skeleton (POI -> category, POI ->
zone) and evolves as timestamped visit events stream in. Each user owns a
fixed-capacity sliding window of visit events; when the window overflows,
the oldest event and the triples it induced leave the graph. Lifetime
visit counts per POI survive eviction. Every POI also keeps its RPOI
duplicate so visit-cascade edges never collide with the static relations.

Entities are only ever added: ``entities(kind)`` lists a kind's indices in
order and ``key in kg`` asks for one. Every edge joins a POI to a non-POI,
so each entity's context is the star of the entity and its neighbors.
``index`` gives each embeddable object its one table row, and
``context_of`` returns a star as rows. Each live triple is held once, with
its reference count, in the dict its two endpoints share; it leaves with
its last reference, and a star is rebuilt only after a neighbor pair of its
entity appears or disappears.

All mutation goes through ``apply_visit``, which returns a ``DeltaReport``
listing added/removed triples and the set of objects whose context changed
(the embedding module retrains exactly this set).
"""

from __future__ import annotations

import bisect
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import IntEnum
from math import isfinite
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DataError,
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


def ent_key(e: EntityId | tuple[int, int]) -> tuple[int, int]:
    return (int(e[0]), int(e[1]))


def rel_key(rel: int) -> tuple[int, int]:
    return (REL_KEY_BASE + int(rel), 0)


def key_is_relation(key: tuple[int, int]) -> bool:
    return key[0] >= REL_KEY_BASE


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
    visit_counts: dict[int, int] = field(default_factory=dict)
    version: int = 0

    def __post_init__(self):
        if self.window_capacity < 1:
            raise ConfigError("window capacity must be >= 1")
        # entity -> neighbor -> {live triple joining the two: references}, one
        # dict per pair shared by both directions. A static triple holds 1;
        # window events hold one on their visit edge and one on their cascade
        self._nbrs: dict[EntityId, dict[EntityId, dict[Triple, int]]] = {}
        # the entity registry: each kind's indices, ascending; entities are never removed
        self._entities: dict[int, list[int]] = {kind: [] for kind in EntityKind}
        # object -> its context_of rows; an entity's drops when its neighbor set changes
        self._stars: dict[tuple[int, int], np.ndarray] = {}
        self._windows: dict[int, deque[_VisitEvent]] = {}
        # the object index: each indexed object's row, and each row's object
        self.rows: dict[tuple[int, int], int] = {}
        self.keys: list[tuple[int, int]] = []

    # -- edge store ------------------------------------------------------

    def _add_entity(self, e: EntityId) -> None:
        if e not in self._nbrs:
            self._nbrs[e] = {}
            bisect.insort(self._entities[e.kind], e.index)

    def _ref(self, t: Triple) -> bool:
        """Take a reference on ``t``; True if that made it live."""
        joined = self._nbrs[t.head].get(t.tail)
        if joined is None:  # a new neighbor pair
            joined = self._nbrs[t.head][t.tail] = self._nbrs[t.tail][t.head] = {}
            for e in (t.head, t.tail):
                self._stars.pop(e, None)
        count = joined.get(t, 0)
        joined[t] = count + 1
        return not count

    def _unref(self, t: Triple) -> bool:
        """Drop a reference on ``t``; True if that detached it."""
        joined = self._nbrs[t.head][t.tail]
        joined[t] -= 1
        if joined[t]:
            return False
        del joined[t]
        if not joined:  # the pair's last triple
            del self._nbrs[t.head][t.tail], self._nbrs[t.tail][t.head]
            for e in (t.head, t.tail):
                self._stars.pop(e, None)
        return True

    def _push_event(self, user_id: int, poi_id: int, time: float, src: int | None) -> list[Triple]:
        """Append a window event referencing its visit edge and, when
        ``src`` is given, the cascade from it; return the triples made live."""
        if user_id not in self._windows:
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
        if poi(poi_id) in self:
            raise IngestionError(f"duplicate POI id {poi_id}")
        self.visit_counts.setdefault(poi_id, 0)
        for e in (poi(poi_id), rpoi(poi_id), category(category_id), zone(zone_id)):
            self._add_entity(e)
        self._ref(Triple(poi(poi_id), RelType.BELONG_TO, category(category_id)))
        self._ref(Triple(poi(poi_id), RelType.LOCATE_AT, zone(zone_id)))

    def apply_visit(self, user_id: int, poi_id: int, time: float) -> DeltaReport:
        """Insert one visit event, evicting the user's oldest if needed."""
        if poi(poi_id) not in self:
            raise UnknownObjectError(f"unknown POI {poi_id}")
        time = float(time)
        if not isfinite(time):
            raise DataError(f"visit time {time} is not finite")
        window = self._windows.get(user_id, ())
        if window and time < window[-1].time:
            raise StreamOrderError(
                f"visit at {time} precedes user {user_id}'s last event "
                f"at {window[-1].time}"
            )

        removed: list[Triple] = []
        affected: set[tuple[int, int]] = set()

        def touch(t: Triple) -> None:
            # endpoints, their current one-hop neighbors, and the relation kind
            for e in (t.head, t.tail):
                affected.add(ent_key(e))
                for nbr in self._nbrs[e]:
                    affected.add(ent_key(nbr))
            affected.add(rel_key(t.rel))

        if len(window) == self.window_capacity:
            old = window.popleft()
            for tri in (old.visit_triple, old.cascade):
                if tri is not None and self._unref(tri):
                    touch(tri)  # detached, yet both endpoints are still added
                    removed.append(tri)

        src = window[-1].poi if window else None
        added = self._push_event(user_id, poi_id, time, src)
        self.visit_counts[poi_id] += 1
        for t in added:
            touch(t)
        self.version += 1
        return DeltaReport(tuple(added), tuple(removed), frozenset(affected), self.version)

    # -- queries ---------------------------------------------------------

    def __contains__(self, key) -> bool:
        """Whether ``key`` (an :class:`EntityId` or ``ent_key``) is an entity."""
        return key in self._nbrs

    def entities(self, kind: int) -> list[int]:
        """Indices of the entities of ``kind``, ascending; the registry's own
        list, so callers must not mutate it. Every POI has its RPOI, so the
        RPOI and POI lists are equal."""
        return self._entities[kind]

    def index(self, keys) -> list[int]:
        """Rows of ``keys``; each key not yet indexed gets the next row, in order."""
        for key in keys:
            if key not in self.rows:
                self.rows[key] = len(self.keys)
                self.keys.append(key)
        return [self.rows[key] for key in keys]

    def context_of(self, key: EntityId | tuple[int, int]) -> np.ndarray:
        """Rows of the context of ``key`` (an :class:`EntityId`, ``ent_key``
        or ``rel_key``): the object itself, then an entity's sorted
        neighbors. Every edge joins a POI to a non-POI, so no two neighbors
        are adjacent and an entity's context is the star centred on it.
        The rows are memoized, an entity's until its neighbor set changes.
        """
        star = self._stars.get(key)
        if star is None:
            nbrs = {} if key_is_relation(key) else self._nbrs.get(key)
            if nbrs is None:
                raise UnknownObjectError(f"unknown entity {key}")
            try:
                star = np.array([self.rows[k] for k in (key, *sorted(nbrs))], dtype=np.intp)
            except KeyError as exc:
                raise UnknownObjectError(f"object {exc.args[0]} has no row") from None
            self._stars[key] = star
        return star

    def popularity(self, pois) -> list[int]:
        """POIs by descending lifetime visits; ties by ascending index."""
        return sorted(pois, key=lambda p: (-self.visit_counts.get(p, 0), p))

    def neighbors(self, key: EntityId | tuple[int, int], kind: int) -> set[int]:
        """Indices of the live neighbors of kind ``kind`` of the entity
        ``key`` (an :class:`EntityId` or ``ent_key``)."""
        nbrs = self._nbrs.get(key)
        if nbrs is None:
            raise UnknownObjectError(f"unknown entity {key}")
        return {e.index for e in nbrs if e.kind == kind}

    def triples(self) -> set[Triple]:
        return {t for nbrs in self._nbrs.values() for joined in nbrs.values() for t in joined}

    def triples_incident_to(self, keys) -> list[Triple]:
        """Triples touching any affected entity, in a deterministic order."""
        found: dict[Triple, int] = {}  # keeps insertion order, so stored runs reach `sorted` in order
        for key in keys:
            for joined in self._nbrs.get(key, {}).values():
                found.update(joined)
        return sorted(found, key=_triple_sort_key)

    def object_keys(self) -> list[tuple[int, int]]:
        """All embeddable objects, sorted: entities by kind then index, then
        the relation kinds in use."""
        keys = [(int(kind), i) for kind in EntityKind for i in self._entities[kind]]
        return keys + [rel_key(r) for r in sorted({t.rel for t in self.triples()})]

    # -- snapshot text format ---------------------------------------------

    def export_snapshot(self) -> str:
        """Exact text form on top of the static skeleton: lifetime visit
        counts and every window event with the POI its cascade came from
        (or ``-``)."""
        lines = [_SNAPSHOT_HEADER, f"window {self.window_capacity}", f"version {self.version}"]
        lines += [f"poi {p} {self.visit_counts[p]}" for p in self.entities(EntityKind.POI)]
        for user_id in sorted(self._windows):
            for e in self._windows[user_id]:
                src = "-" if e.cascade is None else e.cascade.head.index
                lines.append(f"event {user_id} {e.poi} {e.time!r} {src}")
        return "\n".join(lines) + "\n"


_SNAPSHOT_HEADER = "# geostream-kg 3"


def _triple_sort_key(t: Triple):
    # an EntityId orders exactly like its ent_key pair
    return (t.rel, t.time if t.time is not None else -1.0, t.head, t.tail)


def build_static(pois, window: int = 50) -> DynamicKg:
    """Build the static skeleton from (poi, category, zone) index triples."""
    kg = DynamicKg(window_capacity=window)
    for poi_id, category_id, zone_id in pois:
        kg.add_poi(poi_id, category_id, zone_id)
    return kg


def import_snapshot(text: str, skeleton) -> DynamicKg:
    """Rebuild a graph from its exported text form: the static skeleton from
    ``skeleton`` (as for ``build_static``), then the snapshot's lines replayed.
    """
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or " ".join(lines[0]) != _SNAPSHOT_HEADER:
        raise IngestionError(f"not a {_SNAPSHOT_HEADER!r} snapshot")
    try:
        if [f[0] for f in lines[1:3]] != ["window", "version"] or any(
            len(f) != 2 for f in lines[1:3]
        ):
            raise IngestionError("snapshot must start with its window and version lines")
        if int(lines[1][1]) < 1:
            raise IngestionError(f"snapshot window {lines[1][1]} is below 1")
        kg = build_static(skeleton, window=int(lines[1][1]))
        kg.version = int(lines[2][1])
        if kg.version < 0:
            raise IngestionError(f"snapshot version {kg.version} is negative")
        pois = []
        for tag, *fields in lines[3:]:
            if tag == "poi" and len(fields) == 2:
                p, visits = (int(f) for f in fields)
                pois.append(p)
                kg.visit_counts[p] = visits
            elif tag == "event" and len(fields) == 4:
                src = None if fields[3] == "-" else int(fields[3])
                _replay_event(kg, int(fields[0]), int(fields[1]), float(fields[2]), src)
            else:
                raise IngestionError(f"bad snapshot line {' '.join([tag, *fields])!r}")
    except ValueError as exc:
        raise IngestionError(f"bad snapshot: {exc}") from None
    if pois != kg.entities(EntityKind.POI):
        n = len(kg.entities(EntityKind.POI))
        raise IngestionError(f"snapshot POI lines ({len(pois)}) do not list the skeleton's {n} POIs in order")
    held = Counter(e.poi for window in kg._windows.values() for e in window)
    for p in pois:  # a negative count falls short of any window too
        if kg.visit_counts[p] < held[p]:
            raise IngestionError(
                f"snapshot POI {p} has {kg.visit_counts[p]} lifetime visits but {held[p]} window events"
            )
    return kg


def _replay_event(kg: DynamicKg, user_id: int, poi_id: int, time: float, src: int | None) -> None:
    """Check a snapshot event against the window it joins, then push it."""
    window = kg._windows.get(user_id, ())
    if not isfinite(time):
        raise IngestionError(f"user {user_id}'s snapshot event at {time!r} is not finite")
    if poi(poi_id) not in kg or (src is not None and poi(src) not in kg):
        raise IngestionError(f"snapshot event names an unknown POI: {poi_id}, {src}")
    if window and (src != window[-1].poi or time < window[-1].time):
        raise IngestionError(
            f"user {user_id}'s snapshot event ({poi_id}, {time!r}, {src}) "
            f"does not follow ({window[-1].poi}, {window[-1].time!r})"
        )
    if len(window) == kg.window_capacity:
        raise IngestionError(f"user {user_id} has more events than window capacity")
    kg._push_event(user_id, poi_id, time, src)
