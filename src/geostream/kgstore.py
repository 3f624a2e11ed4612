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
its last reference.

The graph keeps the answers the stream loop asks for at every event and
renews them only where a visit changes them. POIs stay ordered by
descending lifetime visits (``by_visits``, ``most_visited``); a visit moves
its POI forward. An entity's star (``context_of``) is memoized until a
neighbor pair of the entity appears or disappears; its neighbor sets by
kind (``neighbors``) are patched when that happens, and its live incident
triples in sort order (read by ``triples_incident_to``) when one of them
becomes live or detaches. The memos are immutable, so a ``copy.deepcopy``
of the graph shares them.

All mutation goes through ``apply_visit``, which returns a ``DeltaReport``
listing added/removed triples and the set of objects whose context changed
(the embedding module retrains exactly this set).
"""

from __future__ import annotations

import bisect
import copy
from collections import Counter, deque
from dataclasses import dataclass
from enum import IntEnum
from itertools import islice
from math import isfinite
from operator import itemgetter
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


_POI = int(EntityKind.POI)


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


class _VisitEvent(NamedTuple):
    poi: int
    time: float
    visit_triple: Triple
    cascade: Triple | None = None


@dataclass
class DynamicKg:
    window_capacity: int = 50
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
        # lifetime visits per POI, written only beside the order: the POIs by
        # (-visits, index), and each POI's place in it
        self.visit_counts: dict[int, int] = {}
        self._order: list[int] = []
        self._rank: dict[int, int] = {}
        # memos, each immutable and replaced, never mutated: object -> its
        # context_of rows (read-only), dropped when its neighbor set changes;
        # entity -> its neighbor sets by kind, patched when a neighbor pair of
        # it appears or disappears; entity -> its live incident triples as
        # sorted `_entry`s, patched when one of them becomes live or detaches
        self._stars: dict[tuple[int, int], np.ndarray] = {}
        self._kinds: dict[tuple[int, int], tuple[frozenset[int], ...]] = {}
        self._runs: dict[tuple[int, int], tuple[tuple, ...]] = {}
        self._windows: dict[int, deque[_VisitEvent]] = {}
        # the object index: each indexed object's row, and each row's object
        self.rows: dict[tuple[int, int], int] = {}
        self.keys: list[tuple[int, int]] = []

    # -- edge store ------------------------------------------------------

    def _add_entity(self, e: EntityId) -> None:
        if e not in self._nbrs:
            self._nbrs[e] = {}
            bisect.insort(self._entities[e.kind], e.index)

    def _pair_changed(self, t: Triple, linked: bool) -> None:
        """The endpoints of ``t`` became neighbors (or stopped being ones):
        drop their stars and patch their memoized neighbor sets."""
        for e, other in ((t.head, t.tail), (t.tail, t.head)):
            self._stars.pop(e, None)
            sets = self._kinds.get(e)
            if sets is not None:
                k, i = other
                kind_set = sets[k] | {i} if linked else sets[k] - {i}
                self._kinds[e] = (*sets[:k], kind_set, *sets[k + 1 :])

    def _run_changed(self, t: Triple, live: bool) -> None:
        """Insert the triple made live into its endpoints' memoized runs, or
        take the detached one out."""
        entry = None
        for e in (t.head, t.tail):
            run = self._runs.get(e)
            if run is not None:
                entry = entry or _entry(t)
                i = bisect.bisect_left(run, entry)
                self._runs[e] = run[:i] + (entry,) + run[i:] if live else run[:i] + run[i + 1 :]

    def _ref(self, t: Triple) -> bool:
        """Take a reference on ``t``; True if that made it live."""
        joined = self._nbrs[t.head].get(t.tail)
        if joined is None:  # a new neighbor pair
            joined = self._nbrs[t.head][t.tail] = self._nbrs[t.tail][t.head] = {}
            self._pair_changed(t, linked=True)
        count = joined.get(t, 0)
        joined[t] = count + 1
        if count:
            return False
        self._run_changed(t, live=True)
        return True

    def _unref(self, t: Triple) -> bool:
        """Drop a reference on ``t``; True if that detached it."""
        joined = self._nbrs[t.head][t.tail]
        joined[t] -= 1
        if joined[t]:
            return False
        del joined[t]
        self._run_changed(t, live=False)
        if not joined:  # the pair's last triple
            del self._nbrs[t.head][t.tail], self._nbrs[t.tail][t.head]
            self._pair_changed(t, linked=False)
        return True

    def _visits_key(self):
        counts = self.visit_counts
        return lambda p: (-counts[p], p)

    def _rank_all(self) -> None:
        """Order every POI by its visits in one sort."""
        self._order = sorted(self.visit_counts, key=self._visits_key())
        self._rank = {p: i for i, p in enumerate(self._order)}

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
        """Add a POI with its static triples; it takes its place in the order."""
        self._link_poi(poi_id, category_id, zone_id)
        order = self._order
        at = bisect.bisect(order, (0, poi_id), key=self._visits_key())
        order.insert(at, poi_id)
        self._rank.update(zip(order[at:], range(at, len(order))))

    def _link_poi(self, poi_id: int, category_id: int, zone_id: int) -> None:
        """``add_poi`` without the order, which the caller then builds."""
        if poi(poi_id) in self:
            raise IngestionError(f"duplicate POI id {poi_id}")
        self.visit_counts[poi_id] = 0
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
                affected.update(map(ent_key, self._nbrs[e]))
            affected.add(rel_key(t.rel))

        if len(window) == self.window_capacity:
            old = window.popleft()
            for tri in (old.visit_triple, old.cascade):
                if tri is not None and self._unref(tri):
                    touch(tri)  # detached, yet both endpoints are still added
                    removed.append(tri)

        src = window[-1].poi if window else None
        added = self._push_event(user_id, poi_id, time, src)
        self._bump(poi_id)
        for t in added:
            touch(t)
        self.version += 1
        return DeltaReport(tuple(added), tuple(removed), frozenset(affected), self.version)

    def _bump(self, poi_id: int) -> None:
        """Count a visit to the POI and move it forward past the POIs it now outranks."""
        visits = self.visit_counts[poi_id] = self.visit_counts[poi_id] + 1
        order, old = self._order, self._rank[poi_id]
        at = bisect.bisect_left(order, (-visits, poi_id), 0, old, key=self._visits_key())
        if at < old:
            order.insert(at, order.pop(old))
            self._rank.update(zip(order[at : old + 1], range(at, old + 1)))

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
            star.flags.writeable = False
            self._stars[key] = star
        return star

    def by_visits(self) -> list[int]:
        """Every POI by descending lifetime visits, ties by ascending index;
        the graph's own list, so callers must not mutate it."""
        return self._order

    def most_visited(self, pois, k: int) -> list[int]:
        """The ``k`` POIs of the set ``pois`` that come first in ``by_visits``, in its order."""
        order = self._order
        if len(pois) ** 2 >= k * len(order):  # dense: the order's head holds them
            return list(islice(filter(pois.__contains__, order), k))
        return [order[r] for r in sorted(map(self._rank.__getitem__, pois))[:k]]

    def neighbors(self, key: EntityId | tuple[int, int], kind: int) -> frozenset[int]:
        """Indices of the live neighbors of kind ``kind`` of the entity
        ``key`` (an :class:`EntityId` or ``ent_key``), memoized and patched
        as its neighbor pairs appear and disappear."""
        sets = self._kinds.get(key)
        if sets is None:
            nbrs = self._nbrs.get(key)
            if nbrs is None:
                raise UnknownObjectError(f"unknown entity {key}")
            by_kind: list[list[int]] = [[] for _ in range(len(EntityKind))]
            for nbr_kind, i in nbrs:
                by_kind[nbr_kind].append(i)
            sets = self._kinds[key] = tuple(map(frozenset, by_kind))
        return sets[kind]

    def triples(self) -> set[Triple]:
        return {t for nbrs in self._nbrs.values() for joined in nbrs.values() for t in joined}

    def triples_incident_to(self, keys) -> list[Triple]:
        """Triples touching any of the objects ``keys``, in a deterministic order."""
        keys = frozenset(keys)
        entries = []
        for key in keys:
            run = self._runs.get(key)
            if run is None:
                if key not in self._nbrs:  # a relation kind
                    continue
                # the entity's live incident triples as `_entry`s, in order
                found = [_entry(t) for joined in self._nbrs[key].values() for t in joined]
                run = self._runs[key] = tuple(sorted(found))
            if key[0] == _POI:
                # each triple joins a POI to a non-POI, so leave the
                # triples that the non-POI's run brings
                run = [e for e in run if e[7] not in keys]
            entries += run
        entries.sort()
        return list(map(itemgetter(6), entries))

    def object_keys(self) -> list[tuple[int, int]]:
        """All embeddable objects, sorted: entities by kind then index, then
        the relation kinds in use."""
        keys = [(int(kind), i) for kind in EntityKind for i in self._entities[kind]]
        return keys + [rel_key(r) for r in sorted({t.rel for t in self.triples()})]

    def __deepcopy__(self, memo) -> "DynamicKg":
        """A graph that evolves apart from this one: every dict, list and
        deque is new, each neighbor pair's dict is again shared by both
        directions, and the immutable memos, triples and window events are shared."""
        new = copy.copy(self)
        memo[id(self)] = new
        new._nbrs = {e: {} for e in self._nbrs}
        for a, nbrs in self._nbrs.items():
            mine = new._nbrs[a]
            for b, joined in nbrs.items():
                if b not in mine:
                    mine[b] = new._nbrs[b][a] = dict(joined)
        new._entities = {kind: list(members) for kind, members in self._entities.items()}
        new._windows = {u: deque(window) for u, window in self._windows.items()}
        for name in ("visit_counts", "_rank", "_stars", "_kinds", "_runs", "rows"):
            setattr(new, name, dict(getattr(self, name)))
        new._order, new.keys = list(self._order), list(self.keys)
        return new

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


def _entry(t: Triple) -> tuple:
    """``_triple_sort_key`` flattened to plain numbers, which orders the
    same, then the triple and its non-POI endpoint's key."""
    (hk, hi), (tk, ti) = t.head, t.tail
    other = (int(tk), ti) if hk == _POI else (int(hk), hi)
    return (int(t.rel), t.time if t.time is not None else -1.0, int(hk), hi, int(tk), ti, t, other)


def build_static(pois, window: int = 50) -> DynamicKg:
    """Build the static skeleton from (poi, category, zone) index triples."""
    kg = DynamicKg(window_capacity=window)
    for poi_id, category_id, zone_id in pois:
        kg._link_poi(poi_id, category_id, zone_id)
    kg._rank_all()
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
    kg._rank_all()
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
