"""The dynamic graph store as it stood before the refcounted edge store.

Kept verbatim (mutation and queries; the snapshot code is left out) as the
oracle that ``test_kgstore.py`` compares the production ``DynamicKg`` with.
Its ``context_of`` still builds each context's induced adjacency with the
O(deg^2) membership loop, so the tests can check that every context the
production store returns as bare node keys is a star. ``generic_deepcopy``
keeps the copy the production graph got before it defined ``__deepcopy__``.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from geostream.errors import IngestionError, StreamOrderError, UnknownObjectError
from geostream.kgstore import (
    DeltaReport,
    EntityId,
    EntityKind,
    RelType,
    Triple,
    _triple_sort_key,
    category,
    ent_key,
    key_is_relation,
    poi,
    rel_key,
    rpoi,
    user,
    zone,
)


@dataclass(frozen=True)
class ContextSubgraph:
    """One object's context: node keys (object first) and 0/1 adjacency."""

    nodes: tuple[tuple[int, int], ...]
    adjacency: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)


def induced_adjacency(triples, nodes) -> np.ndarray:
    """0/1 adjacency that ``triples`` induce among the entity keys ``nodes``."""
    index = {key: i for i, key in enumerate(nodes)}
    adj = np.zeros((len(nodes), len(nodes)))
    for t in triples:
        i, j = index.get(ent_key(t.head)), index.get(ent_key(t.tail))
        if i is not None and j is not None:
            adj[i, j] = adj[j, i] = 1.0
    return adj


@dataclass
class _VisitEvent:
    user: int
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
        self._entities: set[EntityId] = set()
        self._triples: set[Triple] = set()
        # refcounted undirected adjacency: entity -> {neighbor: edge count}
        self._adj: dict[EntityId, dict[EntityId, int]] = {}
        # directed pair -> {rel kind: triple count}
        self._pair_rels: dict[tuple[EntityId, EntityId], dict[int, int]] = {}
        self._incident: dict[EntityId, set[Triple]] = {}
        self._rel_counts: dict[int, int] = {}
        self._windows: dict[int, deque[_VisitEvent]] = {}
        self._visit_refs: dict[Triple, int] = {}
        self._cascade_refs: dict[Triple, int] = {}

    # -- entity / triple bookkeeping ------------------------------------

    def _add_entity(self, e: EntityId) -> None:
        if e not in self._entities:
            self._entities.add(e)
            self._adj[e] = {}
            self._incident[e] = set()

    def has_entity(self, e: EntityId) -> bool:
        return e in self._entities

    def _attach(self, t: Triple) -> None:
        self._triples.add(t)
        self._adj[t.head][t.tail] = self._adj[t.head].get(t.tail, 0) + 1
        self._adj[t.tail][t.head] = self._adj[t.tail].get(t.head, 0) + 1
        kinds = self._pair_rels.setdefault((t.head, t.tail), {})
        kinds[t.rel] = kinds.get(t.rel, 0) + 1
        self._incident[t.head].add(t)
        self._incident[t.tail].add(t)
        self._rel_counts[t.rel] = self._rel_counts.get(t.rel, 0) + 1

    def _detach(self, t: Triple) -> None:
        self._triples.discard(t)
        for a, b in ((t.head, t.tail), (t.tail, t.head)):
            self._adj[a][b] -= 1
            if self._adj[a][b] == 0:
                del self._adj[a][b]
        kinds = self._pair_rels[(t.head, t.tail)]
        kinds[t.rel] -= 1
        if kinds[t.rel] == 0:
            del kinds[t.rel]
        if not kinds:
            del self._pair_rels[(t.head, t.tail)]
        self._incident[t.head].discard(t)
        self._incident[t.tail].discard(t)
        self._rel_counts[t.rel] -= 1

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
        self._attach(Triple(poi(poi_id), RelType.BELONG_TO, category(category_id)))
        self._attach(Triple(poi(poi_id), RelType.LOCATE_AT, zone(zone_id)))

    def apply_visit(self, user_id: int, poi_id: int, time: float) -> DeltaReport:
        """Insert one visit event, evicting the user's oldest if needed."""
        if poi_id not in self.pois:
            raise UnknownObjectError(f"unknown POI {poi_id}")
        time = float(time)
        window = self._windows.get(user_id)
        if window and time < window[-1].time:
            raise StreamOrderError(
                f"visit at {time} precedes user {user_id}'s last event "
                f"at {window[-1].time}"
            )
        if user_id not in self.users:
            self.users.add(user_id)
            self._add_entity(user(user_id))
            window = self._windows[user_id] = deque()
        elif window is None:
            window = self._windows[user_id] = deque()

        added: list[Triple] = []
        removed: list[Triple] = []
        affected: set[tuple[int, int]] = set()

        def touch(t: Triple) -> None:
            # endpoints, their current one-hop neighbors, and every relation
            # kind sharing the triple's pair
            for e in (t.head, t.tail):
                affected.add(ent_key(e))
                for nbr in self._adj.get(e, ()):
                    affected.add(ent_key(nbr))
            affected.add(rel_key(t.rel))
            for pair in ((t.head, t.tail), (t.tail, t.head)):
                for kind in self._pair_rels.get(pair, ()):
                    affected.add(rel_key(kind))

        if len(window) == self.window_capacity:
            old = window.popleft()
            for tri, refs in (
                (old.visit_triple, self._visit_refs),
                (old.cascade, self._cascade_refs),
            ):
                if tri is None:
                    continue
                refs[tri] -= 1
                if refs[tri] == 0:
                    del refs[tri]
                    touch(tri)  # neighborhood snapshot before detaching
                    self._detach(tri)
                    removed.append(tri)

        prev_poi = window[-1].poi if window else None

        visit_triple = Triple(user(user_id), RelType.VISIT, poi(poi_id), time)
        if self._visit_refs.get(visit_triple, 0) == 0:
            self._attach(visit_triple)
            added.append(visit_triple)
        self._visit_refs[visit_triple] = self._visit_refs.get(visit_triple, 0) + 1

        cascade = None
        if prev_poi is not None:
            cascade = Triple(poi(prev_poi), RelType.ALSO_VISIT, rpoi(poi_id))
            if self._cascade_refs.get(cascade, 0) == 0:
                self._attach(cascade)
                added.append(cascade)
            self._cascade_refs[cascade] = self._cascade_refs.get(cascade, 0) + 1

        window.append(_VisitEvent(user_id, poi_id, time, visit_triple, cascade))
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
            kinds = set(self._pair_rels.get((obj.head, obj.tail), ()))
            kinds.discard(obj.rel)
            nodes = [rel_key(obj.rel)] + [rel_key(k) for k in sorted(kinds)]
            n = len(nodes)
            adj = np.zeros((n, n))
            adj[0, 1:] = 1.0
            adj[1:, 0] = 1.0
            return ContextSubgraph(tuple(nodes), adj)
        if obj not in self._entities:
            raise UnknownObjectError(f"unknown entity {obj}")
        members = [obj] + sorted(self._adj[obj])
        n = len(members)
        adj = np.zeros((n, n))
        for i in range(n):
            row = self._adj[members[i]]
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

    def cascade_successors(self, poi_id: int) -> list[int]:
        """POIs visited next after ``poi_id`` per live also-visit edges."""
        out = []
        for nbr in self._adj.get(poi(poi_id), ()):
            if nbr.kind != EntityKind.RPOI:
                continue
            if RelType.ALSO_VISIT in self._pair_rels.get((poi(poi_id), nbr), ()):
                out.append(nbr.index)
        return sorted(out)

    def category_members(self, category_id: int) -> list[int]:
        e = category(category_id)
        return sorted(n.index for n in self._adj.get(e, ()) if n.kind == EntityKind.POI)

    def zone_members(self, zone_id: int) -> list[int]:
        e = zone(zone_id)
        return sorted(n.index for n in self._adj.get(e, ()) if n.kind == EntityKind.POI)

    def poi_static(self, poi_id: int) -> tuple[int, int]:
        """(category, zone) of a POI from the static skeleton."""
        cat = zn = None
        for nbr in self._adj.get(poi(poi_id), ()):
            if nbr.kind == EntityKind.CATEGORY:
                cat = nbr.index
            elif nbr.kind == EntityKind.ZONE:
                zn = nbr.index
        if cat is None or zn is None:
            raise UnknownObjectError(f"POI {poi_id} has no static skeleton")
        return cat, zn

    def triples(self) -> set[Triple]:
        return set(self._triples)

    def n_triples(self) -> int:
        return len(self._triples)

    def triples_incident_to(self, keys) -> list[Triple]:
        """Triples touching any affected entity, in a deterministic order."""
        found: set[Triple] = set()
        for key in keys:
            if key_is_relation(key):
                continue
            e = EntityId(*key)
            found.update(self._incident.get(e, ()))
        return sorted(found, key=_triple_sort_key)

    def object_keys(self) -> list[tuple[int, int]]:
        """All embeddable objects: entities plus relation kinds in use."""
        keys = [ent_key(e) for e in self._entities]
        keys += [rel_key(r) for r, c in self._rel_counts.items() if c > 0]
        return sorted(keys)


def generic_deepcopy(kg, *others):
    """``copy.deepcopy((kg, *others))`` as it copied the production graph
    before that defined its own ``__deepcopy__``: a new instance of the
    graph's class whose attributes are deep-copied one by one, every
    object reachable from them included. ``others`` (an embedder, say)
    share the memo, so their references to ``kg`` reach the copy."""
    memo: dict = {}
    new = object.__new__(type(kg))
    memo[id(kg)] = new
    new.__dict__.update(copy.deepcopy(vars(kg), memo))
    return (new, *(copy.deepcopy(o, memo) for o in others))
