import copy
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geostream import kgstore
from geostream.errors import DataError, IngestionError, StreamOrderError, UnknownObjectError
from geostream.kgstore import (
    EntityKind,
    RelType,
    Triple,
    build_static,
    category,
    import_snapshot,
    poi,
    rpoi,
    user,
    zone,
)
import probes
from kg_oracle import DynamicKg as OracleKg
from kg_oracle import generic_deepcopy, induced_adjacency


class TestBuildStatic:
    def test_single_poi_two_triples(self):
        kg = build_static([(0, 0, 0)])
        assert len(kg.triples()) == 2

    def test_shared_category(self):
        kg = build_static([(0, 0, 0), (1, 0, 1)])
        assert len(kg.triples()) == 4
        assert kg.entities(EntityKind.CATEGORY) == [0]

    def test_empty_input(self):
        kg = build_static([])
        assert len(kg.triples()) == 0
        assert kg.entities(EntityKind.POI) == []

    def test_shared_entities_listed_once(self):
        kg = build_static([(2, 1, 0), (0, 1, 3), (1, 1, 0)])
        assert kg.entities(EntityKind.POI) == kg.entities(EntityKind.RPOI) == [0, 1, 2]
        assert kg.entities(EntityKind.CATEGORY) == [1]
        assert kg.entities(EntityKind.ZONE) == [0, 3]
        assert kg.entities(EntityKind.USER) == []

    def test_duplicate_poi_rejected(self):
        with pytest.raises(IngestionError):
            build_static([(0, 0, 0), (0, 1, 1)])

    def test_rpoi_created_but_unconnected(self):
        kg = build_static([(0, 0, 0)])
        assert kgstore.ent_key(rpoi(0)) in kg.object_keys()
        ctx = probes.context(kg, rpoi(0))
        assert len(ctx) == 1


class TestApplyVisit:
    def test_first_visit(self):
        kg = build_static([(0, 0, 0)])
        delta = kg.apply_visit(5, 0, 10.0)
        assert delta.added == (Triple(user(5), RelType.VISIT, poi(0), 10.0),)
        assert delta.removed == ()

    def test_second_visit_adds_cascade(self):
        kg = build_static([(0, 0, 0), (1, 0, 0)])
        kg.apply_visit(5, 0, 10.0)
        delta = kg.apply_visit(5, 1, 20.0)
        assert Triple(user(5), RelType.VISIT, poi(1), 20.0) in delta.added
        assert Triple(poi(0), RelType.ALSO_VISIT, rpoi(1)) in delta.added

    def test_window_eviction(self):
        kg = build_static([(i, 0, 0) for i in range(3)], window=2)
        kg.apply_visit(5, 0, 1.0)
        kg.apply_visit(5, 1, 2.0)
        delta = kg.apply_visit(5, 2, 3.0)
        assert Triple(user(5), RelType.VISIT, poi(0), 1.0) in delta.removed
        assert [p for p, _ in probes.window_events(kg, 5)] == [1, 2]

    def test_unknown_poi(self):
        kg = build_static([(0, 0, 0)])
        with pytest.raises(UnknownObjectError):
            kg.apply_visit(1, 99, 5.0)

    def test_out_of_order_time(self):
        kg = build_static([(0, 0, 0)])
        kg.apply_visit(1, 0, 10.0)
        with pytest.raises(StreamOrderError):
            kg.apply_visit(1, 0, 5.0)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, time):
        kg = build_static([(0, 0, 0)])
        kg.apply_visit(1, 0, 9.0)
        with pytest.raises(DataError):
            kg.apply_visit(1, 0, time)
        assert kg.version == 1
        assert kg.apply_visit(1, 0, 10.0).version == 2

    def test_equal_time_allowed(self):
        kg = build_static([(0, 0, 0), (1, 0, 0)])
        kg.apply_visit(1, 0, 10.0)
        kg.apply_visit(1, 1, 10.0)
        assert len(probes.window_events(kg, 1)) == 2

    def test_visit_counts_survive_eviction(self):
        kg = build_static([(0, 0, 0)], window=1)
        for t in range(5):
            kg.apply_visit(1, 0, float(t))
        assert kg.visit_counts[0] == 5
        assert len(probes.window_events(kg, 1)) == 1

    def test_cascade_refcounted_across_users(self):
        # both users produce the p0 -> rpoi(p1) cascade; evicting one
        # user's pair must not drop the edge while the other holds it
        kg = build_static([(0, 0, 0), (1, 0, 0), (2, 0, 0)], window=2)
        kg.apply_visit(1, 0, 1.0)
        kg.apply_visit(1, 1, 2.0)
        kg.apply_visit(2, 0, 3.0)
        kg.apply_visit(2, 1, 4.0)
        edge = Triple(poi(0), RelType.ALSO_VISIT, rpoi(1))
        assert edge in kg.triples()
        kg.apply_visit(1, 2, 5.0)  # evicts u1's visit to p0
        kg.apply_visit(1, 2, 6.0)  # evicts u1's visit to p1 and its cascade
        assert edge in kg.triples()  # u2's pair still live
        kg.apply_visit(2, 2, 7.0)
        kg.apply_visit(2, 2, 8.0)
        assert edge not in kg.triples()

    def test_window_one_never_cascades(self):
        kg = build_static([(0, 0, 0), (1, 0, 0)], window=1)
        kg.apply_visit(1, 0, 1.0)
        kg.apply_visit(1, 1, 2.0)
        assert kg.neighbors(poi(0), EntityKind.RPOI) == set()


class TestContextOf:
    def test_isolated_entity(self):
        kg = build_static([(0, 0, 0)])
        ctx = probes.context(kg, rpoi(0))
        assert len(ctx) == 1
        np.testing.assert_array_equal(induced_adjacency(kg.triples(), ctx), [[0.0]])

    def test_poi_with_category_and_zone(self):
        kg = build_static([(0, 0, 0)])
        ctx = probes.context(kg, poi(0))
        assert len(ctx) == 3
        assert ctx[0] == kgstore.ent_key(poi(0))

    def test_induced_edges_among_neighbors(self):
        kg = build_static([(0, 0, 0), (1, 0, 0)])
        kg.apply_visit(5, 0, 1.0)
        kg.apply_visit(5, 1, 2.0)
        # context of the category includes both POIs; their shared zone
        # does not appear, but edges among included nodes must
        ctx = probes.context(kg, category(0))
        n = len(ctx)
        adjacency = induced_adjacency(kg.triples(), ctx)
        assert adjacency.shape == (n, n)
        assert np.array_equal(adjacency, adjacency.T)

    def test_relation_singleton_context(self):
        kg = build_static([(0, 0, 0)])
        kg.apply_visit(5, 0, 1.0)
        ctx = probes.context(kg, kgstore.rel_key(RelType.VISIT))
        assert ctx == (kgstore.rel_key(RelType.VISIT),)

    def test_unknown_entity(self):
        kg = build_static([(0, 0, 0)])
        with pytest.raises(UnknownObjectError):
            kg.context_of(user(42))

    def test_unindexed_object(self):
        kg = build_static([(0, 0, 0)])
        kg.index([kgstore.ent_key(poi(0))])
        with pytest.raises(UnknownObjectError, match="no row"):
            kg.context_of(poi(0))  # its category and zone have no row yet
        kg.index(sorted(kg.object_keys()))
        kg.apply_visit(5, 0, 1.0)
        with pytest.raises(UnknownObjectError, match="no row"):
            kg.context_of(kgstore.rel_key(RelType.VISIT))

    def test_rows_follow_the_index_and_neighbors_the_keys(self):
        # indexed in reverse key order, so row order and key order disagree
        kg = build_static([(0, 0, 1), (1, 1, 0)])
        kg.apply_visit(5, 0, 1.0)
        keys = sorted(kg.object_keys(), reverse=True)
        assert kg.index(keys) == list(range(len(keys)))
        assert kg.keys == keys and kg.rows == {k: r for r, k in enumerate(keys)}
        assert kg.index([keys[2], keys[0]]) == [2, 0]  # a known key keeps its row
        star = kg.context_of(poi(0))
        assert star.dtype == np.intp
        want = [poi(0), user(5), category(0), zone(1)]  # the object, then sorted neighbors
        assert star.tolist() == [kg.rows[kgstore.ent_key(e)] for e in want]
        assert probes.context(kg, poi(0)) == tuple(kgstore.ent_key(e) for e in want)
        rel = kgstore.rel_key(RelType.VISIT)
        assert kg.context_of(rel).tolist() == [kg.rows[rel]]


class TestStarMemo:
    """A star is rebuilt exactly when a neighbor pair appears or disappears."""

    def test_new_triple_on_a_linked_pair_keeps_the_stars(self):
        kg = build_static([(0, 0, 0)], window=2)
        kg.apply_visit(5, 0, 1.0)
        kg.apply_visit(5, 0, 2.0)  # a second VISIT triple on the user-POI pair
        kg.index(kg.object_keys())
        star = kg.context_of(user(5))
        rpoi_star = kg.context_of(rpoi(0))
        delta = kg.apply_visit(5, 0, 3.0)  # evicts the first visit; the pair stays linked
        assert delta.added == (Triple(user(5), RelType.VISIT, poi(0), 3.0),)
        assert delta.removed == (Triple(user(5), RelType.VISIT, poi(0), 1.0),)
        assert kg.context_of(user(5)) is star
        assert kg.context_of(rpoi(0)) is rpoi_star  # the cascade only gained a reference

    def test_evicting_a_pairs_last_triple_renews_both_stars(self):
        kg = build_static([(0, 0, 0), (1, 0, 0)], window=1)
        kg.apply_visit(5, 0, 1.0)
        kg.index(kg.object_keys())
        old = kg.context_of(user(5)), kg.context_of(poi(0))
        delta = kg.apply_visit(5, 1, 2.0)
        assert delta.removed == (Triple(user(5), RelType.VISIT, poi(0), 1.0),)
        new = kg.context_of(user(5)), kg.context_of(poi(0))
        assert new[0] is not old[0] and new[1] is not old[1]
        assert probes.context(kg, user(5)) == (user(5), poi(1))
        assert probes.context(kg, poi(0)) == (poi(0), category(0), zone(0))


def _assert_ranked(kg, pois, expected):
    """``pois`` come out of the order as ``expected``, whatever ``k`` asks for."""
    for k in range(len(expected) + 2):
        assert kg.most_visited(pois, k) == expected[:k]
    if set(pois) == set(kg.entities(EntityKind.POI)):
        assert kg.by_visits() == expected


class TestPopularity:
    def test_by_count(self):
        kg = build_static([(0, 0, 0), (1, 0, 0)])
        for t in range(3):
            kg.apply_visit(1, 0, float(t))
        for t in range(5):
            kg.apply_visit(2, 1, float(t))
        _assert_ranked(kg, {0, 1}, [1, 0])

    def test_tie_break_by_index(self):
        kg = build_static([(2, 0, 0), (0, 0, 0), (1, 0, 0)])
        _assert_ranked(kg, {0, 1, 2}, [0, 1, 2])

    def test_mixed(self):
        kg = build_static([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        for t in range(2):
            kg.apply_visit(1, 0, float(t))
        kg.apply_visit(2, 1, 0.0)
        kg.apply_visit(2, 1, 1.0)
        for t in range(7):
            kg.apply_visit(3, 2, float(t))
        _assert_ranked(kg, {0, 1, 2}, [2, 0, 1])
        _assert_ranked(kg, {0, 1}, [0, 1])

    def test_added_poi_takes_its_place(self):
        kg = build_static([(0, 0, 0), (2, 0, 0), (4, 0, 0)])
        kg.apply_visit(1, 2, 0.0)
        for p in (3, 1, 5):
            kg.add_poi(p, 0, 1)
        _assert_ranked(kg, {0, 1, 2, 3, 4, 5}, [2, 0, 1, 3, 4, 5])
        kg.apply_visit(1, 5, 1.0)
        _assert_ranked(kg, {0, 1, 2, 3, 4, 5}, [2, 5, 0, 1, 3, 4])


def _random_stream(rng, n_users, n_pois, n_events):
    events = []
    clocks = {}
    for _ in range(n_events):
        u = int(rng.integers(n_users))
        p = int(rng.integers(n_pois))
        t = clocks.get(u, 0.0) + float(rng.integers(1, 10))
        clocks[u] = t
        events.append((u, p, t))
    return events


class TestInvariants:
    def test_window_capacity_bound(self):
        rng = np.random.default_rng(11)
        kg = build_static([(i, i % 3, i % 2) for i in range(8)], window=4)
        for u, p, t in _random_stream(rng, 3, 8, 400):
            kg.apply_visit(u, p, t)
            for uid in kg.entities(EntityKind.USER):
                assert len(probes.window_events(kg, uid)) <= 4

    def test_replay_determinism(self):
        rng = np.random.default_rng(13)
        events = _random_stream(rng, 4, 6, 300)
        snapshots = []
        for _ in range(2):
            kg = build_static([(i, i % 2, i % 3) for i in range(6)], window=5)
            for u, p, t in events:
                kg.apply_visit(u, p, t)
            snapshots.append(kg.export_snapshot())
        assert snapshots[0] == snapshots[1]

    def test_affected_set_soundness(self):
        rng = np.random.default_rng(17)
        kg = build_static([(i, i % 3, i % 2) for i in range(10)], window=3)
        events = _random_stream(rng, 4, 10, 120)
        for u, p, t in events:
            before = {
                e: probes.context(kg, e)
                for e in [kgstore.EntityId(*k) for k in kg.object_keys()
                          if not kgstore.key_is_relation(k)]
            }
            before_adjacency = {
                e: induced_adjacency(kg.triples(), ctx) for e, ctx in before.items()
            }
            delta = kg.apply_visit(u, p, t)
            for e, ctx in before.items():
                if kgstore.ent_key(e) in delta.affected:
                    continue
                after = probes.context(kg, e)
                assert after == ctx
                assert np.array_equal(
                    induced_adjacency(kg.triples(), after), before_adjacency[e]
                )

    def test_static_skeleton_survives_eviction(self):
        rng = np.random.default_rng(19)
        kg = build_static([(i, 0, 0) for i in range(4)], window=2)
        statics = {t for t in kg.triples()}
        for u, p, t in _random_stream(rng, 2, 4, 200):
            kg.apply_visit(u, p, t)
        assert statics <= kg.triples()

    def test_affected_superset_of_endpoints_and_neighbors(self):
        kg = build_static([(0, 0, 0), (1, 0, 0)])
        kg.apply_visit(5, 0, 1.0)
        delta = kg.apply_visit(5, 1, 2.0)
        for t in delta.added + delta.removed:
            assert kgstore.ent_key(t.head) in delta.affected
            assert kgstore.ent_key(t.tail) in delta.affected


class TestSnapshot:
    def test_roundtrip_identical_text(self):
        rng = np.random.default_rng(23)
        skeleton = [(i, i % 2, i % 3) for i in range(5)]
        kg = build_static(skeleton, window=3)
        for u, p, t in _random_stream(rng, 3, 5, 150):
            kg.apply_visit(u, p, t)
        text = kg.export_snapshot()
        kg2 = import_snapshot(text, skeleton)
        assert kg2.export_snapshot() == text

    def test_roundtrip_preserves_counts_and_windows(self):
        skeleton = [(0, 0, 0), (1, 0, 1)]
        kg = build_static(skeleton, window=4)
        for t in range(6):
            kg.apply_visit(1, t % 2, float(t))
        kg2 = import_snapshot(kg.export_snapshot(), skeleton)
        assert kg2.visit_counts == kg.visit_counts
        assert probes.window_events(kg2, 1) == probes.window_events(kg, 1)

    def test_import_continues_evolving(self):
        skeleton = [(0, 0, 0), (1, 0, 1)]
        kg = build_static(skeleton, window=2)
        kg.apply_visit(1, 0, 1.0)
        kg.apply_visit(1, 1, 2.0)
        kg2 = import_snapshot(kg.export_snapshot(), skeleton)
        delta = kg2.apply_visit(1, 0, 3.0)
        assert delta.removed  # capacity eviction still works after import

    def test_bad_line_rejected(self):
        with pytest.raises(IngestionError):
            import_snapshot("Poi:0\tBelongTo\n", [])

    def test_format_one_rejected(self):
        with pytest.raises(IngestionError):
            import_snapshot(
                "# geostream-kg 1\nwindow 2\n"
                "Poi:0\tBelongTo\tCategory:0\nPoi:0\tLocateAt\tZone:0\n",
                [(0, 0, 0)],
            )

    @pytest.mark.parametrize("events", [
        "event 1 7 1.0 -\n",  # unknown POI
        "event 0 0 nan -\n",  # non-finite time
        "event 1 0 2.0 -\nevent 1 1 1.0 0\n",  # out of time order
        "event 1 0 1.0 -\nevent 1 1 2.0 1\n",  # cascade not from the previous POI
        "event 1 0 1.0 -\nevent 1 1 2.0 -\n",  # missing cascade
        "event 1 0 1.0 -\nevent 1 1 2.0 0\nevent 1 0 3.0 1\n",  # over capacity
    ])
    def test_inconsistent_events_rejected(self, events):
        head = "# geostream-kg 3\nwindow 2\nversion 3\npoi 0 2\npoi 1 1\n"
        skeleton = [(0, 0, 0), (1, 0, 1)]
        import_snapshot(head + "event 1 0 1.0 -\nevent 1 1 2.0 0\n", skeleton)
        with pytest.raises(IngestionError):
            import_snapshot(head + events, skeleton)

    @pytest.mark.parametrize("head, match", [
        ("window 2\nversion -1\npoi 0 2\npoi 1 1\n", "version -1 is negative"),
        ("window 2\nversion 3\npoi 0 -1\npoi 1 1\n", "POI 0 has -1 lifetime visits"),
        ("window 2\nversion 3\npoi 0 1\npoi 1 0\n", "POI 1 has 0 lifetime visits but 1 window events"),
        ("window 0\nversion 3\npoi 0 2\npoi 1 1\n", "window 0 is below 1"),
    ], ids=["negative-version", "negative-visits", "fewer-visits-than-window-events", "zero-window"])
    def test_impossible_counts_rejected(self, head, match):
        events = "event 1 0 1.0 -\nevent 1 1 2.0 0\n"
        skeleton = [(0, 0, 0), (1, 0, 1)]
        with pytest.raises(IngestionError, match=match):
            import_snapshot("# geostream-kg 3\n" + head + events, skeleton)

    @pytest.mark.parametrize("skeleton", [[(0, 0, 0)], [(0, 0, 0), (2, 0, 1)], [(0, 0, 0), (1, 0, 1), (2, 0, 0)]])
    def test_other_skeleton_rejected(self, skeleton):
        text = build_static([(0, 0, 0), (1, 0, 1)]).export_snapshot()
        with pytest.raises(IngestionError, match="POI lines"):
            import_snapshot(text, skeleton)

    def test_cascade_owner_survives_roundtrip(self):
        # u1's second visit to p0 owns the p0 -> rpoi(p0) cascade; after u1's
        # head event is evicted nothing in the visit edges says so
        skeleton = [(0, 0, 0), (1, 0, 0)]
        kg = build_static(skeleton, window=2)
        for u, p, t in ((0, 0, 0.0), (1, 0, 1.0), (1, 0, 2.0), (1, 1, 3.0)):
            kg.apply_visit(u, p, t)
        kg2 = import_snapshot(kg.export_snapshot(), skeleton)
        expected = kg.apply_visit(1, 0, 4.0)
        assert Triple(poi(0), RelType.ALSO_VISIT, rpoi(0)) in expected.removed
        assert kg2.apply_visit(1, 0, 4.0) == expected
        assert kg2.triples() == kg.triples()


@st.composite
def _streams(draw):
    """(pois, window, events, cut): up to 4 users whose clocks advance by
    steps that may be zero, so timestamps repeat within and across users."""
    n_pois = draw(st.integers(1, 6))
    window = draw(st.integers(1, 4))
    steps = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, n_pois - 1),
                  st.sampled_from([0.0, 0.1, 1.0, 2.5])),
        min_size=1, max_size=60,
    ))
    clocks: dict[int, float] = {}
    events = []
    for u, p, dt in steps:
        clocks[u] = clocks.get(u, 0.0) + dt
        events.append((u, p, clocks[u]))
    cut = draw(st.integers(0, len(events)))
    return [(i, i % 2, i % 3) for i in range(n_pois)], window, events, cut


@settings(max_examples=60, deadline=None)
@given(_streams())
def test_snapshot_then_continue_matches_memory(stream):
    pois, window, events, cut = stream
    kg = build_static(pois, window=window)
    for u, p, t in events[:cut]:
        kg.apply_visit(u, p, t)
    kg2 = import_snapshot(kg.export_snapshot(), pois)
    for u, p, t in events[cut:]:
        d1, d2 = kg.apply_visit(u, p, t), kg2.apply_visit(u, p, t)
        assert (d2.added, d2.removed, d2.affected) == (d1.added, d1.removed, d1.affected)
        assert kg2.triples() == kg.triples()
        assert all(probes.window_events(kg2, uid) == probes.window_events(kg, uid)
                   for uid in kg.entities(EntityKind.USER))
        assert kg2.version == kg.version
        # the reloaded store memoizes its stars from the replayed edges
        assert all(probes.context(kg2, k) == probes.context(kg, k) for k in kg.object_keys())


def _star(n):
    adj = np.zeros((n, n))
    adj[0, 1:] = adj[1:, 0] = 1.0
    return adj


def _assert_same_queries(kg, oracle):
    keys = kg.object_keys()
    assert keys == oracle.object_keys()
    assert kg.triples() == oracle.triples()
    # each pair's live triples sit in one dict, shared by both directions
    for a, nbrs in kg._nbrs.items():
        for b, joined in nbrs.items():
            assert joined is kg._nbrs[b][a] and joined
            assert all({t.head, t.tail} == {a, b} and refs > 0 for t, refs in joined.items())
    for key in keys:
        if not kgstore.key_is_relation(key):
            # every entity context is the star over the objects of the rows context_of returns
            mine, theirs = probes.context(kg, key), oracle.context_of(kgstore.EntityId(*key))
            assert mine == theirs.nodes
            assert np.array_equal(theirs.adjacency, _star(len(mine)))
    for t in sorted(kg.triples(), key=kgstore._triple_sort_key):
        # every edge joins a POI to a non-POI, so relation contexts are singletons
        assert (t.head.kind == kgstore.EntityKind.POI) != (t.tail.kind == kgstore.EntityKind.POI)
        assert oracle.context_of(t).nodes == probes.context(kg, kgstore.rel_key(t.rel))
        assert oracle.context_of(t).nodes == (kgstore.rel_key(t.rel),)
    for p in kg.entities(EntityKind.POI):
        assert kg.neighbors(poi(p), EntityKind.RPOI) == set(oracle.cascade_successors(p))
    # the maintained order is the oracle's popularity over every POI
    assert kg.visit_counts == oracle.visit_counts
    assert kg.by_visits() == oracle.popularity(oracle.pois)
    # each entity's neighbor sets by kind and its run of incident triples
    entities = [key for key in keys if not kgstore.key_is_relation(key)]
    for key in entities:
        nbrs = oracle.context_of(kgstore.EntityId(*key)).nodes[1:]
        for kind in EntityKind:
            assert kg.neighbors(key, kind) == {i for k, i in nbrs if k == kind}
        assert kg.triples_incident_to([key]) == oracle.triples_incident_to([key])
    assert kg.triples_incident_to(keys) == oracle.triples_incident_to(keys)
    # the registry lists each kind's entities in order; an RPOI exists for every POI
    kinds = {EntityKind.USER: oracle.users, EntityKind.POI: oracle.pois, EntityKind.RPOI: oracle.pois,
             EntityKind.CATEGORY: oracle.categories, EntityKind.ZONE: oracle.zones}
    for kind, members in kinds.items():
        assert kg.entities(kind) == sorted(members)
        assert all((kind, i) in kg and kgstore.EntityId(kind, i) in kg for i in members)
    assert all(kgstore.rel_key(r) not in kg for r in RelType)


@settings(max_examples=60, deadline=None)
@given(_streams())
def test_store_matches_oracle(stream):
    pois, window, events, cut = stream
    kg = build_static(pois, window=window)
    oracle = OracleKg(window_capacity=window)
    for poi_id, category_id, zone_id in pois:
        oracle.add_poi(poi_id, category_id, zone_id)
    _assert_same_queries(kg, oracle)
    graphs = [kg]
    for i, (u, p, t) in enumerate(events):
        if i == cut:  # from here a graph rebuilt from its snapshot and a deep copy follow too
            graphs += [import_snapshot(kg.export_snapshot(), pois), copy.deepcopy(kg)]
        expected = oracle.apply_visit(u, p, t)
        for g in graphs:
            delta = g.apply_visit(u, p, t)
            assert delta == expected
            assert g.triples_incident_to(delta.affected) == oracle.triples_incident_to(delta.affected)
            # incremental_update trains on this list alone, so it must hold the additions
            assert set(delta.added) <= set(g.triples_incident_to(delta.affected))
            _assert_same_queries(g, oracle)


def _containers(root):
    """Ids of the dicts, lists and deques reachable from ``root`` through
    its attributes, dicts, lists, deques, tuples and frozensets."""
    found, seen, todo = set(), set(), [vars(root)]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (dict, list, deque)):
            found.add(id(obj))
        if isinstance(obj, dict):
            todo += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, deque, tuple, frozenset)):
            todo += obj
    return found


def _evolved(seed=5, n_events=120):
    rng = np.random.default_rng(seed)
    skeleton = [(i, i % 3, i % 4) for i in range(8)]
    kg = build_static(skeleton, window=3)
    events = _random_stream(rng, 5, 8, n_events)
    for u, p, t in events[: n_events // 2]:
        kg.apply_visit(u, p, t)
    kg.index(kg.object_keys())
    for key in kg.object_keys():  # warm every memo
        kg.context_of(key)
        if not kgstore.key_is_relation(key):
            kg.neighbors(key, EntityKind.POI)
            kg.triples_incident_to([key])
    return kg, events[n_events // 2 :]


def _state(kg):
    entities = [k for k in kg.object_keys() if not kgstore.key_is_relation(k)]
    return (
        kg.export_snapshot(), kg.triples(), list(kg.by_visits()), dict(kg.visit_counts),
        {k: kg.triples_incident_to([k]) for k in entities},
        {k: [kg.neighbors(k, kind) for kind in EntityKind] for k in entities},
        {k: kg.context_of(k).tolist() for k in kg.object_keys()}, list(kg.keys),
    )


class TestDeepCopy:
    def test_copy_shares_no_container(self):
        kg, _ = _evolved()
        twin = copy.deepcopy(kg)
        assert not _containers(kg) & _containers(twin)
        # each neighbor pair's dict is still shared by its two directions
        for a, nbrs in twin._nbrs.items():
            for b, joined in nbrs.items():
                assert joined is twin._nbrs[b][a] and joined is not kg._nbrs[a][b]
                assert joined == kg._nbrs[a][b]

    def test_copy_evolves_apart(self):
        kg, rest = _evolved()
        kept = _state(kg)
        runs, stars = dict(kg._runs), dict(kg._stars)
        twin = copy.deepcopy(kg)
        for u, p, t in rest:
            twin.apply_visit(u, p, t)
        assert _state(twin) != kept
        assert _state(kg) == kept
        assert all(kg._runs[k] is run for k, run in runs.items())
        assert all(kg._stars[k] is star for k, star in stars.items())

    def test_copy_continues_like_a_generic_copy(self):
        kg, rest = _evolved()
        mine, theirs = copy.deepcopy(kg), generic_deepcopy(kg)[0]
        for u, p, t in rest:
            assert mine.apply_visit(u, p, t) == theirs.apply_visit(u, p, t)
            assert _state(mine) == _state(theirs)

    def test_queries_cannot_be_mutated(self):
        kg, _ = _evolved()
        nbrs = kg.neighbors(poi(0), EntityKind.CATEGORY)
        assert isinstance(nbrs, frozenset)
        with pytest.raises(AttributeError):
            nbrs.add(9)
        for key in (poi(0), user(0), kgstore.rel_key(RelType.VISIT)):
            star = kg.context_of(key)
            with pytest.raises(ValueError):
                star[0] = -1
            with pytest.raises(ValueError):
                star.sort()


def test_visit_counts_are_not_a_constructor_field():
    with pytest.raises(TypeError):
        kgstore.DynamicKg(visit_counts={0: 3})
