import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geostream import kgstore
from geostream.errors import IngestionError, StreamOrderError, UnknownObjectError
from geostream.kgstore import (
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
from kg_oracle import DynamicKg as OracleKg


class TestBuildStatic:
    def test_single_poi_two_triples(self):
        kg = build_static([(0, 0, 0)])
        assert kg.n_triples() == 2

    def test_shared_category(self):
        kg = build_static([(0, 0, 0), (1, 0, 1)])
        assert kg.n_triples() == 4
        assert len(kg.categories) == 1

    def test_empty_input(self):
        kg = build_static([])
        assert kg.n_triples() == 0
        assert not kg.pois

    def test_duplicate_poi_rejected(self):
        with pytest.raises(IngestionError):
            build_static([(0, 0, 0), (0, 1, 1)])

    def test_rpoi_created_but_unconnected(self):
        kg = build_static([(0, 0, 0)])
        assert kg.has_entity(rpoi(0))
        ctx = kg.context_of(rpoi(0))
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
        assert [p for p, _ in kg.window_events(5)] == [1, 2]

    def test_unknown_poi(self):
        kg = build_static([(0, 0, 0)])
        with pytest.raises(UnknownObjectError):
            kg.apply_visit(1, 99, 5.0)

    def test_out_of_order_time(self):
        kg = build_static([(0, 0, 0)])
        kg.apply_visit(1, 0, 10.0)
        with pytest.raises(StreamOrderError):
            kg.apply_visit(1, 0, 5.0)

    def test_equal_time_allowed(self):
        kg = build_static([(0, 0, 0), (1, 0, 0)])
        kg.apply_visit(1, 0, 10.0)
        kg.apply_visit(1, 1, 10.0)
        assert len(kg.window_events(1)) == 2

    def test_visit_counts_survive_eviction(self):
        kg = build_static([(0, 0, 0)], window=1)
        for t in range(5):
            kg.apply_visit(1, 0, float(t))
        assert kg.visit_counts[0] == 5
        assert len(kg.window_events(1)) == 1

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
        assert kg.cascade_successors(0) == []


class TestContextOf:
    def test_isolated_entity(self):
        kg = build_static([(0, 0, 0)])
        ctx = kg.context_of(rpoi(0))
        assert len(ctx) == 1
        np.testing.assert_array_equal(ctx.adjacency, [[0.0]])

    def test_poi_with_category_and_zone(self):
        kg = build_static([(0, 0, 0)])
        ctx = kg.context_of(poi(0))
        assert len(ctx) == 3
        assert ctx.nodes[0] == kgstore.ent_key(poi(0))

    def test_induced_edges_among_neighbors(self):
        kg = build_static([(0, 0, 0), (1, 0, 0)])
        kg.apply_visit(5, 0, 1.0)
        kg.apply_visit(5, 1, 2.0)
        # context of the category includes both POIs; their shared zone
        # does not appear, but edges among included nodes must
        ctx = kg.context_of(category(0))
        n = len(ctx)
        assert ctx.adjacency.shape == (n, n)
        assert np.array_equal(ctx.adjacency, ctx.adjacency.T)

    def test_relation_singleton_context(self):
        kg = build_static([(0, 0, 0)])
        kg.apply_visit(5, 0, 1.0)
        ctx = kg.context_of(Triple(user(5), RelType.VISIT, poi(0), 1.0))
        assert ctx.nodes == (kgstore.rel_key(RelType.VISIT),)

    def test_unknown_entity(self):
        kg = build_static([(0, 0, 0)])
        with pytest.raises(UnknownObjectError):
            kg.context_of(user(42))


class TestPopularity:
    def test_by_count(self):
        kg = build_static([(0, 0, 0), (1, 0, 0)])
        for t in range(3):
            kg.apply_visit(1, 0, float(t))
        for t in range(5):
            kg.apply_visit(2, 1, float(t))
        assert kg.popularity({0, 1}) == [1, 0]

    def test_tie_break_by_index(self):
        kg = build_static([(2, 0, 0), (0, 0, 0), (1, 0, 0)])
        assert kg.popularity({0, 1, 2}) == [0, 1, 2]

    def test_mixed(self):
        kg = build_static([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        for t in range(2):
            kg.apply_visit(1, 0, float(t))
        kg.apply_visit(2, 1, 0.0)
        kg.apply_visit(2, 1, 1.0)
        for t in range(7):
            kg.apply_visit(3, 2, float(t))
        assert kg.popularity({0, 1, 2}) == [2, 0, 1]


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
            for uid in kg.users:
                assert len(kg.window_events(uid)) <= 4

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
                e: kg.context_of(e)
                for e in [kgstore.EntityId(*k) for k in kg.object_keys()
                          if not kgstore.key_is_relation(k)]
            }
            delta = kg.apply_visit(u, p, t)
            for e, ctx in before.items():
                if kgstore.ent_key(e) in delta.affected:
                    continue
                after = kg.context_of(e)
                assert after.nodes == ctx.nodes
                assert np.array_equal(after.adjacency, ctx.adjacency)

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
        kg = build_static([(i, i % 2, i % 3) for i in range(5)], window=3)
        for u, p, t in _random_stream(rng, 3, 5, 150):
            kg.apply_visit(u, p, t)
        text = kg.export_snapshot()
        kg2 = import_snapshot(text)
        assert kg2.export_snapshot() == text

    def test_roundtrip_preserves_counts_and_windows(self):
        kg = build_static([(0, 0, 0), (1, 0, 1)], window=4)
        for t in range(6):
            kg.apply_visit(1, t % 2, float(t))
        kg2 = import_snapshot(kg.export_snapshot())
        assert kg2.visit_counts == kg.visit_counts
        assert kg2.window_events(1) == kg.window_events(1)

    def test_import_continues_evolving(self):
        kg = build_static([(0, 0, 0), (1, 0, 1)], window=2)
        kg.apply_visit(1, 0, 1.0)
        kg.apply_visit(1, 1, 2.0)
        kg2 = import_snapshot(kg.export_snapshot())
        delta = kg2.apply_visit(1, 0, 3.0)
        assert delta.removed  # capacity eviction still works after import

    def test_bad_line_rejected(self):
        with pytest.raises(IngestionError):
            import_snapshot("Poi:0\tBelongTo\n")

    def test_format_one_rejected(self):
        with pytest.raises(IngestionError):
            import_snapshot(
                "# geostream-kg 1\nwindow 2\n"
                "Poi:0\tBelongTo\tCategory:0\nPoi:0\tLocateAt\tZone:0\n"
            )

    @pytest.mark.parametrize("events", [
        "event 1 7 1.0 -\n",  # unknown POI
        "event 1 0 2.0 -\nevent 1 1 1.0 0\n",  # out of time order
        "event 1 0 1.0 -\nevent 1 1 2.0 1\n",  # cascade not from the previous POI
        "event 1 0 1.0 -\nevent 1 1 2.0 -\n",  # missing cascade
        "event 1 0 1.0 -\nevent 1 1 2.0 0\nevent 1 0 3.0 1\n",  # over capacity
    ])
    def test_inconsistent_events_rejected(self, events):
        head = "# geostream-kg 2\nwindow 2\nversion 3\npoi 0 0 0 2\npoi 1 0 1 1\n"
        import_snapshot(head + "event 1 0 1.0 -\nevent 1 1 2.0 0\n")
        with pytest.raises(IngestionError):
            import_snapshot(head + events)

    def test_cascade_owner_survives_roundtrip(self):
        # u1's second visit to p0 owns the p0 -> rpoi(p0) cascade; after u1's
        # head event is evicted nothing in the visit edges says so
        kg = build_static([(0, 0, 0), (1, 0, 0)], window=2)
        for u, p, t in ((0, 0, 0.0), (1, 0, 1.0), (1, 0, 2.0), (1, 1, 3.0)):
            kg.apply_visit(u, p, t)
        kg2 = import_snapshot(kg.export_snapshot())
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
    kg2 = import_snapshot(kg.export_snapshot())
    for u, p, t in events[cut:]:
        d1, d2 = kg.apply_visit(u, p, t), kg2.apply_visit(u, p, t)
        assert (d2.added, d2.removed, d2.affected) == (d1.added, d1.removed, d1.affected)
        assert kg2.triples() == kg.triples()
        assert all(kg2.window_events(uid) == kg.window_events(uid) for uid in kg.users)
        assert kg2.version == kg.version


def _assert_same_queries(kg, oracle):
    keys = kg.object_keys()
    assert keys == oracle.object_keys()
    assert kg.triples() == oracle.triples()
    objs = [kgstore.EntityId(*k) for k in keys if not kgstore.key_is_relation(k)]
    for obj in objs + sorted(kg.triples(), key=kgstore._triple_sort_key):
        mine, theirs = kg.context_of(obj), oracle.context_of(obj)
        assert mine.nodes == theirs.nodes
        assert np.array_equal(mine.adjacency, theirs.adjacency)
    for p in kg.pois:
        assert kg.cascade_successors(p) == oracle.cascade_successors(p)


@settings(max_examples=60, deadline=None)
@given(_streams())
def test_store_matches_oracle(stream):
    pois, window, events, _ = stream
    kg = build_static(pois, window=window)
    oracle = OracleKg(window_capacity=window)
    for poi_id, category_id, zone_id in pois:
        oracle.add_poi(poi_id, category_id, zone_id)
    _assert_same_queries(kg, oracle)
    for u, p, t in events:
        delta = kg.apply_visit(u, p, t)
        assert delta == oracle.apply_visit(u, p, t)
        assert kg.triples_incident_to(delta.affected) == oracle.triples_incident_to(delta.affected)
        _assert_same_queries(kg, oracle)
