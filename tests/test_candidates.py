import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geostream import candidates, kgstore
from geostream.candidates import expand_meta_path, generate_candidates
from geostream.errors import ConfigError, UnknownObjectError
from geostream.kgstore import EntityKind, RelType, build_static

import candidates_oracle
from kg_oracle import DynamicKg as OracleKg
from test_kgstore import _streams


def _kg_with_visits():
    # p0,p1 share category 0; p1,p2 share zone 1; p3 isolated category/zone
    kg = build_static([(0, 0, 0), (1, 0, 1), (2, 1, 1), (3, 2, 2)], window=5)
    kg.apply_visit(1, 0, 10.0)
    kg.apply_visit(1, 1, 20.0)  # cascade p0 -> rpoi(p1)
    return kg


class TestExpandMetaPath:
    def test_no_visits_empty_everywhere(self):
        kg = build_static([(0, 0, 0)])
        kg.apply_visit(1, 0, 1.0)
        for e in kg._windows[1]:  # user exists, window empty
            kg._unref(e.visit_triple)
        kg._windows[1].clear()
        for scheme in candidates.SCHEMES:
            assert expand_meta_path(kg, 1, scheme) == set()

    def test_uv(self):
        kg = _kg_with_visits()
        assert expand_meta_path(kg, 1, "UV") == {0, 1}

    def test_uvcb_shared_category(self):
        kg = build_static([(0, 0, 0), (1, 0, 1)])
        kg.apply_visit(1, 0, 1.0)
        assert expand_meta_path(kg, 1, "UVCB") == {0, 1}

    def test_uva_follows_cascade(self):
        kg = _kg_with_visits()
        # user 2 visited p0 only; p0's live cascade points at p1
        kg.apply_visit(2, 0, 30.0)
        assert expand_meta_path(kg, 2, "UVA") == {1}

    def test_uvzl_shared_zone(self):
        kg = _kg_with_visits()
        assert expand_meta_path(kg, 1, "UVZL") == {0, 1, 2}

    def test_unknown_user(self):
        kg = build_static([(0, 0, 0)])
        with pytest.raises(UnknownObjectError):
            expand_meta_path(kg, 99, "UV")

    def test_unknown_scheme(self):
        kg = build_static([(0, 0, 0)])
        kg.apply_visit(1, 0, 1.0)
        with pytest.raises(ConfigError):
            expand_meta_path(kg, 1, "UVX")


class TestGenerateCandidates:
    def test_brand_new_user_padding_path(self):
        kg = build_static([(i, 0, 0) for i in range(5)])
        for t, p in enumerate([2, 2, 2, 4, 4, 0]):
            kg.apply_visit(8, p, float(t))
        out = generate_candidates(kg, user_id=999, k=1)
        # 4K = 4 global-popularity picks: counts 2:3, 4:2, 0:1, ties by index
        assert out.pois == (2, 4, 0, 1)
        assert all(tag == candidates.PAD_TAG for tag in out.provenance)

    def test_new_user_k2_takes_min_4k_pois(self):
        kg = build_static([(i, 0, 0) for i in range(5)])
        out = generate_candidates(kg, user_id=999, k=2)
        assert len(out) == 5  # min(4K=8, |POIs|=5)

    def test_single_poi_dedup_plus_padding(self):
        kg = build_static([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
        kg.apply_visit(1, 0, 1.0)
        out = generate_candidates(kg, 1, k=1)
        # all four schemes yield only p0; padding fills to 4
        assert out.pois[0] == 0
        assert len(out) == 3
        assert len(set(out.pois)) == 3

    def test_dedup_keeps_scheme_order(self):
        # UV={p2}, UVA={p3}, UVCB={p2}, UVZL={p4}: dedup -> [p2, p3, p4]
        kg = build_static([(2, 0, 0), (3, 1, 1), (4, 0, 1), (9, 5, 5)], window=5)
        kg.apply_visit(1, 2, 1.0)
        kg.apply_visit(7, 2, 2.0)
        kg.apply_visit(7, 3, 3.0)  # cascade p2 -> rpoi(p3)
        # boost p2's popularity with one-visit users (no extra cascades)
        for i in range(5):
            kg.apply_visit(60 + i, 2, 4.0)
        out = generate_candidates(kg, 1, k=1)
        assert expand_meta_path(kg, 1, "UV") == {2}
        assert expand_meta_path(kg, 1, "UVA") == {3}
        assert out.pois[:3] == (2, 3, 4)
        assert len(out) == 4

    def test_size_invariant(self):
        rng = np.random.default_rng(3)
        kg = build_static([(i, i % 3, i % 2) for i in range(9)], window=4)
        clocks = {}
        for _ in range(120):
            u, p = int(rng.integers(4)), int(rng.integers(9))
            t = clocks.get(u, 0.0) + 1.0
            clocks[u] = t
            kg.apply_visit(u, p, t)
            for k in (1, 2, 3):
                out = generate_candidates(kg, u, k)
                assert len(out) == min(4 * k, 9)
                assert len(set(out.pois)) == len(out.pois)

    def test_determinism(self):
        kg = _kg_with_visits()
        a = generate_candidates(kg, 1, k=2)
        b = generate_candidates(kg, 1, k=2)
        assert a.pois == b.pois and a.provenance == b.provenance

    def test_provenance_soundness_bruteforce(self):
        rng = np.random.default_rng(5)
        kg = build_static([(i, i % 3, i % 2) for i in range(8)], window=3)
        clocks = {}
        for _ in range(80):
            u, p = int(rng.integers(3)), int(rng.integers(8))
            t = clocks.get(u, 0.0) + 1.0
            clocks[u] = t
            kg.apply_visit(u, p, t)
        for u in kg.entities(EntityKind.USER):
            out = generate_candidates(kg, u, k=2)
            for poi_id, tag in zip(out.pois, out.provenance):
                if tag == candidates.PAD_TAG:
                    continue
                assert poi_id in _enumerate_paths(kg, u, tag)


@settings(max_examples=200, deadline=None)
@given(_streams(), st.integers(1, 3))
def test_walk_matches_per_scheme_oracle(stream, k):
    """The kind-path walk finds what the per-scheme queries found, after every event."""
    pois, window, events, _ = stream
    kg = build_static(pois, window=window)
    oracle = OracleKg(window_capacity=window)
    for poi_id, category_id, zone_id in pois:
        oracle.add_poi(poi_id, category_id, zone_id)
    for u, p, t in events:
        kg.apply_visit(u, p, t)
        oracle.apply_visit(u, p, t)
        for uid in kg.entities(EntityKind.USER):
            for scheme in candidates.SCHEMES:
                assert expand_meta_path(kg, uid, scheme) == candidates_oracle.expand_meta_path(
                    oracle, uid, scheme
                )
        for uid in kg.entities(EntityKind.USER) + [99]:  # 99: a user the stream never names
            mine = generate_candidates(kg, uid, k)
            theirs = candidates_oracle.generate_candidates(oracle, uid, k)
            assert (mine.pois, mine.provenance) == (theirs.pois, theirs.provenance)


def _enumerate_paths(kg, user_id, scheme):
    """Brute-force walk of the scheme over raw triples."""
    triples = kg.triples()
    visits = {
        t.tail.index
        for t in triples
        if t.rel == RelType.VISIT and t.head == kgstore.user(user_id)
    }
    if scheme == "UV":
        return visits
    out = set()
    if scheme == "UVA":
        for t in triples:
            if t.rel == RelType.ALSO_VISIT and t.head.index in visits:
                out.add(t.tail.index)
        return out
    rel = RelType.BELONG_TO if scheme == "UVCB" else RelType.LOCATE_AT
    hubs = {t.tail for t in triples if t.rel == rel and t.head.index in visits}
    for t in triples:
        if t.rel == rel and t.tail in hubs:
            out.add(t.head.index)
    return out
