import copy
import math

import numpy as np
import pytest

from geostream import legacy
from geostream.errors import ConfigError, UnknownObjectError
from geostream.legacy import (
    LegacyParams,
    SpatialKgRep,
    TrafficBins,
    legacy_state,
    transform_temporal,
    transform_temporal_grads,
    update_spatial,
    update_spatial_grads,
    update_user,
    update_user_grads,
)

import legacy_oracle
from gradcheck import finite_diff_check


def _sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def _params(n=4, m=3, seed=0, ones=False):
    p = LegacyParams(n, m, np.random.default_rng(seed))
    if ones:
        for name in p.store.names():
            p.store.get(name)[...] = 1.0
    return p


class TestTransformTemporal:
    def test_zero_input_zero_bias_gives_half(self):
        p = _params(ones=True)
        p.store.get("temporal/bias")[...] = 0.0
        out, _ = transform_temporal(np.zeros((3, 3)), p)
        np.testing.assert_array_equal(out, np.full(4, 0.5))

    def test_scalar_case(self):
        p = _params(n=1, m=1, seed=3)
        t = np.array([[2.0, 0.5, 1.0]])
        out, _ = transform_temporal(t, p)
        w1 = float(p.store.get("temporal/w_in")[0, 0])
        wf = p.store.get("temporal/w_flow")
        b = float(p.store.get("temporal/bias")[0])
        expected = _sig(w1 * float(t[0] @ wf) + b)
        assert out[0] == pytest.approx(expected, abs=1e-15)

    def test_output_in_unit_interval(self):
        # moderate traffic counts: float64 sigmoid saturates to exactly
        # 0.0/1.0 beyond |x| ~ 36, so test the representable range
        rng = np.random.default_rng(5)
        p = _params(seed=5)
        for _ in range(50):
            out, _ = transform_temporal(rng.uniform(0, 10, size=(3, 3)), p)
            assert np.all(out > 0) and np.all(out < 1)

    def test_shape_mismatch(self):
        p = _params()
        with pytest.raises(ConfigError):
            transform_temporal(np.zeros((5, 3)), p)

    def test_gradient_check(self):
        rng = np.random.default_rng(7)
        p = _params(seed=7)
        t = rng.uniform(0, 4, size=(3, 3))
        c = rng.normal(size=4)

        def loss(store):
            out, _ = transform_temporal(t, p)
            return float(c @ out)

        p.store.zero_grads()
        _, cache = transform_temporal(t, p)
        transform_temporal_grads(p, cache, c)
        report = finite_diff_check(loss, p.store, eps=1e-6, tol=1e-4)
        assert report.passed, report.failures()[:3]


class TestUpdateUser:
    def test_forced_gate_zero_interaction(self):
        p = _params()
        p.store.get("user/gate_w")[...] = 0.0
        p.store.get("user/gate_b")[...] = 0.0  # alpha = 0.5
        u = np.array([0.2, 0.8, 0.5, 0.1])
        out, _ = update_user(u, np.zeros(4), np.ones(4), p)
        np.testing.assert_allclose(out, 1.0 / (1.0 + np.exp(-u / 2)), atol=1e-15)

    def test_all_ones_hand_case(self):
        p = _params(n=2, m=2, ones=True)
        t_mat = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
        t_tilde, _ = transform_temporal(t_mat, p)
        tt = _sig(6.0)  # ones(2x2) @ T @ ones(3) + 1 = 6 per coordinate
        np.testing.assert_allclose(t_tilde, [tt, tt], atol=1e-15)
        u = np.array([0.5, 0.25])
        h = np.array([1.0, 2.0])
        out, _ = update_user(u, h, t_tilde, p)
        q = 3.0 * tt
        alpha = _sig(0.75 + 1.0)
        expected = [_sig(alpha * ui + (1 - alpha) * q) for ui in u]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gate_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(11)
        p = _params(seed=11)
        for _ in range(100):
            u = rng.uniform(0, 1, size=4)
            _, cache = update_user(u, rng.normal(size=4), rng.uniform(0, 1, size=4), p)
            assert 0.0 < cache["alpha"] < 1.0

    def test_output_coordinates_in_unit_interval(self):
        rng = np.random.default_rng(13)
        p = _params(seed=13)
        for _ in range(100):
            out, _ = update_user(
                rng.uniform(0, 1, size=4), rng.normal(size=4) * 5,
                rng.uniform(0, 1, size=4), p,
            )
            assert np.all(out > 0) and np.all(out < 1)

    def test_gradient_check_through_temporal(self):
        rng = np.random.default_rng(17)
        p = _params(seed=17)
        t_mat = rng.uniform(0, 4, size=(3, 3))
        u = rng.uniform(0, 1, size=4)
        h = rng.uniform(0, 1, size=4)
        c = rng.normal(size=4)

        def loss(store):
            tt, _ = transform_temporal(t_mat, p)
            out, _ = update_user(u, h, tt, p)
            return float(c @ out)

        p.store.zero_grads()
        tt, t_cache = transform_temporal(t_mat, p)
        _, u_cache = update_user(u, h, tt, p)
        _, _, d_tt = update_user_grads(p, u_cache, c)
        transform_temporal_grads(p, t_cache, d_tt)
        report = finite_diff_check(loss, p.store, eps=1e-6, tol=1e-4)
        assert report.passed, report.failures()[:3]


# p0 and p1 share category 0; p2 is unrelated
_TOY_POIS = [(0, 0, 0), (1, 0, 1), (2, 1, 2)]


def _toy_rep(n=4, seed=1):
    return SpatialKgRep.from_catalog(_TOY_POIS, n, np.random.default_rng(seed))


class TestUpdateSpatial:
    def test_zero_relation_gives_translation_identity(self):
        p = _params()
        rep = _toy_rep()
        rep.rels[...] = 0.0
        upd = update_spatial(rep, 0, np.full(4, 0.5), np.full(4, 0.5), p)
        assert upd.sibling_caches  # p1 shares category 0
        for _, row, cache in upd.sibling_caches:
            np.testing.assert_array_equal(cache["target"], rep.tails[row])

    def test_tail_blend_alpha_zero_endpoint(self):
        p = _params()
        rng = np.random.default_rng(4)
        t = rng.uniform(0, 1, size=4)
        h_new = rng.uniform(0, 1, size=4)
        rel = rng.normal(size=4)
        p.store.get("tail/gate_b")[...] = -1000.0  # the gate is exactly 0.0
        out, _ = legacy._blend("tail", t, h_new + rel, p, squash=False)
        np.testing.assert_array_equal(out, h_new + rel)

    def test_one_sibling_hand_case(self):
        p = _params(n=2, m=2, ones=True)
        rep = SpatialKgRep.from_catalog([(0, 0, 0), (1, 0, 0)], 2, np.random.default_rng(5))
        rep.heads[:] = [[0.5, 0.5], [1.0, 1.0]]
        rep.tails[:] = [[0.2, 0.4], [0.6, 0.1]]  # category 0, zone 0
        rep.rels[:] = [[0.1, -0.1], [0.0, 0.3]]  # belong_to, locate_at
        u = np.array([0.3, 0.9])
        tt = np.array([0.7, 0.2])
        expect = copy.deepcopy(rep)
        update_spatial(rep, 0, u, tt, p)

        # independent arithmetic: visited head, then tails, then sibling
        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        q = float(u @ tt)
        a_p = _sig(float(np.ones(2) @ expect.heads[0]) + 1.0)
        h0 = sig(a_p * expect.heads[0] + (1 - a_p) * np.ones(2) * q)
        np.testing.assert_allclose(rep.heads[0], h0, atol=1e-12)
        sib = expect.heads[1]
        for row, rel in expect.poi_links[0]:
            t_old = expect.tails[row]
            a_t = _sig(float(np.ones(2) @ t_old) + 1.0)
            t_new = a_t * t_old + (1 - a_t) * (h0 + expect.rels[rel])
            np.testing.assert_allclose(rep.tails[row], t_new, atol=1e-12)
            a_h = _sig(float(np.ones(2) @ sib) + 1.0)
            sib = sig(a_h * sib + (1 - a_h) * (t_new - expect.rels[rel]))
        np.testing.assert_allclose(rep.heads[1], sib, atol=1e-12)

    def test_relations_never_move(self):
        p = _params()
        rep = _toy_rep()
        rng = np.random.default_rng(6)
        rels = rep.rels
        rel_vals = rels.copy()
        for step in range(20):
            update_spatial(rep, int(rng.integers(3)),
                           rng.uniform(0, 1, size=4), rng.uniform(0, 1, size=4), p)
        assert rep.rels is rels and rep.store.get("rels") is rels
        np.testing.assert_array_equal(rep.rels, rel_vals)

    def test_untouched_vectors_bit_identical(self):
        p = _params()
        rep = _toy_rep()
        rng = np.random.default_rng(7)
        before_heads = rep.heads.copy()
        before_tails = rep.tails.copy()
        update_spatial(rep, 0, rng.uniform(0, 1, size=4),
                       rng.uniform(0, 1, size=4), p)
        written_tails = {row for row, _ in rep.poi_links[0]}
        written_heads = {0} | {sib for row in written_tails for sib in rep.members[row]}
        assert written_tails == {0, 2}  # category 0, zone 0
        assert written_heads == {0, 1}  # p1 shares category 0
        for row, v in enumerate(before_heads):
            assert np.array_equal(rep.heads[row], v) == (row not in written_heads)
        for row, v in enumerate(before_tails):
            assert np.array_equal(rep.tails[row], v) == (row not in written_tails)

    def test_unknown_poi(self):
        p = _params()
        rep = _toy_rep()
        with pytest.raises(UnknownObjectError):
            update_spatial(rep, 99, np.zeros(4), np.zeros(4), p)

    def test_gradient_check_full_chain(self):
        rng = np.random.default_rng(8)
        p = _params(seed=8)
        rep = _toy_rep(seed=9)
        t_mat = rng.uniform(0, 4, size=(3, 3))
        u = rng.uniform(0, 1, size=4)
        c_h = rng.normal(size=rep.heads.shape)
        c_t = rng.normal(size=rep.tails.shape)

        def loss(store):
            r2 = copy.deepcopy(rep)
            tt, _ = transform_temporal(t_mat, p)
            update_spatial(r2, 0, u, tt, p)
            return float(np.sum(c_h * r2.heads) + np.sum(c_t * r2.tails))

        p.store.zero_grads()
        r3 = copy.deepcopy(rep)
        tt, t_cache = transform_temporal(t_mat, p)
        upd = update_spatial(r3, 0, u, tt, p)
        _, d_tt = update_spatial_grads(p, upd, c_h, c_t)
        transform_temporal_grads(p, t_cache, d_tt)
        report = finite_diff_check(loss, p.store, eps=1e-6, tol=1e-4)
        assert report.passed, report.failures()[:3]


class TestLegacyState:
    def test_single_poi_concat(self):
        rep = SpatialKgRep.from_catalog([(0, 0, 0)], 3, np.random.default_rng(1))
        u = np.array([0.1, 0.2, 0.3])
        s = legacy_state(u, rep)
        assert s.shape == (12,)
        np.testing.assert_array_equal(s[:3], u)
        np.testing.assert_array_equal(s[3:6], rep.heads[0])
        np.testing.assert_allclose(s[6:9], (rep.rels[0] + rep.rels[1]) / 2)

    def test_two_heads_mean(self):
        rep = SpatialKgRep.from_catalog([(0, 0, 0), (1, 0, 0)], 2, np.random.default_rng(2))
        rep.heads[0] = np.array([1.0, 1.0])
        rep.heads[1] = np.array([3.0, 3.0])
        s = legacy_state(np.zeros(2), rep)
        np.testing.assert_array_equal(s[2:4], [2.0, 2.0])

    def test_matches_bruteforce(self):
        # the old sorted-dict formula, on the old layout drawn alike
        rng = np.random.default_rng(3)
        rep = _toy_rep(n=3, seed=3)
        o_rep = legacy_oracle.SpatialKgRep.from_catalog(_TOY_POIS, 3, np.random.default_rng(3))
        u = rng.uniform(0, 1, size=3)
        assert np.array_equal(legacy_state(u, rep), legacy_oracle.legacy_state(u, o_rep))


class TestTrafficBins:
    def test_inner_and_cross_flows(self):
        bins = TrafficBins(2, bin_seconds=3600.0)
        bins.record(None, 0, 0.0)
        bins.record(0, 0, 100.0)   # inner in zone 0
        bins.record(0, 1, 200.0)   # out of 0, into 1
        m = bins.matrix()
        assert m[0, 0] == 1.0 and m[0, 2] == 1.0 and m[1, 1] == 1.0

    def test_bin_rollover_resets(self):
        bins = TrafficBins(1, bin_seconds=10.0)
        bins.record(0, 0, 1.0)
        bins.record(0, 0, 11.0)  # new bin
        assert bins.matrix()[0, 0] == 1.0


def _oracle_case(seed, n=5, m=3):
    """Random params with every gate bias moved off zero, and a seeded rng."""
    rng = np.random.default_rng(seed)
    p = LegacyParams(n, m, rng)
    for prefix in ("user", "poi", "tail", "sibling"):
        p.store.get(f"{prefix}/gate_b")[...] = rng.normal()
    return rng, p


def _assert_same_rep(rep, o_rep, tail_keys):
    """Every matrix row is bit-equal to the oracle's vector of the same key."""
    assert rep.heads.shape[0] == len(o_rep.heads) and rep.tails.shape[0] == len(tail_keys)
    for p, vec in o_rep.heads.items():
        assert np.array_equal(rep.heads[p], vec)
    for row, name in enumerate(legacy.REL_NAMES):
        assert np.array_equal(rep.rels[row], o_rep.rels[name])
    for row, key in enumerate(tail_keys):
        assert np.array_equal(rep.tails[row], o_rep.tails[key])


def _assert_same_param_grads(a, b):
    for name in a.store.names():
        assert np.array_equal(a.store.grad(name), b.store.grad(name)), name


class TestMatchesOracle:
    """Every rule, forward and backward, equals the pre-blend code exactly."""

    @pytest.mark.parametrize("seed", range(5))
    def test_each_rule(self, seed):
        rng, p = _oracle_case(seed)
        q = copy.deepcopy(p)
        x, y, tt, rel, d_out = (rng.normal(size=5) for _ in range(5))
        rules = [
            (lambda ps: update_user(x, y, tt, ps), update_user_grads,
             lambda ps: legacy_oracle.update_user(x, y, tt, ps), legacy_oracle.update_user_grads),
            (lambda ps: legacy._interact("poi", x, y, tt, ps), legacy._interact_grads,
             lambda ps: legacy_oracle._update_head(x, y, tt, ps), legacy_oracle._update_head_grads),
            (lambda ps: legacy._blend("tail", x, y + rel, ps, squash=False), legacy._blend_grads,
             lambda ps: legacy_oracle.blend_tail(x, y, rel, ps), legacy_oracle.blend_tail_grads),
            (lambda ps: legacy._blend("sibling", x, y - rel, ps), legacy._blend_grads,
             lambda ps: legacy_oracle.blend_sibling(x, y, rel, ps), legacy_oracle.blend_sibling_grads),
        ]
        for fwd, bwd, o_fwd, o_bwd in rules:
            out, cache = fwd(p)
            o_out, o_cache = o_fwd(q)
            assert np.array_equal(out, o_out)
            got, want = bwd(p, cache, d_out), o_bwd(q, o_cache, d_out)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            _assert_same_param_grads(p, q)

    @pytest.mark.parametrize("seed", range(5))
    def test_spatial_chain(self, seed):
        rng, p = _oracle_case(seed)
        q = copy.deepcopy(p)
        # two categories over three zones: tails with several members each
        catalog = [(i, i % 2, i % 3) for i in range(7)]
        o_rep = legacy_oracle.SpatialKgRep.from_catalog(catalog, 5, copy.deepcopy(rng))
        rep = SpatialKgRep.from_catalog(catalog, 5, rng)
        tail_keys = sorted(o_rep.tails)  # the oracle's key of each tail row
        _assert_same_rep(rep, o_rep, tail_keys)
        u, tt = rng.uniform(0, 1, size=5), rng.uniform(0, 1, size=5)
        poi = int(rng.integers(7))
        upd = update_spatial(rep, poi, u, tt, p)
        o_upd = legacy_oracle.update_spatial(o_rep, poi, u, tt, q)
        _assert_same_rep(rep, o_rep, tail_keys)
        assert np.array_equal(legacy_state(u, rep), legacy_oracle.legacy_state(u, o_rep))
        assert [(sib, tail_keys[row]) for sibs, row, _ in upd.sibling_caches for sib in sibs] == \
            [(sib, key) for sib, key, _ in o_upd.sibling_caches]
        assert [tail_keys[row] for row, _ in upd.tail_caches] == o_upd.touched_tails
        # every row seeded, rows the update left alone too; a zero seed on
        # one sibling exercises the skip branch
        d_heads = rng.normal(size=rep.heads.shape)
        d_heads[o_upd.touched_heads[-1]] = 0.0
        d_tails = rng.normal(size=rep.tails.shape)
        assert set(o_upd.touched_heads) != set(range(len(d_heads)))
        assert set(o_upd.touched_tails) != set(tail_keys)
        got = update_spatial_grads(p, upd, d_heads, d_tails)
        want = legacy_oracle.update_spatial_grads(
            q, o_upd, dict(enumerate(d_heads)), dict(zip(tail_keys, d_tails)))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        _assert_same_param_grads(p, q)


class TestBatchedBlend:
    """A blend over m rows equals m one-row blends, with the gate gradients
    added in the order the backward visits the rows: last row first."""

    @pytest.mark.parametrize("n", [2, 5, 50])
    @pytest.mark.parametrize("m", [1, 2, 9, 60])
    @pytest.mark.parametrize("prefix, squash", [("sibling", True), ("tail", False)])
    def test_rows_match_one_row_calls(self, n, m, prefix, squash):
        rng, p = _oracle_case(n + m, n=n)
        for name in p.store.names():  # the batch adds onto gradients already held
            p.store.grad(name)[...] = rng.normal(size=p.store.grad(name).shape)
        q = copy.deepcopy(p)
        x, d_out = rng.normal(size=(m, n)), rng.normal(size=(m, n))
        target = rng.normal(size=n)
        out, cache = legacy._blend(prefix, x, target, p, squash=squash)
        d_x, d_target = legacy._blend_grads(p, cache, d_out)
        rows = [legacy._blend(prefix, x[i], target, q, squash=squash) for i in range(m)]
        grads = {i: legacy._blend_grads(q, rows[i][1], d_out[i]) for i in reversed(range(m))}
        assert np.array_equal(out, np.array([o for o, _ in rows]))
        assert np.array_equal(d_x, np.array([grads[i][0] for i in range(m)]))
        assert np.array_equal(d_target, np.array([grads[i][1] for i in range(m)]))
        _assert_same_param_grads(p, q)
