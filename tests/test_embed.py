import numpy as np
import pytest

from geostream import embed, kgstore
from geostream.embed import Embedder, EmbeddingTable, TrainBatch
from geostream.errors import ConfigError, ConsistencyError
from geostream.kgstore import EntityKind, RelType, Triple, build_static, poi, user
from geostream.numkit import finite_diff_check


def oracle_context_vector(z0, adj, weights, att_scale, o):
    """Straight-line reimplementation of the GCN + attention aggregation."""
    a_hat = adj + np.eye(len(adj))
    deg = a_hat.sum(axis=1)
    s = a_hat / np.sqrt(np.outer(deg, deg))
    z = z0
    for w in weights:
        z = np.maximum(s @ z @ w, 0.0)
    scores = np.array([float(att_scale @ (z[i] * o)) for i in range(len(z))])
    e = np.exp(scores - scores.max())
    alpha = e / e.sum()
    out = np.zeros_like(o)
    for i in range(len(z)):
        out = out + alpha[i] * z[i]
    return out


def oracle_joint(z0, adj, weights, att_scale, gamma, o):
    cx = oracle_context_vector(z0, adj, weights, att_scale, o)
    g = 1.0 / (1.0 + np.exp(-gamma))
    return g * o + (1.0 - g) * cx


class TestEncodeContext:
    def test_isolated_node_single_layer(self):
        kg = build_static([(0, 0, 0)])
        emb = Embedder(kg, d=4, layers=1, rng=np.random.default_rng(1))
        key = kgstore.ent_key(kgstore.rpoi(0))  # unconnected entity
        z = emb.table.get(key)
        cx = emb._joint_forward(emb._context(kgstore.rpoi(0)))[1]["cx"]
        expected = np.maximum(z @ emb.enc.gcn_weight(0), 0.0)
        np.testing.assert_allclose(cx, expected, atol=1e-12)

    def test_symmetric_nodes_uniform_attention(self):
        kg = build_static([(0, 0, 0)])
        emb = Embedder(kg, d=4, layers=1, rng=np.random.default_rng(2))
        # zone 0's only neighbor is poi 0; give both the same raw vector
        emb.table.set(kgstore.ent_key(kgstore.zone(0)), np.array([0.3, -1.0, 0.5, 2.0]))
        emb.table.set(kgstore.ent_key(poi(0)), np.array([0.3, -1.0, 0.5, 2.0]))
        _, cache = emb._joint_forward(emb._context(kgstore.zone(0)))
        np.testing.assert_allclose(cache["alpha"], [0.5, 0.5], atol=1e-12)

    def test_three_node_star_matches_oracle(self):
        kg = build_static([(0, 0, 0)])
        rng = np.random.default_rng(3)
        emb = Embedder(kg, d=6, layers=1, rng=rng)
        obj = poi(0)
        ctx = kg.context_of(obj)
        assert len(ctx) == 3  # poi + category + zone star
        z0 = np.stack([emb.table.get(k) for k in ctx.nodes])
        expected = oracle_context_vector(
            z0, ctx.adjacency, [emb.enc.gcn_weight(0)],
            emb.enc.att_scale, emb.table.get(ctx.nodes[0]),
        )
        cx = emb._joint_forward(emb._context(obj))[1]["cx"]
        np.testing.assert_allclose(cx, expected, atol=1e-12)

    def test_two_layer_matches_oracle(self):
        kg = build_static([(0, 0, 0), (1, 0, 1)])
        kg.apply_visit(4, 0, 1.0)
        rng = np.random.default_rng(5)
        emb = Embedder(kg, d=5, layers=2, rng=rng)
        for obj in (poi(0), user(4), kgstore.category(0)):
            ctx = kg.context_of(obj)
            z0 = np.stack([emb.table.get(k) for k in ctx.nodes])
            expected = oracle_context_vector(
                z0, ctx.adjacency,
                [emb.enc.gcn_weight(0), emb.enc.gcn_weight(1)],
                emb.enc.att_scale, emb.table.get(ctx.nodes[0]),
            )
            cx = emb._joint_forward(emb._context(obj))[1]["cx"]
            np.testing.assert_allclose(cx, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        kg = build_static([(0, 0, 0)])
        emb = Embedder(kg, d=4, layers=1)
        other = embed.ContextEncoder(d=6, layers=1)
        with pytest.raises(ConfigError):
            Embedder(kg, table=emb.table, enc=other)

    def test_permutation_invariance(self):
        pois_a = [(0, 0, 0), (1, 0, 1), (2, 1, 1)]
        perm = {0: 2, 1: 0, 2: 1}
        pois_b = sorted((perm[p], c, z) for p, c, z in pois_a)
        kg_a = build_static(pois_a)
        kg_b = build_static(pois_b)
        kg_a.apply_visit(9, 0, 1.0)
        kg_b.apply_visit(9, perm[0], 1.0)
        rng = np.random.default_rng(7)
        emb_a = Embedder(kg_a, d=5, layers=2, rng=rng)
        emb_b = Embedder(kg_b, table=EmbeddingTable(5), enc=emb_a.enc)
        inv = {v: k for k, v in perm.items()}
        for key in kg_b.object_keys():
            kind, idx = key
            src = (kind, inv[idx]) if kind in (EntityKind.POI, EntityKind.RPOI) else key
            emb_b.table.set(key, emb_a.table.get(src))
        for p in (0, 1, 2):
            cx_a = emb_a._joint_forward(emb_a._context(poi(p)))[1]["cx"]
            cx_b = emb_b._joint_forward(emb_b._context(poi(perm[p])))[1]["cx"]
            np.testing.assert_allclose(cx_a, cx_b, atol=1e-10)


class TestJointOf:
    def test_random_gate_matches_oracle(self):
        # the gated blend at gate values away from 0 and saturation
        kg = build_static([(0, 0, 0), (1, 0, 1)])
        kg.apply_visit(4, 0, 1.0)
        emb = Embedder(kg, d=5, layers=2, rng=np.random.default_rng(21))
        emb.enc.gate[...] = np.random.default_rng(22).normal(size=5) * 3
        for obj in (poi(0), user(4), kgstore.category(0)):
            ctx = kg.context_of(obj)
            z0 = np.stack([emb.table.get(k) for k in ctx.nodes])
            expected = oracle_joint(
                z0, ctx.adjacency,
                [emb.enc.gcn_weight(0), emb.enc.gcn_weight(1)],
                emb.enc.att_scale, emb.enc.gate, emb.table.get(ctx.nodes[0]),
            )
            np.testing.assert_allclose(emb.joint_of(obj), expected, atol=1e-12)


def _flat_embedder(values, d=1):
    """Embedder whose encoder outputs zero context: joints are 0.5 * raw."""
    kg = build_static([(0, 0, 0), (1, 1, 1)])
    emb = Embedder(kg, d=d, layers=1, rng=np.random.default_rng(0))
    emb.enc.gcn_weight(0)[...] = 0.0
    emb.enc.gate[...] = 0.0
    for key, v in values.items():
        emb.table.set(key, np.full(d, v))
    return kg, emb


class TestMarginLoss:
    def test_inactive_hinge(self):
        # f(pos)=0.2, f(neg)=1.5, margin 1 -> contribution 0
        kg, emb = _flat_embedder({
            kgstore.ent_key(poi(0)): 0.4,
            kgstore.ent_key(kgstore.rel_key(RelType.BELONG_TO) and kgstore.category(0)): 0.0,
            kgstore.ent_key(kgstore.category(1)): -2.6,
        })
        emb.table.set(kgstore.rel_key(RelType.BELONG_TO), np.zeros(1))
        pos = Triple(poi(0), RelType.BELONG_TO, kgstore.category(0))
        neg = Triple(poi(0), RelType.BELONG_TO, kgstore.category(1))
        assert emb.triple_residual(pos) == pytest.approx(0.2)
        assert emb.triple_residual(neg) == pytest.approx(1.5)
        assert emb.margin_loss(TrainBatch([(pos, neg)], margin=1.0)) == 0.0

    def test_equal_residuals_cost_margin(self):
        kg, emb = _flat_embedder({
            kgstore.ent_key(poi(0)): 0.4,
            kgstore.ent_key(kgstore.category(0)): 0.0,
            kgstore.ent_key(kgstore.category(1)): 0.8,
        })
        emb.table.set(kgstore.rel_key(RelType.BELONG_TO), np.zeros(1))
        pos = Triple(poi(0), RelType.BELONG_TO, kgstore.category(0))
        neg = Triple(poi(0), RelType.BELONG_TO, kgstore.category(1))
        assert emb.margin_loss(TrainBatch([(pos, neg)], margin=1.0)) == pytest.approx(1.0)

    def test_two_pair_batch_matches_oracle(self):
        kg = build_static([(0, 0, 0), (1, 0, 1), (2, 1, 1)])
        kg.apply_visit(3, 0, 1.0)
        rng = np.random.default_rng(31)
        emb = Embedder(kg, d=4, layers=2, rng=rng)

        def oracle_residual(triple):
            total = np.zeros(4)
            for sgn, obj in ((1, triple.head), (1, triple), (-1, triple.tail)):
                ctx = kg.context_of(obj)
                z0 = np.stack([emb.table.get(k) for k in ctx.nodes])
                o = emb.table.get(ctx.nodes[0])
                j = oracle_joint(
                    z0, ctx.adjacency,
                    [emb.enc.gcn_weight(0), emb.enc.gcn_weight(1)],
                    emb.enc.att_scale, emb.enc.gate, o,
                )
                total = total + sgn * j
            return float(np.abs(total).sum())

        pairs = [
            (Triple(poi(0), RelType.BELONG_TO, kgstore.category(0)),
             Triple(poi(1), RelType.BELONG_TO, kgstore.category(0))),
            (Triple(user(3), RelType.VISIT, poi(0), 1.0),
             Triple(user(3), RelType.VISIT, poi(2), 1.0)),
        ]
        batch = TrainBatch(pairs, margin=1.0)
        expected = sum(
            max(0.0, oracle_residual(p) + 1.0 - oracle_residual(n)) for p, n in pairs
        )
        assert emb.margin_loss(batch) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_and_zero_iff_separated(self):
        rng = np.random.default_rng(37)
        kg = build_static([(0, 0, 0), (1, 0, 1), (2, 1, 1)])
        emb = Embedder(kg, d=3, layers=1, rng=rng)
        triples = sorted(kg.triples(), key=kgstore._triple_sort_key)
        for _ in range(20):
            batch = emb.make_batch(triples, neg_per_pos=1)
            loss = emb.margin_loss(batch)
            assert loss >= 0.0
            separated = all(
                emb.triple_residual(n) >= emb.triple_residual(p) + batch.margin
                for p, n in batch.pairs
            )
            assert (loss == 0.0) == separated


class TestGradients:
    def test_margin_loss_gradients(self, toy_kg):
        rng = np.random.default_rng(41)
        emb = Embedder(toy_kg, d=5, layers=2, rng=rng)
        triples = sorted(toy_kg.triples(), key=kgstore._triple_sort_key)
        batch = emb.make_batch(triples, neg_per_pos=1)
        _, grads = emb.margin_loss_and_grads(batch)
        store = embed.build_check_store(emb, sorted(emb.table.keys()))
        analytic = embed.fill_check_grads(store, emb, grads)
        report = finite_diff_check(
            lambda s: emb.margin_loss(batch), store,
            eps=1e-6, tol=1e-4, analytic=analytic,
        )
        assert report.passed, report.failures()[:3]


class TestTrainInit:
    def _toy_kg(self, n=20):
        return build_static([(i, i % 4, i % 3) for i in range(n)], window=10)

    def test_loss_decreases_over_epochs(self):
        probe_rng = np.random.default_rng(1234)
        probe = Embedder(self._toy_kg(), d=8, layers=2, rng=probe_rng)
        triples = sorted(probe.kg.triples(), key=kgstore._triple_sort_key)
        fixed_batch = probe.make_batch(triples, neg_per_pos=1)

        losses = {}
        for epochs in (1, 10):
            emb = Embedder(self._toy_kg(), d=8, layers=2, rng=np.random.default_rng(55))
            emb.train_init(epochs=epochs, lr=0.01, neg_per_pos=1)
            losses[epochs] = emb.margin_loss(fixed_batch)
        assert losses[10] <= losses[1]

    def test_zero_epochs_is_identity(self):
        kg = self._toy_kg(5)
        emb = Embedder(kg, d=4, layers=2, rng=np.random.default_rng(66))
        before = {k: emb.table.get(k).copy() for k in emb.table.keys()}
        state = emb.train_init(epochs=0, lr=0.01)
        for k, v in before.items():
            np.testing.assert_array_equal(emb.table.get(k), v)
        np.testing.assert_array_equal(state, emb.pool_state())


class TestIncrementalUpdate:
    def test_empty_delta_changes_nothing(self, toy_kg):
        emb = Embedder(toy_kg, d=4, rng=np.random.default_rng(71))
        delta = kgstore.DeltaReport((), (), frozenset(), toy_kg.version)
        versions = {k: emb.table.version(k) for k in emb.table.keys()}
        emb.incremental_update(delta, steps=3, lr=0.05)
        assert versions == {k: emb.table.version(k) for k in emb.table.keys()}

    def test_stale_delta_rejected(self, toy_kg):
        emb = Embedder(toy_kg, d=4, rng=np.random.default_rng(72))
        delta = toy_kg.apply_visit(7, 2, 300.0)
        toy_kg.apply_visit(7, 0, 400.0)
        with pytest.raises(ConsistencyError):
            emb.incremental_update(delta, steps=1, lr=0.05)

    def test_new_user_far_poi_untouched(self):
        # chain of unrelated POIs: a visit to p0 must not move p3
        kg = build_static([(i, i, i) for i in range(4)], window=5)
        emb = Embedder(kg, d=4, rng=np.random.default_rng(73))
        far_key = kgstore.ent_key(poi(3))
        far_before = emb.table.get(far_key).copy()
        far_version = emb.table.version(far_key)
        delta = kg.apply_visit(42, 0, 1.0)
        emb.incremental_update(delta, steps=3, lr=0.05)
        user_key = kgstore.ent_key(user(42))
        assert user_key in emb.table
        assert emb.table.version(user_key) >= 1  # initialized then trained
        assert emb.table.version(far_key) == far_version
        np.testing.assert_array_equal(emb.table.get(far_key), far_before)

    def test_eviction_endpoints_are_retrained(self):
        kg = build_static([(0, 0, 0), (1, 1, 1)], window=1)
        emb = Embedder(kg, d=4, rng=np.random.default_rng(74))
        emb.incremental_update(kg.apply_visit(1, 0, 1.0), steps=1, lr=0.05)
        delta = kg.apply_visit(1, 1, 2.0)  # evicts the visit to p0
        assert any(t.rel == RelType.VISIT for t in delta.removed)
        assert kgstore.ent_key(poi(0)) in delta.affected
        emb.incremental_update(delta, steps=1, lr=0.05)

    def test_locality_over_random_stream(self):
        rng = np.random.default_rng(75)
        kg = build_static([(i, i % 5, i % 4) for i in range(12)], window=3)
        emb = Embedder(kg, d=4, rng=np.random.default_rng(76))
        clocks = {}
        for _ in range(60):
            u = int(rng.integers(3))
            p = int(rng.integers(12))
            t = clocks.get(u, 0.0) + 1.0
            clocks[u] = t
            before = {k: emb.table.version(k) for k in emb.table.keys()}
            delta = kg.apply_visit(u, p, t)
            emb.incremental_update(delta, steps=2, lr=0.05)
            for k, v in before.items():
                if k not in delta.affected:
                    assert emb.table.version(k) == v


class TestPoolState:
    def test_matches_bruteforce_mean(self, toy_kg):
        emb = Embedder(toy_kg, d=4, rng=np.random.default_rng(81))
        state = emb.pool_state()
        ents = [k for k in emb.table.keys() if not kgstore.key_is_relation(k)]
        rels = [k for k in emb.table.keys() if kgstore.key_is_relation(k)]
        ent_mean = np.mean([emb.joint_of(kgstore.EntityId(*k)) for k in ents], axis=0)
        rel_mean = np.mean([emb.joint_of(k) for k in rels], axis=0)
        np.testing.assert_allclose(state, np.concatenate([ent_mean, rel_mean]), atol=1e-12)

    def test_entity_half_mean_hand_case(self):
        kg = build_static([(0, 0, 0)])
        emb = Embedder(kg, d=2, rng=np.random.default_rng(82))
        emb.enc.gate[...] = 80.0  # saturate: joints equal raw vectors
        for k in emb.table.keys():
            emb.table.set(k, np.zeros(2))
        emb.table.set(kgstore.ent_key(poi(0)), np.array([1.0, 1.0]))
        emb.table.set(kgstore.ent_key(kgstore.rpoi(0)), np.array([3.0, 3.0]))
        state = emb.pool_state()
        n_ent = 4  # poi, rpoi, category, zone
        np.testing.assert_allclose(state[:2], [(1 + 3) / n_ent, (1 + 3) / n_ent])

    def test_state_dimension(self, toy_kg):
        emb = Embedder(toy_kg, d=6, rng=np.random.default_rng(83))
        assert emb.pool_state().shape == (12,)

    def test_cache_tracks_context_changes(self, toy_kg):
        emb = Embedder(toy_kg, d=4, rng=np.random.default_rng(84))
        s1 = emb.pool_state()
        delta = toy_kg.apply_visit(7, 2, 500.0)
        emb.incremental_update(delta, steps=1, lr=0.1)
        s2 = emb.pool_state()
        assert not np.allclose(s1, s2)
        # recomputing from scratch agrees with the cached path
        fresh = Embedder(toy_kg, table=emb.table, enc=emb.enc)
        np.testing.assert_allclose(s2, fresh.pool_state(), atol=1e-12)


def test_table_roundtrip(tmp_path, toy_kg):
    emb = Embedder(toy_kg, d=5, rng=np.random.default_rng(91))
    emb.table.apply_grad(kgstore.ent_key(poi(0)), np.ones(5), 0.1)
    path = tmp_path / "table.bin"
    emb.table.save(path)
    loaded = EmbeddingTable.load(path)
    assert loaded.d == 5
    assert loaded.keys() == emb.table.keys()
    for k in emb.table.keys():
        np.testing.assert_array_equal(loaded.get(k), emb.table.get(k))
        assert loaded.version(k) == emb.table.version(k)


def test_encoder_roundtrip(tmp_path):
    enc = embed.ContextEncoder(d=4, layers=2, rng=np.random.default_rng(92))
    path = tmp_path / "enc.bin"
    enc.save(path)
    loaded = embed.ContextEncoder.load(path)
    assert loaded.d == 4 and loaded.layers == 2
    for name in enc.store.names():
        np.testing.assert_array_equal(loaded.store.get(name), enc.store.get(name))
