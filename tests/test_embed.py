import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geostream import embed, kgstore
from geostream.embed import Embedder, EmbeddingTable, TrainBatch
from geostream.errors import ConfigError, ConsistencyError, IngestionError
from geostream.kgstore import EntityKind, RelType, Triple, build_static, poi, user
from geostream.numkit import load_matrices, save_matrices

import gradcheck
import probes
from gradcheck import finite_diff_check
import embed_oracle
from embed_oracle import OracleEmbedder, OracleTable
from kg_oracle import induced_adjacency


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
        z = probes.row(emb, key)
        cx = emb._forward([kgstore.rpoi(0)])[1]["cx"][0]
        expected = np.maximum(z @ emb.enc.gcn_weight(0), 0.0)
        np.testing.assert_allclose(cx, expected, atol=1e-12)

    def test_symmetric_nodes_uniform_attention(self):
        kg = build_static([(0, 0, 0)])
        emb = Embedder(kg, d=4, layers=1, rng=np.random.default_rng(2))
        # zone 0's only neighbor is poi 0; give both the same raw vector
        probes.set_row(emb, kgstore.ent_key(kgstore.zone(0)), np.array([0.3, -1.0, 0.5, 2.0]))
        probes.set_row(emb, kgstore.ent_key(poi(0)), np.array([0.3, -1.0, 0.5, 2.0]))
        _, cache = emb._forward([kgstore.zone(0)])
        np.testing.assert_allclose(cache["alpha"], [0.5, 0.5], atol=1e-12)

    def test_three_node_star_matches_oracle(self):
        kg = build_static([(0, 0, 0)])
        rng = np.random.default_rng(3)
        emb = Embedder(kg, d=6, layers=1, rng=rng)
        obj = poi(0)
        nodes = probes.context(kg, obj)
        assert len(nodes) == 3  # poi + category + zone star
        z0 = np.stack([probes.row(emb, k) for k in nodes])
        expected = oracle_context_vector(
            z0, induced_adjacency(kg.triples(), nodes), [emb.enc.gcn_weight(0)],
            emb.enc.att_scale, probes.row(emb, nodes[0]),
        )
        cx = emb._forward([obj])[1]["cx"][0]
        np.testing.assert_allclose(cx, expected, atol=1e-12)

    def test_two_layer_matches_oracle(self):
        kg = build_static([(0, 0, 0), (1, 0, 1)])
        kg.apply_visit(4, 0, 1.0)
        rng = np.random.default_rng(5)
        emb = Embedder(kg, d=5, layers=2, rng=rng)
        for obj in (poi(0), user(4), kgstore.category(0)):
            nodes = probes.context(kg, obj)
            z0 = np.stack([probes.row(emb, k) for k in nodes])
            expected = oracle_context_vector(
                z0, induced_adjacency(kg.triples(), nodes),
                [emb.enc.gcn_weight(0), emb.enc.gcn_weight(1)],
                emb.enc.att_scale, probes.row(emb, nodes[0]),
            )
            cx = emb._forward([obj])[1]["cx"][0]
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
        emb_b = Embedder(kg_b, d=5, layers=2, enc=emb_a.enc)
        inv = {v: k for k, v in perm.items()}
        for key in kg_b.object_keys():
            kind, idx = key
            src = (kind, inv[idx]) if kind in (EntityKind.POI, EntityKind.RPOI) else key
            probes.set_row(emb_b, key, probes.row(emb_a, src))
        for p in (0, 1, 2):
            cx_a = emb_a._forward([poi(p)])[1]["cx"][0]
            cx_b = emb_b._forward([poi(perm[p])])[1]["cx"][0]
            np.testing.assert_allclose(cx_a, cx_b, atol=1e-10)


class TestObjectIndex:
    def test_construction_indexes_sorted_object_keys(self, toy_kg):
        emb = Embedder(toy_kg, d=3, rng=np.random.default_rng(11))
        assert toy_kg.keys == sorted(toy_kg.object_keys())
        assert emb.table.vecs.shape == (len(toy_kg.keys), 3)

    def test_delta_objects_come_next_sorted(self):
        kg = build_static([(0, 0, 0), (1, 0, 1)], window=2)
        emb = Embedder(kg, d=3, rng=np.random.default_rng(12))
        before = list(kg.keys)
        delta = kg.apply_visit(7, 1, 1.0)
        emb.incremental_update(delta, steps=0)
        new = sorted(set(delta.affected) - set(before))
        assert new == [kgstore.ent_key(user(7)), kgstore.rel_key(RelType.VISIT)]
        assert kg.keys == before + new
        assert len(emb.table.vecs) == len(kg.keys)
        delta = kg.apply_visit(7, 0, 2.0)  # adds the cascade relation kind only
        emb.incremental_update(delta, steps=0)
        assert kg.keys == before + new + [kgstore.rel_key(RelType.ALSO_VISIT)]


class TestJointOf:
    def test_random_gate_matches_oracle(self):
        # the gated blend at gate values away from 0 and saturation
        kg = build_static([(0, 0, 0), (1, 0, 1)])
        kg.apply_visit(4, 0, 1.0)
        emb = Embedder(kg, d=5, layers=2, rng=np.random.default_rng(21))
        emb.enc.gate[...] = np.random.default_rng(22).normal(size=5) * 3
        for obj in (poi(0), user(4), kgstore.category(0)):
            nodes = probes.context(kg, obj)
            z0 = np.stack([probes.row(emb, k) for k in nodes])
            expected = oracle_joint(
                z0, induced_adjacency(kg.triples(), nodes),
                [emb.enc.gcn_weight(0), emb.enc.gcn_weight(1)],
                emb.enc.att_scale, emb.enc.gate, probes.row(emb, nodes[0]),
            )
            np.testing.assert_allclose(emb._forward([obj])[0][0], expected, atol=1e-12)


def _residual(emb, triple):
    """L1 translation residual of a triple's joint embeddings."""
    keys = (triple.head, kgstore.rel_key(triple.rel), triple.tail)
    h, r, t = emb._forward(keys)[0]
    return float(np.abs(h + r - t).sum())


def _flat_embedder(values, d=1):
    """Embedder whose encoder outputs zero context: joints are 0.5 * raw."""
    kg = build_static([(0, 0, 0), (1, 1, 1)])
    emb = Embedder(kg, d=d, layers=1, rng=np.random.default_rng(0))
    emb.enc.gcn_weight(0)[...] = 0.0
    emb.enc.gate[...] = 0.0
    for key, v in values.items():
        probes.set_row(emb, key, np.full(d, v))
    return kg, emb


class TestMarginLoss:
    def test_inactive_hinge(self):
        # f(pos)=0.2, f(neg)=1.5, margin 1 -> contribution 0
        kg, emb = _flat_embedder({
            kgstore.ent_key(poi(0)): 0.4,
            kgstore.ent_key(kgstore.category(0)): 0.0,
            kgstore.ent_key(kgstore.category(1)): -2.6,
        })
        probes.set_row(emb, kgstore.rel_key(RelType.BELONG_TO), np.zeros(1))
        pos = Triple(poi(0), RelType.BELONG_TO, kgstore.category(0))
        neg = Triple(poi(0), RelType.BELONG_TO, kgstore.category(1))
        assert _residual(emb, pos) == pytest.approx(0.2)
        assert _residual(emb, neg) == pytest.approx(1.5)
        assert probes.margin_loss(emb, TrainBatch([(pos, neg)], margin=1.0)) == 0.0

    def test_equal_residuals_cost_margin(self):
        kg, emb = _flat_embedder({
            kgstore.ent_key(poi(0)): 0.4,
            kgstore.ent_key(kgstore.category(0)): 0.0,
            kgstore.ent_key(kgstore.category(1)): 0.8,
        })
        probes.set_row(emb, kgstore.rel_key(RelType.BELONG_TO), np.zeros(1))
        pos = Triple(poi(0), RelType.BELONG_TO, kgstore.category(0))
        neg = Triple(poi(0), RelType.BELONG_TO, kgstore.category(1))
        assert probes.margin_loss(emb, TrainBatch([(pos, neg)], margin=1.0)) == pytest.approx(1.0)

    def test_two_pair_batch_matches_oracle(self):
        kg = build_static([(0, 0, 0), (1, 0, 1), (2, 1, 1)])
        kg.apply_visit(3, 0, 1.0)
        rng = np.random.default_rng(31)
        emb = Embedder(kg, d=4, layers=2, rng=rng)

        def oracle_residual(triple):
            total = np.zeros(4)
            rel = kgstore.rel_key(triple.rel)
            for sgn, obj in ((1, triple.head), (1, rel), (-1, triple.tail)):
                nodes = probes.context(kg, obj)
                z0 = np.stack([probes.row(emb, k) for k in nodes])
                o = probes.row(emb, nodes[0])
                j = oracle_joint(
                    z0, induced_adjacency(kg.triples(), nodes),
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
        assert probes.margin_loss(emb, batch) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_and_zero_iff_separated(self):
        rng = np.random.default_rng(37)
        kg = build_static([(0, 0, 0), (1, 0, 1), (2, 1, 1)])
        emb = Embedder(kg, d=3, layers=1, rng=rng)
        triples = sorted(kg.triples(), key=kgstore._triple_sort_key)
        for _ in range(20):
            batch = emb.make_batch(triples, neg_per_pos=1)
            loss = probes.margin_loss(emb, batch)
            assert loss >= 0.0
            separated = all(
                _residual(emb, n) >= _residual(emb, p) + batch.margin
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
        store = gradcheck.build_check_store(emb, probes.table_keys(emb))
        analytic = gradcheck.fill_check_grads(store, emb, grads)
        report = finite_diff_check(
            lambda s: probes.margin_loss(emb, batch), store,
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
            losses[epochs] = probes.margin_loss(emb, fixed_batch)
        assert losses[10] <= losses[1]

    def test_zero_epochs_is_identity(self):
        kg = self._toy_kg(5)
        emb = Embedder(kg, d=4, layers=2, rng=np.random.default_rng(66))
        before = {k: probes.row(emb, k).copy() for k in probes.table_keys(emb)}
        state = emb.train_init(epochs=0, lr=0.01)
        for k, v in before.items():
            np.testing.assert_array_equal(probes.row(emb, k), v)
        np.testing.assert_array_equal(state, emb.pool_state())


class TestIncrementalUpdate:
    def test_empty_delta_changes_nothing(self, toy_kg):
        emb = Embedder(toy_kg, d=4, rng=np.random.default_rng(71))
        delta = kgstore.DeltaReport((), (), frozenset(), toy_kg.version)
        before = emb.table.vecs.copy()
        emb.incremental_update(delta, steps=3, lr=0.05)
        np.testing.assert_array_equal(emb.table.vecs, before)

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
        far_before = probes.row(emb, far_key).copy()
        delta = kg.apply_visit(42, 0, 1.0)
        emb.incremental_update(delta, steps=3, lr=0.05)
        user_key = kgstore.ent_key(user(42))
        assert user_key in kg.rows
        # initialized then trained: the row moved away from an untrained twin's
        twin_kg = build_static([(i, i, i) for i in range(4)], window=5)
        twin = Embedder(twin_kg, d=4, rng=np.random.default_rng(73))
        twin.incremental_update(twin_kg.apply_visit(42, 0, 1.0), steps=0, lr=0.05)
        assert not np.array_equal(probes.row(emb, user_key), probes.row(twin, user_key))
        np.testing.assert_array_equal(probes.row(emb, far_key), far_before)

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
            before = {k: probes.row(emb, k).copy() for k in probes.table_keys(emb)}
            delta = kg.apply_visit(u, p, t)
            emb.incremental_update(delta, steps=2, lr=0.05)
            for k, v in before.items():
                if k not in delta.affected:
                    np.testing.assert_array_equal(probes.row(emb, k), v)


class TestPoolState:
    def test_matches_bruteforce_mean(self, toy_kg):
        emb = Embedder(toy_kg, d=4, rng=np.random.default_rng(81))
        state = emb.pool_state()
        ents = [k for k in probes.table_keys(emb) if not kgstore.key_is_relation(k)]
        rels = [k for k in probes.table_keys(emb) if kgstore.key_is_relation(k)]
        ent_mean = np.mean([emb._forward([k])[0][0] for k in ents], axis=0)
        rel_mean = np.mean([emb._forward([k])[0][0] for k in rels], axis=0)
        np.testing.assert_allclose(state, np.concatenate([ent_mean, rel_mean]), atol=1e-12)

    def test_entity_half_mean_hand_case(self):
        kg = build_static([(0, 0, 0)])
        emb = Embedder(kg, d=2, rng=np.random.default_rng(82))
        emb.enc.gate[...] = 80.0  # saturate: joints equal raw vectors
        for k in probes.table_keys(emb):
            probes.set_row(emb, k, np.zeros(2))
        probes.set_row(emb, kgstore.ent_key(poi(0)), np.array([1.0, 1.0]))
        probes.set_row(emb, kgstore.ent_key(kgstore.rpoi(0)), np.array([3.0, 3.0]))
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


def _full_joint(emb):
    return emb._forward(emb.kg.keys)[0]


class TestIncrementalJoint:
    def _warm(self):
        kg = build_static([(i, i % 3, i % 4) for i in range(12)], window=2)
        emb = Embedder(kg, d=4, rng=np.random.default_rng(95))
        for t, (u, p) in enumerate([(0, 0), (1, 5), (0, 7), (2, 3), (1, 9)]):
            emb.incremental_update(kg.apply_visit(u, p, float(t)), steps=1, lr=0.05)
        emb.joint_all()
        return kg, emb

    @staticmethod
    def _forwarded(monkeypatch, emb):
        """``joint_all()``, and the key lists it passed to ``_forward``."""
        seen = []
        forward = emb._forward
        monkeypatch.setattr(emb, "_forward", lambda keys: seen.append(list(keys)) or forward(keys))
        return emb.joint_all(), seen

    def test_reencodes_only_the_affected_stars(self, monkeypatch):
        kg, emb = self._warm()
        delta = kg.apply_visit(0, 4, 10.0)  # evicts user 0's visit to p0
        assert delta.removed
        emb.incremental_update(delta, steps=1, lr=0.05)
        joint, seen = self._forwarded(monkeypatch, emb)
        assert emb.joint_all() is joint  # then a memo hit
        # the stars' objects, once each, in row order
        want = sorted({m for k in delta.affected for m in probes.context(kg, k)}, key=kg.rows.get)
        assert seen == [want]
        assert len(want) < len(emb.table.vecs)
        np.testing.assert_array_equal(joint, _full_joint(emb))

    def test_earlier_rows_keep_their_values(self):
        kg, emb = self._warm()
        before = emb.joint_all()
        kept = before.copy()
        row = emb.joint_cached(kgstore.ent_key(poi(4)))
        emb.incremental_update(kg.apply_visit(3, 4, 10.0), steps=1, lr=0.05)
        after = emb.joint_all()
        assert after.shape == (len(emb.table.vecs), 4) and len(emb.table.vecs) == len(before) + 1
        np.testing.assert_array_equal(before, kept)  # the table grew: patched into a copy
        assert not np.array_equal(row, after[kg.rows[kgstore.ent_key(poi(4))]])

    @pytest.mark.parametrize("outside", ["table_set", "unseen_visit", "feedback"])
    def test_unaccounted_moves_reencode_every_row(self, monkeypatch, outside):
        kg, emb = self._warm()
        key = kgstore.ent_key(kgstore.category(2))
        if outside == "table_set":
            probes.set_row(emb, key, probes.row(emb, key) + 1.0)
        elif outside == "unseen_visit":
            kg.apply_visit(2, 8, 20.0)
        else:
            emb.state_feedback(np.ones(8), [key], lr=0.1)
        emb.incremental_update(kg.apply_visit(1, 11, 30.0), steps=1, lr=0.05)
        joint, seen = self._forwarded(monkeypatch, emb)
        assert seen == [kg.keys]
        np.testing.assert_array_equal(joint, _full_joint(emb))


@pytest.mark.parametrize("layers,max_triples", [(1, 4), (2, None)])
def test_local_update_leaves_the_encoder_alone(monkeypatch, layers, max_triples):
    """Over a stream: each local step's raw-vector gradients equal the
    stacked oracle's full backward, bit for bit; the encoder's parameters
    and gradient buffers keep their values; the memo, patched in place,
    equals the oracle's forward of every row. Then a backward that takes
    the encoder's gradients matches the oracle's too."""
    # POIs 0-7 share category 0, a small hub
    kg = build_static([(i, 0 if i < 8 else 1 + i % 2, i % 4) for i in range(12)], window=2)
    emb = Embedder(kg, d=5, layers=layers, rng=np.random.default_rng(7))
    rng = np.random.default_rng(8)
    emb.enc.gate[...] = rng.normal(size=5)
    emb.enc.att_scale[...] = rng.normal(size=5)
    twin = copy.deepcopy(emb)
    oracle = embed_oracle.StackedOracle(twin)
    for name in emb.enc.store.names():  # a full backward would zero these
        emb.enc.store.grad(name)[...] = rng.normal(size=emb.enc.store.grad(name).shape)
    encoder = {name: (emb.enc.store.get(name).copy(), emb.enc.store.grad(name).copy())
               for name in emb.enc.store.names()}
    taken = []
    local = emb.margin_loss_and_grads

    def spy(batch, **kw):
        loss, grads = local(batch, **kw)
        taken.append(grads)
        return loss, grads

    monkeypatch.setattr(emb, "margin_loss_and_grads", spy)
    in_place = 0
    for t in range(40):
        u, p = int(rng.integers(6)), int(rng.integers(12))
        before = emb.joint_all()
        size = len(emb.table.vecs)
        delta = kg.apply_visit(u, p, float(t))
        emb.incremental_update(delta, steps=2, lr=0.05, max_triples=max_triples)
        want = oracle.incremental_update(
            twin.kg.apply_visit(u, p, float(t)), steps=2, lr=0.05, max_triples=max_triples)
        rows = [kg.rows[k] for k in delta.affected]
        assert len(taken) == len(want)
        for got, full in zip(taken, want):
            assert np.array_equal(got[rows], full[rows])
        taken.clear()
        assert np.array_equal(emb.table.vecs, twin.table.vecs)
        for name, (param, grad) in encoder.items():
            assert np.array_equal(emb.enc.store.get(name), param)
            assert np.array_equal(emb.enc.store.grad(name), grad)
        joint = emb.joint_all()
        in_place += joint is before
        assert (joint is before) == (len(emb.table.vecs) == size)
        assert np.array_equal(joint, oracle.forward(kg.keys)[0])
    assert in_place > 20
    # the encoder's own backward, as train_init and state_feedback take it
    batch = twin.make_batch(sorted(kg.triples(), key=kgstore._triple_sort_key))
    emb.enc.store.zero_grads()
    got = embed.Embedder.margin_loss_and_grads(emb, batch)
    want = oracle.margin_loss_and_grads(batch)
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
    for name in emb.enc.store.names():
        assert np.array_equal(emb.enc.store.grad(name), twin.enc.store.grad(name))


_STREAM_OP = st.one_of(
    st.tuples(st.just("visit"), st.integers(0, 4), st.integers(0, 5), st.integers(0, 2)),
    st.tuples(st.just("unseen"), st.integers(0, 4), st.integers(0, 5)),
    st.tuples(st.just("feedback"), st.integers(0, 2**16)),
    st.tuples(st.just("set"), st.integers(0, 2**16)),
    st.tuples(st.just("copy")),
)


@settings(max_examples=80, deadline=None)
@given(
    n_pois=st.integers(1, 6), window=st.integers(1, 3), layers=st.integers(1, 2),
    d=st.integers(2, 5), seed=st.integers(0, 2**16),
    steps=st.lists(st.lists(_STREAM_OP, min_size=1, max_size=3), max_size=12),
)
def test_patched_joint_equals_full_forward(n_pois, window, layers, d, seed, steps):
    """After every step of a random stream the memoized matrix equals a
    fresh forward of every row, bit for bit. A step is one to three of:
    a local update (evicting, or by a new user), encoder feedback, a raw
    write, a visit the embedder never sees, a deep copy."""
    kg = build_static([(i, i % 2, i % 3) for i in range(n_pois)], window=window)
    emb = Embedder(kg, d=d, layers=layers, rng=np.random.default_rng(seed))
    clock = 0.0
    for step in steps:
        for op, *args in step:
            if op == "visit":
                u, p, n_steps = args
                clock += 1.0
                emb.incremental_update(kg.apply_visit(u, p % n_pois, clock), steps=n_steps, lr=0.05)
            elif op == "unseen":
                u, p = args
                # the embedder has no row for an object it never saw arrive
                known = {kgstore.ent_key(user(u)), kgstore.rel_key(RelType.ALSO_VISIT)}
                if known <= kg.rows.keys():
                    clock += 1.0
                    kg.apply_visit(u, p % n_pois, clock)
            elif op == "feedback":
                rng = np.random.default_rng(args[0])
                keys = [k for k in probes.table_keys(emb) if rng.random() < 0.3]
                emb.state_feedback(rng.normal(size=2 * d), keys, lr=0.1)
            elif op == "set":
                rng = np.random.default_rng(args[0])
                keys = probes.table_keys(emb)
                probes.set_row(emb, keys[int(rng.integers(len(keys)))], rng.normal(size=d))
            else:
                emb = copy.deepcopy(emb)
                kg = emb.kg
        assert np.array_equal(emb.joint_all(), _full_joint(emb))


@st.composite
def _cases(draw):
    """(pois, window, visits, layers, d, seed): a skeleton, a visit stream
    long enough to evict, and the encoder's shape and random seed."""
    n_pois = draw(st.integers(1, 6))
    window = draw(st.integers(1, 3))
    visits = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, n_pois - 1)), max_size=25,
    ))
    pois = [(i, i % 2, i % 3) for i in range(n_pois)]
    return pois, window, visits, draw(st.integers(1, 3)), draw(st.integers(2, 8)), draw(st.integers(0, 2**16))


def _assert_close(a, b):
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(_cases())
def test_matches_per_object_oracle(case):
    """Loss, raw and encoder grads, pooled state and feedback updates equal
    the per-object dense-adjacency embedder's."""
    pois, window, visits, layers, d, seed = case
    kg = build_static(pois, window=window)
    emb = Embedder(kg, d=d, layers=layers, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    emb.enc.gate[...] = rng.normal(size=d) * 2.0
    emb.enc.att_scale[...] = rng.normal(size=d)
    for t, (u, p) in enumerate(visits):
        emb.incremental_update(kg.apply_visit(u, p, float(t)), steps=1, lr=0.05)
    table = OracleTable(d)
    for key in probes.table_keys(emb):
        table.set(key, probes.row(emb, key))
    oracle = OracleEmbedder(kg, table, copy.deepcopy(emb.enc))

    batch = emb.make_batch(sorted(kg.triples(), key=kgstore._triple_sort_key))
    loss, grads = emb.margin_loss_and_grads(batch)
    oracle_loss, oracle_grads = oracle.margin_loss_and_grads(batch)
    _assert_close(loss, oracle_loss)
    _assert_close(probes.margin_loss(emb, batch), oracle.margin_loss(batch))
    for key in probes.table_keys(emb):
        _assert_close(grads[kg.rows[key]], oracle_grads.get(key, np.zeros(d)))
    for name in emb.enc.store.names():
        _assert_close(emb.enc.store.grad(name), oracle.enc.store.grad(name))
    emb.enc.store.zero_grads()
    oracle.enc.store.zero_grads()
    _assert_close(emb.pool_state(), oracle.pool_state())

    d_state = rng.normal(size=2 * d)
    affected = [k for k in probes.table_keys(emb) if rng.random() < 0.5]
    emb.state_feedback(d_state, affected, lr=0.5)
    oracle.state_feedback(d_state, affected, lr=0.5)
    for key in probes.table_keys(emb):
        _assert_close(probes.row(emb, key), oracle.table.get(key))
    for name in emb.enc.store.names():
        _assert_close(emb.enc.store.get(name), oracle.enc.store.get(name))
    _assert_close(emb.pool_state(), oracle.pool_state())


def test_table_roundtrip(tmp_path, toy_kg):
    emb = Embedder(toy_kg, d=5, rng=np.random.default_rng(91))
    emb.table.step(np.ones_like(emb.table.vecs), [toy_kg.rows[kgstore.ent_key(poi(0))]], 0.1)
    path = tmp_path / "table.bin"
    emb.table.save(path, toy_kg.keys)
    loaded, keys = EmbeddingTable.load(path)
    assert loaded.d == 5
    assert keys == toy_kg.keys
    np.testing.assert_array_equal(loaded.vecs, emb.table.vecs)


class TestDamagedTable:
    def _saved(self, tmp_path, toy_kg, **mats):
        """Path of a table container with the given entries replaced (None drops one)."""
        emb = Embedder(toy_kg, d=3, rng=np.random.default_rng(93))
        path = tmp_path / "embeddings.bin"
        emb.table.save(path, toy_kg.keys)
        entries = load_matrices(path)
        entries.update(mats)
        save_matrices(path, {k: v for k, v in entries.items() if v is not None})
        return path

    def _rejects(self, path, match):
        with pytest.raises(IngestionError, match=match) as err:
            EmbeddingTable.load(path)
        assert str(path) in str(err.value)

    def test_bad_magic(self, tmp_path, toy_kg):
        path = self._saved(tmp_path, toy_kg)
        path.write_bytes(b"GSET" + path.read_bytes()[4:])
        self._rejects(path, "magic")

    def test_cut_short(self, tmp_path, toy_kg):
        path = self._saved(tmp_path, toy_kg)
        path.write_bytes(path.read_bytes()[:-8])
        self._rejects(path, "cut short")

    @pytest.mark.parametrize("entry", ["keys", "vecs"])
    def test_missing_entry(self, tmp_path, toy_kg, entry):
        self._rejects(self._saved(tmp_path, toy_kg, **{entry: None}), "want entries")

    def test_extra_entry(self, tmp_path, toy_kg):
        self._rejects(self._saved(tmp_path, toy_kg, meta=np.zeros(2)), "want entries")

    def test_non_integral_key(self, tmp_path, toy_kg):
        path = self._saved(tmp_path, toy_kg)
        keys = load_matrices(path)["keys"]
        keys[0, 1] = 0.5
        self._rejects(self._saved(tmp_path, toy_kg, keys=keys), "non-integral")

    def test_duplicate_key(self, tmp_path, toy_kg):
        path = self._saved(tmp_path, toy_kg)
        keys = load_matrices(path)["keys"]
        keys[1] = keys[0]
        self._rejects(self._saved(tmp_path, toy_kg, keys=keys), "duplicate")

    def test_row_counts_disagree(self, tmp_path, toy_kg):
        path = self._saved(tmp_path, toy_kg)
        vecs = load_matrices(path)["vecs"]
        self._rejects(self._saved(tmp_path, toy_kg, vecs=vecs[:-1]), "keys but")


def test_encoder_roundtrip(tmp_path):
    enc = embed.ContextEncoder(d=4, layers=2, rng=np.random.default_rng(92))
    path = tmp_path / "enc.bin"
    enc.store.save(path)
    loaded = embed.ContextEncoder(d=4, layers=2)
    loaded.store.load(path)
    for name in enc.store.names():
        np.testing.assert_array_equal(loaded.store.get(name), enc.store.get(name))
