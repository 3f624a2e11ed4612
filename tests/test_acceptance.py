"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import copy
import math
import time

import numpy as np

from geostream import candidates, kgstore, legacy, policy
from geostream.embed import Embedder
from geostream.harness import RunConfig, run_eval, run_training, split_stream
from geostream.kgstore import RelType, build_static
from geostream.metrics import avg_dist, prec_cat, rec_cat
from geostream.policy import PriorityReplayBuffer, QNet, Transition, priority_of
from geostream.reward import BaselineWindows, RewardWeights, compute_reward

import gradcheck
import probes
from gradcheck import finite_diff_check
from conftest import WORDVEC_PATH, make_cyclic_stream, make_drifting_stream
from test_candidates import _enumerate_paths
from test_metrics import _ev, oracle_weighted

GRAD_TOL = 1e-4


def _report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_gradient_integrity(toy_kg):
    started = time.perf_counter()
    failures = []

    # (a) embedding margin loss wrt GCN weights, attention, gate, raw vectors
    emb = Embedder(toy_kg, d=5, layers=2, rng=np.random.default_rng(41))
    triples = sorted(toy_kg.triples(), key=kgstore._triple_sort_key)
    batch = emb.make_batch(triples, neg_per_pos=1)
    _, grads = emb.margin_loss_and_grads(batch)
    store = gradcheck.build_check_store(emb, probes.table_keys(emb))
    analytic = gradcheck.fill_check_grads(store, emb, grads)
    rep = finite_diff_check(
        lambda s: probes.margin_loss(emb, batch), store, eps=1e-6, tol=GRAD_TOL,
        analytic=analytic,
    )
    if not rep.passed:
        failures.append(f"embed max_rel_err={rep.max_rel_err:.2e}")

    # (b) Bellman loss wrt every Q-network layer
    rng = np.random.default_rng(21)
    net = QNet(6, 4, hidden=8, rng=rng)
    qbatch = []
    for p in range(4):
        qbatch.append(Transition(
            state=rng.normal(size=6), action=rng.normal(size=4),
            reward=float(rng.random()), next_state=rng.normal(size=6),
            next_actions=rng.normal(size=(2, 4)),
            terminal=(p == 3),
        ))
    targets = np.array([t.reward + 0.9 * policy._max_next_q(net, t) for t in qbatch])

    def bellman(store):
        x = np.stack([np.concatenate([t.state, t.action]) for t in qbatch])
        out, _ = net.forward(x)
        return float(np.mean((out[:, 0] - targets) ** 2))

    x = np.stack([np.concatenate([t.state, t.action]) for t in qbatch])
    out, cache = net.forward(x)
    net.backward(cache, (2.0 / len(qbatch)) * (out[:, 0] - targets).reshape(-1, 1))
    rep = finite_diff_check(bellman, net.store, eps=1e-6, tol=GRAD_TOL)
    if not rep.passed:
        failures.append(f"qnet max_rel_err={rep.max_rel_err:.2e}")

    # (c) every legacy update rule, chained through the temporal transform
    lrng = np.random.default_rng(8)
    params = legacy.LegacyParams(n=4, m=3, rng=lrng)
    rep_kg = legacy.SpatialKgRep.from_catalog(
        [(0, 0, 0), (1, 0, 1), (2, 1, 2)], 4, np.random.default_rng(9)
    )
    t_mat = lrng.uniform(0, 4, size=(3, 3))
    u = lrng.uniform(0, 1, size=4)
    c_u = lrng.normal(size=4)
    c_h = lrng.normal(size=rep_kg.heads.shape)
    c_t = lrng.normal(size=rep_kg.tails.shape)

    def legacy_loss(store):
        r2 = copy.deepcopy(rep_kg)
        tt, _ = legacy.transform_temporal(t_mat, params)
        u2, _ = legacy.update_user(u, r2.heads[0], tt, params)
        legacy.update_spatial(r2, 0, u, tt, params)
        return float(c_u @ u2 + np.sum(c_h * r2.heads) + np.sum(c_t * r2.tails))

    params.store.zero_grads()
    r3 = copy.deepcopy(rep_kg)
    tt, t_cache = legacy.transform_temporal(t_mat, params)
    _, u_cache = legacy.update_user(u, r3.heads[0], tt, params)
    # the user rule reads the PRE-update head, a constant input here, so
    # its head gradient stays out of the spatial backward
    _, _, d_tt_user = legacy.update_user_grads(params, u_cache, c_u)
    upd = legacy.update_spatial(r3, 0, u, tt, params)
    _, d_tt = legacy.update_spatial_grads(params, upd, c_h, c_t)
    legacy.transform_temporal_grads(params, t_cache, d_tt + d_tt_user)
    rep = finite_diff_check(legacy_loss, params.store, eps=1e-6, tol=GRAD_TOL)
    if not rep.passed:
        failures.append(f"legacy max_rel_err={rep.max_rel_err:.2e}")

    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s")
    _report("01 gradient integrity", not failures,
            failures or f"all checks at tol {GRAD_TOL}, {elapsed:.1f}s")


def test_02_metric_oracle_equivalence():
    rng = np.random.default_rng(42)
    cats = list("abcde")
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 51))
        log = [_ev(str(rng.choice(cats)), str(rng.choice(cats))) for _ in range(n)]
        worst = max(worst, abs(prec_cat(log) - oracle_weighted(log, "prec")))
        worst = max(worst, abs(rec_cat(log) - oracle_weighted(log, "rec")))
    ok = worst <= 1e-12
    equator = avg_dist([_ev("a", "a", (0.0, 0.0), (0.0, 1.0))])
    anti = avg_dist([_ev("a", "a", (0.0, 0.0), (0.0, 180.0))])
    ok &= abs(equator - 6371.0 * math.pi / 180.0) / (6371.0 * math.pi / 180.0) < 1e-3
    ok &= abs(anti - math.pi * 6371.0) / (math.pi * 6371.0) < 1e-3
    _report("02 metric oracle equivalence", ok,
            f"max |impl-oracle| = {worst:.1e}; equator {equator:.2f} km, antipodal {anti:.0f} km")


def test_03_incremental_update_locality():
    rng = np.random.default_rng(33)
    kg = build_static([(i, i % 8, i % 6) for i in range(50)], window=4)
    emb = Embedder(kg, d=8, layers=2, rng=np.random.default_rng(34))
    clocks = {}
    violations = 0
    for _ in range(200):
        u = int(rng.integers(6))
        p = int(rng.integers(50))
        t = clocks.get(u, 0.0) + 1.0
        clocks[u] = t
        before = {k: probes.row(emb, k).copy() for k in probes.table_keys(emb)}
        delta = kg.apply_visit(u, p, t)
        emb.incremental_update(delta, steps=1, lr=0.05, max_triples=12)
        for k, v in before.items():
            if k not in delta.affected and not np.array_equal(probes.row(emb, k), v):
                violations += 1
    _report("03 incremental-update locality", violations == 0,
            f"{violations} vector changes outside affected+new over 200 deltas")


def test_04_exit_mechanism():
    n_pois = 10
    kg = build_static([(i, i % 3, i % 2) for i in range(n_pois)], window=5)
    static_count = 2 * n_pois
    bound = static_count + 2 * 5
    ok = True
    detail = ""
    for step in range(1000):
        kg.apply_visit(0, step % n_pois, float(step))
        visit_edges = sum(1 for t in kg.triples() if t.rel == RelType.VISIT)
        if visit_edges > 5 or len(kg.triples()) > bound:
            ok = False
            detail = f"step {step}: {visit_edges} visit edges, {len(kg.triples())} triples"
            break
    total = sum(kg.visit_counts.values())
    if total != 1000:
        ok = False
        detail = f"lifetime visits {total} != 1000"
    _report("04 exit mechanism", ok,
            detail or f"window<=5, triples<= {bound}, lifetime visits = {total}")


def test_05_candidate_soundness():
    rng = np.random.default_rng(55)
    checked = 0
    unsound = 0
    for round_ in range(10):
        kg = build_static(
            [(i, int(rng.integers(3)), int(rng.integers(3))) for i in range(8)],
            window=3,
        )
        clocks = {}
        for _ in range(60):
            u = int(rng.integers(4))
            p = int(rng.integers(8))
            t = clocks.get(u, 0.0) + 1.0
            clocks[u] = t
            kg.apply_visit(u, p, t)
        users = kg.entities(kgstore.EntityKind.USER)
        while checked < 10 * (round_ + 1):
            u = users[int(rng.integers(len(users)))]
            cand = candidates.generate_candidates(kg, u, k=2)
            for poi_id, tag in zip(cand.pois, cand.provenance):
                if tag == candidates.PAD_TAG:
                    continue
                if poi_id not in _enumerate_paths(kg, u, tag):
                    unsound += 1
            checked += 1
    _report("05 candidate soundness", unsound == 0,
            f"{unsound} unsound provenance tags over {checked} (user, scheme-set) draws")


def _smoke_config(seed, **overrides):
    base = dict(
        stream_length=601, split_fraction=0.999, d=16, k=2, w=2, b=50,
        gamma=0.1, epsilon_start=0.5, epsilon_end=0.05,
        init_epochs=3, incr_steps=1, max_incr_triples=10,
        lr_embed=0.01, lr_q=0.07, lr_feedback=0.0005,
        train_every=1, batch_size=20, buffer_capacity=48,
        qnet_hidden=64, seed=seed, wordvecs=WORDVEC_PATH,
        priority_mode="td", stochastic_replay=True,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_06a_learning_smoke_drpr():
    started = time.perf_counter()
    cfg = _smoke_config(seed=7)
    artifacts, log, _ = run_training(cfg, records=make_cyclic_stream(601))
    final = log.to_eval_log(artifacts.catalog, tail=100)
    prec = prec_cat(final)
    elapsed = time.perf_counter() - started
    ok = prec >= 0.8 and elapsed < 300.0
    _report("06a learning smoke (trained agent)", ok,
            f"final-100 Prec_Cat = {prec:.3f} (need >= 0.8), {elapsed:.0f}s")


def _chance_level_check(log, catalog, window):
    """Whether the last `window` logged events score as a user-blind guesser.

    A predictor that cannot see the real POI hits each predicted category
    at that category's share of real events, so its expected weighted
    category precision is a weighted mean of those shares: at most the
    largest share (the chance level), and equal to it when the shares are
    equal, as on the cyclic stream (1/3, whatever the number of
    candidates). Prec_Cat then behaves as a binomial hit rate over the n
    predictions that fall in a real category, with sampling error
    sigma = sqrt(p(1-p)/n) at p = chance; it must lie within 3 sigma of
    chance. The exact-match rate is the quantity that scales with
    1/|candidates| (1/6 here) and must stay <= 0.25.
    """
    events = log.events[-window:]
    scored = log.to_eval_log(catalog, tail=window)
    real_counts = {}
    for _, real in scored:
        real_counts[real.category] = real_counts.get(real.category, 0) + 1
    chance = max(real_counts.values()) / len(scored)
    n = sum(1 for pred, _ in scored if pred.category in real_counts)
    sigma = math.sqrt(chance * (1.0 - chance) / n) if n else 0.0
    prec = prec_cat(scored)
    hits = sum(1 for e in events if e.pred_idx == e.real_idx) / len(events)
    n_cand = len(set(e.pred_idx for e in events))
    ok = abs(prec - chance) <= 3.0 * sigma and hits <= 0.25
    detail = (
        f"last-{len(events)} Prec_Cat = {prec:.3f} (need within 3 sigma "
        f"of chance {chance:.3f}, sigma {sigma:.3f} over {n} predictions); "
        f"exact-match rate {hits:.3f} over {n_cand} distinct POIs predicted (need <= 0.25)"
    )
    return ok, detail


def test_06b_learning_smoke_random_baseline():
    cfg = _smoke_config(seed=7, epsilon_start=1.0, epsilon_end=1.0, train_every=0)
    artifacts, log, _ = run_training(cfg, records=make_cyclic_stream(601))
    # epsilon is 1 throughout and nothing trains, so every event is a
    # uniform draw and the last 500 (all past the prologue) are a fair window
    ok, detail = _chance_level_check(log, artifacts.catalog, window=500)
    final = prec_cat(log.to_eval_log(artifacts.catalog, tail=100))
    _report(
        "06b learning smoke (uniform-random baseline)", ok,
        f"{detail}; final-100 Prec_Cat = {final:.3f}",
    )


def test_07_ablation_ordering():
    records = make_drifting_stream(n_events=700, seed=99)

    def run_mode(mode, seed):
        cfg = RunConfig(
            stream_length=700, split_fraction=0.8, d=16, k=2, w=10, b=100,
            gamma=0.1, epsilon_start=0.5, epsilon_end=0.05,
            init_epochs=2, incr_steps=1, max_incr_triples=12,
            lr_embed=0.01, lr_q=0.05, lr_feedback=0.0005,
            train_every=2, batch_size=20, buffer_capacity=100,
            qnet_hidden=64, seed=seed, wordvecs=WORDVEC_PATH,
            priority_mode="td", stochastic_replay=True, agent_mode=mode,
        )
        artifacts, _, _ = run_training(cfg, records=list(records))
        _, test_events = split_stream(records[:700], 0.8)
        report, _ = run_eval(cfg, artifacts, test_events)
        return report["prec_cat"]

    beats_static = beats_nocand = 0
    rows = []
    for seed in (1, 2, 3):
        full = run_mode("drpr", seed)
        static = run_mode("drpr-static", seed)
        nocand = run_mode("drpr-nocand", seed)
        rows.append(f"seed {seed}: drpr={full:.3f} static={static:.3f} nocand={nocand:.3f}")
        beats_static += full >= static
        beats_nocand += full >= nocand
    ok = beats_static >= 2 and beats_nocand >= 2
    _report("07 ablation ordering", ok,
            f"drpr>=static on {beats_static}/3, drpr>=nocand on {beats_nocand}/3; " + "; ".join(rows))


def test_08_reward_properties():
    rng = np.random.default_rng(88)
    weights = RewardWeights(0.4, 0.35, 0.25)
    windows = BaselineWindows(100)
    in_range = True
    for _ in range(100_000):
        parts = (float(rng.uniform(0, 10)), float(rng.uniform(-1, 1)),
                 float(rng.integers(2)))
        r = compute_reward(parts, weights, windows)
        if not 0.0 < r < 1.0:
            in_range = False
            break
    monotone = True
    for _ in range(300):
        base = (float(rng.uniform(0, 5)), float(rng.uniform(-1, 1)),
                float(rng.integers(2)))
        for i in range(3):
            bumped = list(base)
            bumped[i] += float(rng.uniform(0.01, 1.0))
            r_lo = compute_reward(base, RewardWeights(0.4, 0.35, 0.25), BaselineWindows(10))
            r_hi = compute_reward(tuple(bumped), RewardWeights(0.4, 0.35, 0.25), BaselineWindows(10))
            if r_hi < r_lo:
                monotone = False
    centered = True
    for parts in [(0.0, 0.0, 0.0), (2.5, -0.5, 1.0), (9.9, 1.0, 0.0)]:
        w = BaselineWindows(5)
        w.append(parts)
        if compute_reward(parts, weights, w) != 0.5:
            centered = False
    ok = in_range and monotone and centered
    _report("08 reward properties", ok,
            f"range={in_range}, monotone={monotone}, centered-at-0.5={centered}")


def test_09_trace_determinism():
    cfg = _smoke_config(seed=19, stream_length=120)
    _, log_a, _ = run_training(cfg, records=make_cyclic_stream(120))
    _, log_b, _ = run_training(cfg, records=make_cyclic_stream(120))
    csv_a = log_a.to_trace_csv()
    csv_b = log_b.to_trace_csv()
    _report("09 trace determinism", csv_a == csv_b,
            f"{len(csv_a)} bytes, byte-identical={csv_a == csv_b}")


def test_10_priority_sampling():
    rng = np.random.default_rng(10)
    mismatches = 0
    checked = 0
    for bias, gamma in ((0.5, 0.9), (-1.25, 0.4)):
        net = QNet(4, 3, hidden=6, rng=rng)
        net.store.get("out/w")[...] = 0.0
        net.store.get("out/b")[...] = bias  # Q == bias for every input
        for i in range(10):
            r = float(rng.uniform(0, 1))
            terminal = i % 3 == 0
            t = Transition(
                state=rng.normal(size=4), action=rng.normal(size=3),
                reward=r, next_state=rng.normal(size=4),
                next_actions=rng.normal(size=(2, 3)), terminal=terminal,
            )
            if priority_of(t, "reward", net, gamma) != r:
                mismatches += 1
            expected_td = r + gamma * (0.0 if terminal else bias) - bias
            if priority_of(t, "td", net, gamma) != expected_td:
                mismatches += 1
            checked += 2

    buf = PriorityReplayBuffer(8, mode="reward")
    net = QNet(4, 3, hidden=6, rng=rng)
    equal = [
        Transition(state=rng.normal(size=4), action=rng.normal(size=3), reward=0.6,
                   terminal=True)
        for _ in range(5)
    ]
    for t in equal:
        buf.push(t, net, 0.9)
    order_ok = buf.sample_batch(3) == equal[:3]
    ok = mismatches == 0 and order_ok
    _report("10 priority sampling", ok,
            f"{checked} hand checks, {mismatches} mismatches; insertion-order ties={order_ok}")
