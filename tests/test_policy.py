from dataclasses import replace

import numpy as np
import pytest

from geostream import kgstore, policy
from geostream.candidates import CandidateSet, expand_meta_path, generate_candidates
from geostream.errors import ActionSpaceError, ConfigError, IngestionError
from geostream.policy import (
    PriorityReplayBuffer,
    QNet,
    Transition,
    priority_of,
    select_action,
    train_step,
)

import policy_oracle
from gradcheck import finite_diff_check


def _cand(pois):
    return CandidateSet(tuple(pois), tuple("UV" for _ in pois))


def _table(rng, pois, d):
    return {p: rng.normal(size=d) for p in pois}


def _rows(table, pois):
    """Action vectors as a matrix whose rows follow ``pois``."""
    return np.stack([table[p] for p in pois])


def _transition(rng, net, poi, table, reward, terminal=False, next_pois=(0, 1)):
    return Transition(
        state=rng.normal(size=net.dim_state),
        action=table[poi],
        reward=reward,
        next_state=rng.normal(size=net.dim_state),
        next_actions=_rows(table, next_pois),
        terminal=terminal,
    )


class TestQValues:
    def test_single_candidate(self):
        rng = np.random.default_rng(1)
        net = QNet(4, 3, hidden=8, rng=rng)
        table = _table(rng, [7], 3)
        scores = policy._q(net, rng.normal(size=4), _rows(table, [7]))
        assert scores.shape == (1,)

    def test_duplicate_embeddings_share_weights(self):
        rng = np.random.default_rng(2)
        net = QNet(4, 3, hidden=8, rng=rng)
        vec = rng.normal(size=3)
        table = {1: vec, 2: vec.copy()}
        scores = policy._q(net, rng.normal(size=4), _rows(table, [1, 2]))
        assert scores[0] == scores[1]

    def test_zero_head_gives_constant_bias(self):
        rng = np.random.default_rng(3)
        net = QNet(4, 3, hidden=8, rng=rng)
        net.store.get("out/w")[...] = 0.0
        net.store.get("out/b")[...] = 1.25
        table = _table(rng, [1, 2, 3], 3)
        scores = policy._q(net, rng.normal(size=4), _rows(table, [1, 2, 3]))
        np.testing.assert_array_equal(scores, [1.25, 1.25, 1.25])

    def test_argmax_invariant_to_bias_shift(self):
        rng = np.random.default_rng(5)
        net = QNet(4, 3, hidden=8, rng=rng)
        table = _table(rng, list(range(6)), 3)
        s = rng.normal(size=4)
        base = np.argmax(policy._q(net, s, _rows(table, range(6))))
        net.store.get("out/b")[...] += 17.0
        shifted = np.argmax(policy._q(net, s, _rows(table, range(6))))
        assert base == shifted


class TestSelectAction:
    @pytest.mark.parametrize("epsilon", [0.0, 1.0])
    def test_empty_candidates(self, epsilon):
        rng = np.random.default_rng(4)
        net = QNet(4, 3, hidden=8, rng=rng)
        with pytest.raises(ActionSpaceError):
            select_action(net, rng.normal(size=4), np.zeros((0, 3)), epsilon, rng)

    def test_greedy_is_argmax(self):
        rng = np.random.default_rng(6)
        net = QNet(4, 3, hidden=8, rng=rng)
        table = _table(rng, [0, 1, 2], 3)
        s = rng.normal(size=4)
        scores = policy._q(net, s, _rows(table, [0, 1, 2]))
        pick = select_action(net, s, _rows(table, [0, 1, 2]), 0.0, rng)
        assert pick == int(np.argmax(scores))

    def test_greedy_is_pure_function(self):
        rng = np.random.default_rng(7)
        net = QNet(4, 3, hidden=8, rng=rng)
        table = _table(rng, [0, 1, 2], 3)
        s = rng.normal(size=4)
        picks = {
            select_action(net, s, _rows(table, [0, 1, 2]), 0.0, np.random.default_rng(i))
            for i in range(10)
        }
        assert len(picks) == 1

    def test_tie_breaks_to_first(self):
        rng = np.random.default_rng(8)
        net = QNet(4, 3, hidden=8, rng=rng)
        net.store.get("out/w")[...] = 0.0  # all scores equal the bias
        table = _table(rng, [5, 9], 3)
        pick = select_action(net, rng.normal(size=4), _rows(table, [5, 9]), 0.0, rng)
        assert pick == 0

    def test_vanilla_returns_the_row_not_the_column(self):
        rng = np.random.default_rng(11)
        net = QNet(4, mode=policy.VANILLA, n_actions=10, hidden=8, rng=rng)
        s = rng.normal(size=4)
        columns = np.array([5, 9, 2])
        head = net.forward(s)[0][0]
        pick = select_action(net, s, columns, 0.0, rng)
        assert type(pick) is int
        assert pick == int(np.argmax(head[columns]))  # a row of `columns`, not a head column

    def test_epsilon_one_is_uniform(self):
        rng = np.random.default_rng(9)
        net = QNet(2, 2, hidden=4, rng=rng)
        pois = list(range(8))
        table = _table(rng, pois, 2)
        s = rng.normal(size=2)
        vecs = _rows(table, pois)
        draws = np.zeros(8)
        n = 10_000
        for _ in range(n):
            draws[select_action(net, s, vecs, 1.0, rng)] += 1
        expected = n / 8
        chi2 = float(((draws - expected) ** 2 / expected).sum())
        # 7 dof: mean 7, sd sqrt(14); 3 sigma above is ~18.2
        assert chi2 < 18.3


class TestPriorities:
    def test_reward_mode_is_identity(self):
        rng = np.random.default_rng(10)
        net = QNet(4, 3, hidden=8, rng=rng)
        table = _table(rng, [0, 1], 3)
        t = _transition(rng, net, 0, table, reward=0.7)
        assert priority_of(t, "reward", net, 0.9) == 0.7

    def test_td_mode_formula(self):
        rng = np.random.default_rng(11)
        net = QNet(4, 3, hidden=8, rng=rng)
        table = _table(rng, [0, 1], 3)
        t = _transition(rng, net, 0, table, reward=1.0)
        q = float(net.forward(np.concatenate([t.state, t.action]))[0][0, 0])
        nxt = np.concatenate(
            [np.broadcast_to(t.next_state, (2, 4)), t.next_actions], axis=1
        )
        max_q = float(net.forward(nxt)[0][:, 0].max())
        assert priority_of(t, "td", net, 0.9) == pytest.approx(1.0 + 0.9 * max_q - q)

    def test_terminal_drops_max_term(self):
        rng = np.random.default_rng(12)
        net = QNet(4, 3, hidden=8, rng=rng)
        net.store.get("out/w")[...] = 0.0
        net.store.get("out/b")[...] = 0.5  # Q == 0.5 everywhere
        table = _table(rng, [0, 1], 3)
        t = _transition(rng, net, 0, table, reward=0.5, terminal=True)
        assert priority_of(t, "td", net, 0.9) == 0.0


class TestBuffer:
    def test_equal_priorities_keep_insertion_order(self):
        rng = np.random.default_rng(13)
        net = QNet(4, 3, hidden=8, rng=rng)
        table = _table(rng, [0, 1], 3)
        buf = PriorityReplayBuffer(10, mode="reward")
        ts = [_transition(rng, net, 0, table, reward=0.5) for _ in range(5)]
        for t in ts:
            buf.push(t, net, 0.9)
        batch = buf.sample_batch(3)
        assert batch == ts[:3]

    def test_topk_by_priority(self):
        rng = np.random.default_rng(14)
        net = QNet(4, 3, hidden=8, rng=rng)
        table = _table(rng, [0, 1], 3)
        buf = PriorityReplayBuffer(10, mode="reward")
        ts = [
            _transition(rng, net, 0, table, reward=r) for r in (1.0, 5.0, 2.0)
        ]
        for t in ts:
            buf.push(t, net, 0.9)
        batch = buf.sample_batch(2)
        assert batch == [ts[1], ts[2]]

    def test_k_at_least_size_returns_all(self):
        rng = np.random.default_rng(15)
        net = QNet(4, 3, hidden=8, rng=rng)
        table = _table(rng, [0, 1], 3)
        buf = PriorityReplayBuffer(10, mode="reward")
        ts = [_transition(rng, net, 0, table, reward=float(i)) for i in range(3)]
        for t in ts:
            buf.push(t, net, 0.9)
        assert buf.sample_batch(7) == ts

    def test_fifo_eviction(self):
        rng = np.random.default_rng(16)
        net = QNet(4, 3, hidden=8, rng=rng)
        table = _table(rng, [0, 1], 3)
        buf = PriorityReplayBuffer(2, mode="reward")
        ts = [_transition(rng, net, 0, table, reward=float(i)) for i in range(3)]
        for t in ts:
            buf.push(t, net, 0.9)
        assert list(buf._items) == ts[1:]

    def test_priorities_clamped_nonnegative(self):
        rng = np.random.default_rng(17)
        net = QNet(4, 3, hidden=8, rng=rng)
        net.store.get("out/w")[...] = 0.0
        net.store.get("out/b")[...] = 10.0  # Q=10 makes raw TD negative
        table = _table(rng, [0, 1], 3)
        buf = PriorityReplayBuffer(4, mode="td")
        t = _transition(rng, net, 0, table, reward=0.1, terminal=True)
        assert priority_of(t, "td", net, 0.9) < 0.0
        buf.push(t, net, 0.9)
        assert t.priority == 0.0

    def test_stochastic_mode_seeded(self):
        rng = np.random.default_rng(18)
        net = QNet(4, 3, hidden=8, rng=rng)
        table = _table(rng, [0, 1], 3)
        buf = PriorityReplayBuffer(10, mode="reward")
        for i in range(6):
            buf.push(_transition(rng, net, 0, table, reward=float(i)), net, 0.9)
        a = buf.sample_batch(3, rng=np.random.default_rng(42))
        b = buf.sample_batch(3, rng=np.random.default_rng(42))
        assert a == b
        # a generator samples; without one the batch is the top-k
        top = [t.seq for t in buf.sample_batch(3)]
        assert any([t.seq for t in buf.sample_batch(3, rng=np.random.default_rng(s))] != top
                   for s in range(10))


class TestTrainStep:
    def test_zero_error_keeps_parameters(self):
        rng = np.random.default_rng(19)
        net = QNet(4, 3, hidden=8, rng=rng)
        net.store.get("out/w")[...] = 0.0
        net.store.get("out/b")[...] = 1.0  # Q == 1 everywhere
        table = {0: rng.normal(size=3), 1: rng.normal(size=3)}
        # terminal with r=1 gives target y = 1 = Q: loss 0, no movement
        batch = [
            _transition(rng, net, 0, table, reward=1.0, terminal=True)
            for _ in range(3)
        ]
        before = {n: net.store.get(n).copy() for n in net.store.names()}
        loss = train_step(net, batch, 0.9, lr=0.1)
        assert loss == 0.0
        for n, v in before.items():
            np.testing.assert_array_equal(net.store.get(n), v)

    def test_single_sample_loss_value(self):
        rng = np.random.default_rng(20)
        net = QNet(4, 3, hidden=8, rng=rng)
        table = _table(rng, [0, 1], 3)
        t = _transition(rng, net, 0, table, reward=0.3)
        q = float(net.forward(np.concatenate([t.state, t.action]))[0][0, 0])
        nxt = np.concatenate([np.broadcast_to(t.next_state, (2, 4)), t.next_actions], axis=1)
        y = 0.3 + 0.9 * float(net.forward(nxt)[0][:, 0].max())
        loss = train_step(net, [t], 0.9, lr=0.0)
        assert loss == pytest.approx((y - q) ** 2)

    def test_gradient_check(self):
        rng = np.random.default_rng(21)
        net = QNet(5, 3, hidden=6, rng=rng)
        table = _table(rng, [0, 1, 2], 3)
        batch = [
            _transition(rng, net, p, table, reward=float(rng.random()), next_pois=(0, 2))
            for p in (0, 1, 2)
        ]
        targets = np.array(
            [t.reward + 0.9 * policy._max_next_q(net, t) for t in batch]
        )

        def loss_fn(store):
            x = np.stack([np.concatenate([t.state, t.action]) for t in batch])
            out, _ = net.forward(x)
            return float(np.mean((out[:, 0] - targets) ** 2))

        x = np.stack([np.concatenate([t.state, t.action]) for t in batch])
        out, cache = net.forward(x)
        d_out = (2.0 / len(batch)) * (out[:, 0] - targets).reshape(-1, 1)
        net.backward(cache, d_out)
        report = finite_diff_check(loss_fn, net.store, eps=1e-6, tol=1e-4)
        assert report.passed, report.failures()[:3]

    def test_encoder_feedback_receives_state_grads(self):
        rng = np.random.default_rng(22)
        net = QNet(4, 3, hidden=8, rng=rng)
        table = _table(rng, [0, 1], 3)
        batch = [_transition(rng, net, 0, table, reward=0.2) for _ in range(2)]
        seen = {}

        def hook(d_states):
            seen["shape"] = d_states.shape

        train_step(net, batch, 0.9, lr=0.01, encoder_feedback=hook)
        assert seen["shape"] == (4,)


class TestVanillaMode:
    def test_scores_and_training(self):
        rng = np.random.default_rng(23)
        net = QNet(6, mode=policy.VANILLA, n_actions=3, hidden=8, rng=rng)
        s = rng.normal(size=6)
        scores = policy._q(net, s, np.arange(3))
        assert scores.shape == (3,)
        t = Transition(
            state=s, action=1, reward=0.4,
            next_state=rng.normal(size=6), next_actions=np.array([0, 2]), terminal=False,
        )
        loss = train_step(net, [t], 0.9, lr=0.01)
        assert np.isfinite(loss)

    def test_both_modes_halve_bellman_loss(self):
        rng = np.random.default_rng(24)
        d_s, d_a, n_act = 6, 4, 5
        table = {p: rng.normal(size=d_a) for p in range(n_act)}
        fixed = []
        for _ in range(30):
            fixed.append(
                dict(
                    s=rng.normal(size=d_s),
                    a=int(rng.integers(n_act)),
                    r=float(rng.random()),
                    s2=rng.normal(size=d_s),
                )
            )
        nets = {
            "pairwise": QNet(d_s, d_a, hidden=16, rng=np.random.default_rng(25)),
            "vanilla": QNet(
                d_s, mode=policy.VANILLA, n_actions=n_act,
                hidden=16, rng=np.random.default_rng(26),
            ),
        }
        for name, net in nets.items():
            def mk(e):
                pairwise = name == "pairwise"
                return Transition(
                    state=e["s"], action=table[e["a"]] if pairwise else e["a"],
                    reward=e["r"], next_state=e["s2"],
                    next_actions=_rows(table, range(n_act)) if pairwise else np.arange(n_act),
                )
            first = last = None
            for step in range(500):
                batch = [mk(e) for e in fixed[step % 3 :: 3]]
                loss = train_step(net, batch, 0.5, lr=0.02)
                if first is None:
                    first = loss
                last = loss
            assert last <= 0.5 * first, f"{name}: {first} -> {last}"


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(27)
    path = tmp_path / "qnet.bin"
    for net in (
        QNet(5, 3, hidden=7, rng=rng),
        QNet(4, mode=policy.VANILLA, n_actions=2, hidden=6, rng=rng),
    ):
        net.store.save(path)
        loaded = QNet(net.dim_state, net.dim_action, net.hidden, net.mode, net.n_actions)
        loaded.store.load(path)
        for name in net.store.names():
            np.testing.assert_array_equal(loaded.store.get(name), net.store.get(name))
    # a net of another shape rejects the file
    with pytest.raises(IngestionError, match="qnet.bin: entry 'out/w'"):
        QNet(4, mode=policy.VANILLA, n_actions=3, hidden=6).store.load(path)


def test_frozen_target_network():
    rng = np.random.default_rng(30)
    net = QNet(4, 3, hidden=8, rng=rng)
    table = _table(rng, [0, 1], 3)
    frozen = net.clone()
    for name in net.store.names():
        np.testing.assert_array_equal(frozen.store.get(name), net.store.get(name))
    t = _transition(rng, net, 0, table, reward=0.3)
    # training moves the online net but never the frozen copy
    before = {n: frozen.store.get(n).copy() for n in frozen.store.names()}
    for _ in range(5):
        train_step(net, [t], 0.9, lr=0.05, target_net=frozen)
    for n, v in before.items():
        np.testing.assert_array_equal(frozen.store.get(n), v)
    # with the target frozen at Q==b the target stays constant across steps
    frozen.store.get("out/w")[...] = 0.0
    frozen.store.get("out/b")[...] = 2.0
    y = t.reward + 0.9 * 2.0
    q = float(net.forward(np.concatenate([t.state, t.action]))[0][0, 0])
    loss = train_step(net, [t], 0.9, lr=0.0, target_net=frozen)
    assert loss == pytest.approx((y - q) ** 2)


def _oracle_nets(seed, d_s=5, d_a=3, n_actions=6):
    """A pairwise and a vanilla net over the same POIs."""
    return {
        policy.PAIRWISE: QNet(d_s, d_a, hidden=7, rng=np.random.default_rng(seed)),
        policy.VANILLA: QNet(
            d_s, mode=policy.VANILLA, n_actions=n_actions, hidden=7,
            rng=np.random.default_rng(seed + 100),
        ),
    }


def _actions(mode, table, pois):
    """The POIs' Q-net inputs: action-vector rows, or the POIs as vanilla head columns."""
    if mode == policy.VANILLA:
        return tuple(pois)
    return _rows(table, pois) if pois else ()


def _oracle_transition(rng, mode, table, terminal=False, next_pois=(4, 0, 2)):
    poi = int(rng.integers(len(table)))
    return Transition(
        state=rng.normal(size=5),
        action=poi if mode == policy.VANILLA else table[poi],
        reward=float(rng.normal()),
        next_state=rng.normal(size=5),
        next_actions=_actions(mode, table, next_pois),
        terminal=terminal,
    )


class TestMatchesOracle:
    """Scores, TD priorities and Bellman steps equal the per-mode code exactly."""

    @pytest.mark.parametrize("mode", [policy.PAIRWISE, policy.VANILLA])
    @pytest.mark.parametrize("seed", range(3))
    def test_q_values(self, mode, seed):
        rng = np.random.default_rng(seed)
        net = _oracle_nets(seed)[mode]
        table = _table(rng, range(6), 3)
        for pois in ([3], [5, 1, 4], [2, 0, 1, 3, 5, 4]):
            s = rng.normal(size=5)
            got = policy._q(net, s, _actions(mode, table, pois))
            assert np.array_equal(got, policy_oracle.q_values(net, s, _cand(pois), table))

    @pytest.mark.parametrize("mode", [policy.PAIRWISE, policy.VANILLA])
    @pytest.mark.parametrize("seed", range(3))
    def test_td_priority(self, mode, seed):
        rng = np.random.default_rng(seed)
        net = _oracle_nets(seed)[mode]
        table = _table(rng, range(6), 3)
        cases = [
            _oracle_transition(rng, mode, table),
            _oracle_transition(rng, mode, table, next_pois=(5,)),
            _oracle_transition(rng, mode, table, next_pois=()),
            _oracle_transition(rng, mode, table, terminal=True),
        ]
        for t in cases:
            # an empty next set bootstraps 0 in both modes, as a terminal step
            # does; the old vanilla head took the max over every column there
            old = replace(t, terminal=True) if len(t.next_actions) == 0 else t
            assert priority_of(t, "td", net, 0.9) == policy_oracle.priority_of(old, "td", net, 0.9)

    @pytest.mark.parametrize("mode", [policy.PAIRWISE, policy.VANILLA])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_train_step(self, mode, frozen):
        rng = np.random.default_rng(7)
        net = _oracle_nets(7)[mode]
        twin = net.clone()
        target = _oracle_nets(8)[mode] if frozen else None
        table = _table(rng, range(6), 3)
        batch = [
            _oracle_transition(rng, mode, table, terminal=i == 2, next_pois=(i, 5))
            for i in range(4)
        ]
        seen = {}
        loss = train_step(net, batch, 0.9, lr=0.05, target_net=target,
                          encoder_feedback=lambda d: seen.setdefault("new", d))
        o_loss = policy_oracle.train_step(twin, batch, 0.9, lr=0.05, target_net=target,
                                          encoder_feedback=lambda b, d: seen.setdefault("old", d))
        assert loss == o_loss
        for name in net.store.names():
            assert np.array_equal(net.store.get(name), twin.store.get(name)), name
        assert seen["new"].shape == (5,)
        assert np.array_equal(seen["new"], seen["old"].mean(axis=0))


def _select_with_epsilon(epsilon):
    net = QNet(4, 3, hidden=8)
    table = _table(np.random.default_rng(0), [0, 1], 3)
    select_action(net, np.zeros(4), _rows(table, [0, 1]), epsilon, np.random.default_rng(0))


def _priority_with_mode(mode):
    net = QNet(4, 3, hidden=8)
    rng = np.random.default_rng(0)
    priority_of(_transition(rng, net, 0, _table(rng, [0, 1], 3), 1.0), mode, net, 0.9)


# each case passes one bad argument to one public entry point
@pytest.mark.parametrize("call", [
    lambda: QNet(4, 3, mode="bogus"),
    lambda: QNet(4, mode=policy.VANILLA),
    lambda: _select_with_epsilon(1.5),
    lambda: _select_with_epsilon(-0.1),
    lambda: _priority_with_mode("bogus"),
    lambda: PriorityReplayBuffer(0),
    lambda: PriorityReplayBuffer(5, "bogus"),
    lambda: expand_meta_path(kgstore.build_static([(0, 0, 0)]), 0, "UVX"),
    lambda: generate_candidates(kgstore.build_static([(0, 0, 0)]), 0, 0),
    lambda: kgstore.build_static([(0, 0, 0)], window=0),
    lambda: policy.train_step(QNet(4, 3, hidden=8), [], 0.9, 0.01),
], ids=["qnet-mode", "vanilla-without-actions", "epsilon-above-one", "epsilon-below-zero",
        "priority-mode", "buffer-capacity", "buffer-mode", "meta-path-scheme", "candidates-k",
        "kg-window", "empty-batch"])
def test_bad_argument_is_a_config_error(call):
    with pytest.raises(ConfigError):
        call()
