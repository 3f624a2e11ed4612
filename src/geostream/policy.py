"""Imitation agent: Q-network, epsilon-greedy selection, prioritized replay.

Each action reaches the network in one form, its Q-net input. The
pairwise network takes an action vector and scores one (state, action
vector) concatenation at a time with shared weights, so the action set
may change per step. The vanilla mode, the classical fixed-action head
over all POIs of the legacy baseline, takes the column of the POI's
Q-value. The agent acts on rows: ``select_action`` returns the row of
the candidates' inputs it picks, and ``train_step`` hands the encoder one
state gradient, the batch mean. Replay priorities are either the raw
reward or the temporal-difference error; batches are drawn
deterministically as the top-K of the softmaxed priorities, or sampled
from them with a seeded generator when the caller gives one.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ActionSpaceError, ConfigError, TrainingError
from .numkit import ParamStore, relu, row_softmax, sgd_step

PAIRWISE = "pairwise"
VANILLA = "vanilla"


class QNet:
    """Two hidden relu layers and a linear head.

    Pairwise mode maps concat(state, action vector) to one scalar;
    vanilla mode maps a state to one Q-value per fixed action column.
    """

    def __init__(
        self,
        dim_state: int,
        dim_action: int = 0,
        hidden: int = 256,
        mode: str = PAIRWISE,
        n_actions: int = 0,
        rng: np.random.Generator | None = None,
    ):
        if mode not in (PAIRWISE, VANILLA):
            raise ConfigError(f"unknown QNet mode {mode!r}")
        if mode == VANILLA and n_actions < 1:
            raise ConfigError("vanilla mode needs a fixed action set")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.mode = mode
        self.dim_state = dim_state
        self.dim_action = dim_action if mode == PAIRWISE else 0
        self.hidden = hidden
        self.n_actions = n_actions if mode == VANILLA else 0
        dim_in = dim_state + self.dim_action
        dim_out = 1 if mode == PAIRWISE else n_actions
        self.store = ParamStore()
        for name, fan_in, fan_out in (
            ("fc1", dim_in, hidden),
            ("fc2", hidden, hidden),
            ("out", hidden, dim_out),
        ):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.store.add(f"{name}/w", rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self.store.add(f"{name}/b", np.zeros(fan_out))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        s = self.store
        a1 = x @ s.get("fc1/w") + s.get("fc1/b")
        h1 = relu(a1)
        a2 = h1 @ s.get("fc2/w") + s.get("fc2/b")
        h2 = relu(a2)
        out = h2 @ s.get("out/w") + s.get("out/b")
        cache = {"x": x, "a1": a1, "h1": h1, "a2": a2, "h2": h2}
        return out, cache

    def backward(self, cache: dict, d_out: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; returns the gradient w.r.t. inputs."""
        s = self.store
        d_out = np.atleast_2d(d_out)
        s.accumulate("out/w", cache["h2"].T @ d_out)
        s.accumulate("out/b", d_out.sum(axis=0))
        d_h2 = d_out @ s.get("out/w").T
        d_a2 = d_h2 * (cache["a2"] > 0)
        s.accumulate("fc2/w", cache["h1"].T @ d_a2)
        s.accumulate("fc2/b", d_a2.sum(axis=0))
        d_h1 = d_a2 @ s.get("fc2/w").T
        d_a1 = d_h1 * (cache["a1"] > 0)
        s.accumulate("fc1/w", cache["x"].T @ d_a1)
        s.accumulate("fc1/b", d_a1.sum(axis=0))
        return d_a1 @ s.get("fc1/w").T

    def clone(self) -> "QNet":
        """Frozen copy, e.g. for use as a Bellman target network."""
        return copy.deepcopy(self)


@dataclass
class Transition:
    """One step; ``action`` and ``next_actions`` are Q-net inputs (see ``_q``)."""

    state: np.ndarray
    action: np.ndarray | int
    reward: float
    next_state: np.ndarray | None = None
    next_actions: np.ndarray | tuple = ()
    terminal: bool = False
    priority: float = 0.0
    seq: int = -1


def _q(net: QNet, state: np.ndarray, actions) -> np.ndarray:
    """Q of each action in one forward.

    A pairwise net scores the rows state‖action of the action vectors
    ``actions``; a vanilla net reads its head at the columns ``actions``.
    """
    if net.mode == PAIRWISE:
        actions = np.atleast_2d(actions)
        x = np.concatenate([np.broadcast_to(state, (len(actions), len(state))), actions], axis=1)
        return net.forward(x)[0][:, 0]
    return net.forward(state)[0][0, actions]


def select_action(
    net: QNet, state: np.ndarray, actions, epsilon: float, rng: np.random.Generator,
    q: np.ndarray | None = None,
) -> int:
    """The row of ``actions`` to take: uniform with prob epsilon, else first-best by Q.

    ``actions`` holds the candidates' Q-net inputs (see ``_q``). ``q``, if
    given, is ``_q(net, state, actions)`` already scored, so a greedy step
    need not score it again.
    """
    if len(actions) == 0:
        raise ActionSpaceError("empty candidate set")
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError(f"epsilon {epsilon} outside [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(len(actions)))
    return int(np.argmax(_q(net, state, actions) if q is None else q))


def _q_of(net: QNet, t: Transition) -> float:
    return float(_q(net, t.state, [t.action])[0])


def _next_q(net: QNet, t: Transition) -> np.ndarray | None:
    """Q of each next action, or None for a transition with no next step."""
    if t.terminal or len(t.next_actions) == 0:
        return None
    return _q(net, t.next_state, t.next_actions)


def _max_next_q(net: QNet, t: Transition, next_q: np.ndarray | None = None) -> float:
    """max Q' by ``net``; ``next_q``, if given, is ``_next_q(net, t)`` already scored."""
    if next_q is None:
        next_q = _next_q(net, t)
    return 0.0 if next_q is None else float(next_q.max())


def _target(net: QNet, t: Transition, gamma: float, next_q: np.ndarray | None = None) -> float:
    """The Bellman target r + gamma*maxQ', bootstrapped by ``net``."""
    return t.reward + gamma * _max_next_q(net, t, next_q)


def priority_of(
    t: Transition, mode: str, net: QNet, gamma: float, next_q: np.ndarray | None = None
) -> float:
    """Reward mode returns r; TD mode returns r + gamma*maxQ' - Q."""
    if mode == "reward":
        return float(t.reward)
    if mode == "td":
        return float(_target(net, t, gamma, next_q) - _q_of(net, t))
    raise ConfigError(f"unknown priority mode {mode!r}")


class PriorityReplayBuffer:
    """FIFO ring of transitions carrying nonnegative priorities."""

    def __init__(self, capacity: int, mode: str = "reward"):
        if capacity < 1:
            raise ConfigError("capacity must be >= 1")
        if mode not in ("reward", "td"):
            raise ConfigError(f"unknown priority mode {mode!r}")
        self.capacity = capacity
        self.mode = mode
        self._items: deque[Transition] = deque(maxlen=capacity)
        self._seq = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, t: Transition, net: QNet, gamma: float) -> np.ndarray | None:
        """Store ``t`` with its priority. Return ``_next_q(net, t)`` if the
        priority scored it, so a step acting in ``t.next_state`` can reuse it."""
        next_q = _next_q(net, t) if self.mode == "td" else None
        t.priority = max(0.0, priority_of(t, self.mode, net, gamma, next_q))
        t.seq = self._seq
        self._seq += 1
        self._items.append(t)
        return next_q

    def sample_batch(self, k: int, rng: np.random.Generator | None = None) -> list[Transition]:
        """Top-k of the priority softmax; ties resolve by insertion order.

        The softmax is monotone in the priority, so deterministic top-k by
        priority realizes it; given ``rng``, it instead samples k transitions
        without replacement from the softmax distribution.
        """
        items = list(self._items)
        if not items:
            return []
        if k >= len(items):
            return items
        if rng is not None:
            probs = row_softmax(np.array([[t.priority for t in items]]))[0]
            picks = rng.choice(len(items), size=k, replace=False, p=probs)
            return [items[int(i)] for i in picks]
        return sorted(items, key=lambda t: (-t.priority, t.seq))[:k]


def train_step(
    net: QNet,
    batch: list[Transition],
    gamma: float,
    lr: float,
    encoder_feedback=None,
    target_net: QNet | None = None,
) -> float:
    """One Bellman regression step: loss = mean (y - Q(s,a))^2.

    Targets use the online network (held fixed within the step) unless a
    frozen ``target_net`` is supplied. With ``encoder_feedback`` set (a
    callable), the batch mean of the loss gradient with respect to the
    state vectors is handed back for the representation module's
    closed-loop update.
    """
    if not batch:
        raise ConfigError("empty batch")
    bootstrap = target_net if target_net is not None else net
    targets = np.array([_target(bootstrap, t, gamma) for t in batch])
    if net.mode == PAIRWISE:
        x = np.stack([np.concatenate([t.state, t.action]) for t in batch])
        cols = np.zeros(len(batch), dtype=np.intp)
    else:
        x = np.stack([t.state for t in batch])
        cols = np.array([t.action for t in batch])
    out, cache = net.forward(x)
    rows = np.arange(len(batch))
    q = out[rows, cols]
    errors = q - targets
    loss = float(np.mean(errors**2))
    if not np.isfinite(loss):
        raise TrainingError("non-finite Bellman loss")
    d_out = np.zeros_like(out)
    d_out[rows, cols] = (2.0 / len(batch)) * errors
    d_x = net.backward(cache, d_out)
    sgd_step(net.store, lr)
    if encoder_feedback is not None:
        encoder_feedback(d_x[:, : net.dim_state].mean(axis=0))
    return loss
