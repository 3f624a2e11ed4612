"""Imitation agent: Q-network, epsilon-greedy selection, prioritized replay.

The pairwise network scores one (state, action-embedding) concatenation
at a time with shared weights, so the action set may change per step.
The vanilla mode keeps the classical fixed-action head over all POIs for
the legacy baseline. Replay priorities are either the raw reward or the
temporal-difference error; batches are drawn deterministically as the
top-K of the softmaxed priorities (a seeded stochastic mode exists
behind a flag).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .candidates import CandidateSet
from .errors import ActionSpaceError, CompatibilityError, TrainingError
from .numkit import ParamStore, relu, row_softmax, save_matrices, load_matrices, sgd_step

PAIRWISE = "pairwise"
VANILLA = "vanilla"


class QNet:
    """Two hidden relu layers and a linear head.

    Pairwise mode maps concat(state, action embedding) to one scalar;
    vanilla mode maps a state to one Q-value per fixed action.
    """

    def __init__(
        self,
        dim_state: int,
        dim_action: int = 0,
        hidden: int = 256,
        mode: str = PAIRWISE,
        action_ids: tuple[int, ...] = (),
        rng: np.random.Generator | None = None,
    ):
        if mode not in (PAIRWISE, VANILLA):
            raise ValueError(f"unknown QNet mode {mode!r}")
        if mode == VANILLA and not action_ids:
            raise ValueError("vanilla mode needs a fixed action set")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.mode = mode
        self.dim_state = dim_state
        self.dim_action = dim_action if mode == PAIRWISE else 0
        self.hidden = hidden
        self.action_ids = tuple(action_ids)
        self._action_index = {a: i for i, a in enumerate(self.action_ids)}
        dim_in = dim_state + self.dim_action
        dim_out = 1 if mode == PAIRWISE else len(action_ids)
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

    def action_index(self, poi: int) -> int:
        if poi not in self._action_index:
            raise ActionSpaceError(f"POI {poi} is not in the fixed action set")
        return self._action_index[poi]

    def clone(self) -> "QNet":
        """Frozen copy, e.g. for use as a Bellman target network."""
        twin = QNet(
            self.dim_state, self.dim_action, self.hidden,
            mode=self.mode, action_ids=self.action_ids or (),
        )
        for name in self.store.names():
            twin.store.get(name)[...] = self.store.get(name)
        return twin

    def save(self, path) -> None:
        mats = {name: self.store.get(name) for name in self.store.names()}
        mats["meta"] = np.array(
            [0.0 if self.mode == PAIRWISE else 1.0, self.dim_state, self.dim_action, self.hidden]
        )
        if self.action_ids:
            mats["actions"] = np.array(self.action_ids, dtype=np.float64)
        save_matrices(path, mats)

    @classmethod
    def load(cls, path) -> "QNet":
        mats = load_matrices(path)
        meta = mats.pop("meta")
        mode = PAIRWISE if meta[0] == 0.0 else VANILLA
        action_ids = tuple(int(a) for a in mats.pop("actions", []))
        net = cls(
            dim_state=int(meta[1]),
            dim_action=int(meta[2]),
            hidden=int(meta[3]),
            mode=mode,
            action_ids=action_ids,
        )
        for name, arr in mats.items():
            if net.store.get(name).shape != arr.shape:
                raise CompatibilityError(f"checkpoint {name} shape {arr.shape} mismatch")
            net.store.get(name)[...] = arr
        return net


@dataclass
class Transition:
    state: np.ndarray
    action_poi: int
    action_vec: np.ndarray | None
    reward: float
    next_state: np.ndarray | None = None
    next_pois: tuple[int, ...] = ()
    next_vecs: np.ndarray | None = None
    terminal: bool = False
    priority: float = 0.0
    seq: int = -1


def q_values(net: QNet, state: np.ndarray, cand: CandidateSet, table) -> np.ndarray:
    """One Q-value per candidate, shared weights across the pair batch."""
    if len(cand) == 0:
        raise ActionSpaceError("empty candidate set")
    if net.mode == PAIRWISE:
        x = np.stack([np.concatenate([state, np.asarray(table[p])]) for p in cand.pois])
        out, _ = net.forward(x)
        return out[:, 0]
    out, _ = net.forward(state)
    return np.array([out[0, net.action_index(p)] for p in cand.pois])


def select_action(
    net: QNet,
    state: np.ndarray,
    cand: CandidateSet,
    epsilon: float,
    rng: np.random.Generator,
    table=None,
) -> int:
    """Uniform over candidates with prob epsilon, else first-best by Q."""
    if len(cand) == 0:
        raise ActionSpaceError("empty candidate set")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon} outside [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return cand.pois[int(rng.integers(len(cand)))]
    scores = q_values(net, state, cand, table)
    return cand.pois[int(np.argmax(scores))]


def _q_of(net: QNet, t: Transition) -> float:
    if net.mode == PAIRWISE:
        x = np.concatenate([t.state, t.action_vec])
        return float(net.forward(x)[0][0, 0])
    out, _ = net.forward(t.state)
    return float(out[0, net.action_index(t.action_poi)])


def _max_next_q(net: QNet, t: Transition) -> float:
    if t.terminal:
        return 0.0
    if net.mode == PAIRWISE:
        if t.next_vecs is None or len(t.next_vecs) == 0:
            return 0.0
        x = np.concatenate(
            [np.broadcast_to(t.next_state, (len(t.next_vecs), len(t.next_state))), t.next_vecs],
            axis=1,
        )
        out, _ = net.forward(x)
        return float(out[:, 0].max())
    out, _ = net.forward(t.next_state)
    if t.next_pois:
        return float(max(out[0, net.action_index(p)] for p in t.next_pois))
    return float(out[0].max())


def priority_of(t: Transition, mode: str, net: QNet, gamma: float) -> float:
    """Reward mode returns r; TD mode returns r + gamma*maxQ' - Q."""
    if mode == "reward":
        return float(t.reward)
    if mode == "td":
        return float(t.reward + gamma * _max_next_q(net, t) - _q_of(net, t))
    raise ValueError(f"unknown priority mode {mode!r}")


class PriorityReplayBuffer:
    """FIFO ring of transitions carrying nonnegative priorities."""

    def __init__(self, capacity: int, mode: str = "reward"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if mode not in ("reward", "td"):
            raise ValueError(f"unknown priority mode {mode!r}")
        self.capacity = capacity
        self.mode = mode
        self._items: deque[Transition] = deque(maxlen=capacity)
        self._seq = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, t: Transition, net: QNet, gamma: float) -> None:
        t.priority = max(0.0, priority_of(t, self.mode, net, gamma))
        t.seq = self._seq
        self._seq += 1
        self._items.append(t)

    def transitions(self) -> list[Transition]:
        return list(self._items)

    def sample_batch(
        self, k: int, stochastic: bool = False, rng: np.random.Generator | None = None
    ) -> list[Transition]:
        """Top-k of the priority softmax; ties resolve by insertion order.

        The softmax is monotone in the priority, so deterministic top-k by
        priority realizes it; ``stochastic`` instead samples k transitions
        without replacement from the softmax distribution.
        """
        items = list(self._items)
        if not items:
            return []
        if k >= len(items):
            return items
        if stochastic:
            if rng is None:
                raise ValueError("stochastic sampling needs an rng")
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
    callable), the loss gradient with respect to each state vector is
    handed back for the representation module's closed-loop update.
    """
    if not batch:
        raise ValueError("empty batch")
    bootstrap = target_net if target_net is not None else net
    targets = np.array([t.reward + gamma * _max_next_q(bootstrap, t) for t in batch])
    if net.mode == PAIRWISE:
        x = np.stack([np.concatenate([t.state, t.action_vec]) for t in batch])
        out, cache = net.forward(x)
        q = out[:, 0]
        errors = q - targets
        loss = float(np.mean(errors**2))
        if not np.isfinite(loss):
            raise TrainingError("non-finite Bellman loss")
        d_out = (2.0 / len(batch)) * errors.reshape(-1, 1)
        d_x = net.backward(cache, d_out)
        sgd_step(net.store, lr)
        if encoder_feedback is not None:
            encoder_feedback(batch, d_x[:, : net.dim_state])
        return loss
    x = np.stack([t.state for t in batch])
    out, cache = net.forward(x)
    cols = np.array([net.action_index(t.action_poi) for t in batch])
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
        encoder_feedback(batch, d_x)
    return loss
