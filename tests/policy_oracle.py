"""Q-scoring and the Bellman step as they stood before the one scoring path.

Kept verbatim as the oracle that ``test_policy.py`` compares the production
functions with. ``q_values`` reads a POI -> vector dict. Every function
branches on the Q-net mode with its own copy of the forward, and
``train_step`` holds two copies of the loss, backward, SGD and feedback
code. Only the field reads follow the one-input ``Transition``
(``action``, ``next_actions``), and a vanilla POI is its own head column.
The vanilla ``_max_next_q`` keeps the old bootstrap of an empty next set,
the max over every column; the production code bootstraps 0 there.
"""

from __future__ import annotations

import numpy as np

from geostream.candidates import CandidateSet
from geostream.errors import ActionSpaceError, TrainingError
from geostream.numkit import sgd_step
from geostream.policy import PAIRWISE, QNet, Transition


def q_values(net: QNet, state: np.ndarray, cand: CandidateSet, table) -> np.ndarray:
    """One Q-value per candidate, shared weights across the pair batch."""
    if len(cand) == 0:
        raise ActionSpaceError("empty candidate set")
    if net.mode == PAIRWISE:
        x = np.stack([np.concatenate([state, np.asarray(table[p])]) for p in cand.pois])
        out, _ = net.forward(x)
        return out[:, 0]
    out, _ = net.forward(state)
    return np.array([out[0, p] for p in cand.pois])


def _q_of(net: QNet, t: Transition) -> float:
    if net.mode == PAIRWISE:
        x = np.concatenate([t.state, t.action])
        return float(net.forward(x)[0][0, 0])
    out, _ = net.forward(t.state)
    return float(out[0, t.action])


def _max_next_q(net: QNet, t: Transition) -> float:
    if t.terminal:
        return 0.0
    if net.mode == PAIRWISE:
        if t.next_actions is None or len(t.next_actions) == 0:
            return 0.0
        x = np.concatenate(
            [np.broadcast_to(t.next_state, (len(t.next_actions), len(t.next_state))), t.next_actions],
            axis=1,
        )
        out, _ = net.forward(x)
        return float(out[:, 0].max())
    out, _ = net.forward(t.next_state)
    if t.next_actions:
        return float(max(out[0, p] for p in t.next_actions))
    return float(out[0].max())


def priority_of(t: Transition, mode: str, net: QNet, gamma: float) -> float:
    """Reward mode returns r; TD mode returns r + gamma*maxQ' - Q."""
    if mode == "reward":
        return float(t.reward)
    if mode == "td":
        return float(t.reward + gamma * _max_next_q(net, t) - _q_of(net, t))
    raise ValueError(f"unknown priority mode {mode!r}")


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
        x = np.stack([np.concatenate([t.state, t.action]) for t in batch])
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
    cols = np.array([t.action for t in batch])
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
