"""Spans around the program's public functions, installed from outside.

``traced(tracer)`` wraps the layer boundaries listed in ``_boundaries``
and restores the originals on exit, so nothing under ``src/`` changes.
Each call of a wrapped function becomes a :class:`Span` (name, start,
end, parent span, phase, event index). Functions called hundreds of
times per event (``context_of``, ``joint_cached``) are *aggregated*
instead: per (name, nearest recorded ancestor, phase) the tracer keeps a
call count, total time and self time, and the ancestor span carries the
time they cover.

A span's self time is its duration minus the time its child spans and
aggregated child calls cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from geostream import candidates, embed, harness, kgstore, legacy, policy


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    phase: str
    event: int
    agg_covered: float = 0.0  # time of aggregated calls directly inside


@dataclass
class Agg:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class _Frame:
    name: str
    start: float
    span: int  # recorded span index, or -1 for an aggregated call
    covered: float = 0.0


@dataclass
class Tracer:
    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    aggs: dict = field(default_factory=dict)  # (name, owner, phase) -> Agg
    counts: dict = field(default_factory=dict)  # (name, phase) -> [n, sum]
    candidate_sets: dict = field(default_factory=dict)  # (phase, event) -> pois
    drawn: list = field(default_factory=list)  # replay seq numbers drawn
    top_level: dict = field(default_factory=dict)  # phase -> time of outermost calls
    phase: str = "setup"
    event: int = -1

    def __post_init__(self):
        self._stack: list[_Frame] = []

    def call(self, name, fn, args, kwargs, aggregate=False):
        if aggregate:
            frame = _Frame(name, self.clock(), -1)
        else:
            parent = self._owner_index()
            self.spans.append(Span(name, 0.0, 0.0, parent, self.phase, self.event))
            frame = _Frame(name, 0.0, len(self.spans) - 1)
            frame.start = self.clock()
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            dur = end - frame.start
            if self._stack:
                self._stack[-1].covered += dur
            else:
                self.top_level[self.phase] = self.top_level.get(self.phase, 0.0) + dur
            if aggregate:
                owner = self._owner_index()
                if self._stack and self._stack[-1].span >= 0:
                    self.spans[self._stack[-1].span].agg_covered += dur
                key = (name, self.spans[owner].name if owner >= 0 else "-", self.phase)
                agg = self.aggs.setdefault(key, Agg())
                agg.calls += 1
                agg.total += dur
                agg.self_time += dur - frame.covered
            else:
                span = self.spans[frame.span]
                span.start, span.end = frame.start, end

    def _owner_index(self) -> int:
        for frame in reversed(self._stack):
            if frame.span >= 0:
                return frame.span
        return -1

    def count(self, name: str, value: float) -> None:
        slot = self.counts.setdefault((name, self.phase), [0, 0.0])
        slot[0] += 1
        slot[1] += value


def self_times(spans) -> list[float]:
    """Per span: duration minus child spans and aggregated calls inside."""
    out = [s.end - s.start - s.agg_covered for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def candidate_recall(candidate_sets: dict, real_by_event: dict) -> tuple[int, int]:
    """(hits, events): how often the real POI was in the generated set."""
    hits = events = 0
    for key, pois in candidate_sets.items():
        if key in real_by_event:
            events += 1
            hits += real_by_event[key] in pois
    return hits, events


# -- installation -------------------------------------------------------------


def _wrap(tracer, name, fn, aggregate=False, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs, aggregate)
        if after is not None:
            after(result, args)
        return result

    return wrapper


def _boundaries(tracer: Tracer):
    """(owner, attribute, span name, aggregate, after-hook) per boundary.

    Module-level functions are patched where the caller looks them up:
    ``harness`` imports ``component_rewards``, ``compute_reward`` and
    ``sgd_step`` by name, as do ``policy`` and ``embed`` for ``sgd_step``.
    """
    last_joint: dict = {}

    def on_joint(result, args):
        key = args[1]
        tracer.count("embed.joint_cached.hit", float(last_joint.get(key) is result))
        last_joint[key] = result

    def on_candidates(result, args):
        tracer.count("candidates.size", len(result))
        tracer.candidate_sets[(tracer.phase, tracer.event)] = result.pois

    def on_sample(result, args):
        tracer.drawn.extend(t.seq for t in result)

    out = [
        (kgstore.DynamicKg, "apply_visit", "kgstore.apply_visit", False,
         lambda r, a: tracer.count("kgstore.affected", len(r.affected))),
        (kgstore.DynamicKg, "context_of", "kgstore.context_of", True,
         lambda r, a: tracer.count("kgstore.context_of.nodes", len(r))),
        (embed.Embedder, "train_init", "embed.train_init", False, None),
        (embed.Embedder, "incremental_update", "embed.incremental_update", False, None),
        (embed.Embedder, "pool_state", "embed.pool_state", False, None),
        (embed.Embedder, "joint_cached", "embed.joint_cached", True, on_joint),
        (embed.Embedder, "state_feedback", "embed.state_feedback", False, None),
        (candidates, "generate_candidates", "candidates.generate", False, on_candidates),
        (policy, "select_action", "policy.select_action", False, None),
        (policy.PriorityReplayBuffer, "push", "policy.push", False, None),
        (policy.PriorityReplayBuffer, "sample_batch", "policy.sample_batch", False, on_sample),
        (policy, "train_step", "policy.train_step", False, None),
        (legacy, "transform_temporal", "legacy.update", False, None),
        (legacy, "update_user", "legacy.update", False, None),
        (legacy, "update_spatial", "legacy.update", False, None),
        (legacy, "legacy_state", "legacy.state", False, None),
        (legacy, "update_spatial_grads", "legacy.feedback", False, None),
        (legacy, "update_user_grads", "legacy.feedback", False, None),
        (legacy, "transform_temporal_grads", "legacy.feedback", False, None),
        (harness, "component_rewards", "reward", False, None),
        (harness, "compute_reward", "reward", False, None),
        (harness, "parse_checkins", "harness.ingest", False, None),
    ]
    for mod in (harness, policy, embed):
        out.append((mod, "sgd_step", "numkit.sgd_step", False, None))
    return out


@contextmanager
def traced(tracer: Tracer):
    """Install every boundary wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, aggregate, after in _boundaries(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, aggregate, after))
        build = harness.Catalog.__dict__["build"]
        saved.append((harness.Catalog, "build", build))
        harness.Catalog.build = classmethod(_wrap(tracer, "harness.ingest", build.__func__))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def installed() -> dict:
    """What every boundary attribute holds now, to check restoration."""
    attrs = [(owner, attr) for owner, attr, *_ in _boundaries(Tracer())]
    attrs.append((harness.Catalog, "build"))
    return {(owner, attr): owner.__dict__[attr] for owner, attr in attrs}


# -- per-layer metrics --------------------------------------------------------

LOOP = ("train", "eval")


def self_time_ranking(tracer: Tracer) -> list[tuple[str, float]]:
    """Layer names by self time inside the loop, largest first."""
    by_name: dict = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span.phase in LOOP:
            by_name[span.name] = by_name.get(span.name, 0.0) + own
    for (name, _owner, phase), agg in tracer.aggs.items():
        if phase in LOOP:
            by_name[name] = by_name.get(name, 0.0) + agg.self_time
    return sorted(by_name.items(), key=lambda kv: -kv[1])


def layer_report(tracer: Tracer, episode, real_by_event: dict) -> dict:
    """Per-layer metrics of one traced episode, normalized per loop event
    (train + eval) or per train step; set-up costs in seconds."""
    spans = tracer.spans
    own = self_times(spans)
    events = episode.train_events + episode.eval_events

    def total(name, phases=LOOP):
        return sum(s.end - s.start for s in spans if s.name == name and s.phase in phases)

    def self_of(name):
        return sum(t for s, t in zip(spans, own) if s.name == name and s.phase in LOOP)

    def agg(name, owner=None):
        calls = secs = 0
        for (n, o, phase), a in tracer.aggs.items():
            if n == name and phase in LOOP and owner in (None, o):
                calls += a.calls
                secs += a.total
        return calls, secs

    def mean_count(name):
        n = s = 0
        for (key, phase), (k, v) in tracer.counts.items():
            if key == name and phase in LOOP:
                n += k
                s += v
        return s / n if n else 0.0

    steps = sum(1 for s in spans if s.name == "policy.train_step")

    def per_event(secs):
        return 1e3 * secs / events

    def per_step(secs):
        return 1e3 * secs / steps if steps else 0.0

    ctx_calls, ctx_secs = agg("kgstore.context_of")
    top_level = sum(tracer.top_level.get(phase, 0.0) for phase in LOOP)
    hits, with_cands = candidate_recall(tracer.candidate_sets, real_by_event)
    return {
        "kgstore.context_of.ms_per_event": per_event(ctx_secs),
        "kgstore.context_of.calls_per_event": ctx_calls / events,
        "kgstore.context_of.nodes_per_call": mean_count("kgstore.context_of.nodes"),
        "kgstore.apply_visit.ms_per_event": per_event(total("kgstore.apply_visit")),
        "kgstore.affected_per_event": mean_count("kgstore.affected"),
        "embed.incremental_update.ms_per_event": per_event(self_of("embed.incremental_update")),
        "embed.incremental_update.context_calls_per_event":
            agg("kgstore.context_of", "embed.incremental_update")[0] / events,
        "embed.pool_state.ms_per_event": per_event(total("embed.pool_state")),
        "embed.joint_cached.hit_ratio": mean_count("embed.joint_cached.hit"),
        "embed.state_feedback.ms_per_train_step": per_step(total("embed.state_feedback")),
        "embed.train_init.s": total("embed.train_init", ("setup",)),
        "candidates.generate.ms_per_event": per_event(total("candidates.generate")),
        "candidates.size_mean": mean_count("candidates.size"),
        "candidates.recall": hits / with_cands if with_cands else 0.0,
        "policy.select_action.ms_per_event": per_event(total("policy.select_action")),
        "policy.push.ms_per_event": per_event(total("policy.push")),
        "policy.train_step.ms_per_train_step": per_step(self_of("policy.train_step")),
        "policy.sample_batch.ms_per_train_step": per_step(total("policy.sample_batch")),
        "policy.replay.distinct_ratio":
            len(set(tracer.drawn)) / len(tracer.drawn) if tracer.drawn else 0.0,
        "legacy.update.ms_per_event": per_event(total("legacy.update")),
        "legacy.state.ms_per_event": per_event(total("legacy.state")),
        "legacy.feedback.ms_per_train_step": per_step(total("legacy.feedback")),
        "reward.ms_per_event": per_event(total("reward")),
        "numkit.sgd_step.ms_per_event": per_event(total("numkit.sgd_step")),
        "harness.ingest_s": total("harness.ingest", ("setup",)),
        "harness.loop_ms_per_event": per_event(episode.train_s + episode.eval_s - top_level),
    }
