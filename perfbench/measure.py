"""One closed-loop episode (train, then eval) timed from outside.

The stream is replayed as fast as the program goes, one event after the
other: a stream's per-event order makes it a single client. Train events
are timestamped by ``run_training``'s ``progress`` callback, eval events
by a thin wrapper on ``policy.select_action`` (called once per eval
event). Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from geostream import harness, policy


class _SetupDone(Exception):
    """Raised from the first ``progress`` callback to stop after set-up."""


@dataclass
class Episode:
    setup_s: float
    train_events: int
    train_s: float  # wall time after set-up
    train_gaps: list  # seconds between consecutive progress callbacks
    eval_events: int
    eval_s: float
    eval_gaps: list  # seconds between consecutive select_action calls
    prec_cat: float
    train_digest: str
    eval_digest: str
    train_log: object
    eval_log: object
    catalog: object


class EpisodeFailed(Exception):
    """An episode raised after ``processed`` of its events completed."""

    def __init__(self, processed: int, cause: BaseException):
        super().__init__(f"{type(cause).__name__}: {cause}")
        self.processed = processed
        self.completed = 0  # episodes of the run that finished before this one


def digest(log) -> str:
    return hashlib.sha256(log.to_trace_csv().encode()).hexdigest()


def gaps(stamps) -> list:
    return [b - a for a, b in zip(stamps, stamps[1:])]


@contextmanager
def _stamped_select(stamps: list, on_call):
    original = policy.select_action

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        stamps.append(time.perf_counter())
        try:
            return original(*args, **kwargs)
        finally:
            on_call()

    policy.select_action = wrapper
    try:
        yield
    finally:
        policy.select_action = original


def measure_setup(config) -> float:
    """Seconds from the ``run_training`` call to its first progress callback."""
    stamp = []

    def progress(_l):
        stamp.append(time.perf_counter())
        raise _SetupDone

    started = time.perf_counter()
    try:
        harness.run_training(config, progress=progress)
    except _SetupDone:
        return stamp[0] - started
    raise RuntimeError("run_training returned without calling progress")


def run_episode(config, test_records, tracer=None) -> Episode:
    """Train on the stream's head, then evaluate once on its tail.

    ``tracer`` (a tracing.Tracer) learns the phase and event index of
    every call; the caller installs its wrappers.
    """
    train_stamps: list = []
    eval_stamps: list = []

    def progress(l):
        train_stamps.append(time.perf_counter())
        if tracer is not None:
            tracer.phase, tracer.event = "train", l

    started = time.perf_counter()
    try:
        artifacts, train_log, _ = harness.run_training(config, progress=progress)
    except Exception as exc:
        raise EpisodeFailed(max(len(train_stamps) - 1, 0), exc) from exc
    trained = time.perf_counter()

    def next_eval_event():
        if tracer is not None:
            tracer.event += 1

    if tracer is not None:
        tracer.phase, tracer.event = "eval", 0
    with _stamped_select(eval_stamps, next_eval_event):
        eval_started = time.perf_counter()
        try:
            report, eval_log = harness.run_eval(config, artifacts, test_records)
        except Exception as exc:
            raise EpisodeFailed(len(train_log) + max(len(eval_stamps) - 1, 0), exc) from exc
        eval_done = time.perf_counter()
    return Episode(
        setup_s=train_stamps[0] - started,
        train_events=len(train_log),
        train_s=trained - train_stamps[0],
        train_gaps=gaps(train_stamps),
        eval_events=len(eval_log),
        eval_s=eval_done - eval_started,
        eval_gaps=gaps(eval_stamps),
        prec_cat=report["prec_cat"],
        train_digest=digest(train_log),
        eval_digest=digest(eval_log),
        train_log=train_log,
        eval_log=eval_log,
        catalog=artifacts.catalog,
    )


def tail_percentile(samples, q: float, min_beyond: int = 10) -> float:
    """The q-th percentile, only when at least ``min_beyond`` samples lie above it."""
    n = len(samples)
    beyond = n - 1 - int((n - 1) * q / 100.0)  # samples ranked above its position
    if n == 0 or beyond < min_beyond:
        raise ValueError(f"p{q:g} of {n} samples has fewer than {min_beyond} samples beyond it")
    return float(np.percentile(samples, q))


def weighted_prec_cat(pairs) -> float:
    """Weighted category precision over (pred category, real category) pairs.

    Written from the metric's definition, independently of
    ``geostream.metrics``: per category, hits over predictions, weighted
    by how often it is the real category; categories never predicted are
    left out.
    """
    real: dict = {}
    hits: dict = {}
    predicted: dict = {}
    for pred, true in pairs:
        real[true] = real.get(true, 0) + 1
        predicted[pred] = predicted.get(pred, 0) + 1
        if pred == true:
            hits[true] = hits.get(true, 0) + 1
    num = sum(w * hits.get(c, 0) for c, w in real.items() if predicted.get(c))
    den = sum(w * predicted[c] for c, w in real.items() if predicted.get(c))
    return num / den if den else 0.0


def user_blind_prec_cat(real_categories) -> float:
    """The most weighted category precision a user-blind predictor expects.

    A predictor that ignores the user guesses independently of the real
    category, so each predicted category's hit rate is that category's
    share of real events; the weighted mean of those shares is at most
    the largest one.
    """
    counts: dict = {}
    for c in real_categories:
        counts[c] = counts.get(c, 0) + 1
    return max(counts.values()) / len(real_categories)
