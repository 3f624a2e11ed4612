"""Tests of the benchmark's own machinery: spans, percentiles, checks.

Run with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import measure  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    """Advances by a fixed step on every read, so durations are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _nested_trace():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    tracer.phase, tracer.event = "train", 0

    def leaf():
        clock.advance(1.0)

    def aggregated():
        clock.advance(0.5)
        tracer.call("inner_agg", leaf, (), {}, aggregate=True)  # 1.0 inside

    def child():
        clock.advance(2.0)
        tracer.call("agg", aggregated, (), {}, aggregate=True)  # 1.5
        tracer.call("agg", aggregated, (), {}, aggregate=True)  # 1.5

    def parent():
        clock.advance(3.0)
        tracer.call("child", child, (), {})  # 5.0
        tracer.call("agg", aggregated, (), {}, aggregate=True)  # 1.5

    tracer.call("parent", parent, (), {})  # 9.5
    return tracer


def test_self_time_with_nested_and_aggregated_spans():
    tracer = _nested_trace()
    spans = {s.name: s for s in tracer.spans}
    assert set(spans) == {"parent", "child"}
    assert spans["child"].parent == tracer.spans.index(spans["parent"])
    assert spans["parent"].end - spans["parent"].start == pytest.approx(9.5)
    own = dict(zip((s.name for s in tracer.spans), tracing.self_times(tracer.spans)))
    assert own["parent"] == pytest.approx(3.0)  # 9.5 - child 5.0 - agg 1.5
    assert own["child"] == pytest.approx(2.0)  # 5.0 - two agg calls of 1.5
    agg = tracer.aggs[("agg", "child", "train")]
    assert (agg.calls, agg.total, agg.self_time) == (2, pytest.approx(3.0), pytest.approx(1.0))
    assert tracer.aggs[("agg", "parent", "train")].calls == 1
    inner = tracer.aggs[("inner_agg", "child", "train")]  # owner is the nearest span
    assert (inner.calls, inner.total) == (2, pytest.approx(2.0))
    assert tracer.top_level["train"] == pytest.approx(9.5)
    ranking = dict(tracing.self_time_ranking(tracer))
    assert ranking == pytest.approx({"parent": 3.0, "child": 2.0, "agg": 1.5, "inner_agg": 3.0})
    assert sum(ranking.values()) == pytest.approx(9.5)


def test_span_records_phase_and_event_and_survives_exceptions():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    tracer.phase, tracer.event = "eval", 7

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("boom", boom, (), {})
    (span,) = tracer.spans
    assert (span.phase, span.event, span.end - span.start) == ("eval", 7, 1.0)
    assert tracer._stack == []


def test_tail_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(200)]
    assert measure.tail_percentile(samples, 95) == pytest.approx(189.05)
    with pytest.raises(ValueError):
        measure.tail_percentile(samples[:180], 95)  # only 9 above p95
    assert measure.tail_percentile(samples[:100], 90) == pytest.approx(89.1)


def test_joint_cached_hit_ratio_counts_identity_not_equality():
    import numpy as np

    tracer = tracing.Tracer()
    (hook,) = [after for owner, attr, _n, _a, after in tracing._boundaries(tracer)
               if attr == "joint_cached"]
    a = np.zeros(3)
    hook(a, (None, (1, 0)))  # first call for the key: a miss
    hook(a, (None, (1, 0)))  # same object again: a hit
    hook(a.copy(), (None, (1, 0)))  # equal values, new object: a miss
    hook(a, (None, (1, 1)))  # another key: a miss
    n, hits = tracer.counts[("embed.joint_cached.hit", "setup")]
    assert (n, hits) == (4, 1.0)


def test_candidate_recall_from_a_trace():
    sets = {("train", 0): (1, 2, 3), ("train", 1): (4, 5), ("eval", 0): (9,)}
    real = {("train", 0): 2, ("train", 1): 6, ("eval", 0): 9, ("eval", 1): 1}
    assert tracing.candidate_recall(sets, real) == (2, 3)


def test_weighted_prec_cat_matches_the_program():
    from geostream.metrics import prec_cat
    from geostream.reward import PoiInfo

    pairs = [("a", "a"), ("a", "b"), ("b", "b"), ("c", "b"), ("a", "a"), ("d", "c")]
    log = [(PoiInfo(0, p, 0.0, 0.0), PoiInfo(1, r, 0.0, 0.0)) for p, r in pairs]
    assert measure.weighted_prec_cat(pairs) == pytest.approx(prec_cat(log), abs=1e-15)


def test_user_blind_predictors_score_at_most_the_user_blind_level():
    real = ["a"] * 6 + ["b"] * 3 + ["c"] * 1
    level = measure.user_blind_prec_cat(real)
    assert level == pytest.approx(0.6)
    # a constant guess scores its category's share of real events
    for guess, share in (("a", 0.6), ("b", 0.3), ("c", 0.1)):
        pairs = [(guess, r) for r in real]
        assert measure.weighted_prec_cat(pairs) == pytest.approx(share)
    # guessing each real category's own events right beats it
    assert measure.weighted_prec_cat([(r, r) for r in real]) > level


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    from geostream import harness

    import streamgen

    before = tracing.installed()
    spec = streamgen.StreamSpec(n_users=4, n_events=40, n_categories=3, pois_per_category=3,
                                hub_pois=6, hub_zones=2, hub_slots=2)
    tsv, wv = streamgen.write_dataset(spec, 3, str(tmp_path))
    config = harness.RunConfig(dataset=tsv, wordvecs=wv, stream_length=40, d=4, k=2, w=3,
                               qnet_hidden=8, init_epochs=1, batch_size=4, seed=3)
    _, test = harness.split_stream(harness.parse_checkins(tsv), config.split_fraction)
    plain = measure.run_episode(config, test)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert tracing.installed() != before
        traced = measure.run_episode(config, test, tracer)
    assert tracing.installed() == before
    assert (plain.train_digest, plain.eval_digest) == (traced.train_digest, traced.eval_digest)
    names = {s.name for s in tracer.spans}
    assert {"kgstore.apply_visit", "embed.incremental_update", "candidates.generate",
            "policy.train_step", "harness.ingest", "embed.train_init"} <= names
    assert any(key[0] == "kgstore.context_of" for key in tracer.aggs)


def test_stream_is_deterministic_per_seed(tmp_path):
    import streamgen

    spec = streamgen.StreamSpec(n_users=5, n_events=60, n_categories=3, pois_per_category=4)
    paths = [streamgen.write_dataset(spec, seed, str(tmp_path / f"{seed}-{i}"))
             for i, seed in enumerate((1, 1, 2))]
    text = [[open(p).read() for p in pair] for pair in paths]
    assert text[0] == text[1]
    assert text[0][0] != text[2][0]
    assert text[0][1] == text[2][1]  # word vectors do not depend on the seed
