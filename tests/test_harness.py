import calendar
import json
import os
import re
import shutil
import time
import tracemalloc
from dataclasses import replace
from datetime import datetime

import numpy as np
import pytest

from geostream import cli, harness, kgstore, policy
from geostream.errors import (
    CompatibilityError, ConfigError, DataError, FormatError, GeostreamError, IngestionError,
)
from geostream.numkit import load_matrices, save_matrices
from geostream.harness import (
    Artifacts,
    Catalog,
    CheckInRecord,
    RunConfig,
    parse_checkins,
    run_eval,
    run_training,
    split_stream,
    sweep_reward,
)

import catalog_oracle
import kg_oracle
import probes
from conftest import WORDVEC_PATH, make_cyclic_stream, make_drifting_stream


def _tiny_config(**overrides):
    base = dict(
        stream_length=30,
        split_fraction=0.8,
        d=8,
        k=2,
        w=5,
        b=20,
        gamma=0.5,
        init_epochs=1,
        incr_steps=1,
        max_incr_triples=8,
        train_every=3,
        batch_size=4,
        buffer_capacity=100,
        qnet_hidden=16,
        legacy_n=6,
        seed=3,
        wordvecs=WORDVEC_PATH,
    )
    base.update(overrides)
    return RunConfig(**base)


def _write_tsv(path, records):
    with open(path, "w") as fh:
        for r in records:
            fh.write(
                f"{r.user}\t{r.venue}\t{r.category_id}\t{r.category_name}"
                f"\t{r.lat}\t{r.lon}\t{r.timestamp}\n"
            )


class TestParseCheckins:
    def test_sorts_by_timestamp(self, tmp_path):
        recs = make_cyclic_stream(3)
        path = tmp_path / "c.tsv"
        _write_tsv(path, [recs[2], recs[0], recs[1]])
        out = parse_checkins(path)
        assert [r.timestamp for r in out] == sorted(r.timestamp for r in out)
        assert len(out) == 3

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        recs = make_cyclic_stream(12)
        path = tmp_path / "c.tsv"
        _write_tsv(path, recs)
        with open(path, "a") as fh:
            fh.write("u9\tv9\tc9\tCafe\t40.0\t-74.0\tnot-a-time\n")
        out = parse_checkins(path)
        assert len(out) == 12

    def test_non_finite_timestamp_skipped_and_counted(self, tmp_path):
        recs = make_cyclic_stream(20)
        path = tmp_path / "c.tsv"
        _write_tsv(path, recs)
        with open(path, "a") as fh:
            fh.write("u9\tv9\tc9\tCafe\t40.0\t-74.0\tnan\n")
            fh.write("u9\tv9\tc9\tCafe\t40.0\t-74.0\tinf\n")
        out = parse_checkins(path)
        assert [r.timestamp for r in out] == sorted(r.timestamp for r in recs)

    def test_foursquare_timestamp(self, tmp_path):
        path = tmp_path / "c.tsv"
        with open(path, "w") as fh:
            fh.write(
                "u1\tv1\tc1\tMuseum\t40.7\t-74.0\t240\t"
                "Tue Apr 03 18:00:09 +0000 2012\n"
            )
        out = parse_checkins(path)
        oracle = calendar.timegm(
            time.strptime("Tue Apr 03 18:00:09 2012", "%a %b %d %H:%M:%S %Y")
        )
        assert out[0].timestamp == oracle == 1333476009

    def test_timestamp_fast_path_matches_strptime(self):
        # canonical strings and variants of each field's width, case, range
        # and the offset's form: the same float, or ValueError on both sides
        rng = np.random.default_rng(7)
        days, months = ("Mon", "Tue", "Sun"), ("Jan", "Feb", "Apr", "Dec")

        def vary(canonical, *variants):
            return canonical if rng.random() < 0.9 else variants[int(rng.integers(len(variants)))]

        corpus = []
        for _ in range(3000):
            d, hh, mm, ss = (int(rng.integers(k)) for k in (32, 24, 60, 62))
            oh, om, year = int(rng.integers(25)), int(rng.integers(60)), int(rng.integers(1, 10000))
            corpus.append(
                f"{days[d % 3]} {months[mm % 4]} {vary(f'{d:02d}', str(d), f'{d:2d}', '32')} "
                f"{vary(f'{hh:02d}', str(hh), '24')}:{vary(f'{mm:02d}', str(mm), '60')}:"
                f"{vary(f'{ss:02d}', str(ss), '62')} {'+-'[hh % 2]}"
                f"{vary(f'{oh:02d}{om:02d}', f'{oh:02d}:{om:02d}', f'{oh:02d}60')} "
                f"{vary(f'{year:04d}', '0000', str(year))}")
        corpus += ["tue apr 03 18:00:09 +0000 2012", "TUE APR 03 18:00:09 +0000 2012",
                   "Tue Apr 03 18:00:09 Z 2012", "Tue  Apr 03 18:00:09 +0000 2012",
                   "Tue Apr 03 18:00:09 +000000 2012", "Tue Apr 03 18:00:09 +0000 2012 ",
                   "Tuesday Apr 03 18:00:09 +0000 2012", "Tue Feb 29 00:00:00 +0000 2011",
                   "Tue Feb 29 00:00:00 +0000 2012", "Tue Apr 31 00:00:00 -2359 2012"]

        def outcome(parse, text):
            try:
                return parse(text)
            except ValueError:
                return ValueError

        strptime = lambda text: datetime.strptime(text, harness._FOURSQUARE_FMT).timestamp()
        results = [(outcome(harness._parse_timestamp, t), outcome(strptime, t)) for t in corpus]
        assert all(got == want for got, want in results)
        parsed = sum(got is not ValueError for got, _ in results)
        assert 1000 < parsed < len(corpus) - 1000  # both outcomes well covered

    def test_too_many_malformed_lines(self, tmp_path):
        path = tmp_path / "c.tsv"
        with open(path, "w") as fh:
            fh.write("garbage\n" * 5)
            fh.write("u1\tv1\tc1\tMuseum\t40.7\t-74.0\t100\n")
        with pytest.raises(FormatError):
            parse_checkins(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_checkins(tmp_path / "missing.tsv")


class TestDeriveZones:
    def test_floor_arithmetic(self):
        rec = CheckInRecord("u", "v", "c", "Museum", 40.0049, -73.989, 1.0)
        cat = Catalog.build([rec], 0.01)
        assert cat.zones == {(4000, -7399): 0} and cat.poi_zone == [0]

    def test_nearby_pois_share_zone(self):
        a = CheckInRecord("u", "va", "c", "Museum", 40.00500, -73.98500, 1.0)
        b = CheckInRecord("u", "vb", "c", "Museum", 40.00501, -73.98501, 2.0)
        cat = Catalog.build([a, b], 0.01)
        assert len(cat.zones) == 1 and cat.poi_zone == [0, 0]

    def test_boundary_uses_floor(self):
        rec = CheckInRecord("u", "v", "c", "Museum", 40.0, -74.0, 1.0)
        cat = Catalog.build([rec], 0.5)
        assert cat.zones == {(80, -148): 0} and cat.poi_zone == [0]


class TestSplitStream:
    def test_eighty_twenty(self):
        recs = make_cyclic_stream(10)
        train, test = split_stream(recs, 0.8)
        assert len(train) == 8 and len(test) == 2
        assert train + test == recs

    def test_single_record_floors_to_empty_train(self):
        recs = make_cyclic_stream(1)
        train, test = split_stream(recs, 0.8)
        assert len(train) == 0 and len(test) == 1

    def test_paper_scale_split(self):
        train, test = split_stream(list(range(15000)), 0.8)
        assert len(train) == 12000 and len(test) == 3000


class TestRunConfig:
    def test_file_roundtrip(self, tmp_path):
        cfg = _tiny_config(agent_mode="drpr-noexit", encoder_feedback=False)
        path = tmp_path / "run.cfg"
        path.write_text(cfg.to_text())
        assert RunConfig.from_file(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nonsense=1\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d=200\nk=5\nd=16\n")
        with pytest.raises(ConfigError, match="'d' given twice"):
            RunConfig.from_file(path)

    def test_bad_split_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(split_fraction=1.5)

    @pytest.mark.parametrize("key, val", [("d", "abc"), ("gamma", "high"), ("seed", "1.5")])
    def test_badly_typed_value_rejected(self, key, val):
        with pytest.raises(ConfigError, match=re.escape(f"{key!r}: {val!r}")):
            RunConfig.from_mapping({key: val})

    # each case sets one key just outside its range
    @pytest.mark.parametrize("key, val", [
        ("epsilon_start", 1.5), ("epsilon_start", -0.1), ("epsilon_end", 1.5),
        ("epsilon_end", -0.1), ("gamma", 1.5), ("gamma", -0.1),
        ("d_floor_km", 0.0), ("legacy_bin_hours", 0.0), ("legacy_bin_hours", -1.0),
        ("stream_offset", -1), ("train_every", -1), ("target_refresh", -1),
        ("incr_steps", -1), ("max_incr_triples", -1), ("init_epochs", -1),
        ("neg_per_pos", -1), ("qnet_hidden", 0), ("legacy_n", 0), ("gcn_layers", 0),
        ("cell_deg", 0.0), ("cell_deg", -0.01), ("lambda_d", float("nan")), ("seed", -1),
        ("lr_embed", float("nan")), ("lr_embed", -0.01), ("lr_q", float("nan")),
        ("lr_q", -0.01), ("lr_feedback", float("nan")), ("lr_feedback", -0.01),
        ("margin", float("nan")), ("margin", -1.0),
        *[(key, float("inf")) for key in ("lr_embed", "lr_q", "lr_feedback", "margin", "cell_deg",
                                           "d_floor_km", "legacy_bin_hours")],
    ])
    def test_out_of_range_value_rejected(self, key, val):
        with pytest.raises(ConfigError, match=rf"^{key} "):
            _tiny_config(**{key: val})

    def test_range_edges_accepted(self):
        _tiny_config(train_every=0, init_epochs=0, target_refresh=0, stream_offset=0,
                     incr_steps=0, max_incr_triples=0, neg_per_pos=0, gamma=0.0,
                     epsilon_start=1.0, epsilon_end=0.0, qnet_hidden=1, legacy_n=1,
                     gcn_layers=1)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            RunConfig(lambda_d=0.9, lambda_c=0.9, lambda_p=0.9)

    def test_epsilon_schedule_linear(self):
        cfg = _tiny_config(epsilon_start=0.5, epsilon_end=0.1)
        assert cfg.epsilon_at(0, 5) == 0.5
        assert cfg.epsilon_at(4, 5) == pytest.approx(0.1)
        assert cfg.epsilon_at(2, 5) == pytest.approx(0.3)


def _mirrored(records):
    """The records at negated coordinates, so cells fall below zero on both axes."""
    return [r._replace(lat=-r.lat, lon=-r.lon) for r in records]


def _jittered(records):
    """The records with coordinates that move per record; a venue keeps its first."""
    return [r._replace(lat=r.lat + 0.003 * (i % 5), lon=r.lon - 0.004 * (i % 3))
            for i, r in enumerate(records)]


class TestCatalog:
    def test_tsv_roundtrip(self, tmp_path):
        # str.splitlines breaks lines at each of these, and a check-in name may hold any of them
        for ch in ["", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]:
            recs = [r._replace(user=f"u{ch}0", venue=f"{r.venue}{ch}", category_name=f"{r.category_name}{ch}e")
                    for r in make_cyclic_stream(20)]
            cat = Catalog.build(recs, 0.01)
            assert vars(Catalog.from_tsv(cat.to_tsv())) == vars(cat), repr(ch)
            path = tmp_path / "catalog.tsv"  # through a file, as a bundle reads it
            path.write_text(cat.to_tsv())
            assert vars(harness._parse_file(path, Catalog.from_tsv)) == vars(cat), repr(ch)

    # `to_tsv` cannot write a tab or line break in a name, so a kept name may hold none
    @pytest.mark.parametrize("ch", ["\t", "\n", "\r"], ids=["tab", "newline", "return"])
    @pytest.mark.parametrize("name", ["user", "venue", "category_name"])
    def test_control_character_in_name_rejected(self, name, ch):
        recs = make_cyclic_stream(20)
        rec = recs[3]._replace(venue="v-new")  # a new venue, so its category name is kept
        recs[3] = rec._replace(**{name: getattr(rec, name) + ch + "e"})
        with pytest.raises(DataError, match="tab or line break"):
            Catalog.build(recs, 0.01)

    # 0.5 puts every drifting POI of a cluster, and several clusters, in one cell
    @pytest.mark.parametrize("cell_deg", [0.001, 0.01, 0.05, 0.5])
    @pytest.mark.parametrize("stream", [
        lambda seed: make_drifting_stream(n_events=300, seed=seed),
        lambda seed: _mirrored(make_drifting_stream(n_events=300, seed=seed)),
        lambda seed: _jittered(make_drifting_stream(n_events=300, seed=seed)),
        lambda seed: make_cyclic_stream(40, n_pois=9, cycle=(seed % 9, 4, 8)),
    ], ids=["drifting", "drifting-mirrored", "drifting-jittered", "cyclic"])
    def test_matches_oracle(self, stream, cell_deg):
        for seed in range(3):
            recs = stream(seed)
            cat = Catalog.build(recs, cell_deg)
            old = catalog_oracle.Catalog.build(recs, cell_deg)
            assert vars(cat) == vars(old)
            assert vars(Catalog.from_tsv(cat.to_tsv())) == vars(old)
            assert vars(catalog_oracle.Catalog.from_tsv(old.to_tsv())) == vars(old)

    @pytest.mark.parametrize("lat, lon", [(float("nan"), 0.0), (0.0, float("inf")), (999.0, 0.0)])
    def test_bad_coordinates_rejected(self, lat, lon):
        # the rule `parse_checkins` and `catalog.tsv` follow holds for given records too
        recs = make_cyclic_stream(20)
        recs[5] = recs[5]._replace(venue="v-far", lat=lat, lon=lon)
        with pytest.raises(DataError):
            Catalog.build(recs, 0.01)


class TestTrainingLoop:
    def test_smoke_run_produces_log_and_artifacts(self):
        cfg = _tiny_config()
        artifacts, log, report = run_training(cfg, records=make_cyclic_stream(40))
        assert len(log) == 24  # floor(0.8 * 30)
        assert report["events"] == 24
        assert artifacts.env.embedder is not None
        assert artifacts.env.kg.version == 24  # every train event applied
        assert all(0.0 < e.reward < 1.0 for e in log.events)

    def test_zero_training_events(self):
        cfg = _tiny_config(stream_length=1)
        artifacts, log, report = run_training(cfg, records=make_cyclic_stream(5))
        assert len(log) == 0
        assert artifacts.net.store.step_count == 0

    def test_determinism_byte_identical_traces(self):
        cfg = _tiny_config(seed=11)
        _, log_a, _ = run_training(cfg, records=make_cyclic_stream(40))
        _, log_b, _ = run_training(cfg, records=make_cyclic_stream(40))
        assert log_a.to_trace_csv() == log_b.to_trace_csv()

    def test_seed_changes_trace(self):
        a = run_training(_tiny_config(seed=1), records=make_cyclic_stream(40))[1]
        b = run_training(_tiny_config(seed=2), records=make_cyclic_stream(40))[1]
        assert a.to_trace_csv() != b.to_trace_csv()

    def test_causality_no_future_reads(self):
        accesses = []

        class ProbeList(list):
            def __getitem__(self, i):
                if isinstance(i, slice):
                    return ProbeList(list.__getitem__(self, i))
                accesses.append(i)
                return list.__getitem__(self, i)

        fence = {"step": -1}

        def progress(l):
            if accesses:
                assert max(accesses) <= l - 1, (
                    f"read event {max(accesses)} before predicting step {l}"
                )
            fence["step"] = l

        cfg = _tiny_config()
        run_training(cfg, records=ProbeList(make_cyclic_stream(40)), progress=progress)
        assert fence["step"] == 23
        assert max(accesses) == 23

    def test_static_mode_never_touches_graph(self):
        cfg = _tiny_config(agent_mode="drpr-static")
        artifacts, log, _ = run_training(cfg, records=make_cyclic_stream(40))
        assert artifacts.env.kg.version == 0
        assert len(log) == 24

    def test_noexit_mode_keeps_every_visit(self):
        cfg = _tiny_config(agent_mode="drpr-noexit", w=2)
        artifacts, _, _ = run_training(cfg, records=make_cyclic_stream(40))
        assert len(probes.window_events(artifacts.env.kg, 0)) == 24  # far beyond w=2

    def test_nocand_mode_uses_full_action_set(self):
        cfg = _tiny_config(agent_mode="drpr-nocand")
        artifacts, log, _ = run_training(cfg, records=make_cyclic_stream(40))
        assert len(log) == 24

    def test_rirl_mode_runs(self):
        cfg = _tiny_config(agent_mode="rirl")
        artifacts, log, _ = run_training(cfg, records=make_cyclic_stream(40))
        assert artifacts.env.params is not None
        assert len(log) == 24

    @pytest.mark.parametrize("mode", ["drpr", "drpr-static", "rirl"])
    def test_non_finite_timestamp_fails_loudly(self, mode):
        # in-memory records skip parse_checkins, which drops such lines
        records = make_cyclic_stream(40)
        records[5] = records[5]._replace(timestamp=float("nan"))
        with pytest.raises(DataError, match="not finite"):
            run_training(_tiny_config(agent_mode=mode), records=records)

    @pytest.mark.parametrize("mode", ["drpr", "rirl"])
    def test_td_priority_scores_the_next_state_once(self, mode, monkeypatch):
        # the TD priority's max Q(s', .) is the greedy scoring of the event
        # that pushes it, so that event makes one Q-net forward fewer
        forward, select = policy.QNet.forward, policy.select_action
        calls = {"forward": 0}

        def counting(net, x):
            calls["forward"] += 1
            return forward(net, x)

        def run(reuse):
            calls.update(forward=0, greedy_pushed=0)

            def selecting(net, state, actions, epsilon, rng, q=None):
                before = calls["forward"]
                row = select(net, state, actions, epsilon, rng, q if reuse else None)
                scored = calls["forward"] - before
                if reuse and q is not None:
                    assert scored == 0
                calls["greedy_pushed"] += scored == 1 and q is not None
                return row

            monkeypatch.setattr(policy, "select_action", selecting)
            _, log, _ = run_training(_tiny_config(agent_mode=mode, seed=5), records=make_cyclic_stream(40))
            return log.to_trace_csv(), dict(calls)

        monkeypatch.setattr(policy.QNet, "forward", counting)
        trace, once = run(reuse=True)
        old_trace, twice = run(reuse=False)
        assert trace == old_trace
        assert twice["greedy_pushed"] > 0
        assert once["forward"] == twice["forward"] - twice["greedy_pushed"]


def _event_values(i, users, venues):
    return (i, users[i % 7], venues[i % 5], venues[(i + 1) % 5], i % 5, (i + 1) % 5,
            1.0 / (i + 3), 0.1 * i, -0.5 / (i + 1), float(i % 2))


class TestEpisodeLog:
    def test_events_are_the_records_added(self):
        users, venues = [f"u{i}" for i in range(7)], [f"v{i}" for i in range(5)]
        log = harness.EpisodeLog()
        for i in range(40):
            log.add(*_event_values(i, users, venues))
        assert len(log) == 40
        assert log.events == [harness.EventRecord(*_event_values(i, users, venues))
                              for i in range(40)]
        assert all(e.user is users[e.index % 7] for e in log.events)  # references, not copies

    def test_short_event_rejected(self):
        with pytest.raises(ValueError):
            harness.EpisodeLog().add(0, "u0", "v0", "v1", 0, 1, 0.5)

    def test_memory_per_event(self):
        users, venues = [f"u{i}" for i in range(7)], [f"v{i}" for i in range(5)]
        n = 10_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = harness.EpisodeLog()
            for i in range(n):
                log.add(*_event_values(i, users, venues))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log) == n
        assert held / n <= 128


class TestEval:
    def _trained(self, **overrides):
        cfg = _tiny_config(**overrides)
        records = make_cyclic_stream(40)
        artifacts, _, _ = run_training(cfg, records=records)
        _, test_events = split_stream(records[: cfg.stream_length], cfg.split_fraction)
        return cfg, artifacts, test_events

    def test_report_schema(self):
        cfg, artifacts, test_events = self._trained()
        report, _ = run_eval(cfg, artifacts, test_events)
        assert set(report) == {"prec_cat", "rec_cat", "avg_sim", "avg_dist_km", "wall_s"}

    def test_perfect_oracle_agent(self, monkeypatch):
        # every POI is a candidate under drpr-nocand, and a POI's row is its index
        cfg, artifacts, test_events = self._trained(agent_mode="drpr-nocand")
        reals = iter(test_events)  # the replay selects once per event, in order

        def oracle(net, state, actions, epsilon, rng, q=None):
            return artifacts.catalog.venues[next(reals).venue]

        monkeypatch.setattr(policy, "select_action", oracle)
        report, _ = run_eval(cfg, artifacts, test_events)
        assert report["prec_cat"] == 1.0
        assert report["rec_cat"] == 1.0
        assert report["avg_sim"] == 1.0
        assert report["avg_dist_km"] == 0.0

    def test_random_agent_scores_near_candidate_floor(self, monkeypatch):
        # a uniform-random agent cannot see the real POI, so its category
        # precision sits at the user-blind level (the largest real-category
        # share), here 1/6 because reals span all six categories uniformly
        records = make_cyclic_stream(1300, n_pois=6, cycle=(0, 1, 2, 3, 4, 5))
        cfg = _tiny_config(
            stream_length=1300, split_fraction=0.2, init_epochs=0,
            train_every=0, incr_steps=1, max_incr_triples=6, seed=8,
        )
        artifacts, _, _ = run_training(cfg, records=list(records))
        _, test_events = split_stream(records[:1300], cfg.split_fraction)
        assert len(test_events) >= 1000

        def agent(net, state, actions, epsilon, rng, q=None):
            return int(rng.integers(len(actions)))

        monkeypatch.setattr(policy, "select_action", agent)
        report, _ = run_eval(cfg, artifacts, test_events)
        assert abs(report["prec_cat"] - 1.0 / 6.0) < 0.04

    @pytest.mark.parametrize("mode", ["drpr", "rirl"])
    def test_second_eval_repeats_first(self, mode, tmp_path):
        cfg, artifacts, test_events = self._trained(agent_mode=mode)

        def saved(name):
            artifacts.save(tmp_path / name)
            return {f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}

        before = saved("before")
        report1, log1 = run_eval(cfg, artifacts, test_events)
        report2, log2 = run_eval(cfg, artifacts, test_events)
        del report1["wall_s"], report2["wall_s"]
        assert report2 == report1
        assert log2.to_trace_csv() == log1.to_trace_csv()
        assert saved("after") == before  # the replay ran on copies

    @pytest.mark.parametrize("mode", ["drpr", "rirl"])
    def test_frozen_eval_freezes_replica(self, mode):
        cfg, artifacts, test_events = self._trained(agent_mode=mode)
        users, venues = artifacts.catalog.users, artifacts.catalog.venues
        rng = np.random.default_rng(0)
        live = artifacts.env.replica(cfg, rng)
        frozen = artifacts.env.replica(replace(cfg, frozen_eval=True), rng)
        moved = False
        for rec in test_events:
            u, p = users[rec.user], venues[rec.venue]
            before, live_before = frozen.observe(u)[0].copy(), live.observe(u)[0].copy()
            frozen.advance(u, p, rec.timestamp)
            live.advance(u, p, rec.timestamp)
            np.testing.assert_array_equal(frozen.observe(u)[0], before)
            moved = moved or not np.array_equal(live.observe(u)[0], live_before)
        assert moved  # the same replay does move a live replica

    def test_replica_patches_its_own_memo(self):
        cfg, artifacts, test_events = self._trained()
        users, venues = artifacts.catalog.users, artifacts.catalog.venues
        source = artifacts.env.embedder.joint_all()
        kept = source.copy()
        replica = artifacts.env.replica(cfg, np.random.default_rng(0))
        memo = replica.embedder.joint_all()
        assert memo is not source
        for rec in test_events[:5]:
            replica.observe(users[rec.user])
            replica.advance(users[rec.user], venues[rec.venue], rec.timestamp)
        assert replica.embedder.joint_all() is memo  # patched in place
        assert not np.array_equal(memo, kept)
        assert artifacts.env.embedder.joint_all() is source
        np.testing.assert_array_equal(source, kept)

    def test_replica_leaves_the_source_graph_alone(self):
        cfg, artifacts, test_events = self._trained()
        kg = artifacts.env.kg
        entities = [k for k in kg.object_keys() if not kgstore.key_is_relation(k)]

        def state():
            runs = {k: kg.triples_incident_to([k]) for k in entities}
            return kg.export_snapshot(), kg.triples(), list(kg.by_visits()), runs, dict(kg._runs)

        before = state()
        run_eval(cfg, artifacts, test_events)
        after = state()
        assert after[:4] == before[:4]
        assert after[4].keys() == before[4].keys()
        assert all(after[4][k] is run for k, run in before[4].items())

    def test_replica_continues_like_a_generic_deep_copy(self, tmp_path):
        # the graph's own __deepcopy__ against copy.deepcopy as it ran before it
        cfg, artifacts, test_events = self._trained()
        env, wv = artifacts.env, harness._load_wordvecs(cfg)
        kg, embedder = kg_oracle.generic_deepcopy(env.kg, env.embedder)
        envs = {"mine": env.replica(cfg, None), "generic": harness._DrprDriver(cfg, env.catalog, kg, embedder)}
        out = {}
        for name, replica in envs.items():
            net = artifacts.net.clone()
            buf = policy.PriorityReplayBuffer(cfg.buffer_capacity, cfg.priority_mode)
            log = harness._replay_stream(replica, net, test_events, np.random.default_rng(4), wv, buf)
            replica.save(tmp_path)
            out[name] = (log.to_trace_csv(), *(
                (tmp_path / f).read_bytes() for f in ("embeddings.bin", "encoder.bin", "kg_snapshot.txt")
            ))
        assert out["mine"] == out["generic"]
        assert envs["mine"].kg.version == env.kg.version + len(test_events)

    @pytest.mark.parametrize("mode", ["drpr", "rirl"])
    def test_frozen_eval_rejects_non_finite_timestamp(self, mode):
        # a frozen replica applies no visit, so the loop itself must check
        cfg, artifacts, test_events = self._trained(agent_mode=mode)
        test_events[2] = test_events[2]._replace(timestamp=float("inf"))
        with pytest.raises(DataError, match="not finite"):
            run_eval(replace(cfg, frozen_eval=True), artifacts, test_events)

    def test_unknown_test_user_rejected(self):
        cfg, artifacts, _ = self._trained()
        alien = [CheckInRecord("uX", "v0", "c0", "Museum", 40.7, -74.0, 2e9)]
        with pytest.raises(CompatibilityError):
            run_eval(cfg, artifacts, alien)

    def test_dimension_mismatch_rejected(self, tmp_path):
        cfg, artifacts, test_events = self._trained()
        artifacts.save(tmp_path)
        bad = _tiny_config(d=16)
        with pytest.raises(CompatibilityError):
            Artifacts.load(tmp_path, bad)


class TestArtifactsRoundtrip:
    def test_drpr_save_load_eval(self, tmp_path):
        cfg = _tiny_config()
        records = make_cyclic_stream(40)
        artifacts, _, _ = run_training(cfg, records=records)
        artifacts.save(tmp_path)
        loaded = Artifacts.load(tmp_path)
        assert loaded.config == cfg
        assert loaded.env.kg.export_snapshot() == artifacts.env.kg.export_snapshot()
        for key in probes.table_keys(artifacts.env.embedder):
            np.testing.assert_array_equal(
                probes.row(loaded.env.embedder, key), probes.row(artifacts.env.embedder, key)
            )
        _, test_events = split_stream(records[: cfg.stream_length], cfg.split_fraction)
        report, _ = run_eval(cfg, loaded, test_events)
        assert set(report) == {"prec_cat", "rec_cat", "avg_sim", "avg_dist_km", "wall_s"}

    def test_drpr_load_then_eval_matches_memory(self, tmp_path):
        # eval draws negatives and triple samples from the embedder's
        # generator, so a reload must resume it where training left it; the
        # large embedding steps make a reseeded generator change predictions
        cfg = _tiny_config(stream_length=60, lr_embed=0.5, incr_steps=3, seed=4)
        records = make_cyclic_stream(60, n_pois=9)
        artifacts, _, _ = run_training(cfg, records=records)
        artifacts.save(tmp_path)
        loaded = Artifacts.load(tmp_path)
        assert loaded.env.embedder.rng.bit_generator.state == artifacts.env.embedder.rng.bit_generator.state
        _, test_events = split_stream(records[: cfg.stream_length], cfg.split_fraction)
        loaded_report, loaded_log = run_eval(cfg, loaded, test_events)
        report, log = run_eval(cfg, artifacts, test_events)
        del report["wall_s"], loaded_report["wall_s"]
        assert loaded_report == report
        assert loaded_log.to_trace_csv() == log.to_trace_csv()

    @pytest.mark.parametrize("damage", [
        None, "", "[1, 2]", '{"bit_generator": "MT19937"}',
        '{"bit_generator": "PCG64", "state": {"state": 1.5, "inc": 1}, "has_uint32": 0, "uinteger": 0}',
    ])
    def test_damaged_rng_rejected(self, tmp_path, damage):
        artifacts, _, _ = run_training(_tiny_config(), records=make_cyclic_stream(40))
        artifacts.save(tmp_path)
        path = tmp_path / "embed_rng.json"
        if damage is None:
            path.unlink()
        else:
            path.write_text(damage)
        with pytest.raises(IngestionError, match="embed_rng.json"):
            Artifacts.load(tmp_path)

    def test_rirl_save_load(self, tmp_path):
        cfg = _tiny_config(agent_mode="rirl")
        artifacts, _, _ = run_training(cfg, records=make_cyclic_stream(40))
        artifacts.save(tmp_path)
        loaded = Artifacts.load(tmp_path)
        assert loaded.env.params is not None
        np.testing.assert_array_equal(
            loaded.env.params.store.get("temporal/w_in"),
            artifacts.env.params.store.get("temporal/w_in"),
        )

    def test_cut_qnet_rejected(self, tmp_path):
        artifacts, _, _ = run_training(_tiny_config(), records=make_cyclic_stream(40))
        artifacts.save(tmp_path)
        qnet = tmp_path / "qnet.bin"
        qnet.write_bytes(qnet.read_bytes()[:-8])
        with pytest.raises(IngestionError, match="qnet.bin"):
            Artifacts.load(tmp_path)

    def test_cut_embeddings_rejected(self, tmp_path):
        artifacts, _, _ = run_training(_tiny_config(), records=make_cyclic_stream(40))
        artifacts.save(tmp_path)
        emb = tmp_path / "embeddings.bin"
        emb.write_bytes(emb.read_bytes()[:-8])
        with pytest.raises(IngestionError, match="embeddings.bin"):
            Artifacts.load(tmp_path)


class TestArtifactFiles:
    _SHARED = {"config.txt", "catalog.tsv", "qnet.bin"}
    _ENV = {"drpr": {"kg_snapshot.txt", "embeddings.bin", "encoder.bin", "embed_rng.json"},
            "rirl": {"legacy.bin"}}

    @pytest.mark.parametrize("mode", harness.AGENT_MODES)
    def test_save_load_save_is_byte_identical(self, mode, tmp_path):
        cfg = _tiny_config(agent_mode=mode)
        records = make_cyclic_stream(40)
        artifacts, _, _ = run_training(cfg, records=records)
        artifacts.save(tmp_path / "a")
        loaded = Artifacts.load(tmp_path / "a")
        loaded.save(tmp_path / "b")
        files = {f.name: f.read_bytes() for f in (tmp_path / "a").iterdir()}
        assert set(files) == self._SHARED | self._ENV["rirl" if mode == "rirl" else "drpr"]
        assert {f.name: f.read_bytes() for f in (tmp_path / "b").iterdir()} == files
        # and the reload evaluates exactly like the artifacts in memory
        _, test_events = split_stream(records[: cfg.stream_length], cfg.split_fraction)
        assert (run_eval(cfg, loaded, test_events)[1].to_trace_csv()
                == run_eval(cfg, artifacts, test_events)[1].to_trace_csv())

    # per file: a parameter entry to drop, and one to cut to a shape that broadcasts
    _ENTRIES = {
        "encoder.bin": ("gate", "att/scale"),
        "qnet.bin": ("out/b", "fc1/b"),
        "legacy.bin": ("param/user/gate_b", "param/temporal/bias"),
    }

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        runs = {
            "drpr": ("drpr", make_cyclic_stream(40)),
            "rirl": ("rirl", make_cyclic_stream(40)),
            "drpr-9-pois": ("drpr", make_cyclic_stream(40, n_pois=9)),
        }
        dirs = {}
        for name, (mode, records) in runs.items():
            dirs[name] = tmp_path_factory.mktemp(name)
            artifacts, _, _ = run_training(_tiny_config(agent_mode=mode), records=records)
            artifacts.save(dirs[name])
        return dirs

    @pytest.mark.parametrize("damage", ["missing", "unknown", "wrong-shape", "non-finite"])
    @pytest.mark.parametrize("name", ["encoder.bin", "qnet.bin", "legacy.bin"])
    def test_damaged_parameters_rejected(self, saved, tmp_path, name, damage):
        shutil.copytree(saved["rirl" if name == "legacy.bin" else "drpr"], tmp_path, dirs_exist_ok=True)
        mats = load_matrices(tmp_path / name)
        dropped, cut = self._ENTRIES[name]
        if damage == "missing":
            entry = dropped
            del mats[entry]
        elif damage == "unknown":
            entry = "param/bogus" if name == "legacy.bin" else "bogus"
            mats[entry] = np.zeros(1)
        elif damage == "wrong-shape":
            entry = cut
            mats[entry] = mats[entry][:1]
        else:  # a NaN weight would load and score every candidate NaN
            entry = cut
            mats[entry][0] = np.nan
        save_matrices(tmp_path / name, mats)
        with pytest.raises(IngestionError, match=f"{re.escape(name)}: .*'{re.escape(entry)}'"):
            Artifacts.load(tmp_path)

    # an entry of legacy.bin: how to damage it, and the entry the error names;
    # head/, rel/ and tail/ vectors are the per-vector entries of an older layout
    @pytest.mark.parametrize("damage, entry", [
        ("missing", "rep/heads"),
        ("missing", "rep/rels"),
        ("missing", "rep/tails"),
        ("unknown", "rep/bogus"),
        ("unknown", "head/6"),
        ("unknown", "rel/also_visit"),
        ("unknown", "tail/cat:9"),
        ("unknown", "user/u0"),
        ("short", "rep/heads"),
        ("short", "rep/rels"),
        ("short", "rep/tails"),
        ("unknown", "user/1"),
        ("unknown", "user/00"),
        ("short", "user/0"),
        ("row-fewer", "rep/heads"),
        ("row-fewer", "rep/tails"),
        ("matrix", "user/0"),
    ])
    def test_damaged_legacy_vectors_rejected(self, saved, tmp_path, damage, entry):
        shutil.copytree(saved["rirl"], tmp_path, dirs_exist_ok=True)
        mats = load_matrices(tmp_path / "legacy.bin")
        if damage == "missing":
            del mats[entry]
        elif damage == "unknown":
            mats[entry] = mats["user/0"]
        elif damage == "short":
            mats[entry] = mats[entry][..., :2]
        elif damage == "row-fewer":
            mats[entry] = mats[entry][:-1]
        else:
            mats[entry] = mats[entry][None, :]
        save_matrices(tmp_path / "legacy.bin", mats)
        with pytest.raises(IngestionError, match=f"legacy.bin: .*'{re.escape(entry)}'"):
            Artifacts.load(tmp_path)

    # the saved catalog.tsv has a U line, then six P lines; each damage replaces
    # line `no` by `text`, and the error names that line
    _CATALOG_DAMAGE = {
        "cut-mid-line": (7, "P\tv2\t4072\t-7398\t40.72"),
        "unparsable-index": (2, "P\tv3\tzero\t-7397\t40.73\t-73.97\tGym"),
        "unparsable-latitude": (2, "P\tv3\t4073\t-7397\tnorth\t-73.97\tGym"),
        "nan-latitude": (2, "P\tv3\t4073\t-7397\tnan\t-73.97\tGym"),
        "inf-longitude": (2, "P\tv3\t4073\t-7397\t40.73\tinf\tGym"),
        "latitude-out-of-range": (2, "P\tv3\t4073\t-7397\t999.0\t-73.97\tGym"),
        "unknown-tag": (7, "X\tv2"),
        "duplicate-user": (2, "U\tu0"),
        "duplicate-venue": (3, "P\tv3\t4074\t-7396\t40.74\t-73.96\tBeach"),
        "old-format-category-line": (2, "C\t0\tGym"),
    }

    @pytest.mark.parametrize("damage", list(_CATALOG_DAMAGE))
    def test_damaged_catalog_rejected(self, saved, tmp_path, damage):
        no, text = self._CATALOG_DAMAGE[damage]
        shutil.copytree(saved["drpr"], tmp_path, dirs_exist_ok=True)
        lines = (tmp_path / "catalog.tsv").read_text().splitlines()
        assert "".join(line[0] for line in lines) == "U" + "P" * 6
        lines[no - 1] = text
        (tmp_path / "catalog.tsv").write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match=f"catalog.tsv: line {no}: "):
            Artifacts.load(tmp_path)

    # files of runs that disagree: (mode of the saved run, run to copy `name`
    # from, eval config changes); the error names `name`
    _MISMATCHES = {
        "rirl-qnet-in-drpr": ("drpr", "rirl", {}, "qnet.bin"),
        "drpr-qnet-in-rirl": ("rirl", "drpr", {}, "qnet.bin"),
        "drpr-qnet_hidden": ("drpr", None, {"qnet_hidden": 12}, "qnet.bin"),
        "rirl-qnet_hidden": ("rirl", None, {"qnet_hidden": 12}, "qnet.bin"),
        "fewer-gcn_layers": ("drpr", None, {"gcn_layers": 1}, "encoder.bin"),
        "more-gcn_layers": ("drpr", None, {"gcn_layers": 3}, "encoder.bin"),
        "legacy_n": ("rirl", None, {"legacy_n": 5}, "legacy.bin"),
        "snapshot-of-other-pois": ("drpr", "drpr-9-pois", {}, "kg_snapshot.txt"),
        "embeddings-of-other-pois": ("drpr", "drpr-9-pois", {}, "embeddings.bin"),
    }

    @pytest.mark.parametrize("case", list(_MISMATCHES))
    def test_mismatched_bundle_rejected(self, saved, tmp_path, case):
        mode, source, overrides, name = self._MISMATCHES[case]
        shutil.copytree(saved[mode], tmp_path, dirs_exist_ok=True)
        if source is not None:
            shutil.copy(saved[source] / name, tmp_path / name)
        with pytest.raises(GeostreamError, match=re.escape(name)):
            Artifacts.load(tmp_path, _tiny_config(agent_mode=mode, **overrides))

    def test_rirl_bundle_evaluates_under_another_window(self, saved):
        # the legacy mode keeps no graph, so its bundle (saved at w=5) ignores `w`
        _, test_events = split_stream(make_cyclic_stream(40)[:30], 0.8)
        runs = []
        for w in (5, 7):
            cfg = _tiny_config(agent_mode="rirl", w=w)
            report, log = run_eval(cfg, Artifacts.load(saved["rirl"], cfg), test_events)
            del report["wall_s"]
            runs.append((report, log.to_trace_csv()))
        assert runs[1] == runs[0]

    # a drpr-static graph never gains a visit triple or a user: a row of the
    # visit relation kind stands for one whose last triple was evicted, and
    # may stay; a user's row may not, nor a row of a code that names no
    # relation kind
    @pytest.mark.parametrize("key, loads", [
        (kgstore.rel_key(kgstore.RelType.VISIT), True),
        (kgstore.ent_key(kgstore.user(0)), False),
        ((kgstore.REL_KEY_BASE + len(kgstore.RelType), 0), False),
        ((12, 7), False),
    ], ids=["visit-relation", "user", "code-past-the-relation-kinds", "far-code"])
    def test_embedding_rows_beyond_the_graph(self, tmp_path, key, loads):
        artifacts, _, _ = run_training(
            _tiny_config(agent_mode="drpr-static"), records=make_cyclic_stream(40))
        artifacts.save(tmp_path)
        mats = load_matrices(tmp_path / "embeddings.bin")
        assert key not in {tuple(k) for k in mats["keys"].astype(int)}
        mats["keys"] = np.vstack([mats["keys"], key])
        mats["vecs"] = np.vstack([mats["vecs"], np.zeros(mats["vecs"].shape[1])])
        save_matrices(tmp_path / "embeddings.bin", mats)
        if loads:
            Artifacts.load(tmp_path)
        else:
            with pytest.raises(CompatibilityError, match="embeddings.bin"):
                Artifacts.load(tmp_path)

    def test_loaded_rows_follow_the_file(self, saved, tmp_path):
        shutil.copytree(saved["drpr"], tmp_path, dirs_exist_ok=True)
        mats = load_matrices(tmp_path / "embeddings.bin")
        keys = [tuple(k) for k in mats["keys"].astype(int).tolist()]
        assert keys != sorted(keys)  # visits indexed users after the skeleton
        save_matrices(tmp_path / "embeddings.bin", {k: v[::-1] for k, v in mats.items()})
        emb = Artifacts.load(tmp_path).env.embedder
        assert emb.kg.keys == keys[::-1]
        for key, vec in zip(keys, mats["vecs"]):
            np.testing.assert_array_equal(probes.row(emb, key), vec)

    def test_drpr_without_embeddings_names_the_file(self, saved, tmp_path):
        shutil.copytree(saved["drpr"], tmp_path, dirs_exist_ok=True)
        (tmp_path / "embeddings.bin").unlink()
        with pytest.raises(FileNotFoundError, match="embeddings.bin"):
            Artifacts.load(tmp_path)


class TestSweepAndInspect:
    def test_sweep_grid(self):
        cfg = _tiny_config(stream_length=15, init_epochs=0, train_every=0)
        rows = sweep_reward(cfg, grid_steps=2, records=make_cyclic_stream(15))
        assert len(rows) == 6  # simplex points with step 1/2
        for row in rows:
            assert abs(row["lambda_d"] + row["lambda_c"] + row["lambda_p"] - 1) < 1e-9
            assert "prec_cat" in row and "wall_s" in row

    @pytest.mark.parametrize("mode", ["drpr", "rirl"])
    def test_inspect_kg(self, mode, tmp_path):
        cfg = _tiny_config(agent_mode=mode)
        artifacts, _, _ = run_training(cfg, records=make_cyclic_stream(40))
        artifacts.save(tmp_path)
        summary = harness.inspect_kg(tmp_path)
        assert summary["pois"] == 6
        assert summary["window_capacity"] == cfg.w
        if mode == "rirl":  # no graph: the skeleton of the catalog alone
            assert summary["triples"] == 2 * 6 and summary["users"] == 0
        else:
            assert summary["triples"] == len(artifacts.env.kg.triples())

    def test_inspect_kg_top_pois_by_visits(self, tmp_path):
        cfg = _tiny_config()
        artifacts, _, _ = run_training(cfg, records=make_cyclic_stream(40))
        artifacts.save(tmp_path)
        kg = artifacts.env.kg
        oracle = kg_oracle.DynamicKg()  # its popularity reads only the counts
        oracle.visit_counts = dict(kg.visit_counts)
        top = oracle.popularity(kg.entities(kgstore.EntityKind.POI))[:5]
        summary = harness.inspect_kg(tmp_path)
        assert summary["top_pois_by_visits"] == [(p, kg.visit_counts[p]) for p in top]
        assert len({n for _, n in summary["top_pois_by_visits"]}) > 1  # the order is by visits


class TestWordvecs:
    def test_env_var_changes_nothing(self, tmp_path, monkeypatch):
        # the vectors come from the config alone, so a bundle's `wordvecs=` line
        # names the vectors that trained it
        alt = tmp_path / "alt.txt"
        alt.write_text("museum 1 2\n")
        cfg = _tiny_config()
        records = make_cyclic_stream(40)
        _, test_events = split_stream(records[:30], 0.8)
        runs = []
        for setting in (None, str(alt)):
            if setting is not None:
                monkeypatch.setenv("GEOSTREAM_WORDVECS", setting)
            artifacts, log, _ = run_training(cfg, records=records)
            report, eval_log = run_eval(cfg, artifacts, test_events)
            del report["wall_s"]
            runs.append((log.to_trace_csv(), report, eval_log.to_trace_csv()))
        assert runs[1] == runs[0]


class TestCli:
    def test_train_eval_inspect(self, tmp_path, capsys):
        records = make_cyclic_stream(40)
        data = tmp_path / "stream.tsv"
        _write_tsv(data, records)
        cfg = _tiny_config(dataset=str(data))
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfg.to_text())
        out_dir = tmp_path / "artifacts"

        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "trace.csv").exists()
        assert (out_dir / "report.json").exists()

        assert cli.main(["eval", "--config", str(cfg_path), "--artifacts", str(out_dir)]) == 0
        report = json.loads((out_dir / "eval_report.json").read_text())
        assert set(report) == {"prec_cat", "rec_cat", "avg_sim", "avg_dist_km", "wall_s"}

        assert cli.main(["inspect-kg", "--artifacts", str(out_dir)]) == 0
        assert '"pois": 6' in capsys.readouterr().out

    def test_train_seed_flag_matches_config_seed(self, tmp_path):
        data = tmp_path / "stream.tsv"
        _write_tsv(data, make_cyclic_stream(40))
        base = tmp_path / "base.cfg"
        base.write_text(_tiny_config(dataset=str(data)).to_text())  # seed 3
        seeded = tmp_path / "seeded.cfg"
        seeded.write_text(_tiny_config(dataset=str(data), seed=7).to_text())
        flag, conf = tmp_path / "flag", tmp_path / "conf"
        assert cli.main(["train", "--config", str(base), "--seed", "7", "--out", str(flag)]) == 0
        assert cli.main(["train", "--config", str(seeded), "--out", str(conf)]) == 0
        assert "seed=7" in (flag / "config.txt").read_text().splitlines()
        assert (flag / "config.txt").read_text() == (conf / "config.txt").read_text()
        assert (flag / "trace.csv").read_text() == (conf / "trace.csv").read_text()

    @pytest.mark.parametrize("command", [
        ["train", "--out", "out"], ["eval", "--artifacts", "out"],
        ["sweep-reward", "--grid-steps", "1"],
    ])
    def test_missing_dataset_is_a_config_error(self, tmp_path, command):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(_tiny_config().to_text())  # dataset left empty
        with pytest.raises(ConfigError, match="dataset"):
            cli.main([*command, "--config", str(cfg_path)])

    def test_sweep_writes_csv(self, tmp_path):
        records = make_cyclic_stream(15)
        data = tmp_path / "stream.tsv"
        _write_tsv(data, records)
        cfg = _tiny_config(dataset=str(data), stream_length=15, init_epochs=0, train_every=0)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfg.to_text())
        out = tmp_path / "sweep.csv"
        assert cli.main([
            "sweep-reward", "--config", str(cfg_path), "--grid-steps", "1",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("lambda_d,lambda_c,lambda_p")
        assert len(lines) == 4  # header + 3 simplex corners


def test_target_refresh_mode_runs():
    cfg = _tiny_config(target_refresh=5)
    artifacts, log, _ = run_training(cfg, records=make_cyclic_stream(40))
    assert len(log) == 24
