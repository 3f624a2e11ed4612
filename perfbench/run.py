"""geostream closed-loop benchmark.

    python3 perfbench/run.py --workload hub --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

One workload per process. ``--trace 0`` times untraced episodes for the
end-to-end metrics; ``--trace 1`` runs one traced episode, compares it
with an untraced run in a fresh process, and reports the per-layer
metrics. ``--workload all`` does both for every workload. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``. Metric names and units come from BENCHMARK.json.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: OpenBLAS would start one thread per CPU.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

# A run must end within this many seconds; the traced run's untraced
# reference process gets what is left of it.
RUN_LIMIT_S = 175.0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_program():
    """Import geostream from this checkout's ``src/``, nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import geostream
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import geostream from {SRC}: {exc}")
    if not os.path.abspath(geostream.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: geostream resolved to {geostream.__file__}, not {SRC}")


@dataclass(frozen=True)
class Workload:
    spec: dict  # streamgen.StreamSpec fields
    config: dict  # RunConfig fields
    setup_reps: int  # set-up-only runs besides each episode's own


# Each phase has at least 256 events, so every p95 has ten samples beyond
# it. A hub run is one episode of about 45 s on a 2-CPU machine; a legacy
# episode takes about 3.5 s, so a run repeats it for --seconds.
WORKLOADS = {
    "hub": Workload(
        spec=dict(n_users=20, n_events=512, n_categories=5, pois_per_category=10,
                  hub_pois=200, hub_zones=40, hub_slots=20),
        config=dict(agent_mode="drpr", d=16, k=10, w=5, qnet_hidden=64,
                    gcn_layers=1, init_epochs=1, split_fraction=0.5,
                    incr_steps=1, max_incr_triples=10, train_every=32),
        setup_reps=2,
    ),
    "legacy": Workload(
        spec=dict(n_users=100, n_events=1000, n_categories=6, pois_per_category=50,
                  zones_per_category=5),
        config=dict(agent_mode="rirl", qnet_hidden=256, split_fraction=0.4),
        setup_reps=100,
    ),
}


def declared() -> dict:
    """BENCHMARK.json, checked against the workloads defined here."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if names != list(WORKLOADS):
        sys.exit(f"perfbench: BENCHMARK.json names workloads {names}, run.py {list(WORKLOADS)}")
    return bench


def units(bench: dict, trace: int) -> dict:
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what they report
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- one workload ---------------------------------------------------------------


class Run:
    """Inputs for one workload and seed, generated into a scratch directory."""

    def __init__(self, name: str, seed: int, work_dir: str):
        from geostream import harness

        import streamgen

        self.workload = WORKLOADS[name]
        spec = streamgen.StreamSpec(**self.workload.spec)
        tsv, wv = streamgen.write_dataset(spec, seed, work_dir)
        values = {k: str(v) for k, v in self.workload.config.items()}
        values.update(dataset=tsv, wordvecs=wv, seed=str(seed),
                      stream_length=str(spec.n_events))
        self.config = harness.RunConfig.from_mapping(values)
        records = harness.parse_checkins(tsv)
        if len(records) != spec.n_events:
            raise RuntimeError(f"generated {spec.n_events} events, parsed {len(records)}")
        _, self.test_records = harness.split_stream(records, self.config.split_fraction)
        self.n_train = spec.n_events - len(self.test_records)
        self.events = spec.n_events


def check_episode(run: Run, ep) -> list[str]:
    """Problems with one episode's outputs, independent of timing."""
    import measure

    problems = []
    if ep.train_events != run.n_train or ep.eval_events != len(run.test_records):
        problems.append(f"event counts {ep.train_events}+{ep.eval_events} != "
                        f"{run.n_train}+{len(run.test_records)}")
    cat = ep.catalog.poi_category
    pairs = [(cat[e.pred_idx], cat[e.real_idx]) for e in ep.eval_log.events]
    oracle = measure.weighted_prec_cat(pairs)
    if abs(oracle - ep.prec_cat) > 1e-12:
        problems.append(f"prec_cat {ep.prec_cat!r} != recomputed {oracle!r}")
    for e in ep.train_log.events + ep.eval_log.events:
        if e.r_p != float(e.pred_idx == e.real_idx) or not 0.0 < e.reward < 1.0:
            problems.append(f"event {e.index}: reward {e.reward!r}, r_p {e.r_p!r} "
                            f"for pred {e.pred_idx} real {e.real_idx}")
            break
    return problems


def check_same(episodes) -> list[str]:
    digests = {(ep.train_digest, ep.eval_digest) for ep in episodes}
    if len(digests) != 1:
        return [f"{len(digests)} distinct trace digests over {len(episodes)} episodes"]
    return []


EPISODE_PREFIX = "episode: "


def episode_line(ep) -> str:
    """Digests and wall time of an episode, for comparison across processes."""
    return EPISODE_PREFIX + json.dumps({
        "train_digest": ep.train_digest, "eval_digest": ep.eval_digest,
        "wall_s": ep.setup_s + ep.train_s + ep.eval_s,
    })


def parse_episode(lines) -> dict | None:
    found = [ln[len(EPISODE_PREFIX):] for ln in lines if ln.startswith(EPISODE_PREFIX)]
    return json.loads(found[0]) if found else None


def end_to_end(run: Run, seconds: float) -> tuple[dict, list, list]:
    import measure

    started = time.perf_counter()
    setups = [measure.measure_setup(run.config) for _ in range(run.workload.setup_reps)]
    episodes = []
    last_s = 0.0
    # whole episodes only: another one starts if it should end within the budget
    while not episodes or time.perf_counter() - started + last_s <= seconds:
        try:
            episodes.append(measure.run_episode(run.config, run.test_records))
        except measure.EpisodeFailed as exc:
            exc.completed = len(episodes)
            raise
        last_s = episodes[-1].setup_s + episodes[-1].train_s + episodes[-1].eval_s
    setups += [ep.setup_s for ep in episodes]
    train_gaps = [g for ep in episodes for g in ep.train_gaps]
    eval_gaps = [g for ep in episodes for g in ep.eval_gaps]
    metrics = {
        "setup_s": statistics.median(setups),
        "train_events_per_s": statistics.median(ep.train_events / ep.train_s for ep in episodes),
        "train_event_ms_p50": 1e3 * statistics.median(train_gaps),
        "train_event_ms_p95": 1e3 * measure.tail_percentile(train_gaps, 95),
        "eval_events_per_s": statistics.median(ep.eval_events / ep.eval_s for ep in episodes),
        "eval_event_ms_p50": 1e3 * statistics.median(eval_gaps),
        "eval_event_ms_p95": 1e3 * measure.tail_percentile(eval_gaps, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eval_prec_cat": episodes[0].prec_cat,
    }
    problems = check_same(episodes)
    for ep in episodes:
        problems += check_episode(run, ep)
    print(f"episodes: {len(episodes)}, set-up samples: {len(setups)}, "
          f"train gaps: {len(train_gaps)}, eval gaps: {len(eval_gaps)}")
    return metrics, episodes, problems


def untraced_elsewhere(name: str, seed: int, timeout: float) -> tuple[dict | None, str]:
    """Run the workload untraced in a fresh process with its own hash seed;
    return its first episode's digests and wall time, or a problem."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)  # a new random hash seed, unlike this process's
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return None, f"the untraced reference run took over {timeout:.0f} s"
    ref = parse_episode(proc.stdout.splitlines())
    if proc.returncode != 0 or ref is None:
        return None, f"the untraced reference run failed: {proc.stderr.strip()[-500:]}"
    return ref, ""


def per_layer(run: Run, name: str, seed: int, deadline: float) -> tuple[dict, list, list]:
    import measure
    import tracing

    before = tracing.installed()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        traced = measure.run_episode(run.config, run.test_records, tracer)
    problems = check_episode(run, traced)
    if tracing.installed() != before:
        problems.append("wrappers were not restored after the traced run")
    real = {("train", e.index): e.real_idx for e in traced.train_log.events}
    real.update({("eval", i): e.real_idx for i, e in enumerate(traced.eval_log.events)})
    pred = {("train", e.index): e.pred_idx for e in traced.train_log.events}
    pred.update({("eval", i): e.pred_idx for i, e in enumerate(traced.eval_log.events)})
    outside = [k for k, pois in tracer.candidate_sets.items() if pred[k] not in pois]
    if outside:
        problems.append(f"{len(outside)} predictions outside their candidate set")

    report = tracing.layer_report(tracer, traced, real)
    ref, problem = untraced_elsewhere(name, seed, max(1.0, deadline - time.perf_counter()))
    if ref is None:
        problems.append(problem)
        report["trace.overhead_ratio"] = float("nan")
    else:
        if (ref["train_digest"], ref["eval_digest"]) != (traced.train_digest, traced.eval_digest):
            problems.append("traced and untraced runs in separate processes give "
                            "different trace digests")
        wall = traced.setup_s + traced.train_s + traced.eval_s
        report["trace.overhead_ratio"] = wall / ref["wall_s"] - 1.0
    top = tracing.self_time_ranking(tracer)
    print("self time by layer, train+eval (ms/event):")
    events = traced.train_events + traced.eval_events
    for layer, secs in top[:8]:
        print(f"  {layer:32s} {1e3 * secs / events:10.3f}")
    return report, [traced], problems


def run_one(args) -> int:
    started = time.perf_counter()
    bench = declared()
    _import_program()
    sys.path.insert(0, HERE)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    attempted = failed = 0
    problems: list = []
    metrics: dict = {}
    try:
        run = Run(args.workload, args.seed, work_dir)
        import measure

        try:
            if args.trace:
                values, episodes, problems = per_layer(
                    run, args.workload, args.seed, started + RUN_LIMIT_S)
            else:
                values, episodes, problems = end_to_end(run, args.seconds)
            attempted = run.events * len(episodes)
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in units(bench, args.trace).items()}
            ep = episodes[0]
            cat = ep.catalog.poi_category
            blind = measure.user_blind_prec_cat([cat[e.real_idx] for e in ep.eval_log.events])
            print(f"eval_prec_cat {ep.prec_cat:.4f}, user-blind level {blind:.4f}")
            print(episode_line(ep))
        except measure.EpisodeFailed as exc:
            attempted = run.events * (exc.completed + 1)
            failed = run.events - exc.processed
            problems.append(f"episode raised {exc}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    for p in problems:
        print(f"INCORRECT: {p}")
    print(f"trace digests and output checks: {'ok' if not problems else 'FAILED'}")
    print(f"failed events: {failed}/{attempted}")
    for k, m in metrics.items():
        print(f"  {k:50s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh process; one table each."""
    bench = declared()
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    status = 0
    results: dict = {0: [], 1: []}
    digests: dict = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name}, {'traced' if trace else 'untraced'}: {why[name]}")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= not result["correct"]
            results[trace].append((name, result))
            digests.setdefault(name, []).append(parse_episode(lines))
    print("\nworkload  correct  failed/attempted  digests (untraced vs traced process)")
    for name, r in results[0]:
        eps = digests.get(name, [])
        same = len(eps) == 2 and None not in eps and len(
            {(e["train_digest"], e["eval_digest"]) for e in eps}) == 1
        status |= not same
        print(f"{name:9s} {str(r['correct']):8s} {r['failed']}/{r['attempted']}"
              f" ({r['failed'] / max(r['attempted'], 1):.1%} failed)"
              f"  {'same' if same else 'DIFFERENT'}")
    for trace, rows in results.items():
        print("\n" + f"{'metric':58s}" + "".join(f"{n:>14s}" for n, _ in rows))
        for m, unit in units(bench, trace).items():
            cells = "".join(f"{r['metrics'][m]['value']:14.5g}" for _, r in rows)
            print(f"{m + ' [' + unit + ']':58s}{cells}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget of an untraced run; it runs at least one episode")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
