"""Command-line entry points: train, eval, sweep-reward, inspect-kg."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import harness


def _cmd_train(args) -> int:
    config = harness.RunConfig.from_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    artifacts, log, report = harness.run_training(config)
    harness.write_run_outputs(args.out, artifacts, log, report)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"artifacts written to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    config = harness.RunConfig.from_file(args.config)
    _, test_events = harness.stream_split(config)
    artifacts = harness.Artifacts.load(args.artifacts, config)
    report, log = harness.run_eval(config, artifacts, test_events)
    harness.write_replay_outputs(args.artifacts, log, report, prefix="eval_")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    config = harness.RunConfig.from_file(args.config)
    rows = harness.sweep_reward(config, args.grid_steps)
    csv_text = harness.sweep_rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        print(f"sweep written to {args.out}")
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_inspect(args) -> int:
    summary = harness.inspect_kg(args.artifacts)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="geostream",
        description="Streaming POI recommendation over a dynamic geo-human graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on the earliest stream split")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default="artifacts")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="replay the held-out split greedily")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--artifacts", required=True)
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser("sweep-reward", help="grid over the reward weights")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--grid-steps", type=int, required=True)
    p_sweep.add_argument("--out", default="")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_inspect = sub.add_parser("inspect-kg", help="summarize a saved run's graph")
    p_inspect.add_argument("--artifacts", required=True)
    p_inspect.set_defaults(func=_cmd_inspect)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
