"""Command-line entry points.

    needle-mpc run (SCENARIO.json | --preset NAME) [--out DIR] [--seed N]
    needle-mpc calibrate RUNS_DIR [--out FILE]
    needle-mpc replay COMMANDS.csv (SCENARIO.json | --preset NAME) [--out DIR]
    needle-mpc batch (SCENARIO.json ... | --preset (NAME | all)) [--out DIR] [--seed N]

Exit codes: 0 success, 2 invalid scenario/input or an unwritable output, 3
runtime failure. Batch parallelism is capped by the NEEDLE_MPC_THREADS
environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import calibration, harness, scenario as scenario_mod
from .errors import InvalidInputError, NeedleMpcError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RUNTIME = 3

THREADS_ENV = "NEEDLE_MPC_THREADS"
_NOT_BOTH = "give either a scenario path or --preset, not both"


def _load_scenario(path, preset, seed=None) -> scenario_mod.Scenario:
    """The scenario in a file or a bundled preset, given exactly one."""
    if preset and path:
        raise InvalidInputError(_NOT_BOTH)
    if preset:
        scn = scenario_mod.load_preset(preset)
    elif path:
        scn = scenario_mod.load_scenario(path)
    else:
        raise InvalidInputError("a scenario path or --preset is required")
    if seed is not None:
        scn = scenario_mod.with_seed(scn, seed)
    return scn


def _run_and_write(scn: scenario_mod.Scenario, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    result = harness.run_closed_loop(scn)
    harness.write_step_csv(result, os.path.join(out_dir, "steps.csv"))
    harness.write_summary_json(
        result, scenario_mod.scenario_to_dict(scn), os.path.join(out_dir, "summary.json")
    )
    return harness.summary_dict(result)


def cmd_run(args) -> int:
    scn = _load_scenario(args.scenario, args.preset, args.seed)
    summary = _run_and_write(scn, args.out)
    pct = summary["error_pct_of_insertion"]
    pct_text = f"{pct:.3g}%" if pct is not None else "n/a"
    print(
        f"final error {summary['final_error_mm']:.3g} mm over "
        f"{summary['inserted_length_mm']:.4g} mm inserted ({pct_text}), "
        f"{summary['steps']} steps -> {args.out}"
    )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    runs = calibration.load_runs_dir(args.runs_dir)
    result = calibration.calibrate(runs)
    doc = {
        "gain_per_mm_N": result.gain,
        "residual_rms_per_mm": result.residual_rms,
        "runs": [
            {"tension_N": t, "curvature_per_mm": k}
            for t, k in zip(result.tensions, result.curvatures)
        ],
    }
    harness._write_json(args.out, doc)
    print(f"gain {result.gain:.6g} 1/(mm N), residual rms {result.residual_rms:.3g} 1/mm -> {args.out}")
    return EXIT_OK


def cmd_replay(args) -> int:
    scn = _load_scenario(args.scenario, args.preset)
    commands_path = args.commands
    # a bare name (no directory part, no .csv suffix) names a bundled file
    if not os.path.dirname(commands_path) and not commands_path.endswith(".csv"):
        commands_path = scenario_mod.replay_commands_path(commands_path)
    try:
        commands = harness.read_commands_csv(commands_path)
    except FileNotFoundError:
        raise InvalidInputError(f"no such command file {commands_path!r}") from None
    result = harness.run_open_loop(
        commands, scn.plant, scn.geometry, scn.mpc.ts, scn.run.state()
    )
    os.makedirs(args.out, exist_ok=True)
    harness.write_open_loop_csv(result, scn.mpc.ts, os.path.join(args.out, "open_loop.csv"))
    harness.write_open_loop_summary_json(
        result, scenario_mod.scenario_to_dict(scn),
        os.path.join(args.out, "open_loop_summary.json"),
    )
    pct = result.error_pct_of_insertion
    pct_text = f"{pct:.3g}%" if pct is not None else "n/a"
    print(
        f"max model-vs-plant error {result.max_error_mm:.3g} mm over "
        f"{result.inserted_length_mm:.4g} mm inserted ({pct_text}) -> {args.out}"
    )
    return EXIT_OK


def _batch_worker(job: tuple[str | None, str | None, str, int | None]) -> tuple[str, dict]:
    """Run one job: (scenario path, preset name), exactly one of them set,
    then its output directory and seed override."""
    path, preset, out_dir, seed = job
    return path or preset, _run_and_write(_load_scenario(path, preset, seed), out_dir)


def _worker_cap(n_jobs: int) -> int:
    env = os.environ.get(THREADS_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise InvalidInputError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
        if cap < 1:
            raise InvalidInputError(f"{THREADS_ENV} must be >= 1, got {cap}")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_jobs))


def cmd_batch(args) -> int:
    if args.preset and args.scenarios:
        raise InvalidInputError(_NOT_BOTH)
    if args.preset:
        names = scenario_mod.preset_names() if args.preset == "all" else [args.preset]
        sources = [(None, name) for name in names]
    else:
        sources = [(path, None) for path in args.scenarios]
    if not sources:
        raise InvalidInputError("batch needs scenario paths or --preset")
    jobs = {}   # by output label; preset names are distinct, so a clash is two paths
    for path, preset in sources:
        label = os.path.splitext(os.path.basename(path or preset))[0]
        if label in jobs:
            raise InvalidInputError(f"{jobs[label][0]} and {path} both write {jobs[label][2]}")
        jobs[label] = (path, preset, os.path.join(args.out, label), args.seed)
    workers = _worker_cap(len(jobs))
    if workers == 1:
        results = [_batch_worker(j) for j in jobs.values()]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled batch pays its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_worker, jobs.values()))
    for source, summary in results:
        print(f"{source}: final error {summary['final_error_mm']:.3g} mm, {summary['steps']} steps")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="needle-mpc",
        description="Closed-loop control and calibration tools for a tendon-steered needle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a closed-loop scenario")
    run_p.add_argument("scenario", nargs="?", help="scenario JSON file")
    run_p.add_argument("--preset", help="bundled scenario name (see `needle-mpc presets`)")
    run_p.add_argument("--out", default="out", help="output directory (default: out)")
    run_p.add_argument("--seed", type=int, default=None, help="override the plant seed")
    run_p.set_defaults(func=cmd_run)

    cal_p = sub.add_parser("calibrate", help="fit the tension-to-curvature gain")
    cal_p.add_argument("runs_dir", help="directory with manifest.json and run CSVs")
    cal_p.add_argument("--out", default="calibration.json", help="output JSON file")
    cal_p.set_defaults(func=cmd_calibrate)

    rep_p = sub.add_parser("replay", help="replay recorded tendon commands open loop")
    rep_p.add_argument("commands", help="commands CSV path (with a separator or a .csv "
                       "suffix), or a bundled name like replay1")
    rep_p.add_argument("scenario", nargs="?", help="scenario JSON providing geometry and plant")
    rep_p.add_argument("--preset", help="bundled scenario name")
    rep_p.add_argument("--out", default="out", help="output directory (default: out)")
    rep_p.set_defaults(func=cmd_replay)

    bat_p = sub.add_parser("batch", help="run several scenarios in parallel")
    bat_p.add_argument("scenarios", nargs="*", help="scenario JSON files")
    bat_p.add_argument("--preset", help="bundled scenario name, or 'all'")
    bat_p.add_argument("--out", default="out", help="root output directory")
    bat_p.add_argument("--seed", type=int, default=None, help="override every plant seed")
    bat_p.set_defaults(func=cmd_batch)

    lst_p = sub.add_parser("presets", help="list bundled scenario and command names")
    lst_p.set_defaults(func=cmd_presets)
    return parser


def cmd_presets(args) -> int:
    for name in scenario_mod.preset_names():
        print(name)
    for name in scenario_mod.replay_command_names():
        print(f"replays/{name}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:  # DegenerateFitError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:  # a missing input, or an --out that cannot be written
        # a failed write (a full disk, say) names no file
        detail = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_INVALID
    except NeedleMpcError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
