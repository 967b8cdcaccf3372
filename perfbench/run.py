"""Benchmark of needle_mpc: closed-loop control, saturated planar solves and model fitting.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's operations for about S seconds in this
one process (one caller, no threads or worker processes), checks every
operation's outputs, and prints as its last line one JSON object with
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics with tracing off; --trace 1 reports the per-layer metrics of a
traced run whose rounds alternate with untraced ones. See README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
MIN_SOLVES = 1000         # a p99 needs ten samples beyond it
REF_NOMINAL_S = 0.0015    # reference loop time that timings are scaled to
LAYERS = ("perfbench", "harness", "scenario", "references", "mpc", "optimizer",
          "mapping", "kinematics", "calibration")

# Small dense algebra only: keep any BLAS pool to the one calling thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _load_program():
    """Import needle_mpc from this checkout's sources, never from elsewhere."""
    if not (SRC / "needle_mpc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no needle_mpc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import needle_mpc

    if Path(needle_mpc.__file__).resolve().parent != SRC / "needle_mpc":
        sys.exit(f"perfbench: imported needle_mpc from {needle_mpc.__file__}")
    import workloads

    return workloads


def reference_s() -> float:
    """Duration of a fixed pure-Python float loop: the host's speed right now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(10000):
        acc += (i * 0.5) ** 0.5 / (1.0 + i)
    return time.perf_counter() - t0


def _weighted_median(pairs) -> float:
    pairs = sorted(pairs)
    half = sum(w for _, w in pairs) / 2.0
    run = 0.0
    for value, weight in pairs:
        run += weight
        if run >= half:
            return value
    return pairs[-1][0]


class Referenced:
    """Runs operations with a reference loop timed just before each one.

    Other tenants of the machine slow it by up to 1.6x for minutes at a time.
    The reference time, weighted by the duration of the operation it
    precedes, tracks that speed over the run, and scale() converts the run's
    timings to a host that runs the loop in REF_NOMINAL_S.
    """

    def __init__(self, run_op):
        self._run_op = run_op
        self.samples: list[tuple[float, float]] = []   # (reference, op duration)

    def __call__(self, op):
        ref = statistics.median(reference_s() for _ in range(3))
        result = self._run_op(op)
        self.samples.append((ref, result[0]))
        return result

    def median_ms(self) -> float:
        return 1e3 * _weighted_median(self.samples)

    def scale(self) -> float:
        return REF_NOMINAL_S / _weighted_median(self.samples)


def run_rounds(ops, seconds: float, run_op, enough=lambda rounds: True):
    """Whole rounds until another would end past `seconds` and enough(rounds) holds.

    Returns per-round lists of (duration, outcome), one entry per operation.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append([run_op(op) for op in ops])
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds and enough(rounds):
            return rounds


def setup_seconds(args) -> float:
    """Median over fresh interpreters of import + inputs + first operation.

    Each probe scales its time by a reference loop timed right after it.
    """
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed:\n{proc.stderr}")
        values.append(float(proc.stdout.split()[-1]))
    return statistics.median(values)


def _quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(args, wl, ops) -> tuple[dict, list, list]:
    setup_s = setup_seconds(args)
    ref = Referenced(wl.run_op)
    rounds = run_rounds(ops, args.seconds, ref, lambda rounds: sum(
        len(out.solve_s) for rnd in rounds for _, out in rnd) >= MIN_SOLVES)
    scale = ref.scale()
    outcomes = [out for rnd in rounds for _, out in rnd]
    solves = [s for out in outcomes for s in out.solve_s]
    # Every round repeats the same solves. When one round holds enough of
    # them for a p99, each solve's latency is its median over the rounds,
    # which keeps a slow spell of the shared machine within one round out
    # of the percentiles; otherwise the percentiles pool all solves.
    distinct = [statistics.median(samples) for i in range(len(ops))
                for samples in zip(*(rnd[i][1].solve_s for rnd in rounds))]
    if len(distinct) >= MIN_SOLVES:
        solves = distinct
    steps = sum(out.steps for _, out in rounds[0])
    # each operation's median duration over the rounds, so a burst of load
    # from other tenants of the machine moves it less than a mean would
    busy = sum(statistics.median(rnd[i][0] for rnd in rounds) for i in range(len(ops)))
    p50, p99 = 1e3 * _quantile(solves, 50), 1e3 * _quantile(solves, 99)
    print(f"{len(rounds)} rounds of {len(ops)} operations, {steps} steps per round in "
          f"{busy:.3f} s (sum of per-operation medians), {len(solves)} solve latencies")
    print(f"as measured: {steps / busy:.4g} steps/s, solve p50 {p50:.4g} ms, p99 {p99:.4g} ms; "
          f"reference loop {ref.median_ms():.4f} ms, so timings below are scaled by {scale:.4f}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "steps_per_s": (steps / (busy * scale), "1/s"),
        "solve_ms_p50": (p50 * scale, "ms"),
        "solve_ms_p99": (p99 * scale, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "final_err_mm": (max((o.final_err for o in outcomes if o.final_err is not None),
                             default=0.0), "mm"),
        "track_err_mm": (max((o.track_err for o in outcomes if o.track_err is not None),
                             default=0.0), "mm"),
    }
    return metrics, ops, rounds


def per_layer(args, wl, tracer, ops, setup_end: int) -> tuple[dict, list, list]:

    def traced(op):
        def run():
            tracer.install()
            try:
                return tracer.span(op.run, "perfbench.op")()
            finally:
                tracer.uninstall()

        return wl.Op(op.name, run, op.check, op.outputs)

    # every operation runs untraced and traced back to back, in alternating
    # order, so machine drift hits both sides of the overhead ratio alike
    paired, is_traced = [], []
    for i, op in enumerate(ops):
        paired += [op, traced(op)] if i % 2 == 0 else [traced(op), op]
        is_traced += [False, True] if i % 2 == 0 else [True, False]
    ref = Referenced(wl.run_op)
    rounds = run_rounds(paired, args.seconds, ref)
    n_rounds = len(rounds)
    median = [statistics.median(rnd[i][0] for rnd in rounds) for i in range(len(paired))]
    overhead = sum(m for m, t in zip(median, is_traced) if t) / \
        sum(m for m, t in zip(median, is_traced) if not t)

    setup = tracer.table(0, setup_end)
    tab = tracer.table(setup_end)

    def per_call(table, name, scale):
        calls, total, _ = table.get(name, (0, 0.0, 0.0))
        return scale * total / calls if calls else 0.0

    wall = tab["perfbench.op"][1]
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s) in tab.items():
        self_by_layer[name.split(".")[0]] += self_s
    iters = sum(it for _, it in tracer.solves)
    n_solves = len(tracer.solves)
    grads = tab.get("mpc.cost_grad", (0, 0.0, 0.0))[0]
    values = tab.get("mpc.cost", (0, 0.0, 0.0))[0]
    statuses = [s for s, _ in tracer.solves]

    print(f"{n_rounds} rounds of {len(ops)} operations, each run untraced and traced; "
          f"tracing overhead {100.0 * (overhead - 1.0):+.1f}% of untraced operation time")
    print(f"{'span':32s} {'calls/round':>12s} {'total ms/round':>15s} {'self ms/round':>14s}")
    for name, (calls, total, self_s) in sorted(tab.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:32s} {calls / n_rounds:12.1f} {1e3 * total / n_rounds:15.3f} "
              f"{1e3 * self_s / n_rounds:14.3f}")

    metrics = {
        "scenario.load_ms": (per_call(setup, "scenario.load", 1e3), "ms"),
        "references.sample_us": (per_call(tab, "references.sample", 1e6), "us"),
        "optimizer.self_us_per_iter": (
            1e6 * tab["optimizer.minimize"][2] / iters if iters else 0.0, "us"),
        "optimizer.iters_per_solve": (iters / n_solves if n_solves else 0.0, "count"),
        "optimizer.grad_evals_per_solve": (grads / n_solves if n_solves else 0.0, "count"),
        "optimizer.value_evals_per_solve": (values / n_solves if n_solves else 0.0, "count"),
        "optimizer.ls_accept_ratio": ((grads - n_solves) / values if values else 0.0, "ratio"),
        "optimizer.status.converged": (statuses.count("converged") / n_rounds, "count"),
        "optimizer.status.stalled": (statuses.count("stalled") / n_rounds, "count"),
        "optimizer.status.max_iter": (statuses.count("max_iter") / n_rounds, "count"),
        "mapping.inverse_us": (per_call(tab, "mapping.inverse", 1e6), "us"),
        "mapping.saturated_steps": (tracer.saturated / n_rounds, "count"),
        "mapping.forward_us": (per_call(tab, "mapping.forward", 1e6), "us"),
        "kinematics.plant_step_us": (per_call(tab, "kinematics.plant_step", 1e6), "us"),
        "harness.loop_self_share": (tab.get("harness.loop", (0, 0.0, 0.0))[2] / wall, "share"),
        "harness.write_ms": (per_call(tab, "harness.write", 1e3), "ms"),
        "harness.read_ms": (per_call(tab, "harness.read", 1e3), "ms"),
        "calibration.load_ms": (per_call(tab, "calibration.load", 1e3), "ms"),
        "calibration.fit_ms": (per_call(tab, "calibration.fit", 1e3), "ms"),
        **{f"{layer}.share": (self_by_layer[layer] / wall, "share") for layer in LAYERS},
        "host.ref_ms": (ref.median_ms(), "ms"),
        "trace.overhead_share": (overhead - 1.0, "share"),
    }
    return metrics, paired, rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("track_20hz", "planar_tight", "model_fit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    wl = _load_program()
    build = wl.WORKLOADS[args.workload]
    if args.setup_probe:
        ops = build(args.seed, OUT / f"{args.workload}-probe")
        ops[0].run()
        elapsed = time.perf_counter() - _T0
        print(elapsed * REF_NOMINAL_S / statistics.median(reference_s() for _ in range(15)))
        return 0

    out_dir = OUT / args.workload
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        ops = build(args.seed, out_dir)
        tracer.uninstall()
        metrics, ran, rounds = per_layer(args, wl, tracer, ops, len(tracer.spans))
    else:
        ops = build(args.seed, out_dir)
        metrics, ran, rounds = end_to_end(args, wl, ops)

    failed = 0
    for rnd in rounds:
        for op, (_, outcome) in zip(ran, rnd):
            if outcome.fails:
                failed += 1
                print(f"FAILED {op.name}: {'; '.join(outcome.fails[:3])}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(len(rnd) for rnd in rounds),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
