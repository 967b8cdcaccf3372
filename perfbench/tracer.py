"""Span tracing of needle_mpc from outside the package.

install() replaces public entry points with wrappers that record a span
(name, start, end, parent) per call; uninstall() puts the originals back.
The wrapped names are the ones the program itself looks up at call time:
the names harness imports, RecedingHorizonController.step, minimize as mpc
calls it (with its BoxNlp objective callables), rollout as mpc calls it,
the CSV/JSON readers and writers, and the calibration pipeline. A span's
layer is the part of its name before the first dot; its self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import time

from needle_mpc import calibration, harness, mpc, scenario

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []       # (name, start, end, parent index or -1)
        self.solves: list = []      # (status, iterations) per minimize call
        self.saturated = 0          # inverse_map results flagged saturated
        self._stack: list = []
        self._patches: list = []

    def span(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, _perf(), parent)
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self.span(getattr(owner, attr), name))

    def install(self) -> None:
        for attr in ("step_exact", "step_euler"):
            self._wrap(harness, attr, "kinematics.plant_step")
        self._wrap(harness, "rates_from_command", "mapping.forward")
        self._wrap(harness, "horizon_samples", "references.sample")
        self._wrap(harness, "check_path_speed", "references.check_path_speed")
        self._wrap(harness, "run_closed_loop", "harness.loop")
        self._wrap(harness, "run_open_loop", "harness.loop")
        for attr in ("write_step_csv", "write_summary_json", "write_open_loop_csv"):
            self._wrap(harness, attr, "harness.write")
        self._wrap(harness, "read_commands_csv", "harness.read")
        self._wrap(mpc.RecedingHorizonController, "step", "mpc.step")
        self._wrap(mpc, "rollout", "kinematics.rollout")
        for attr in ("load_preset", "load_scenario", "with_seed"):
            self._wrap(scenario, attr, "scenario.load")
        self._wrap(scenario, "scenario_to_dict", "scenario.echo")
        self._wrap(calibration, "write_runs_dir", "calibration.write")
        self._wrap(calibration, "load_runs_dir", "calibration.load")
        self._wrap(calibration, "calibrate", "calibration.fit")
        self._wrap(calibration, "estimate_curvature", "mapping.estimate_curvature")
        self._wrap(calibration, "fit_gain", "mapping.fit_gain")

        inverse = self.span(harness.inverse_map, "mapping.inverse")

        def inverse_map(*args, **kwargs):
            result = inverse(*args, **kwargs)
            self.saturated += result.saturated
            return result

        self._patch(harness, "inverse_map", inverse_map)

        minimize = self.span(mpc.minimize, "optimizer.minimize")

        def traced_minimize(problem, *args, **kwargs):
            problem.objective = self.span(problem.objective, "mpc.cost_grad")
            if problem.objective_value is not None:
                problem.objective_value = self.span(problem.objective_value, "mpc.cost")
            result = minimize(problem, *args, **kwargs)
            self.solves.append((result.status, result.iterations))
            return result

        self._patch(mpc, "minimize", traced_minimize)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def table(self, first: int = 0, last: int | None = None) -> dict[str, list[float]]:
        """Per span name: [calls, total seconds, self seconds] over spans[first:last]."""
        spans = self.spans
        last = len(spans) if last is None else last
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans[first:last]:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list[float]] = {}
        for idx in range(first, last):
            name, t0, t1, _ = spans[idx]
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[idx]
        return out
