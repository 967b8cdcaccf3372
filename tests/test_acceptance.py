"""End-to-end acceptance suite.

One test per shipped guarantee, each printing a single pass/fail line with
the measured numbers (run with -s to see the lines for passing tests):

1. fixed-target runs land within 0.5 mm inside the step budget
2. helix tracking stays within 5 mm with a bounded terminal spike
3. sharp-turn corner error stays within 1.5 mm
4. open-loop model-vs-plant error under mismatch stays within 3 percent
5. closed-form tension solver matches a brute-force grid search
6. small-horizon MPC solves match an exhaustive refinement oracle
7. gradient, unit-norm and symmetry identities hold at tight tolerances
8. calibration recovers the generating gain and closes the loop
9. every bundled preset is byte-for-byte deterministic
"""

import math
import time

import numpy as np

from needle_mpc import cli
from needle_mpc.calibration import calibrate, simulate_calibration_run
from needle_mpc.harness import PlantConfig, read_commands_csv, run_closed_loop, run_open_loop
from needle_mpc.kinematics import NeedleState, VirtualInput, step_exact
from needle_mpc.mapping import (
    TendonCommand,
    TendonGeometry,
    forward_map,
    inverse_map,
    rates_from_command,
)
from needle_mpc.mpc import MpcConfig, solve_horizon
from needle_mpc.scenario import load_preset, replay_commands_path
from oracles import (
    euler_cost_batch,
    horizon_cost,
    refine_minimize,
    step_euler,
    tension_grid_line,
)

GEO = TendonGeometry()


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_criterion_1_fixed_target_reproduction():
    finals = []
    runtimes = []
    for name in ("target1", "target2", "target3"):
        t0 = time.perf_counter()
        result = run_closed_loop(load_preset(name))
        runtimes.append(time.perf_counter() - t0)
        finals.append(result.summary.final_error_mm)
    ok = all(e <= 0.5 for e in finals) and all(rt <= 60.0 for rt in runtimes)
    detail = (
        "final errors mm: " + "/".join(f"{e:.4f}" for e in finals)
        + f", slowest run {max(runtimes):.1f} s"
    )
    _report(1, "fixed-target reproduction", ok, detail)
    assert ok, detail


def test_criterion_2_helix_tracking():
    scenario = load_preset("helix")
    assert scenario.run.exclude_terminal_s == 1.0
    result = run_closed_loop(scenario)
    steady_max = result.summary.max_error_mm
    spike = max(
        max(r.err for r in result.records), result.summary.final_error_mm
    )
    ok = steady_max <= 5.0 and spike <= 2.0 * steady_max
    detail = f"steady max {steady_max:.3f} mm, terminal spike {spike:.3f} mm"
    _report(2, "helix tracking", ok, detail)
    assert ok, detail


def test_criterion_3_sharp_turn_tracking():
    scenario = load_preset("sharp_turn")
    result = run_closed_loop(scenario)
    (corner_t,) = scenario.reference.times[1:-1]
    window = [r.err for r in result.records if abs(r.t - corner_t) <= 1.0]
    corner_max = max(window)
    ok = corner_max <= 1.5
    detail = f"max error {corner_max:.3f} mm in the {corner_t - 1:.0f}..{corner_t + 1:.0f} s window"
    _report(3, "sharp-turn corner", ok, detail)
    assert ok, detail


def test_criterion_4_open_loop_mismatch():
    scenario = load_preset("replay_mismatch")
    assert scenario.plant.gain_error == 0.05
    assert scenario.plant.theta_e_error == math.radians(2.0)
    pcts = []
    for name in ("replay1", "replay2", "replay3"):
        commands = read_commands_csv(replay_commands_path(name))
        result = run_open_loop(
            commands, scenario.plant, scenario.geometry, scenario.mpc.ts, scenario.run.state()
        )
        assert result.inserted_length_mm == 70.0
        pcts.append(result.error_pct_of_insertion)
    ok = all(p <= 3.0 for p in pcts)
    detail = "error as % of 70 mm insertion: " + "/".join(f"{p:.3f}" for p in pcts)
    _report(4, "open-loop mismatch", ok, detail)
    assert ok, detail


def test_criterion_5_inverse_map_grid_equivalence():
    rng = np.random.default_rng(2025)
    step = 0.01
    worst_cell = 0.0
    worst_norm_excess = -math.inf
    for _ in range(100):
        tau = rng.uniform(0.0, GEO.tau_max, size=3)
        u_s = rng.uniform(2.0, 24.0)
        kx, ky = forward_map(tau, GEO)
        u = VirtualInput(u_s=u_s, u_x=float(kx) * u_s, u_y=float(ky) * u_s)
        res = inverse_map(u, GEO)
        assert not res.saturated
        tau_grid = tension_grid_line(
            u.u_x, u.u_y, u.u_s, GEO.theta_e, GEO.gain, GEO.tau_max, step
        )
        assert tau_grid is not None
        worst_cell = max(worst_cell, float(np.max(np.abs(res.command.tau - tau_grid))))
        worst_norm_excess = max(
            worst_norm_excess,
            float(np.linalg.norm(res.command.tau) - np.linalg.norm(tau_grid)),
        )
    cells_ok = worst_cell <= step + 1e-6
    norm_ok = worst_norm_excess <= 1e-4

    worst_rate = 0.0
    for _ in range(10_000):
        tau = rng.uniform(0.0, GEO.tau_max, size=3)
        u_s = rng.uniform(1.0, 24.0)
        kx, ky = forward_map(tau, GEO)
        u = VirtualInput(u_s=u_s, u_x=float(kx) * u_s, u_y=float(ky) * u_s)
        realized = rates_from_command(inverse_map(u, GEO).command, GEO)
        worst_rate = max(
            worst_rate, abs(realized.u_x - u.u_x), abs(realized.u_y - u.u_y)
        )
    rate_ok = worst_rate <= 1e-6

    ok = cells_ok and norm_ok and rate_ok
    detail = (
        f"100 targets vs {step} N grid: worst offset {worst_cell:.4f} N, "
        f"norm excess {worst_norm_excess:.2e} N; "
        f"10k round trips: worst rate error {worst_rate:.2e} rad/s"
    )
    _report(5, "tension solver vs grid", ok, detail)
    assert ok, detail


def test_criterion_6_small_horizon_near_global():
    rng = np.random.default_rng(2026)
    worst_rel = -math.inf
    count = 0
    for horizon in (1, 2):
        cfg = MpcConfig(horizon=horizon, multi_start=8, seed=1)
        lo, hi = cfg.horizon_bounds()
        for _ in range(10):
            state = NeedleState(p=rng.normal(scale=30.0, size=3), d=_unit(rng.normal(size=3)))
            refs = state.p + rng.normal(scale=20.0, size=(horizon + 1, 3))

            def batch(pts, state=state, refs=refs, horizon=horizon, cfg=cfg):
                return euler_cost_batch(
                    state.p, state.d, refs, cfg.q_weights, cfg.r_weights, cfg.ts,
                    pts.reshape(-1, horizon, 3),
                )

            _, f_oracle = refine_minimize(batch, lo, hi, points_per_axis=7, rounds=8)
            sol = solve_horizon(state, refs, cfg)
            rel = (sol.cost - f_oracle) / max(1.0, abs(f_oracle))
            worst_rel = max(worst_rel, rel)
            count += 1
    ok = count >= 20 and worst_rel <= 1e-3
    detail = f"{count} instances at N=1,2; worst relative cost gap {worst_rel:.2e}"
    _report(6, "small-horizon optimality", ok, detail)
    assert ok, detail


def test_criterion_7_numerical_hygiene():
    rng = np.random.default_rng(2027)
    cfg = MpcConfig()

    # analytic gradient vs central differences on random instances
    worst_grad = 0.0
    for _ in range(100):
        state = NeedleState(p=rng.normal(scale=30.0, size=3), d=_unit(rng.normal(size=3)))
        refs = state.p + rng.normal(scale=20.0, size=(cfg.horizon + 1, 3))
        flat = np.concatenate(
            [
                rng.uniform(-1.0, 24.0, size=(cfg.horizon, 1)),
                rng.uniform(-5.0, 5.0, size=(cfg.horizon, 2)),
            ],
            axis=1,
        ).reshape(-1)
        inputs = [VirtualInput(*row) for row in flat.reshape(-1, 3)]
        _, grad = horizon_cost(state, inputs, refs, cfg)
        fd = np.empty_like(flat)
        for k in range(flat.size):
            h = 1e-6 * (1.0 + abs(flat[k]))
            up, dn = flat.copy(), flat.copy()
            up[k] += h
            dn[k] -= h
            fu, _ = horizon_cost(state, [VirtualInput(*r) for r in up.reshape(-1, 3)], refs, cfg)
            fl, _ = horizon_cost(state, [VirtualInput(*r) for r in dn.reshape(-1, 3)], refs, cfg)
            fd[k] = (fu - fl) / (2.0 * h)
        rel = float(np.max(np.abs(grad - fd))) / (1.0 + float(np.max(np.abs(fd))))
        worst_grad = max(worst_grad, rel)
    grad_ok = worst_grad <= 1e-5

    # direction stays unit length over a long chain of random steps
    state = NeedleState(p=np.zeros(3), d=(0.0, 0.0, 1.0))
    worst_norm = 0.0
    for k in range(10_000):
        u = VirtualInput(
            u_s=rng.uniform(-1.0, 24.0),
            u_x=rng.uniform(-5.0, 5.0),
            u_y=rng.uniform(-5.0, 5.0),
        )
        stepper = step_euler if k % 2 == 0 else step_exact
        state = stepper(state, u, 0.05)
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(state.d)) - 1.0))
    norm_ok = worst_norm <= 1e-9

    # equal tensions produce zero curvature regardless of mounting angle
    worst_kappa = 0.0
    worst_scale = 0.0
    for _ in range(1_000):
        theta = rng.uniform(-math.pi, math.pi)
        c = rng.uniform(0.0, GEO.tau_max)
        geo = TendonGeometry(theta_e=theta)
        kappa = forward_map((c, c, c), geo)
        worst_kappa = max(worst_kappa, float(np.max(np.abs(kappa))))
        worst_scale = max(worst_scale, 5e-16 * 3.0 * geo.gain * c)
    sym_ok = worst_kappa <= worst_scale + 1e-18

    ok = grad_ok and norm_ok and sym_ok
    detail = (
        f"gradient vs FD worst {worst_grad:.2e} (100 instances); "
        f"unit-norm drift {worst_norm:.2e} (10k steps); "
        f"equal-tension curvature {worst_kappa:.2e} 1/mm (1k draws)"
    )
    _report(7, "numerical hygiene", ok, detail)
    assert ok, detail


def test_criterion_8_calibration_closure():
    true_geo = TendonGeometry(gain=3.7e-4)
    runs = [
        simulate_calibration_run(1, t, true_geo)
        for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
    ]
    result = calibrate(runs)
    gain_rel = abs(result.gain - true_geo.gain) / true_geo.gain

    model_geo = TendonGeometry(gain=result.gain)
    plant = PlantConfig(gain_error=true_geo.gain / result.gain - 1.0)
    commands = [TendonCommand(u_s=20.0, tau=(3.0, 0.0, 0.0))] * 100
    open_loop = run_open_loop(commands, plant, model_geo, ts=0.05)

    ok = gain_rel <= 0.005 and open_loop.max_error_mm <= 0.1
    detail = (
        f"gain off by {100 * gain_rel:.4f}%; replayed trajectory off by "
        f"{open_loop.max_error_mm:.2e} mm over {open_loop.inserted_length_mm:.0f} mm"
    )
    _report(8, "calibration closure", ok, detail)
    assert ok, detail


def test_criterion_9_preset_determinism(tmp_path):
    from needle_mpc.scenario import preset_names

    mismatched = []
    for name in preset_names():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / name / tag
            code = cli.main(["run", "--preset", name, "--out", str(out)])
            assert code == 0
            outs.append(out)
        same = (outs[0] / "steps.csv").read_bytes() == (outs[1] / "steps.csv").read_bytes() and (
            outs[0] / "summary.json"
        ).read_bytes() == (outs[1] / "summary.json").read_bytes()
        if not same:
            mismatched.append(name)
    ok = not mismatched
    detail = (
        f"{len(preset_names())} presets run twice, all byte-identical"
        if ok
        else "mismatched: " + ", ".join(mismatched)
    )
    _report(9, "preset determinism", ok, detail)
    assert ok, detail
