"""Output checks computed apart from needle_mpc.

Everything here is written from the model equations, not imported from the
package: the 120-degree tension-to-curvature matrix, the closed-form arc
step of the tip model, the Euler-predicted horizon cost and the reference
curves of the bundled presets. Each check returns a list of failure
messages; an empty list means the operation's outputs passed.

Tolerances come from the 9-significant-digit output format: a value read
back from a CSV carries a relative rounding error of at most 5e-10.
"""

from __future__ import annotations

import csv
import math

ROUND_REL = 1e-8          # relative slack for values read back from 9-digit files
POS_TOL_MM = 1e-6         # absolute slack on positions (mm)
COST_REL = 1e-9           # relative slack on horizon costs (cost roundoff is ~1e-15)
U_S_EPS = 1e-6            # mm/s; below this the inverse map commands zero tension
SAMPLE_EVERY = 10         # steps between sampled optimality checks
PERTURB_FRACS = (1e-2, 1e-3)  # single-coordinate steps, as a share of the bound range


def read_csv(path) -> dict[str, list[float]]:
    """Columns of a numeric CSV with a header row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def curvature_matrix(theta_e: float, gain: float):
    """Rows (kappa_x, kappa_y) per newton for tendons at 0, 120 and 240 degrees."""
    angles = [2.0 * math.pi * j / 3.0 - theta_e for j in range(3)]
    return ([gain * math.cos(a) for a in angles], [gain * math.sin(a) for a in angles])


def rates(tau, u_s: float, amat) -> tuple[float, float]:
    """Bending rates (u_x, u_y) that tensions tau produce at insertion speed u_s."""
    kx = sum(a * t for a, t in zip(amat[0], tau))
    ky = sum(a * t for a, t in zip(amat[1], tau))
    return kx * u_s, ky * u_s


def arc_step(p, d, u_s: float, w_x: float, w_y: float, ts: float):
    """Exact flow of pdot = u_s d, ddot = d x (w_x, w_y, 0) over ts.

    The direction turns at rate |w| about the fixed unit axis n = -w/|w|;
    the position advances by u_s times the integral of the turning direction.
    """
    rate = math.hypot(w_x, w_y)
    if rate < 1e-12:
        return [p[i] + ts * u_s * d[i] for i in range(3)], list(d)
    n = (-w_x / rate, -w_y / rate, 0.0)
    nd = n[0] * d[0] + n[1] * d[1]
    nxd = (n[1] * d[2], -n[0] * d[2], n[0] * d[1] - n[1] * d[0])
    th = rate * ts
    c, s = math.cos(th), math.sin(th)
    d_new = [c * d[i] + s * nxd[i] + (1.0 - c) * nd * n[i] for i in range(3)]
    a, b, e = s / rate, (1.0 - c) / rate, ts - s / rate
    p_new = [p[i] + u_s * (a * d[i] + b * nxd[i] + e * nd * n[i]) for i in range(3)]
    norm = math.sqrt(sum(v * v for v in d_new))
    return p_new, [v / norm for v in d_new]


def horizon_cost(x, p0, d0, refs, q, r, ts: float) -> float:
    """Tracking cost of a flat input vector over the Euler-predicted horizon."""
    px, py, pz = p0
    dx, dy, dz = d0
    cost = sum(q[i] * (p0[i] - refs[0][i]) ** 2 for i in range(3))
    for i in range(len(x) // 3):
        us, ux, uy = x[3 * i], x[3 * i + 1], x[3 * i + 2]
        cost += r[0] * us * us + r[1] * ux * ux + r[2] * uy * uy
        px, py, pz = px + ts * us * dx, py + ts * us * dy, pz + ts * us * dz
        ax, ay, az = dx - ts * dz * uy, dy + ts * dz * ux, dz + ts * (dx * uy - dy * ux)
        norm = math.sqrt(ax * ax + ay * ay + az * az)
        dx, dy, dz = ax / norm, ay / norm, az / norm
        ref = refs[i + 1]
        cost += q[0] * (px - ref[0]) ** 2 + q[1] * (py - ref[1]) ** 2 + q[2] * (pz - ref[2]) ** 2
    return cost


def dist(a, b) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def close(a, b, tol_abs: float = POS_TOL_MM) -> bool:
    return all(abs(x - y) <= tol_abs + ROUND_REL * abs(y) for x, y in zip(a, b))


# ---------------------------------------------------------------- references

def reference_at(ref: dict, t: float):
    """Position of a fixed-target, helix or sharp-turn reference document at t."""
    kind = ref["kind"]
    if kind == "fixed_target":
        return list(ref["target_mm"])
    if kind == "helix":
        ang = ref["rate_rad_s"] * t + ref.get("phase_rad", 0.0)
        local = (ref["radius_mm"] * math.cos(ang), ref["radius_mm"] * math.sin(ang),
                 ref["pitch_mm"] * ref["rate_rad_s"] * t / (2.0 * math.pi))
        order = {"x": (2, 0, 1), "y": (1, 2, 0), "z": (0, 1, 2)}[ref.get("axis", "z")]
        center = ref.get("center_mm", (0.0, 0.0, 0.0))
        return [center[k] + local[order[k]] for k in range(3)]
    if kind == "sharp_turn":
        pts, speed = ref["waypoints_mm"], ref["speed_mm_s"]
        s_left = t * speed
        for a, b in zip(pts, pts[1:]):
            seg = dist(a, b)
            if s_left <= seg:
                return [a[k] + (b[k] - a[k]) * s_left / seg for k in range(3)]
            s_left -= seg
        return list(pts[-1])
    raise ValueError(f"no independent reference for kind {kind!r}")


def corner_time(ref: dict) -> float:
    pts = ref["waypoints_mm"]
    return dist(pts[0], pts[1]) / ref["speed_mm_s"]


# ---------------------------------------------------------------- closed loop

def check_closed_loop(steps: dict, summary: dict, captured, guarantee) -> list[str]:
    """Checks on one closed-loop run as written by `needle-mpc run`.

    steps and summary are the parsed steps.csv and summary.json; captured
    holds (measured state, refs, HorizonSolution) for every control step;
    guarantee is None or a (kind, limit_mm, reference document) triple
    taken from the README guarantees and the scenario that was fed in.
    """
    fails: list[str] = []
    scn = summary["scenario"]
    mpc, geo, plant = scn["mpc"], scn["geometry"], scn["plant"]
    ts, tau_max = mpc["T_s_s"], geo["tau_max_N"]
    a_nom = curvature_matrix(geo["theta_e_rad"], geo["gain_per_mm_N"])
    a_true = curvature_matrix(geo["theta_e_rad"] + plant["theta_e_error_rad"],
                              geo["gain_per_mm_N"] * (1.0 + plant["gain_error"]))
    if plant["integrator"] != "exact":
        return [f"plant integrator {plant['integrator']!r} has no independent check"]
    n = len(steps["t_s"])
    if n != summary["summary"]["steps"] or n != len(captured):
        return [f"{n} CSV rows, {summary['summary']['steps']} summary steps, "
                f"{len(captured)} solves"]

    for k in range(n):
        tau = [steps["tau1_N"][k], steps["tau2_N"][k], steps["tau3_N"][k]]
        us, ux, uy = steps["us_mm_s"][k], steps["ux_rad_s"][k], steps["uy_rad_s"][k]
        if any(t < 0.0 or t > tau_max for t in tau):
            fails.append(f"step {k}: tension {tau} outside [0, {tau_max}]")
        if abs(us) < U_S_EPS:
            if any(tau):
                fails.append(f"step {k}: nonzero tension {tau} at u_s {us}")
        elif not steps["sat_flag"][k]:
            wx, wy = rates(tau, us, a_nom)
            scale = ROUND_REL * (abs(ux) + abs(uy) + geo["gain_per_mm_N"] * sum(tau) * abs(us))
            if abs(wx - ux) > scale + 1e-12 or abs(wy - uy) > scale + 1e-12:
                fails.append(f"step {k}: tensions map to rates ({wx:.9g}, {wy:.9g}), "
                             f"applied ({ux:.9g}, {uy:.9g})")
        p = [steps["x_mm"][k], steps["y_mm"][k], steps["z_mm"][k]]
        d = [steps["dx"][k], steps["dy"][k], steps["dz"][k]]
        p_next, d_next = arc_step(p, d, us, *rates(tau, us, a_true), ts)
        if k + 1 < n:
            rec_p = [steps["x_mm"][k + 1], steps["y_mm"][k + 1], steps["z_mm"][k + 1]]
            rec_d = [steps["dx"][k + 1], steps["dy"][k + 1], steps["dz"][k + 1]]
            if not (close(p_next, rec_p) and close(d_next, rec_d, 1e-8)):
                fails.append(f"step {k}: arc integration gives {p_next}, recorded {rec_p}")
        elif not close(p_next, summary["summary"]["terminal_position_mm"]):
            fails.append(f"terminal state {summary['summary']['terminal_position_mm']} "
                         f"differs from arc integration {p_next}")

    fails += _check_solves(captured, mpc)
    if guarantee is not None:
        fails += _check_guarantee(steps, summary, ts, *guarantee)
    return fails


def _bounds(mpc: dict):
    u_y = (0.0, 0.0) if mpc["planar_mode"] is True else mpc["u_y_bounds_rad_s"]
    return (mpc["u_s_bounds_mm_s"][0], mpc["u_x_bounds_rad_s"][0], u_y[0]), \
           (mpc["u_s_bounds_mm_s"][1], mpc["u_x_bounds_rad_s"][1], u_y[1])


def _flat(solution) -> list[float]:
    return [v for u in solution.inputs for v in (u.u_s, u.u_x, u.u_y)]


def _check_solves(captured, mpc: dict) -> list[str]:
    """Sampled-step properties of the returned horizons.

    Every sampled solve must cost no more than its projected warm start.
    Solves that stopped for any reason but the iteration cap must also be
    locally optimal: no feasible single-coordinate step lowers the cost.
    """
    fails = []
    lo3, hi3 = _bounds(mpc)
    q, r, ts, n = mpc["q_weights"], mpc["r_weights"], mpc["T_s_s"], mpc["horizon"]
    lo, hi = lo3 * n, hi3 * n
    for k in range(0, len(captured), SAMPLE_EVERY):
        measured, refs, sol = captured[k]
        if sol.solver_status == "fault":
            fails.append(f"step {k}: solver fault")
            continue
        p0, d0 = list(measured.p), list(measured.d)
        refs = [list(row) for row in refs]
        x = _flat(sol)
        cost = horizon_cost(x, p0, d0, refs, q, r, ts)
        slack = COST_REL * (1.0 + abs(cost))
        if abs(cost - sol.cost) > slack:
            fails.append(f"step {k}: reported cost {sol.cost!r}, recomputed {cost!r}")
        prev = captured[k - 1][2] if k > 0 else None
        if prev is None or prev.solver_status == "fault":
            x0 = [0.0] * (3 * n)
        else:
            flat = _flat(prev)
            x0 = flat[3:] + flat[-3:]
        x0 = [min(h, max(l, v)) for v, l, h in zip(x0, lo, hi)]
        warm = horizon_cost(x0, p0, d0, refs, q, r, ts)
        if cost > warm + slack:
            fails.append(f"step {k}: cost {cost!r} exceeds warm-start cost {warm!r}")
        if sol.solver_status == "max_iter":
            continue
        for j in range(3 * n):
            for frac in PERTURB_FRACS:
                for sign in (1.0, -1.0):
                    y = list(x)
                    y[j] = min(hi[j], max(lo[j], x[j] + sign * frac * (hi[j] - lo[j])))
                    if y[j] != x[j] and horizon_cost(y, p0, d0, refs, q, r, ts) < cost - slack:
                        fails.append(f"step {k}: moving input {j} to {y[j]!r} lowers the cost "
                                     f"of a {sol.solver_status} solve")
    return fails


def _check_guarantee(steps, summary, ts: float, kind: str, limit: float,
                     ref: dict) -> list[str]:
    t = steps["t_s"]
    pos = list(zip(steps["x_mm"], steps["y_mm"], steps["z_mm"]))
    errs = [dist(p, reference_at(ref, tk)) for p, tk in zip(pos, t)]
    t_end = len(t) * ts
    terminal = dist(summary["summary"]["terminal_position_mm"], reference_at(ref, t_end))
    if abs(terminal - summary["summary"]["final_error_mm"]) > POS_TOL_MM:
        return [f"summary final error {summary['summary']['final_error_mm']!r}, "
                f"recomputed {terminal!r}"]
    if kind == "final":
        worst = terminal
    elif kind == "tracking":
        cut = t_end - summary["scenario"]["run"]["exclude_terminal_s"]
        worst = max(e for e, tk in zip(errs, t) if tk < cut - 1e-9)
        if abs(worst - summary["summary"]["max_error_mm"]) > POS_TOL_MM:
            return [f"summary max error {summary['summary']['max_error_mm']!r}, "
                    f"recomputed {worst!r}"]
    else:  # corner
        tc = corner_time(ref)
        worst = max(e for e, tk in zip(errs, t) if abs(tk - tc) <= 1.0)
    if worst > limit:
        return [f"{kind} error {worst:.4g} mm exceeds the {limit} mm guarantee"]
    return []


# ---------------------------------------------------------------- open loop

def integrate_commands(commands, s0, amat, ts: float):
    """Tip positions at every step boundary under tendon commands (u_s, tau)."""
    p, d = list(s0[:3]), list(s0[3:])
    out = [p]
    for us, *tau in commands:
        p, d = arc_step(p, d, us, *rates(tau, us, amat), ts)
        out.append(p)
    return out


def check_replay(commands, table: dict, summary: dict, clean: bool,
                 max_pct) -> tuple[list[str], float]:
    """Checks on one open-loop replay; returns failures and the terminal error.

    commands are the (u_s, tau1, tau2, tau3) rows fed in; table and summary
    are the parsed open_loop.csv and open_loop_summary.json.
    """
    fails = []
    scn = summary["scenario"]
    geo, plant, ts = scn["geometry"], scn["plant"], scn["mpc"]["T_s_s"]
    s0 = scn["run"]["initial_state"]
    a_nom = curvature_matrix(geo["theta_e_rad"], geo["gain_per_mm_N"])
    a_true = curvature_matrix(geo["theta_e_rad"] + plant["theta_e_error_rad"],
                              geo["gain_per_mm_N"] * (1.0 + plant["gain_error"]))
    model = integrate_commands(commands, s0, a_nom, ts)
    truth = integrate_commands(commands, s0, a_true, ts)
    rec_m = list(zip(table["model_x_mm"], table["model_y_mm"], table["model_z_mm"]))
    rec_p = list(zip(table["plant_x_mm"], table["plant_y_mm"], table["plant_z_mm"]))
    if len(rec_p) != len(truth):
        return [f"{len(rec_p)} rows for {len(commands)} commands"], 0.0
    for k, (want_m, want_p, got_m, got_p) in enumerate(zip(model, truth, rec_m, rec_p)):
        if not (close(got_m, want_m) and close(got_p, want_p)):
            fails.append(f"row {k}: model {got_m} plant {got_p}, arc integration gives "
                         f"{want_m} and {want_p}")
            break
    errs = table["err_mm"]
    if clean and max(errs) > 1e-9:
        fails.append(f"clean replay shows model-vs-plant error {max(errs)!r} mm")
    inserted = sum(abs(c[0]) for c in commands) * ts
    worst = max(dist(m, p) for m, p in zip(model, truth))
    if abs(worst - summary["max_error_mm"]) > POS_TOL_MM or \
            abs(inserted - summary["inserted_length_mm"]) > POS_TOL_MM:
        fails.append(f"summary ({summary['max_error_mm']!r} mm over "
                     f"{summary['inserted_length_mm']!r} mm) disagrees with "
                     f"recomputed ({worst!r} over {inserted!r})")
    if max_pct is not None and worst > max_pct / 100.0 * inserted:
        fails.append(f"error {worst:.4g} mm exceeds {max_pct}% of {inserted:.4g} mm inserted")
    return fails, errs[-1]


def check_calibration(runs, fits, gain: float, theta_e: float,
                      u_s: float, ts: float) -> list[str]:
    """Loaded runs must be the generating arcs; every fit must recover the gain."""
    fails = []
    amat = curvature_matrix(theta_e, gain)
    for k, run in enumerate(runs):
        tau = [0.0, 0.0, 0.0]
        tau[run.tendon_index - 1] = run.tension
        want = integrate_commands([(u_s, *tau)] * (len(run.tip_points) - 1),
                                  (0.0, 0.0, 0.0, 0.0, 0.0, 1.0), amat, ts)
        if not all(close(list(got), w) for got, w in zip(run.tip_points, want)):
            fails.append(f"run {k}: loaded tip points differ from the generating arc")
    for k, fit in enumerate(fits):
        if abs(fit.gain - gain) > 0.005 * gain:
            fails.append(f"fit {k}: gain {fit.gain:.6g} is not within 0.5% of {gain:.6g}")
    return fails
