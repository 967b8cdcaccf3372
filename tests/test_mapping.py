import csv
import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from needle_mpc.calibration import CalibrationRun, calibrate
from needle_mpc.errors import DegenerateFitError, InvalidInputError
from needle_mpc.harness import _read_numeric_csv
from needle_mpc.kinematics import NeedleState, VirtualInput
from needle_mpc.mapping import (
    DEFAULT_GAIN,
    MAX_ANGLE_RAD,
    U_S_EPS,
    TendonCommand,
    TendonGeometry,
    _arc_curvature,
    _origin_slope,
    forward_map,
    inverse_map,
    rates_from_command,
)
from oracles import (
    _channel_matrix,
    circle_fit_svd,
    curvature_pair,
    estimate_curvature_multipass,
    feasible_set_excess,
    rollout,
    tension_grid_full,
    tension_grid_line,
    zero_intercept_gain,
)

GEO = TendonGeometry()


def random_feasible_rates(rng, geometry, n):
    """Sample bending-rate targets that are realizable by construction."""
    taus = rng.uniform(0.0, geometry.tau_max, size=(n, 3))
    out = []
    for tau in taus:
        u_s = rng.uniform(1.0, 24.0)
        kx, ky = forward_map(tau, geometry)
        out.append((u_s * kx, u_s * ky, u_s, tau))
    return out


class TestGeometry:
    def test_defaults(self):
        assert GEO.gain == pytest.approx(3.7e-4)
        assert GEO.tau_max == pytest.approx(7.0)
        assert GEO.theta_e == 0.0

    def test_theta_e_wrapped(self):
        g = TendonGeometry(theta_e=2.0 * math.pi + 0.25)
        assert g.theta_e == pytest.approx(0.25)

    @pytest.mark.parametrize("theta", [-1e-17, -5e-324, 2.0 * math.pi])
    def test_theta_e_wraps_to_zero_not_two_pi(self, theta):
        g = TendonGeometry(theta_e=theta)
        assert g.theta_e == 0.0
        assert TendonGeometry(theta_e=g.theta_e).theta_e == g.theta_e

    def test_theta_e_bounded_in_magnitude(self):
        # within the bound the angle still wraps; beyond it, it is refused
        assert TendonGeometry(theta_e=-MAX_ANGLE_RAD).theta_e == -MAX_ANGLE_RAD % (2.0 * math.pi)
        for theta in (math.nextafter(MAX_ANGLE_RAD, math.inf), -1e17):
            message = f"theta_e_rad must be within +-1000, got {theta!r}"
            with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
                TendonGeometry(theta_e=theta)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            TendonGeometry(gain=0.0)
        with pytest.raises(InvalidInputError):
            TendonGeometry(tau_max=-1.0)

    def test_channel_angles_spacing(self):
        # one unit tension per tendon points along its channel, at
        # -theta_e + 120 degrees per tendon
        g = TendonGeometry(theta_e=0.3, gain=2e-4)
        for j in range(3):
            unit = np.eye(3)[j]
            kx, ky = forward_map(unit, g)
            assert (kx, ky) == pytest.approx(curvature_pair(0.3, 2e-4, unit), rel=1e-15, abs=1e-19)
            assert math.hypot(kx, ky) == pytest.approx(2e-4, rel=1e-15)
            assert math.atan2(ky, kx) == pytest.approx(
                math.remainder(-0.3 + 2.0 * math.pi * j / 3.0, 2.0 * math.pi), rel=1e-14
            )

    def test_replace_builds_a_new_matrix(self):
        g = TendonGeometry(theta_e=0.3)
        g2 = dataclasses.replace(g, theta_e=1.1)
        # the per-step maps read the new geometry's entries
        u = rates_from_command(TendonCommand(10.0, (1.0, 0.0, 0.0)), g2)
        kx, ky = curvature_pair(1.1, g.gain, (1.0, 0.0, 0.0))
        assert (u.u_x, u.u_y) == pytest.approx((10.0 * kx, 10.0 * ky), rel=1e-15)
        res = inverse_map(u, g2)
        assert res.command.tau == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)


def single_tendon_curvature(tension, j=0, geometry=GEO):
    """Curvature magnitude (1/mm) with only tendon j pulled."""
    tau = np.zeros(3)
    tau[j] = tension
    return float(np.linalg.norm(forward_map(tau, geometry)))


class TestCurvatureOfTension:
    def test_one_newton(self):
        for j in range(3):
            assert single_tendon_curvature(1.0, j) == pytest.approx(3.7e-4)

    def test_zero(self):
        assert single_tendon_curvature(0.0) == 0.0

    def test_saturation_tension(self):
        k = single_tendon_curvature(7.0)
        assert k == pytest.approx(2.59e-3)
        assert 1.0 / k == pytest.approx(386.0, rel=1e-2)


class TestForwardMap:
    @given(c=st.floats(0.0, 7.0), theta=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_equal_tensions_cancel(self, c, theta):
        g = TendonGeometry(theta_e=theta)
        kx, ky = forward_map((c, c, c), g)
        # unit channel vectors sum to zero, so this is pure roundoff
        assert abs(kx) <= 5e-16 * (1.0 + g.gain * c)
        assert abs(ky) <= 5e-16 * (1.0 + g.gain * c)

    def test_single_tendon_along_x(self):
        kx, ky = forward_map((1.0, 0.0, 0.0), GEO)
        assert kx == pytest.approx(3.7e-4, abs=1e-19)
        assert ky == pytest.approx(0.0, abs=1e-19)

    def test_second_tendon_at_120_degrees(self):
        kx, ky = forward_map((0.0, 1.0, 0.0), GEO)
        assert kx == pytest.approx(3.7e-4 * math.cos(2.0 * math.pi / 3.0), rel=1e-12)
        assert ky == pytest.approx(3.7e-4 * math.sin(2.0 * math.pi / 3.0), rel=1e-12)
        # known-good values, quoted to 4 figures
        assert kx == pytest.approx(-1.85e-4, rel=1e-3)
        assert ky == pytest.approx(3.204e-4, rel=1e-3)

    @given(
        t1=st.floats(0.0, 7.0),
        t2=st.floats(0.0, 7.0),
        t3=st.floats(0.0, 7.0),
        theta=st.floats(0.0, 2.0 * math.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_superposition_oracle(self, t1, t2, t3, theta):
        g = TendonGeometry(theta_e=theta)
        got = forward_map((t1, t2, t3), g)
        want = curvature_pair(theta, g.gain, (t1, t2, t3))
        assert got == pytest.approx(want, abs=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        a, b = 1.7, 0.4
        t1 = rng.uniform(0, 3, 3)
        t2 = rng.uniform(0, 3, 3)
        lhs = np.array(forward_map(a * t1 + b * t2, GEO))
        rhs = a * np.array(forward_map(t1, GEO)) + b * np.array(forward_map(t2, GEO))
        assert np.allclose(lhs, rhs, atol=1e-18)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            tau = rng.uniform(0, 7, 3)
            g1 = TendonGeometry(theta_e=theta)
            g2 = TendonGeometry(theta_e=theta - 2.0 * math.pi / 3.0)
            rolled = np.roll(tau, -1)  # tendon 2 takes tendon 1's angle
            assert forward_map(tau, g1) == pytest.approx(
                forward_map(rolled, g2), rel=1e-12, abs=1e-17
            )

    @pytest.mark.parametrize(
        "tau, message",
        [
            ((-0.1, 0.0, 0.0), "tensions must be nonnegative"),
            ((math.nan, 0.0, 0.0), "non-finite"),
            ((0.0, math.inf, 0.0), "non-finite"),
            ((1.0, 2.0), "shape"),
        ],
    )
    def test_rejects_what_tendon_command_rejects(self, tau, message):
        for build in (lambda: forward_map(tau, GEO), lambda: TendonCommand(10.0, tau)):
            with pytest.raises(InvalidInputError, match=message):
                build()


class TestTendonCommandContract:
    @pytest.mark.parametrize("tau", [
        (1, 0, 2), [1.0, 0.0, 2.0], np.array([1.0, 0.0, 2.0]), np.array([1, 0, 2]),
        (np.int64(1), np.float32(0.0), np.float64(2.0)),
    ])
    def test_holds_floats(self, tau):
        cmd = TendonCommand(np.int64(20), tau)
        assert type(cmd.u_s) is float and cmd.u_s == 20.0
        assert type(cmd.tau) is tuple and all(type(v) is float for v in cmd.tau)
        assert cmd.tau == (1.0, 0.0, 2.0)
        with pytest.raises(TypeError):
            cmd.tau[0] = 1.0

    @pytest.mark.parametrize("tau", [
        (0.0, 1.0), (0.0, 0.0, 1.0, 0.0), "001", b"001", None, ("0", 0.0, 1.0),
        (0.0, math.nan, 1.0), (0.0, 0.0, math.inf), (-math.inf, 0.0, 1.0),
        np.array([[0.0], [0.0], [1.0]]), np.array([[0.0, 0.0, 1.0]]),
    ])
    def test_tau_rejected_naming_it(self, tau):
        for build in (lambda: forward_map(tau, GEO), lambda: TendonCommand(10.0, tau)):
            with pytest.raises(InvalidInputError, match="^tau "):
                build()

    @pytest.mark.parametrize("u_s", ["3", b"3", None, math.nan, math.inf, -math.inf])
    def test_u_s_rejected_naming_it(self, u_s):
        with pytest.raises(InvalidInputError, match="^u_s "):
            TendonCommand(u_s, (0.0, 0.0, 0.0))


class TestRatesFromCommand:
    def test_zero_speed_gives_zero_rates(self):
        u = rates_from_command(TendonCommand(0.0, (5.0, 1.0, 2.0)), GEO)
        assert (u.u_x, u.u_y) == (0.0, 0.0)

    def test_single_tendon_rates(self):
        u = rates_from_command(TendonCommand(20.0, (1.0, 0.0, 0.0)), GEO)
        assert u.u_x == pytest.approx(7.4e-3)
        assert u.u_y == pytest.approx(0.0, abs=1e-18)
        assert u.u_s == 20.0

    def test_symmetric_tensions(self):
        u = rates_from_command(TendonCommand(10.0, (2.0, 2.0, 2.0)), GEO)
        assert u.u_s == 10.0
        assert abs(u.u_x) < 1e-15
        assert abs(u.u_y) < 1e-15

    def test_negative_tension_rejected(self):
        with pytest.raises(InvalidInputError):
            TendonCommand(10.0, (-0.1, 0.0, 0.0))

    @given(
        tau=st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(0.0, 50.0)),
        u_s=st.floats(-24.0, 24.0),
        theta=st.floats(0.0, 2.0 * math.pi),
        gain=st.floats(1e-6, 1e-2),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_superposition_oracle(self, tau, u_s, theta, gain):
        g = TendonGeometry(theta_e=theta, gain=gain, tau_max=50.0)
        u = rates_from_command(TendonCommand(u_s, tau), g)
        kx, ky = curvature_pair(g.theta_e, gain, tau)
        scale = 1e-14 * gain * 50.0 * max(abs(u_s), 1.0)
        assert u.u_s == u_s
        assert u.u_x == pytest.approx(kx * u_s, abs=scale)
        assert u.u_y == pytest.approx(ky * u_s, abs=scale)


class TestInverseMap:
    def test_zero_curvature_zero_tension(self):
        res = inverse_map(VirtualInput(20.0, 0.0, 0.0), GEO)
        assert np.array_equal(res.command.tau, np.zeros(3))
        assert not res.saturated

    def test_single_tendon_request(self):
        res = inverse_map(VirtualInput(20.0, 7.4e-3, 0.0), GEO)
        assert np.allclose(res.command.tau, [1.0, 0.0, 0.0], atol=1e-9)
        assert not res.saturated
        # fine brute-force grid agrees
        grid = tension_grid_line(7.4e-3, 0.0, 20.0, 0.0, GEO.gain, GEO.tau_max, 0.001)
        assert np.allclose(res.command.tau, grid, atol=0.002)

    def test_saturated_request_clamps_to_boundary(self):
        u_x = 20.0 * 5e-3  # needs tau_1 about 13.5 N
        res = inverse_map(VirtualInput(20.0, u_x, 0.0), GEO)
        assert res.saturated
        assert np.allclose(res.command.tau, [7.0, 0.0, 0.0], atol=1e-9)
        # the clamped tensions fall short of the requested curvature
        assert np.linalg.norm(np.subtract(forward_map(res.command.tau, GEO), [u_x / 20.0, 0.0])) > 0.0

    def test_tensions_always_inside_box(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            u = VirtualInput(
                rng.uniform(-1, 24), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)
            )
            res = inverse_map(u, GEO)
            assert np.all(np.asarray(res.command.tau) >= 0.0)
            assert np.all(np.asarray(res.command.tau) <= GEO.tau_max + 1e-12)

    def test_tiny_speed_returns_zero_tension(self):
        res = inverse_map(VirtualInput(1e-9, 0.5, 0.5), GEO)
        assert np.array_equal(res.command.tau, np.zeros(3))
        assert not res.saturated

    def test_command_tensions_are_read_only(self):
        for u in (VirtualInput(20.0, 7.4e-3, 0.0), VirtualInput(20.0, 0.1, 0.0),
                  VirtualInput(0.0, 0.1, 0.0)):
            tau = inverse_map(u, GEO).command.tau
            with pytest.raises(TypeError):
                tau[0] = 1.0

    @given(
        tau=st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999), st.floats(0.0, 0.999)),
        u_s=st.floats(U_S_EPS, 24.0) | st.floats(-24.0, -U_S_EPS),
        theta=st.floats(0.0, 2.0 * math.pi),
        gain=st.floats(1e-6, 1e-2),
        tau_max=st.floats(0.5, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_feasible_request_round_trips(self, tau, u_s, theta, gain, tau_max):
        # tensions inside the box shrunk by 0.1% make a request inside the
        # feasible set by construction, off its boundary
        g = TendonGeometry(theta_e=theta, gain=gain, tau_max=tau_max)
        kx, ky = curvature_pair(g.theta_e, gain, [t * tau_max for t in tau])
        u = VirtualInput(u_s, u_s * kx, u_s * ky)
        res = inverse_map(u, g)
        assert not res.saturated
        tau = np.asarray(res.command.tau)
        assert np.all(tau >= 0.0) and np.all(tau <= tau_max)
        back = rates_from_command(res.command, g)
        scale = 1e-12 * gain * tau_max * abs(u_s)
        assert back.u_s == u_s
        assert back.u_x == pytest.approx(u.u_x, abs=scale)
        assert back.u_y == pytest.approx(u.u_y, abs=scale)

    @given(
        rho=st.floats(0.0, 3.0),
        psi=st.floats(0.0, 2.0 * math.pi),
        u_s=st.floats(U_S_EPS, 24.0) | st.floats(-24.0, -U_S_EPS),
        theta=st.floats(0.0, 2.0 * math.pi),
        gain=st.floats(1e-6, 1e-2),
        tau_max=st.floats(0.5, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_saturated_exactly_outside_the_feasible_set(self, rho, psi, u_s, theta, gain,
                                                         tau_max):
        g = TendonGeometry(theta_e=theta, gain=gain, tau_max=tau_max)
        kx, ky = rho * gain * tau_max * math.cos(psi), rho * gain * tau_max * math.sin(psi)
        excess = feasible_set_excess(kx, ky, g.theta_e, gain, tau_max)
        assume(abs(excess) > 1e-9)  # the boundary itself is decided by roundoff
        res = inverse_map(VirtualInput(u_s, u_s * kx, u_s * ky), g)
        assert res.saturated == (excess > 0.0)
        tau = np.asarray(res.command.tau)
        assert np.all(tau >= 0.0) and np.all(tau <= tau_max)
        if res.saturated:
            # a boundary point of the hexagon: one tendon at tau_max, another at 0
            lo, _, hi = sorted(res.command.tau)
            assert (lo, hi) == (0.0, tau_max)

    @pytest.mark.parametrize("gain", [1e-170, 1e-200, 1e-300])
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_far_target_saturates_toward_its_direction(self, gain, theta):
        # kappa / gain lies 1e170 N or more away from the 7 N hexagon, whose
        # nearest point is then the vertex closest in angle, or an edge
        # midpoint straight along the request: within 30 degrees either way
        g = TendonGeometry(theta_e=theta, gain=gain)
        for k in range(72):
            psi = math.radians(5.0 * k)
            res = inverse_map(VirtualInput(1.0, math.cos(psi), math.sin(psi)), g)
            assert res.saturated
            kx, ky = forward_map(res.command.tau, g)
            off = math.degrees(abs(math.remainder(math.atan2(ky, kx) - psi, 2.0 * math.pi)))
            assert off <= 30.0 + 1e-9, (k, off)

    @pytest.mark.parametrize("u_s", [U_S_EPS, -U_S_EPS])
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_overflowing_target_saturates_toward_its_direction(self, u_s, theta):
        # kappa = (u_x, u_y) / u_s overflows; it still gets the vertex or
        # edge midpoint nearest its direction, flagged saturated
        g = TendonGeometry(theta_e=theta)
        corners = [(1e308, 1e308), (1e308, -1e308), (-1e308, 1e308), (-1e308, -1e308)]
        ring = [(1e308 * math.cos(psi), 1e308 * math.sin(psi))
                for psi in (math.radians(5.0 * k) for k in range(72))]
        for u_x, u_y in corners + ring:
            res = inverse_map(VirtualInput(u_s, u_x, u_y), g)
            assert res.saturated
            assert sorted(res.command.tau)[::2] == [0.0, g.tau_max]
            kx, ky = forward_map(res.command.tau, g)
            psi = math.atan2(u_y * u_s, u_x * u_s)
            off = math.degrees(abs(math.remainder(math.atan2(ky, kx) - psi, 2.0 * math.pi)))
            assert off <= 30.0 + 1e-9, (u_x, u_y, off)

    @given(
        ratio=st.floats(0.0, 1.0, exclude_max=True) | st.floats(1.0, 1e7),
        sign=st.sampled_from([1.0, -1.0]),
        rho=st.floats(0.01, 0.8),
        psi=st.floats(0.0, 2.0 * math.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_speed_threshold_decides_zero_tensions(self, ratio, sign, rho, psi):
        # a nonzero curvature well inside the feasible set
        kx = rho * GEO.gain * GEO.tau_max * math.cos(psi)
        ky = rho * GEO.gain * GEO.tau_max * math.sin(psi)
        u_s = sign * ratio * U_S_EPS
        res = inverse_map(VirtualInput(u_s, u_s * kx, u_s * ky), GEO)
        assert not res.saturated
        assert res.command.u_s == u_s
        if abs(u_s) < U_S_EPS:
            assert np.array_equal(res.command.tau, np.zeros(3))
        else:
            assert np.any(np.asarray(res.command.tau) > 0.0)

    def test_roundtrip_on_feasible_targets(self):
        rng = np.random.default_rng(5)
        for u_x, u_y, u_s, _ in random_feasible_rates(rng, GEO, 500):
            res = inverse_map(VirtualInput(u_s, u_x, u_y), GEO)
            assert not res.saturated
            back = rates_from_command(res.command, GEO)
            assert back.u_x == pytest.approx(u_x, abs=1e-6)
            assert back.u_y == pytest.approx(u_y, abs=1e-6)

    def test_matches_grid_oracle_sample(self):
        rng = np.random.default_rng(6)
        for u_x, u_y, u_s, _ in random_feasible_rates(rng, GEO, 5):
            res = inverse_map(VirtualInput(u_s, u_x, u_y), GEO)
            grid = tension_grid_line(u_x, u_y, u_s, 0.0, GEO.gain, GEO.tau_max, 0.01)
            assert grid is not None
            assert np.all(np.abs(res.command.tau - grid) <= 0.011)
            assert np.linalg.norm(res.command.tau) <= np.linalg.norm(grid) + 1e-4

    def test_grid_line_reduction_agrees_with_full_grid(self):
        """The cheap sweep must land where the exhaustive cube search lands.

        The full-cube rule scores snapped grid points, so its winner can
        sit a couple of cells along the solution line from the slice
        sweep's exact candidate; agreement within two cells at coarse
        resolution is the meaningful check.
        """
        rng = np.random.default_rng(7)
        step = 0.1
        for u_x, u_y, u_s, _ in random_feasible_rates(rng, GEO, 6):
            full = tension_grid_full(u_x, u_y, u_s, 0.0, GEO.gain, GEO.tau_max, step)
            line = tension_grid_line(u_x, u_y, u_s, 0.0, GEO.gain, GEO.tau_max, step)
            assert full is not None and line is not None
            assert np.all(np.abs(full - line) <= 2 * step + 1e-9)

    def test_saturated_result_is_best_feasible(self):
        # boundary optimum confirmed against the coarse full grid by
        # comparing realized-rate deviation, then norm
        rng = np.random.default_rng(9)
        g = GEO
        for _ in range(5):
            scale = rng.uniform(1.3, 2.5)
            tau = rng.uniform(0, 7, 3)
            tau[rng.integers(3)] = 7.0 * scale
            u_s = rng.uniform(5.0, 24.0)
            kx, ky = forward_map(tau, TendonGeometry(tau_max=1e9))
            u = VirtualInput(u_s, u_s * kx, u_s * ky)
            res = inverse_map(u, g)
            if not res.saturated:
                continue
            got = rates_from_command(res.command, g)
            dev = math.hypot(got.u_x - u.u_x, got.u_y - u.u_y)
            axis = np.arange(0.0, 7.0 + 1e-9, 0.35)
            t1, t2, t3 = np.meshgrid(axis, axis, axis, indexing="ij")
            taus = np.stack([t1.ravel(), t2.ravel(), t3.ravel()], axis=1)
            rates = u_s * (taus @ _channel_matrix(g.theta_e, g.gain).T)
            devs = np.hypot(rates[:, 0] - u.u_x, rates[:, 1] - u.u_y)
            assert dev <= devs.min() + 1e-9


# a tension or curvature: 0 or a magnitude in [1e-30, 1e30], so that no
# product underflows
gain_sample_st = st.one_of(st.just(0.0), st.floats(1e-30, 1e30))


def gain_of(pairs):
    """_origin_slope on (tension, curvature) pairs."""
    return _origin_slope([t for t, _ in pairs], [k for _, k in pairs])


def fit_curvature(points):
    """_arc_curvature on points given as any rows of three numbers."""
    return _arc_curvature([tuple(p) for p in np.asarray(points, dtype=float).tolist()])


# an arc CalibrationRun accepts
ARC = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.1), (2.0, 0.0, 0.4))


class TestFitGain:
    """The through-origin gain fit, on the tensions CalibrationRun checked
    and the curvatures of its arcs."""

    def test_exact_line_through_default_gain(self):
        taus = [1.0, 2.0, 5.0, 7.0]
        assert gain_of([(t, DEFAULT_GAIN * t) for t in taus]) == pytest.approx(
            DEFAULT_GAIN, rel=1e-15)

    def test_two_point_exact(self):
        assert gain_of([(1.0, 2e-4), (2.0, 4e-4)]) == pytest.approx(2e-4, rel=1e-15)

    def test_noisy_recovery_within_standard_error(self):
        rng = np.random.default_rng(10)
        taus = np.tile(np.arange(1.0, 8.0), 4)
        true_g = 3.7e-4
        kappas = true_g * taus + rng.normal(scale=5e-6, size=taus.size)
        got = gain_of(list(zip(taus.tolist(), kappas.tolist())))
        oracle_g, se = zero_intercept_gain(taus, kappas)
        assert got == pytest.approx(oracle_g, rel=1e-12)
        assert abs(got - true_g) <= 4.0 * se

    def test_too_few_samples(self):
        with pytest.raises(InvalidInputError, match="^need at least 2 calibration runs, got 1$"):
            calibrate([CalibrationRun(1, 1.0, ARC)])

    def test_negative_tension_rejected(self):
        with pytest.raises(InvalidInputError, match="^tension_N must be >= 0, got -2.0$"):
            CalibrationRun(1, -2.0, ARC)

    def test_all_zero_tension_degenerate(self):
        with pytest.raises(DegenerateFitError):
            gain_of([(0.0, 0.0), (0.0, 1e-5), (0.0, 2e-5)])

    def test_non_finite_sample_named(self):
        runs = [CalibrationRun(1, 1.0, ARC), CalibrationRun(1, 2.0, ARC)]
        object.__setattr__(runs[1], "curvature", math.inf)  # as if fitted from an arc
        with pytest.raises(InvalidInputError, match="^samples has a non-finite value inf$"):
            calibrate(runs)

    @pytest.mark.parametrize("samples", [
        [(1e200, 1e-3), (2e200, 2e-3)],       # sum(tau^2) overflows
        [(1e154, 1e300), (1e154, 1e300)],     # sum(tau*kappa) overflows
        [(1e308, 1e308), (1e308, -1e308)],    # tau*kappa is inf and -inf
        [(1e-160, 1e200), (1e-160, 1e200)],   # finite sums, the slope overflows
    ])
    def test_sums_beyond_the_float_range_are_invalid_input(self, samples):
        with pytest.raises(InvalidInputError, match="^samples put .* beyond the float range"):
            gain_of(samples)

    @given(st.lists(st.tuples(gain_sample_st, gain_sample_st), min_size=2, max_size=12),
           st.randoms())
    @settings(max_examples=300, deadline=None)
    def test_within_five_ulps_of_the_exact_slope_in_any_order(self, pairs, rnd):
        # each product rounds once (relative error u = 2**-53), nonnegative
        # terms do not cancel, fsum rounds each sum once and the division
        # once: |gain - slope| <= (5u + O(u^2)) slope < 5 ulp(slope).
        # 200000 random samples over 16 decades measured at most 3.24 ulp.
        assume(any(t > 0.0 for t, _ in pairs))
        got = gain_of(pairs)
        exact = (sum(Fraction(t) * Fraction(k) for t, k in pairs)
                 / sum(Fraction(t) ** 2 for t, _ in pairs))
        assert abs(Fraction(got) - exact) <= 5 * Fraction(math.ulp(float(exact)))
        rnd.shuffle(pairs)
        assert gain_of(pairs) == got


class TestEstimateCurvature:
    """The circle fit of a tip arc, on the points CalibrationRun checked."""

    def test_exact_circle(self):
        r = 200.0
        ang = np.linspace(0.0, 0.8, 25)
        pts = np.stack([r * np.sin(ang), np.zeros_like(ang), r * (1 - np.cos(ang))], axis=1)
        assert fit_curvature(pts) == pytest.approx(5e-3, rel=1e-8)

    def test_collinear_points(self):
        pts = np.outer(np.linspace(0, 50, 10), [0.0, 0.6, 0.8])
        assert fit_curvature(pts) == 0.0

    def test_tilted_circle(self):
        # circle living in a rotated plane, recovered after plane projection
        r = 80.0
        ang = np.linspace(0.0, 1.2, 30)
        raw = np.stack([r * np.cos(ang), r * np.sin(ang), np.zeros_like(ang)], axis=1)
        c, s = math.cos(0.6), math.sin(0.6)
        rot = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
        pts = raw @ rot.T + np.array([5.0, -3.0, 12.0])
        assert fit_curvature(pts) == pytest.approx(1.0 / r, rel=1e-8)

    def test_constant_input_rollout(self):
        s = NeedleState(p=(0, 0, 0), d=(0, 0, 1))
        states = rollout(s, [VirtualInput(10.0, 1.0, 0.0)] * 50, 0.05)
        pts = [st_.p for st_ in states]
        assert _arc_curvature(pts) == pytest.approx(0.1, rel=1e-6)

    @staticmethod
    def _tilted_arc(rng, count):
        """count points of a circular arc in a random plane, as 3-float tuples."""
        radius = rng.uniform(20.0, 2000.0)
        ang = rng.uniform(0.0, 2.0 * math.pi) + np.linspace(0.0, rng.uniform(0.05, 3.0), count)
        frame, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        planar = radius * np.stack([np.cos(ang), np.sin(ang), np.zeros(count)], axis=1)
        return planar @ frame.T + rng.uniform(-200.0, 200.0, 3)

    def test_matches_the_svd_fit(self):
        # tilted arcs, the same arcs under 0.2 mm noise per axis, and 3-point
        # arcs: the float fit agrees with numpy's SVD plane and Kasa fit
        rng = np.random.default_rng(31)
        for _ in range(100):
            arc = self._tilted_arc(rng, int(rng.integers(20, 120)))
            noisy = arc + rng.normal(0.0, 0.2, arc.shape)
            three = self._tilted_arc(rng, 3)
            for pts in (arc, noisy, three):
                want = circle_fit_svd(pts)
                assert want > 0.0
                got = fit_curvature(pts)
                assert abs(got - want) <= 1e-10 * want

    def test_collinear_in_any_direction_is_zero(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            direction = rng.normal(size=3)
            t = rng.uniform(-100.0, 100.0, int(rng.integers(3, 60)))
            pts = np.outer(t, direction) + rng.uniform(-200.0, 200.0, 3)
            assert circle_fit_svd(pts) == 0.0
            assert fit_curvature(pts) == 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(3, 120), st.booleans(),
           st.sampled_from([0.0, 1e-9, 1e-3, 0.1, 2.0]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_bit_equal_to_the_multipass_fit(self, seed, count, straight, noise):
        # tilted arcs and lines under per-axis noise: projecting each point
        # and summing it in one pass is the same arithmetic in the same order
        rng = np.random.default_rng(seed)
        if straight:
            pts = np.outer(rng.uniform(-100.0, 100.0, count), rng.normal(size=3))
        else:
            pts = self._tilted_arc(rng, count)
        pts = [tuple(p) for p in (pts + rng.normal(0.0, noise, pts.shape)).tolist()]
        assert _arc_curvature(pts).hex() == estimate_curvature_multipass(pts).hex()

    @pytest.mark.parametrize("scale", [1e110, 1e160, 1e300])
    def test_sums_beyond_the_float_range_are_invalid_input(self, scale):
        # the third powers of the in-plane coordinates overflow from about
        # 1e103 mm, their squares from 1e154 mm
        pts = [(scale * math.cos(0.1 * k), scale * math.sin(0.1 * k), 0.0) for k in range(10)]
        for fit in (_arc_curvature, estimate_curvature_multipass):
            with pytest.raises(InvalidInputError, match="^points spread"):
                fit(pts)

    def test_too_few_points(self):
        # a curvature is fitted only on the points of a CalibrationRun
        for points in ([(0, 0, 0), (1, 0, 0)], np.zeros((2, 3))):
            with pytest.raises(InvalidInputError, match="^tip_points must hold at least 3 points"):
                CalibrationRun(1, 1.0, points)

    @pytest.mark.parametrize("points", [
        [("0", "0", "0"), ("1", "0", "0.1"), ("2", "0", "0.4")],
        [(0.0, 0.0, 0.0), (1.0, 0.0, b"0.1"), (2.0, 0.0, 0.4)],
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.1), (2.0, False, 0.4)],
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.1), (2.0, 0.0, math.nan)],
        "abc",
        np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.1), (2.0, 0.0, math.inf)]),
        np.zeros((4, 2)),
        np.array(["0", "1", "2"]),
    ])
    def test_points_must_be_finite_numbers(self, points):
        with pytest.raises(InvalidInputError, match="^tip_points "):
            CalibrationRun(1, 1.0, points)


class TestCalibrationCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cal.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["tension_N", "curvature_per_mm"])
            w.writerow([1.0, 3.7e-4])
            w.writerow([2.0, 7.4e-4])
        pairs = _read_numeric_csv(path, ["tension_N", "curvature_per_mm"], 1)
        assert pairs == [[1.0, 3.7e-4], [2.0, 7.4e-4]]

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tension,curvature\n1.0,3.7e-4\n")
        with pytest.raises(InvalidInputError, match="tension_N,curvature_per_mm"):
            _read_numeric_csv(path, ["tension_N", "curvature_per_mm"], 1)
