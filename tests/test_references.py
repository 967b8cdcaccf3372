import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from needle_mpc.errors import InvalidInputError, key_of
from needle_mpc.references import (
    MAX_POSITION_MM,
    FixedTarget,
    Helix,
    SharpTurn,
    Sinusoidal,
    WaypointPath,
    check_path_speed,
    horizon_samples,
)
from needle_mpc.scenario import _reference_from_dict
from oracles import helix_point

times_st = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
finite_st = st.floats(allow_nan=False, allow_infinity=False)
position_st = st.floats(min_value=-MAX_POSITION_MM, max_value=MAX_POSITION_MM)


class TestFixedTarget:
    def test_constant_at_any_time(self):
        spec = FixedTarget(target=(5.0, -15.0, 150.0))
        for t in (0.0, 0.37, 12.0, 1e6):
            assert np.array_equal(spec.samples([t])[0], [5.0, -15.0, 150.0])

    def test_rejects_bad_target(self):
        with pytest.raises(InvalidInputError):
            FixedTarget(target=(1.0, 2.0))
        with pytest.raises(InvalidInputError):
            FixedTarget(target=(1.0, np.nan, 3.0))


class TestHelix:
    def test_degenerate_radius_is_a_line(self):
        # radius 0 collapses to the axis line advancing at pitch*rate/(2 pi)
        spec = Helix(radius=0.0, pitch=40.0, rate=1.2, center=(1.0, 2.0, 3.0))
        speed = 40.0 * 1.2 / (2.0 * math.pi)
        for t in (0.0, 1.0, 5.5):
            np.testing.assert_allclose(
                spec.samples([t])[0], [1.0, 2.0, 3.0 + speed * t], atol=1e-12
            )

    def test_starts_on_circle_at_phase(self):
        spec = Helix(radius=10.0, pitch=40.0, rate=1.2, phase=0.5)
        p0 = spec.samples([0.0])[0]
        np.testing.assert_allclose(
            p0, [10.0 * math.cos(0.5), 10.0 * math.sin(0.5), 0.0], atol=1e-12
        )

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_matches_closed_form_all_axes(self, axis):
        spec = Helix(
            radius=7.5, pitch=25.0, rate=0.8, center=(-3.0, 4.0, 1.0),
            phase=0.2, axis=axis,
        )
        for t in np.linspace(0.0, 20.0, 17):
            expected = helix_point(t, 7.5, 25.0, 0.8, (-3.0, 4.0, 1.0), 0.2, axis)
            np.testing.assert_allclose(spec.samples([t])[0], expected, atol=1e-12)

    def test_radial_distance_constant(self):
        spec = Helix(radius=10.0, pitch=40.0, rate=1.2, center=(-10.0, 0.0, 0.0))
        for t in np.linspace(0.0, 10.0, 11):
            p = spec.samples([t])[0]
            assert math.hypot(p[0] + 10.0, p[1]) == pytest.approx(10.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Helix(radius=-1.0, pitch=40.0, rate=1.2)
        with pytest.raises(InvalidInputError):
            Helix(radius=10.0, pitch=math.inf, rate=1.2)
        with pytest.raises(InvalidInputError):
            Helix(radius=10.0, pitch=40.0, rate=1.2, axis="w")


class TestSharpTurn:
    def test_two_waypoint_interpolation(self):
        spec = SharpTurn(waypoints=[(0.0, 0.0, 0.0), (0.0, 0.0, 100.0)], speed=10.0)
        np.testing.assert_allclose(spec.samples([5.0])[0], [0.0, 0.0, 50.0], atol=1e-12)

    def test_constant_speed_between_corners(self):
        spec = SharpTurn(
            waypoints=[(0.0, 0.0, 0.0), (0.0, 0.0, 60.0), (60.0, 0.0, 60.0)],
            speed=12.0,
        )
        # both legs are 60 mm, so the corner sits at t = 5 s and the end at 10 s
        np.testing.assert_allclose(spec.times[1:-1], [5.0])
        np.testing.assert_allclose(spec.samples([2.5])[0], [0.0, 0.0, 30.0], atol=1e-12)
        np.testing.assert_allclose(spec.samples([7.5])[0], [30.0, 0.0, 60.0], atol=1e-12)

    def test_holds_last_point(self):
        spec = SharpTurn(waypoints=[(0.0, 0.0, 0.0), (0.0, 0.0, 60.0)], speed=12.0)
        np.testing.assert_array_equal(spec.samples([99.0])[0], [0.0, 0.0, 60.0])

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SharpTurn(waypoints=[(0.0, 0.0, 0.0)], speed=10.0)
        with pytest.raises(InvalidInputError):
            SharpTurn(waypoints=[(0.0, 0.0, 0.0), (0.0, 0.0, 0.0)], speed=10.0)
        with pytest.raises(InvalidInputError):
            SharpTurn(waypoints=[(0.0, 0.0, 0.0), (0.0, 0.0, 1.0)], speed=0.0)


class TestSinusoidal:
    def test_closed_form(self):
        spec = Sinusoidal(
            axial_speed=18.0, amplitude=(10.0, 6.0), frequency=(0.15, 0.1),
            phase=(0.3, -0.2),
        )
        for t in np.linspace(0.0, 12.0, 9):
            expected = [
                10.0 * math.sin(2.0 * math.pi * 0.15 * t + 0.3),
                6.0 * math.sin(2.0 * math.pi * 0.1 * t - 0.2),
                18.0 * t,
            ]
            np.testing.assert_allclose(spec.samples([t])[0], expected, atol=1e-12)

    def test_zero_amplitude_is_straight_insertion(self):
        spec = Sinusoidal(axial_speed=24.0)
        np.testing.assert_allclose(spec.samples([3.0])[0], [0.0, 0.0, 72.0], atol=1e-12)


class TestWaypointPath:
    def test_linear_interpolation(self):
        spec = WaypointPath(points=[(0.0, 0.0, 0.0), (0.0, 0.0, 100.0)], times=[0.0, 10.0])
        np.testing.assert_allclose(spec.samples([5.0])[0], [0.0, 0.0, 50.0], atol=1e-12)

    def test_holds_at_both_ends(self):
        spec = WaypointPath(
            points=[(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)], times=[1.0, 2.0]
        )
        np.testing.assert_array_equal(spec.samples([0.0])[0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(spec.samples([10.0])[0], [4.0, 5.0, 6.0])

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            WaypointPath(points=[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)], times=[0.0])
        with pytest.raises(InvalidInputError):
            WaypointPath(points=[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)], times=[1.0, 1.0])
        with pytest.raises(InvalidInputError):
            WaypointPath(points=[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)], times=[2.0, 1.0])


class TestReplay:
    """The scenario "replay" reference: a tip-position CSV loaded into a WaypointPath."""

    def _write_csv(self, path, rows, header="t_s,x_mm,y_mm,z_mm"):
        lines = [header] + [",".join(str(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")

    def _load(self, path):
        return _reference_from_dict({"kind": "replay", "csv_path": str(path)})

    def test_round_trip_from_csv(self, tmp_path):
        rows = [(0.0, 0.0, 0.0, 0.0), (1.0, 1.0, -2.0, 20.0), (2.0, 2.5, -3.0, 40.0)]
        f = tmp_path / "tip.csv"
        self._write_csv(f, rows)
        spec = self._load(f)
        assert isinstance(spec, WaypointPath)
        np.testing.assert_allclose(spec.samples([0.5])[0], [0.5, -1.0, 10.0], atol=1e-12)
        np.testing.assert_allclose(spec.samples([2.0])[0], [2.5, -3.0, 40.0], atol=1e-12)
        np.testing.assert_array_equal(spec.samples([5.0])[0], spec.samples([2.0])[0])

    def test_first_sample_after_zero_rejected_at_load(self, tmp_path):
        f = tmp_path / "late.csv"
        self._write_csv(f, [(1.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 10.0)])
        with pytest.raises(InvalidInputError, match="late.csv"):
            self._load(f)
        # a first sample at t = 0, within roundoff, is fine
        self._write_csv(f, [(1e-13, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 10.0)])
        np.testing.assert_array_equal(self._load(f).samples([0.0])[0], [0.0, 0.0, 0.0])

    def test_rejects_wrong_header(self, tmp_path):
        f = tmp_path / "tip.csv"
        self._write_csv(f, [(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 1.0)], header="t,x,y,z")
        with pytest.raises(InvalidInputError, match="t_s,x_mm,y_mm,z_mm"):
            self._load(f)

    def test_rejects_non_numeric_rows(self, tmp_path):
        f = tmp_path / "tip.csv"
        f.write_text("t_s,x_mm,y_mm,z_mm\n0.0,0.0,oops,0.0\n1.0,0.0,0.0,1.0\n")
        with pytest.raises(InvalidInputError, match="tip.csv:2: non-numeric"):
            self._load(f)

    def test_rejects_single_sample(self, tmp_path):
        f = tmp_path / "tip.csv"
        self._write_csv(f, [(0.0, 0.0, 0.0, 0.0)])
        with pytest.raises(InvalidInputError, match="at least 2"):
            self._load(f)


class TestSampleGuards:
    def test_negative_time_rejected(self):
        spec = FixedTarget(target=(0.0, 0.0, 1.0))
        with pytest.raises(InvalidInputError, match="t must be nonnegative"):
            horizon_samples(spec, -0.1, 1, 0.05)
        with pytest.raises(InvalidInputError, match="t must be nonnegative"):
            horizon_samples(spec, math.nan, 1, 0.05)


ALL_SPECS = [
    FixedTarget(target=(5.0, -15.0, 150.0)),
    Helix(radius=10.0, pitch=40.0, rate=1.2, center=(-10.0, 0.0, 0.0)),
    SharpTurn(
        waypoints=[(0.0, 0.0, 0.0), (0.0, 0.0, 60.0), (60.0, 0.0, 60.0)], speed=12.0
    ),
    Sinusoidal(axial_speed=18.0, amplitude=(10.0, 6.0), frequency=(0.15, 0.1)),
    WaypointPath(points=[(0.0, 0.0, 0.0), (3.0, 0.0, 30.0)], times=[0.0, 2.0]),
]


class TestPositionBound:
    """Every position field, a float, a tuple or points, is bounded in magnitude."""

    @pytest.mark.parametrize("spec, attr, value", [
        (ALL_SPECS[0], "target", lambda x: (0.0, x, 0.0)),
        (ALL_SPECS[1], "radius", abs),
        (ALL_SPECS[1], "pitch", lambda x: x),
        (ALL_SPECS[1], "center", lambda x: (0.0, 0.0, x)),
        (ALL_SPECS[2], "waypoints", lambda x: [(0.0, 0.0, 0.0), (0.0, 0.0, x)]),
        (ALL_SPECS[3], "amplitude", lambda x: (0.0, x)),
        (ALL_SPECS[4], "points", lambda x: [(x, 0.0, 0.0), (3.0, 0.0, 30.0)]),
    ])
    def test_bound_is_inclusive_and_named(self, spec, attr, value):
        for x in (MAX_POSITION_MM, -MAX_POSITION_MM):
            dataclasses.replace(spec, **{attr: value(x)})
        beyond = math.nextafter(MAX_POSITION_MM, math.inf)
        for x in (beyond, -beyond):
            with pytest.raises(InvalidInputError, match=rf"^{key_of(spec, attr)} must be within"):
                dataclasses.replace(spec, **{attr: value(x)})


# every kind, with the helix on each axis, a corner-laden turn and a path
# whose times start after 0 so that both of its ends are held
BATCH_SPECS = ALL_SPECS + [
    Helix(radius=4.0, pitch=-25.0, rate=-0.7, center=(1.0, 2.0, 3.0), phase=0.4, axis="x"),
    Helix(radius=6.0, pitch=30.0, rate=2.1, phase=-1.0, axis="y"),
    SharpTurn(waypoints=[(0.0, 0.0, 0.0), (0.0, 0.0, 12.0), (12.0, 0.0, 12.0),
                         (12.0, 12.0, 12.0)], speed=12.0),
    WaypointPath(points=[(1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (-1.0, 0.0, 9.0)],
                 times=[1.0, 2.0, 4.0]),
]


class TestContinuity:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_small_time_step_small_motion(self, spec):
        # every generator is C0: adjacent samples on a fine grid stay close
        grid = np.linspace(0.0, 15.0, 3001)
        pts = np.stack([spec.samples([t])[0] for t in grid])
        jumps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        # fastest configured reference moves ~24 mm/s; dt = 5 ms
        assert jumps.max() < 24.0 * 0.005 * 1.5

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    @given(t=times_st)
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, spec, t):
        np.testing.assert_array_equal(spec.samples([t])[0], spec.samples([t])[0])


class TestHorizonSamples:
    def test_fixed_target_repeats(self):
        spec = FixedTarget(target=(5.0, -15.0, 150.0))
        refs = horizon_samples(spec, 2.0, 5, 0.05)
        assert np.shape(refs) == (6, 3)
        assert np.all(np.asarray(refs) == refs[0])

    def test_linear_path_equally_spaced(self):
        spec = WaypointPath(points=[(0.0, 0.0, 0.0), (0.0, 0.0, 100.0)], times=[0.0, 10.0])
        refs = horizon_samples(spec, 0.0, 2, 1.0)
        np.testing.assert_allclose(
            refs, [[0.0, 0.0, 0.0], [0.0, 0.0, 10.0], [0.0, 0.0, 20.0]], atol=1e-12
        )
        steps = np.diff(refs, axis=0)
        np.testing.assert_allclose(steps[0], steps[1], atol=1e-12)

    def test_helix_matches_direct_evaluation(self):
        spec = Helix(radius=10.0, pitch=40.0, rate=1.2, center=(-10.0, 0.0, 0.0))
        t0, n, ts = 1.7, 5, 0.05
        refs = horizon_samples(spec, t0, n, ts)
        for i in range(n + 1):
            expected = helix_point(
                t0 + i * ts, 10.0, 40.0, 1.2, (-10.0, 0.0, 0.0), 0.0, "z"
            )
            np.testing.assert_allclose(refs[i], expected, atol=1e-12)

    @given(t=times_st)
    @settings(max_examples=50, deadline=None)
    def test_first_row_equals_direct_sample(self, t):
        spec = Sinusoidal(axial_speed=18.0, amplitude=(10.0, 6.0), frequency=(0.15, 0.1))
        refs = horizon_samples(spec, t, 3, 0.05)
        np.testing.assert_array_equal(refs[0], spec.samples([t])[0])

    def test_validation(self):
        spec = FixedTarget(target=(0.0, 0.0, 1.0))
        with pytest.raises(InvalidInputError):
            horizon_samples(spec, 0.0, 0, 0.05)
        with pytest.raises(InvalidInputError):
            horizon_samples(spec, 0.0, 5, 0.0)
        with pytest.raises(InvalidInputError):
            horizon_samples(spec, -0.1, 5, 0.05)
        with pytest.raises(InvalidInputError):
            horizon_samples(spec, 0.0, 5, math.inf)

    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: type(s).__name__)
    @given(t=st.floats(0.0, 20.0), n=st.integers(1, 40), ts=st.floats(1e-3, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_stacked_samples(self, spec, t, n, ts):
        want = np.stack([spec.samples([t + i * ts])[0] for i in range(n + 1)])
        assert np.array_equal(horizon_samples(spec, t, n, ts), want)

    def test_sharp_turn_corners_are_hit_exactly(self):
        # corners at t = 1 and 2 s, end at 3 s; a 0.25 s step lands on each
        pts = [(0.0, 0.0, 0.0), (0.0, 0.0, 12.0), (12.0, 0.0, 12.0), (12.0, 12.0, 12.0)]
        spec = SharpTurn(waypoints=pts, speed=12.0)
        refs = horizon_samples(spec, 0.5, 12, 0.25)
        want = [spec.samples([0.5 + i * 0.25])[0] for i in range(13)]
        assert np.array_equal(refs, np.stack(want))
        for i, point in ((2, pts[1]), (6, pts[2]), (10, pts[3]), (12, pts[3])):
            assert list(refs[i]) == list(point)

    def test_waypoint_path_holds_both_ends(self):
        pts = [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (-1.0, 0.0, 9.0)]
        spec = WaypointPath(points=pts, times=[1.0, 2.0, 4.0])
        refs = horizon_samples(spec, 0.0, 12, 0.5)
        assert np.array_equal(refs, np.stack([spec.samples([0.5 * i])[0] for i in range(13)]))
        assert list(refs[0]) == list(refs[1]) == list(refs[2]) == list(pts[0])
        assert list(refs[4]) == list(pts[1])
        assert all(list(row) == list(pts[2]) for row in refs[8:])

    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: type(s).__name__)
    def test_path_speed_check_samples_the_same_points(self, spec):
        grid = np.linspace(0.0, 12.0, 512)
        pts = np.stack([spec.samples([t])[0] for t in grid])
        top = float(np.max(np.linalg.norm(np.diff(pts, axis=0), axis=1))) / (grid[1] - grid[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert check_path_speed(spec, 12.0, 24.0) == top


class TestPathSpeedCheck:
    def test_feasible_path_is_quiet(self, recwarn):
        spec = WaypointPath(points=[(0.0, 0.0, 0.0), (0.0, 0.0, 100.0)], times=[0.0, 10.0])
        top = check_path_speed(spec, duration=10.0, u_s_max=24.0)
        assert top == pytest.approx(10.0, rel=1e-6)
        assert len(recwarn) == 0

    def test_too_fast_path_warns(self):
        spec = WaypointPath(points=[(0.0, 0.0, 0.0), (0.0, 0.0, 300.0)], times=[0.0, 10.0])
        with pytest.warns(UserWarning, match="cannot be tracked"):
            check_path_speed(spec, duration=10.0, u_s_max=24.0)

    @pytest.mark.parametrize("duration", [0.0, -1.0])
    def test_duration_must_be_positive(self, duration):
        spec = FixedTarget(target=(0.0, 0.0, 1.0))
        with pytest.raises(InvalidInputError, match="^duration must be positive, got "):
            check_path_speed(spec, duration, 24.0)

    def test_within_margin_does_not_warn(self, recwarn):
        # 4% over the bound is inside the 5% margin
        spec = WaypointPath(points=[(0.0, 0.0, 0.0), (0.0, 0.0, 249.6)], times=[0.0, 10.0])
        check_path_speed(spec, duration=10.0, u_s_max=24.0)
        assert len(recwarn) == 0


def np_interp_path(points, knots, at):
    """The oracle: np.interp per coordinate, stacked into (len(at), 3)."""
    points = np.array(points, dtype=float)
    with np.errstate(all="ignore"):
        return np.stack([np.interp(at, knots, points[:, k]) for k in range(3)], axis=1)


class TestPathsMatchNpInterp:
    """Waypoint and sharp-turn sampling equal np.interp bit for bit."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_waypoint_path(self, data):
        knots = sorted(set(data.draw(st.lists(finite_st, min_size=2, max_size=6))))
        assume(len(knots) >= 2)
        points = data.draw(st.lists(st.tuples(position_st, position_st, position_st),
                                    min_size=len(knots), max_size=len(knots)))
        at = data.draw(st.lists(finite_st, max_size=8)) + knots
        got = np.array(WaypointPath(points=points, times=knots).samples(at))
        assert got.tobytes() == np_interp_path(points, knots, at).tobytes()

    def test_overflowing_span_takes_the_same_fallback(self):
        # t - t0 overflows, so slope*(t - t0) is 0*inf = nan; np.interp then
        # interpolates from the right knot, and so does the path
        knots = [-1e308, 1e308]
        points = [(0.0, 5.0, -MAX_POSITION_MM), (1.0, 5.0, MAX_POSITION_MM)]
        at = [1e308, 0.0, 5e307]
        got = np.array(WaypointPath(points=points, times=knots).samples(at))
        assert got.tobytes() == np_interp_path(points, knots, at).tobytes()
        assert got[0].tolist() == [1.0, 5.0, MAX_POSITION_MM]

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_sharp_turn(self, data):
        waypoints = data.draw(st.lists(st.tuples(position_st, position_st, position_st),
                                       min_size=2, max_size=6))
        speed = data.draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
        with np.errstate(over="ignore"):
            seg = np.linalg.norm(np.diff(np.array(waypoints), axis=0), axis=1)
            knots = np.concatenate([[0.0], np.cumsum(seg)]) / speed
        if np.any(seg == 0.0):
            with pytest.raises(InvalidInputError, match="must be distinct"):
                SharpTurn(waypoints=waypoints, speed=speed)
            return
        spec = SharpTurn(waypoints=waypoints, speed=speed)
        assert np.array(spec.times).tobytes() == knots.tobytes()
        at = data.draw(st.lists(st.floats(min_value=0.0, allow_infinity=False), max_size=8))
        at += list(spec.times)
        got = np.array(spec.samples(at))
        assert got.tobytes() == np_interp_path(waypoints, spec.times, at).tobytes()
