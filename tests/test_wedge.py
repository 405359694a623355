import numpy as np
import pytest

from machstem import mesh
from machstem.errors import ConfigError, MeasurementError
from machstem.gas import primitives
from machstem.wedge import (
    FlowCase,
    StemMeasurement,
    SweepRow,
    build_wedge_grid,
    hysteresis_sweep,
    measure_stem,
    sweep_table_csv,
    top_profile,
    wedge_geometry,
)


def test_case_free_stream_is_unit_sound_speed():
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0)
    rho, u, v, p = primitives(case.free_stream(), case.gas)
    assert rho == pytest.approx(1.0)
    assert v == pytest.approx(0.0)
    assert p == pytest.approx(1.0 / 1.4)
    # a = sqrt(gamma p / rho) = 1, so u equals the Mach number
    assert u == pytest.approx(3.0)


def test_case_validation():
    with pytest.raises(ConfigError):
        FlowCase(mach=0.8, wedge_angle_deg=20.0)
    with pytest.raises(ConfigError):
        FlowCase(mach=3.0, wedge_angle_deg=50.0)
    with pytest.raises(ConfigError):
        FlowCase(mach=3.0, wedge_angle_deg=20.0, aspect=0.0)
    with pytest.raises(ConfigError):
        FlowCase(mach=3.0, wedge_angle_deg=20.0, init_mode="warm")


def test_restart_path_parsing():
    case = FlowCase(mach=3.0, wedge_angle_deg=20.0, init_mode="restart:runs/abc")
    assert case.restart_path == "runs/abc"
    assert FlowCase(mach=3.0, wedge_angle_deg=20.0).restart_path is None


def test_wedge_geometry_trailing_edge():
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0)
    geo = wedge_geometry(case)
    assert geo["x_le"] == pytest.approx(0.4)
    assert geo["x_te"] == pytest.approx(0.4 + np.cos(np.radians(24.0)))
    assert geo["y_te"] == pytest.approx(1.0 - np.sin(np.radians(24.0)))


def test_wedge_geometry_overflow():
    # sin(theta) * aspect >= 1 drops the trailing edge through the wall
    with pytest.raises(ConfigError):
        FlowCase(mach=3.0, wedge_angle_deg=30.0, aspect=2.5)


def test_top_profile_piecewise():
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0)
    geo = wedge_geometry(case)
    x = np.array([0.0, geo["x_le"], 0.5 * (geo["x_le"] + geo["x_te"]),
                  geo["x_te"], 2.9])
    y = top_profile(case, x)
    y_te = geo["y_te"]
    assert y[0] == pytest.approx(1.0)
    assert y[1] == pytest.approx(1.0)
    assert y[2] == pytest.approx(0.5 * (1.0 + y_te))
    assert y[3] == pytest.approx(y_te)
    assert y[4] == pytest.approx(y_te)


def test_grid_snaps_kink_stations():
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0)
    blk = build_wedge_grid(case, 40, 12)
    geo = wedge_geometry(case)
    x1 = blk.vertices[:, -1, 0]
    assert np.isclose(x1, geo["x_le"]).any()
    assert np.isclose(x1, geo["x_te"]).any()
    # top boundary rides the wedge profile exactly
    top = blk.vertices[:, -1, :]
    assert np.allclose(top[:, 1], top_profile(case, top[:, 0]))
    # bottom boundary is the reflecting wall
    assert np.allclose(blk.vertices[:, 0, 1], 0.0)


def test_grid_tags():
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0)
    blk = build_wedge_grid(case, 40, 12)
    geo = wedge_geometry(case)
    assert np.all(blk.tags[mesh.FACE_W] == mesh.TAG_INFLOW)
    assert np.all(blk.tags[mesh.FACE_E] == mesh.TAG_OUTFLOW)
    assert np.all(blk.tags[mesh.FACE_S] == mesh.TAG_WALL)
    xmid = 0.5 * (blk.vertices[:-1, -1, 0] + blk.vertices[1:, -1, 0])
    top = blk.tags[mesh.FACE_N]
    assert np.all(top[xmid < geo["x_te"]] == mesh.TAG_WALL)
    assert np.all(top[xmid > geo["x_te"]] == mesh.TAG_OUTFLOW)


def test_measurement_invariants():
    with pytest.raises(AssertionError):
        StemMeasurement("RR", 0.1, None, {})
    with pytest.raises(AssertionError):
        StemMeasurement("MR", None, None, {})


class _SyntheticFront:
    """Sampler with a density jump across a prescribed front x(y)."""

    def __init__(self, front, jump=3.0):
        self.front = front
        self.jump = jump

    def density(self, pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.where(x < self.front(y), 1.0, self.jump)


def _mr_front(y_tp, x_stem, angle_deg):
    # vertical stem below the triple point, oblique incident above it
    slope = np.tan(np.radians(angle_deg))

    def front(y):
        y = np.asarray(y)
        return np.where(y <= y_tp, x_stem, x_stem + (y - y_tp) / -slope)

    return front


def test_measure_stem_mr_height():
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0)
    y_tp = 0.27
    smp = _SyntheticFront(_mr_front(y_tp, 0.9, -40.0))
    m = measure_stem(smp, case, cell_size=0.01)
    assert m.classification == "MR"
    assert m.stem_height_ratio == pytest.approx(y_tp, abs=0.02)
    assert m.triple_point[1] == pytest.approx(y_tp, abs=0.02)


def test_measure_stem_rr_single_oblique():
    case = FlowCase(mach=3.0, wedge_angle_deg=20.0)
    slope = np.tan(np.radians(37.8))
    smp = _SyntheticFront(lambda y: 0.4 + np.asarray(y) / slope)
    m = measure_stem(smp, case, cell_size=0.01)
    assert m.classification == "RR"
    assert m.stem_height_ratio is None


def test_measure_stem_tiny_stem_counts_as_rr():
    # stems shorter than one cell are below measurement resolution
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0)
    smp = _SyntheticFront(_mr_front(0.015, 0.9, -40.0))
    m = measure_stem(smp, case, cell_size=0.05)
    assert m.classification == "RR"


def test_measure_stem_no_front_raises():
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0)
    smp = _SyntheticFront(lambda y: -1.0)  # uniform density everywhere
    with pytest.raises(MeasurementError) as err:
        measure_stem(smp, case, cell_size=0.01)
    assert isinstance(err.value.diagnostics, dict)


def _mr_measurement(ratio):
    return StemMeasurement("MR", ratio, (1.0, ratio), {})


def _rr_measurement():
    return StemMeasurement("RR", None, None, {})


def test_hysteresis_sweep_two_branches():
    calls = []

    def runner(angle, restart_from):
        calls.append((angle, restart_from))
        mr = restart_from is not None or angle > 22.0
        m = _mr_measurement(0.1) if mr else _rr_measurement()
        return m, f"ckpt-{angle:g}"

    rows = hysteresis_sweep(runner, [24.0, 21.0, 19.6])
    assert [r.angle_deg for r in rows] == [24.0, 21.0, 19.6]
    assert rows[0].impulsive == "0.1000"
    assert rows[1].impulsive == "RR"
    assert rows[1].restart == "0.1000"
    # restart branch seeds from the largest angle, then chains downward
    restart_seeds = [c[1] for c in calls if c[1] is not None]
    assert restart_seeds == ["ckpt-24", "ckpt-24", "ckpt-21"]


def test_hysteresis_sweep_unchained_uses_fixed_seed():
    seeds = []

    def runner(angle, restart_from):
        if restart_from is not None:
            seeds.append(restart_from)
        return _rr_measurement(), f"ckpt-{angle:g}"

    hysteresis_sweep(runner, [24.0, 21.0, 19.6], chain=False)
    assert seeds == ["ckpt-24", "ckpt-24", "ckpt-24"]


def test_hysteresis_sweep_row_error_is_recorded():
    def runner(angle, restart_from):
        if angle < 20.0 and restart_from is None:
            raise MeasurementError("no front found")
        return _rr_measurement(), "ckpt"

    rows = hysteresis_sweep(runner, [24.0, 19.6])
    assert rows[1].impulsive.startswith("error:")
    assert rows[1].restart == "RR"


def test_sweep_table_csv():
    rows = [SweepRow(angle_deg=24.0, impulsive="0.2740", restart="0.2740"),
            SweepRow(angle_deg=21.0, impulsive="RR", restart="0.0410")]
    text = sweep_table_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "wedge_angle_deg,impulsive_start,restart_chain"
    assert lines[1] == "24.00,0.2740,0.2740"
    assert lines[2] == "21.00,RR,0.0410"
