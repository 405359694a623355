import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from machstem import mesh, pipeline
from machstem.basis import Basis
from machstem.config import parse_config
from machstem.dg import Discretization
from machstem.errors import ConfigError, MeasurementError
from machstem.gas import GasModel, conserved, primitives
from machstem.io import write_sweep_table
from machstem.overset import CompositeSampler
from machstem.pipeline import run_sweep
from machstem.shock_relations import max_deflection, oblique_shock
from machstem.wedge import (
    FlowCase,
    StemMeasurement,
    build_wedge_grid,
    measure_stem,
    top_profile,
    wedge_geometry,
)

GAS = GasModel()


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


@pytest.mark.parametrize("grid", ["coarse_grid", "fine_background_grid",
                                  "overset_grid"])
@pytest.mark.parametrize("shape", [(2, 4), (3, 0)])
def test_case_rejects_grids_config_rejects(grid, shape):
    """A grid the config schema rejects fails the case too, with the
    schema's rule: an inlet section, the wedge and the section behind it
    each need a column."""
    with pytest.raises(ConfigError, match=f"{grid} must be NIxNJ with "
                                          "NI >= 3 and NJ > 0"):
        FlowCase(mach=3.0, wedge_angle_deg=24.0, **{grid: shape})
    with pytest.raises(ConfigError, match="NI >= 3"):
        build_wedge_grid(FlowCase(mach=3.0, wedge_angle_deg=24.0), *shape)


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
    """Sampler with a jump across a prescribed front x(y): the Mach 3 free
    stream ahead, and behind it density ``jump`` at Mach 0.5 below
    ``subsonic_below`` and at Mach 1.8 above."""

    def __init__(self, front, jump=3.0, subsonic_below=0.0):
        self.front = front
        self.jump = jump
        self.subsonic_below = subsonic_below

    def states(self, pts):
        x, y = pts[:, 0], pts[:, 1]
        behind = x >= self.front(y)
        rho = np.where(behind, self.jump, 1.0)
        p = np.where(behind, 4.0, 1.0) / GAS.gamma
        mach = np.where(behind, np.where(y < self.subsonic_below, 0.5, 1.8),
                        3.0)
        return conserved(rho, mach * np.sqrt(GAS.gamma * p / rho), 0.0, p,
                         GAS)


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
    smp = _SyntheticFront(_mr_front(y_tp, 0.9, -40.0), subsonic_below=y_tp)
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
    smp = _SyntheticFront(_mr_front(0.015, 0.9, -40.0), subsonic_below=0.015)
    m = measure_stem(smp, case, cell_size=0.05)
    assert m.classification == "RR"


def test_measure_stem_no_front_raises():
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0)
    smp = _SyntheticFront(lambda y: -1.0)  # uniform density everywhere
    with pytest.raises(MeasurementError) as err:
        measure_stem(smp, case, cell_size=0.01)
    assert isinstance(err.value.diagnostics, dict)


def reflection(case, y_tp=0.0):
    """The exact piecewise-constant reflection of the wedge's incident
    shock: two-shock (RR) for ``y_tp`` = 0, otherwise three-shock (MR),
    with a straight stem from the wall to the triple point at height
    ``y_tp`` and a straight slipline behind it.

    The reflected shock's deflection balances the pressures behind it
    and behind the stem (strong branch) at equal flow directions. Returns
    ``state(x, y, shift=0.0)``, (4, ...) conserved states, whose front
    (the incident shock and the stem) lies ``shift`` further downstream.
    """
    gamma, m0 = case.gas.gamma, case.mach
    tw = np.radians(case.wedge_angle_deg)
    inc = oblique_shock(m0, tw)
    t2 = tw
    if y_tp > 0.0:
        def imbalance(t):
            return (inc.pressure_ratio * oblique_shock(inc.m2, t).pressure_ratio
                    - oblique_shock(m0, tw - t, branch="strong").pressure_ratio)
        t2 = brentq(imbalance, 1e-3, max_deflection(inc.m2)[0] - 1e-9)
    ref = oblique_shock(inc.m2, t2)

    def region(rho, p, mach, angle):
        speed = mach * np.sqrt(gamma * p / rho)
        return conserved(rho, speed * np.cos(angle), speed * np.sin(angle),
                         p, case.gas)

    p1 = inc.pressure_ratio / gamma
    q = [case.free_stream(),
         region(inc.density_ratio, p1, inc.m2, -tw),
         region(inc.density_ratio * ref.density_ratio,
                p1 * ref.pressure_ratio, ref.m2, t2 - tw)]
    beta_s = 0.5 * np.pi
    if y_tp > 0.0:
        stem = oblique_shock(m0, tw - t2, branch="strong")
        beta_s = stem.beta
        q.append(region(stem.density_ratio, stem.pressure_ratio / gamma,
                        stem.m2, t2 - tw))
    q = np.stack(q, axis=1)
    x_tp = wedge_geometry(case)["x_le"] + (1.0 - y_tp) / np.tan(inc.beta)

    def state(x, y, shift=0.0):
        front = np.where(y >= y_tp, x_tp - (y - y_tp) / np.tan(inc.beta),
                         x_tp + (y_tp - y) / np.tan(beta_s))
        k = np.where(y > y_tp + (x - x_tp) * np.tan(ref.beta - tw), 1, 2)
        k = np.where((x > x_tp) & (y < y_tp + (x - x_tp) * np.tan(t2 - tw)),
                     3, k)
        return q[:, np.where(x < front + shift, 0, k)]

    return state


# (wedge angle, triple-point height): two RR below the von Neumann angle
# (19.656 deg at M=3) and two MR above detachment (21.458 deg)
REFLECTIONS = [(16.0, 0.0), (19.0, 0.0), (24.0, 0.27), (24.0, 0.12)]
N_LINES, NX = 60, 600


def _line_spacing(case):
    return (0.85 * wedge_geometry(case)["y_te"] - 0.01) / (N_LINES - 1)


@pytest.mark.parametrize("order, grid", [(1, (80, 40)), (2, (60, 30))])
@pytest.mark.parametrize("angle, y_tp", REFLECTIONS)
def test_measure_stem_on_projected_exact_reflections(order, grid, angle,
                                                     y_tp):
    case = FlowCase(mach=3.0, wedge_angle_deg=angle)
    disc = Discretization(build_wedge_grid(case, *grid), Basis(order),
                          case.gas)
    state = reflection(case, y_tp)
    coeffs = disc.project(lambda x, y: state(x, y))
    cell = np.sqrt(np.median(disc.geo.element_area))
    m = measure_stem(CompositeSampler([disc], [coeffs]), case,
                     cell_size=cell, n_lines=N_LINES, nx=NX)
    if y_tp == 0.0:
        assert m.classification == "RR"
        assert m.diagnostics["strip_min_mach"][0] > 1.0
    else:
        assert m.classification == "MR"
        assert abs(m.stem_height_ratio - y_tp) <= _line_spacing(case) + cell


class _JitteredFront:
    """Samples an exact reflection one line per call, shifting its front
    on the k-th line by ``shifts[k]``."""

    def __init__(self, state, shifts):
        self.state = state
        self.shifts = iter(shifts)

    def states(self, pts):
        return self.state(pts[:, 0], pts[:, 1], next(self.shifts))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(REFLECTIONS),
       st.lists(st.floats(-1.5, 1.5), min_size=N_LINES, max_size=N_LINES))
def test_front_jitter_does_not_change_the_answer(reflection_case, jitter):
    """Shifting the front of each line by up to 1.5 cells, each line by
    its own amount, keeps the classification, and the stem height to
    within a line: only a line within 1.5 cells x tan(8.4 deg), the
    slipline's slope, under the triple point can lose its subsonic strip
    when its stem moves downstream past the slipline."""
    angle, y_tp = reflection_case
    case = FlowCase(mach=3.0, wedge_angle_deg=angle)
    cell = 0.03                  # about an 80x40 grid's cell
    state = reflection(case, y_tp)
    kw = dict(cell_size=cell, n_lines=N_LINES, nx=NX)
    exact = measure_stem(_JitteredFront(state, [0.0] * N_LINES), case, **kw)
    m = measure_stem(_JitteredFront(state, cell * np.array(jitter)), case,
                     **kw)
    assert m.classification == exact.classification
    if y_tp > 0.0:
        assert exact.stem_height_ratio == pytest.approx(
            y_tp, abs=_line_spacing(case))
        assert abs(m.stem_height_ratio - exact.stem_height_ratio) <= \
            _line_spacing(case) + 1e-12


# ---------------------------------------------------------------------------
# dual-start angle sweep


MR = {"classification": "MR", "stem_height_ratio": 0.1,
      "triple_point": [1.0, 0.1]}
RR = {"classification": "RR", "stem_height_ratio": None,
      "triple_point": None}


def _fake_pipeline(monkeypatch, measure):
    """Replace ``run_pipeline`` by ``measure(angle, init)``, which returns
    a measurement document or raises; each run's directory is named after
    its angle and start.  Returns the (angle, init) calls."""
    calls = []

    def run(cfg, **kwargs):
        angle, init = cfg["case.wedge_angle_deg"], cfg["case.init"]
        calls.append((angle, init))
        return pipeline.RunSummary(
            Path(f"{init.partition(':')[0]}-{angle:g}"),
            {"measurement": measure(angle, init)}, False)

    monkeypatch.setattr(pipeline, "run_pipeline", run)
    return calls


def test_hysteresis_sweep_two_branches(monkeypatch):
    calls = _fake_pipeline(
        monkeypatch,
        lambda a, init: MR if init != "impulsive" or a > 22.0 else RR)
    cfg = parse_config(None, {"sweep.angles_deg": "21,24,19.6,21"})
    rows = run_sweep(cfg)
    assert rows == [(24.0, MR, MR), (21.0, RR, MR), (19.6, RR, MR)]
    # impulsive branch first, then the restart branch seeds from the
    # largest angle and chains downward
    assert calls == [(24.0, "impulsive"), (21.0, "impulsive"),
                     (19.6, "impulsive"),
                     (24.0, "restart:impulsive-24/checkpoint"),
                     (21.0, "restart:restart-24/checkpoint"),
                     (19.6, "restart:restart-21/checkpoint")]

    calls.clear()
    run_sweep(dict(cfg, **{"sweep.restart_seed": "seed-dir"}))
    assert calls[3] == (24.0, "restart:seed-dir")


def test_hysteresis_sweep_row_error_is_recorded(monkeypatch):
    def measure(angle, init):
        if angle < 20.0 and init == "impulsive":
            raise MeasurementError("no front found")
        if angle == 21.0 and init != "impulsive":
            raise MeasurementError("no shock system detected: the coarse "
                                   "stage flagged no cell")
        return RR

    calls = _fake_pipeline(monkeypatch, measure)
    rows = run_sweep(parse_config(None, {"sweep.angles_deg": "24,21,19.6"}))
    assert rows == [(24.0, RR, RR),
                    (21.0, RR, "error: no shock system detected: the "
                               "coarse stage flagged no cell"),
                    (19.6, "error: no front found",
                     "error: no seed solution available")]
    assert len(calls) == 5       # nothing seeds the last restart
    with pytest.raises(ConfigError, match="no sweep angles"):
        run_sweep(parse_config(None))


def test_sweep_table_csv(tmp_path):
    """Rows without commas keep their bytes; an error with commas stays
    one quoted field; the .dat has the MR ratios at full precision.
    These documents carry no stem in cells or strip Mach number, so
    those columns stay empty (NaN in the .dat)."""
    error = "error: flagged coarse cell at (1.234, 0.567) lies outside"
    rows = [(24.0, dict(MR, stem_height_ratio=0.27401234),
             dict(MR, stem_height_ratio=0.274)),
            (21.0, RR, dict(MR, stem_height_ratio=0.041)),
            (19.6, error, RR)]
    path = tmp_path / "sweep.csv"
    write_sweep_table(path, rows)
    lines = path.read_text().splitlines()
    assert lines[1:3] == ["24.00,0.2740,0.2740,,,,", "21.00,RR,0.0410,,,,"]
    table = list(csv.reader(path.open(newline="")))
    assert [len(r) for r in table] == [7, 7, 7, 7]
    assert table[3] == ["19.60", error, "RR", "", "", "", ""]
    dat = np.loadtxt(tmp_path / "sweep.dat")
    assert dat[0, :3].tolist() == [24.0, 0.27401234, 0.274]
    assert np.isnan(dat[1, 1]) and dat[1, 2] == 0.041
    assert np.isnan(dat[2, 1:]).all() and np.isnan(dat[:, 3:]).all()
