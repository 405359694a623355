import json

import numpy as np
import pytest

from machstem import mesh, pipeline
from machstem.basis import Basis
from machstem.config import parse_config
from machstem.dg import Discretization
from machstem.errors import AssemblyError
from machstem.gas import conserved
from machstem.io import verify_manifest
from machstem.pipeline import (
    ShockSegment,
    build_aligned_grid,
    finish_patch,
    fit_shock_paths,
    run_key,
    run_pipeline,
)
from machstem.timestepping import load_checkpoint
from machstem.wedge import (FlowCase, StemMeasurement, top_profile,
                            wedge_geometry)

CELL = 0.02


def _jitter(pts, rng, amp=0.3 * CELL):
    return pts + rng.normal(scale=amp, size=pts.shape)


def _line_points(x0, y0, angle_deg, length, n, rng=None):
    t = np.linspace(0.0, length, n)
    ang = np.radians(angle_deg)
    pts = np.stack([x0 + t * np.cos(ang), y0 + t * np.sin(ang)], axis=1)
    return _jitter(pts, rng) if rng is not None else pts


def test_fit_empty_map():
    assert fit_shock_paths(np.empty((0, 2)), CELL) == []


def test_fit_single_line_angle():
    rng = np.random.default_rng(3)
    pts = _line_points(0.45, 0.98, -37.76, 1.1, 80, rng)
    segs = fit_shock_paths(pts, CELL)
    assert len(segs) == 1
    assert segs[0].angle_deg == pytest.approx(-37.76, abs=1.0)
    assert segs[0].n_points >= 72
    # endpoints ordered leftmost first
    assert segs[0].start[0] < segs[0].end[0]


def test_fit_two_crossing_lines_intersection():
    rng = np.random.default_rng(5)
    a = _line_points(0.5, 1.0, -40.0, 0.9, 70, rng)
    b = _line_points(1.0, 0.0, 65.0, 0.8, 70, rng)
    segs = fit_shock_paths(np.vstack([a, b]), CELL)
    assert len(segs) == 2
    # true crossing of the two generating lines
    ta = np.tan(np.radians(-40.0))
    tb = np.tan(np.radians(65.0))
    x_true = (0.0 - 1.0 * tb - (1.0 - 0.5 * ta)) / (ta - tb)
    y_true = 1.0 + (x_true - 0.5) * ta
    hit = segs[0].intersect(segs[1])
    assert hit is not None
    assert abs(hit[0] - x_true) < CELL and abs(hit[1] - y_true) < CELL


def test_fit_is_deterministic():
    rng = np.random.default_rng(11)
    pts = np.vstack([_line_points(0.5, 1.0, -40.0, 0.9, 60, rng),
                     _line_points(1.0, 0.05, 80.0, 0.5, 40, rng)])
    s1 = fit_shock_paths(pts, CELL)
    s2 = fit_shock_paths(pts.copy(), CELL)
    assert [(a.start, a.end, a.n_points) for a in s1] == \
           [(b.start, b.end, b.n_points) for b in s2]


def test_fit_labels_mach_reflection_pattern():
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0)
    rng = np.random.default_rng(9)
    geom = wedge_geometry(case)
    # incident from the leading edge down to a triple point, a stem below
    # it, and a reflected shock climbing downstream
    tp = (1.05, 0.25)
    inc = _line_points(geom["x_le"] + 0.02, 0.99, -49.0, 0.95, 70, rng)
    stem = np.stack([np.full(30, tp[0]), np.linspace(0.01, tp[1], 30)],
                    axis=1)
    stem = _jitter(stem, rng, amp=0.15 * CELL)
    refl = _line_points(tp[0], tp[1], 28.0, 0.5, 40, rng)
    segs = fit_shock_paths(np.vstack([inc, stem, refl]), CELL, case=case)
    labels = {s.label for s in segs}
    assert "incident" in labels
    assert "stem" in labels
    assert "reflected" in labels


def test_fit_labels_regular_reflection_pattern():
    case = FlowCase(mach=3.0, wedge_angle_deg=20.0)
    rng = np.random.default_rng(13)
    geom = wedge_geometry(case)
    inc = _line_points(geom["x_le"], 1.0, -37.8, 1.25, 80, rng)
    refl = _line_points(1.69, 0.0, 30.0, 0.6, 50, rng)
    segs = fit_shock_paths(np.vstack([inc, refl]), CELL, case=case)
    labels = [s.label for s in segs]
    assert "incident" in labels
    assert "reflected" in labels
    assert "stem" not in labels


def _patch_cfg(**over):
    base = {"case.wedge_angle_deg": "24", "case.coarse_grid": "150x50",
            "case.overset_grid": "60x40"}
    base.update(over)
    return parse_config(None, overrides=base)


def test_aligned_patch_contains_flags_and_tracks_band():
    cfg = _patch_cfg()
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0,
                    coarse_grid=(150, 50), overset_grid=(60, 40))
    rng = np.random.default_rng(2)
    # band below the wedge surface: a -40 deg front from x=0.5 stays clear
    # of the -24 deg wedge face
    band = _line_points(0.5, 0.916, -40.0, 1.0, 160, rng)
    blk = build_aligned_grid(case, cfg, band)
    assert blk is not None
    # every flagged point sits strictly inside the patch footprint
    from machstem.overset import points_in_footprint
    assert points_in_footprint(blk, band).all()
    # the patch midline runs parallel to the shock band (away from the
    # clamped entry/exit margins)
    mid = blk.vertices[:, blk.vertices.shape[1] // 2, :]
    sel = (mid[:, 0] > band[:, 0].min() + 0.1) & \
          (mid[:, 0] < band[:, 0].max() - 0.1)
    sl = np.polyfit(mid[sel, 0], mid[sel, 1], 1)[0]
    angle = np.degrees(np.arctan(sl))
    assert angle == pytest.approx(-40.0, abs=2.0)


def test_aligned_patch_empty_map_is_none():
    cfg = _patch_cfg()
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0)
    assert build_aligned_grid(case, cfg, np.empty((0, 2))) is None


def test_aligned_patch_rejects_out_of_domain_segment():
    cfg = _patch_cfg()
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0,
                    coarse_grid=(150, 50), overset_grid=(60, 40))
    band = _line_points(0.55, 0.95, -40.0, 1.0, 60)
    bad = ShockSegment(label="incident", start=(-0.4, 0.5), end=(1.0, 0.2),
                       angle_deg=-12.0, n_points=10, rms=0.01,
                       point=(0.3, 0.35), direction=(0.98, -0.21))
    with pytest.raises(AssemblyError, match="incident"):
        build_aligned_grid(case, cfg, band, segments=[bad])


def test_finish_patch_boundary_tags():
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0)
    # patch spanning full height: bottom on the wall, top on the wedge;
    # one station sits exactly on the trailing-edge kink
    geom = wedge_geometry(case)
    xs = np.sort(np.append(np.linspace(0.8, 1.6, 20), geom["x_te"]))
    ys = np.linspace(0.0, 1.0, 11)
    verts = np.zeros((21, 11, 2))
    verts[:, :, 0] = xs[:, None]
    top = top_profile(case, xs)
    verts[:, :, 1] = ys[None, :] * top[:, None]
    blk = finish_patch(verts, case)
    geom = wedge_geometry(case)
    assert np.all(blk.tags[mesh.FACE_S] == mesh.TAG_WALL)
    xmid = 0.5 * (xs[:-1] + xs[1:])
    north = blk.tags[mesh.FACE_N]
    assert np.all(north[xmid < geom["x_te"]] == mesh.TAG_WALL)
    assert np.all(north[xmid > geom["x_te"]] == mesh.TAG_OUTFLOW)
    # interior vertical cuts are interface faces
    assert np.all(blk.tags[mesh.FACE_W] == mesh.TAG_INTERFACE)
    assert np.all(blk.tags[mesh.FACE_E] == mesh.TAG_INTERFACE)


def test_run_key_tracks_physics_sections_only():
    a = parse_config(None, overrides={"case.wedge_angle_deg": "24"})
    b = parse_config(None, overrides={"case.wedge_angle_deg": "24",
                                      "output.vtk": "0",
                                      "output.out_dir": "elsewhere"})
    c = parse_config(None, overrides={"case.wedge_angle_deg": "24.5"})
    assert run_key(a) == run_key(b)  # output settings don't change the key
    assert run_key(a) != run_key(c)
    assert len(run_key(a)) == 12


def test_background_check_names_first_troubled_active_cell():
    """An unlimited contact in the background trips the settled-state
    check, which names the first flagged active element; a uniform
    state passes."""
    gas = FlowCase(mach=3.0, wedge_angle_deg=16.0).gas
    verts = np.zeros((17, 9, 2))
    verts[..., 0] = np.linspace(0.0, 1.0, 17)[:, None]
    verts[..., 1] = np.linspace(0.0, 0.5, 9)[None, :]
    disc = Discretization(mesh.GridBlock(verts), Basis(2), gas)
    active = np.ones((16, 8), bool)
    active[:, :3] = False
    disc.active_mask = active

    def contact(x, y):
        return conserved(np.where(x < 0.5, 1.0, 2.0), np.ones_like(x),
                         np.zeros_like(x), np.ones_like(x), gas)

    check = pipeline._check_background_clean
    uniform = disc.project_constant(conserved(1.0, 1.0, 0.0, 1.0, gas))
    assert check(disc, uniform, (0,), 1.0) is None
    with pytest.raises(AssemblyError, match=r"on 5 active .* first at "
                                            r"\(8, 3\)"):
        check(disc, disc.project(contact), (0,), 1.0)


# the tiny regular-reflection case of the benchmark's smoke-rr workload
# (16 deg is well below the M=3 von Neumann angle of 19.656 deg)
SMOKE = {
    "case.wedge_angle_deg": "16",
    "case.coarse_grid": "40x20",
    "case.fine_background_grid": "20x10",
    "case.overset_grid": "24x16",
    "solver.fine_order": "2",
    "solver.coarse_max_iterations": "300",
    "solver.fine_max_iterations": "100",
    "solver.cfl_ramp_iters": "50",
    "solver.stall_window": "0",
    "solver.log_every": "0",
    "measurement.n_lines": "24",
    "measurement.nx": "200",
    "output.vtk": "0",
}


def test_pipeline_smoke_rr_then_restart(tmp_path, monkeypatch):
    first = run_pipeline(parse_config(None, overrides=SMOKE),
                         run_dir=tmp_path / "impulsive", reuse=False)
    assert first.measurement["classification"] == "RR"
    assert verify_manifest(first.run_dir)[1] == []
    inv = first.invariants
    # measured: the patch is limited
    assert inv["overset_limiter_activations"] > 0
    result = json.loads((first.run_dir / "result.json").read_text())
    assert result["invariants"]["overset_limiter_activations"] == \
        inv["overset_limiter_activations"]
    assert 0.0 < result["coarse_time"] and 0.0 < result["fine_time"]

    loads = []

    def counting_load(path):
        loads.append(path)
        return load_checkpoint(path)

    monkeypatch.setattr(pipeline, "load_checkpoint", counting_load)
    # the restart starts from a settled state, so a short march will do
    restart = dict(SMOKE, **{"case.init": f"restart:{first.checkpoint}",
                             "solver.coarse_max_iterations": "50",
                             "solver.fine_max_iterations": "30"})
    again = run_pipeline(parse_config(None, overrides=restart),
                         run_dir=tmp_path / "restart", reuse=False)
    assert again.measurement["classification"] == "RR"
    assert verify_manifest(again.run_dir)[1] == []
    assert len(loads) == 1


def test_sweep_runner_measurement_from_summary(tmp_path, monkeypatch):
    doc = {"classification": "MR", "stem_height_ratio": 0.2,
           "triple_point": [1.1, 0.2]}
    monkeypatch.setattr(pipeline, "run_pipeline", lambda cfg, **kw:
                        pipeline.RunSummary(tmp_path, doc, {}, "stalled",
                                            "stalled", True))
    runner = pipeline.make_sweep_runner(parse_config(None))
    meas, ckpt = runner(24.0, None)
    assert meas == StemMeasurement("MR", 0.2, (1.1, 0.2), {})
    assert ckpt == str(tmp_path / "checkpoint")


def test_pipeline_without_shock_marches_background_alone(tmp_path):
    # a flat wedge leaves the free stream uniform: nothing is flagged, so
    # the fine stage has no patch and measures nothing
    cfg = parse_config(None, overrides=dict(SMOKE, **{
        "case.wedge_angle_deg": "0",
        "solver.coarse_max_iterations": "20",
        "solver.fine_max_iterations": "10"}))
    summary = run_pipeline(cfg, run_dir=tmp_path, reuse=False)
    assert summary.measurement == {"classification": "none"}
    assert "overset_guard_activations" not in summary.invariants
    assert summary.fine_outcome == "converged"
    assert verify_manifest(tmp_path)[1] == []
    assert sorted(p.name for p in summary.checkpoint.iterdir()) == \
        ["checkpoint.json", "coeffs_background.npy"]
