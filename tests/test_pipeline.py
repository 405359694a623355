import dataclasses
import json
import re

import numpy as np
import pytest

from machstem import cli, mesh, pipeline
from machstem.basis import Basis
from machstem.config import parse_config
from machstem.dg import Discretization
from machstem.errors import AssemblyError, ConfigError, MeasurementError
from machstem.gas import GasModel, conserved
from machstem.io import RunManifest, verify_manifest, write_sweep_table
from machstem.pipeline import (
    build_aligned_grid,
    fit_shock_paths,
    load_cached_run,
    load_checkpoint,
    run_key,
    run_pipeline,
    save_checkpoint,
)
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
    # crossing of the lines through each segment's endpoints
    (p, q), (r, t) = [(np.array(g.start), np.array(g.end)) for g in segs]
    k = np.linalg.solve(np.array([q - p, r - t]).T, r - p)
    hit = p + k[0] * (q - p)
    assert abs(hit[0] - x_true) < CELL and abs(hit[1] - y_true) < CELL


def test_fit_is_deterministic():
    rng = np.random.default_rng(11)
    pts = np.vstack([_line_points(0.5, 1.0, -40.0, 0.9, 60, rng),
                     _line_points(1.0, 0.05, 80.0, 0.5, 40, rng)])
    s1 = fit_shock_paths(pts, CELL)
    s2 = fit_shock_paths(pts.copy(), CELL)
    assert [(a.start, a.end, a.n_points) for a in s1] == \
           [(b.start, b.end, b.n_points) for b in s2]


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


def test_aligned_patch_empty_map_raises():
    cfg = _patch_cfg()
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0)
    with pytest.raises(MeasurementError, match="no shock system detected"):
        build_aligned_grid(case, cfg, np.empty((0, 2)))


def test_aligned_patch_boundary_tags():
    """The sides carry the tags a face-by-face test of the patch's
    vertices against the channel boundary gives: wall on the floor and on
    the wedge, outflow on the top wall behind the trailing edge, inflow
    at the inlet, outflow at the exit, interface elsewhere."""
    cfg = _patch_cfg()
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0,
                    coarse_grid=(150, 50), overset_grid=(60, 40))
    x_te = wedge_geometry(case)["x_te"]
    tol = 1e-8

    def on_top(p):
        return abs(p[1] - float(top_profile(case, p[0]))) <= tol

    # a band off the leading edge, and one starting at the inlet
    for band, west in ((_line_points(0.5, 0.916, -40.0, 1.0, 160),
                        mesh.TAG_INTERFACE),
                       (_line_points(0.02, 0.9, -30.0, 1.5, 160),
                        mesh.TAG_INFLOW)):
        blk = build_aligned_grid(case, cfg, band)
        v = blk.vertices
        south, north = [], []
        for i in range(blk.ni):
            a, b = v[i, 0], v[i + 1, 0]
            south.append(mesh.TAG_WALL if abs(a[1]) <= tol and
                         abs(b[1]) <= tol else mesh.TAG_INTERFACE)
            a, b = v[i, -1], v[i + 1, -1]
            m = 0.5 * (a + b)
            north.append(mesh.TAG_INTERFACE
                         if not (on_top(a) and on_top(b) and on_top(m))
                         else mesh.TAG_WALL if m[0] < x_te - tol
                         else mesh.TAG_OUTFLOW)
        assert blk.tags[mesh.FACE_S].tolist() == south
        assert blk.tags[mesh.FACE_N].tolist() == north
        assert set(south) == {mesh.TAG_WALL, mesh.TAG_INTERFACE}
        assert set(north) == {mesh.TAG_WALL, mesh.TAG_OUTFLOW,
                              mesh.TAG_INTERFACE}
        assert np.all(blk.tags[mesh.FACE_W] == west)
        assert np.all(blk.tags[mesh.FACE_E] == mesh.TAG_OUTFLOW)


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


# the tiny case of the benchmark's smoke-rr workload, a plumbing check:
# at 16 deg (well below the M=3 von Neumann angle of 19.656 deg) and
# after these 300 coarse and 100 fine iterations no reflection has
# formed, and the lowest strips still read Mach 3.000
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
    """A plumbing test: both stages, the artifacts, the manifest and a
    restart from the checkpoint run end to end.  No reflection has formed
    by the end of the march (the wall flow is still free stream), so the
    RR it reads cannot fail by misclassifying a reflection; the exact-
    state tests of ``measure_stem`` cover that."""
    coarses, fines = [], []
    for name, runs in (("run_coarse", coarses), ("run_fine", fines)):
        def recording(*args, _run=getattr(pipeline, name), _runs=runs,
                      **kwargs):
            _runs.append(_run(*args, **kwargs))
            return _runs[-1]
        monkeypatch.setattr(pipeline, name, recording)
    first = run_pipeline(parse_config(None, overrides=SMOKE),
                         run_dir=tmp_path / "impulsive", reuse=False)
    assert first.measurement["classification"] == "RR"
    assert first.measurement["stem_cells"] is None
    assert first.measurement["strip_min_mach"] == \
        fines[0].measurement.diagnostics["strip_min_mach"][0]
    assert verify_manifest(first.run_dir)[1] == []
    result = json.loads((first.run_dir / "result.json").read_text())
    assert first.result == result
    inv = result["invariants"]
    # measured: the patch is limited; the receivers are guarded
    assert inv["overset_limiter_activations"] > 0
    assert sorted(inv) == ["background_guard_activations",
                           "background_receiver_repairs",
                           "overset_guard_activations",
                           "overset_limiter_activations",
                           "overset_receiver_repairs"]
    assert 0.0 < result["coarse_time"] and 0.0 < result["fine_time"]
    # the element with the smallest h_dt over the active elements of
    # each stage's blocks
    for stage, discs in (("coarse", [coarses[0].disc]),
                         ("fine", fines[0].discs)):
        smallest = result[f"{stage}_min_h_dt"]
        assert smallest["h_dt"] == min(d.geo.h_dt[d.active_mask].min()
                                       for d in discs)
        d, = (d for d in discs if d.block.name == smallest["block"])
        i, j = smallest["ij"]
        assert d.active_mask[i, j] and d.geo.h_dt[i, j] == smallest["h_dt"]
        assert smallest["centroid"] == \
            d.block.element_centroids()[i, j].tolist()
    # a cached run reads back as the run that wrote it
    assert load_cached_run(first.run_dir) == \
        dataclasses.replace(first, cached=True)

    loads = []

    def counting_load(path, gas):
        loads.append(load_checkpoint(path, gas))
        return loads[-1]

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
    # the restart samples the first run's patch on its own vertices
    loaded_discs = loads[0][0]
    assert [d.block.name for d in loaded_discs] == ["background", "overset"]
    assert np.array_equal(loaded_discs[1].block.vertices,
                          fines[0].discs[1].block.vertices)


# the reduced-resolution probe grids of ROADMAP item 2: 80x40 P1 for
# 6000 coarse iterations, then a 40x20 background and a 48x32 patch at
# P2 for 3000 (fine t = 0.42 at 24 deg)
PROBE = {
    "case.coarse_grid": "80x40",
    "case.fine_background_grid": "40x20",
    "case.overset_grid": "48x32",
    "solver.fine_order": "2",
    "solver.coarse_max_iterations": "6000",
    "solver.fine_max_iterations": "3000",
    "solver.stall_window": "0",
    "solver.log_every": "0",
    "measurement.n_lines": "60",
    "measurement.nx": "600",
    "output.vtk": "0",
}
# stem height ratios of these runs at 23.8, 24.0 and 24.2 deg: 0.06896,
# 0.06864 and 0.06832 (MR at each; the stem has not settled by t = 0.42)
MR_STEM_BAND = (0.0683, 0.0690)


@pytest.mark.slow
def test_pipeline_reads_mach_reflection_at_24_deg(tmp_path, monkeypatch):
    """The first end-to-end Mach reflection: 24 deg, beyond detachment
    (21.458 deg at M=3), on the probe grids; about a minute on two CPUs.
    A subsonic strip sits at the wall, and the stem lies in the band the
    neighbouring angles span."""
    measured = []
    measure_stem = pipeline.measure_stem

    def recording(*args, **kwargs):
        measured.append(measure_stem(*args, **kwargs))
        return measured[-1]

    monkeypatch.setattr(pipeline, "measure_stem", recording)
    cfg = parse_config(None, overrides=dict(
        PROBE, **{"case.wedge_angle_deg": "24"}))
    run = run_pipeline(cfg, run_dir=tmp_path / "mr", reuse=False)
    assert run.measurement["classification"] == "MR"
    diag = measured[0].diagnostics
    assert run.measurement["strip_min_mach"] == diag["strip_min_mach"][0] < 1.0
    lo, hi = MR_STEM_BAND
    assert lo <= run.measurement["stem_height_ratio"] <= hi
    assert run.measurement["stem_cells"] == \
        run.measurement["triple_point"][1] / diag["cell_size"] > 1.0
    assert verify_manifest(run.run_dir)[1] == []


def test_measurement_doc_carries_stem_cells_and_lowest_strip_mach():
    """A row near von Neumann reads RR or MR by resolution, so the
    document carries the stem in cells and the lowest strip's Mach
    number beside the classification."""
    diag = {"strip_min_mach": np.array([0.62, 0.71, 1.4]), "cell_size": 0.02}
    mr = pipeline._measurement_doc(
        StemMeasurement("MR", 0.07, (1.25, 0.07), diag))
    assert mr["stem_cells"] == 0.07 / 0.02
    assert mr["strip_min_mach"] == 0.62
    rr = pipeline._measurement_doc(StemMeasurement(
        "RR", None, None, dict(diag, strip_min_mach=np.array([2.9, 3.0]))))
    assert rr["stem_cells"] is None and rr["strip_min_mach"] == 2.9
    assert json.loads(json.dumps([mr, rr])) == [mr, rr]


def test_cached_result_without_the_new_keys_reads_them_as_null(tmp_path):
    """A ``result.json`` recorded before the document carried
    ``stem_cells`` and ``strip_min_mach`` is still a cache hit, and the
    sweep table leaves those cells empty instead of raising."""
    old = {"classification": "MR", "stem_height_ratio": 0.0686,
           "triple_point": [1.31, 0.0686]}
    (tmp_path / "result.json").write_text(json.dumps(
        {"measurement": old, "invariants": {},
         "coarse_outcome": "max_iterations",
         "fine_outcome": "max_iterations"}))
    manifest = RunManifest(tmp_path, {}, {})
    manifest.record(tmp_path / "result.json")
    manifest.finish()
    summary = load_cached_run(tmp_path)
    assert summary.measurement == old
    write_sweep_table(tmp_path / "sweep.csv",
                      [(24.0, summary.measurement, summary.measurement)])
    assert (tmp_path / "sweep.csv").read_text().splitlines()[1] == \
        "24.00,0.0686,0.0686,,,,"


@pytest.mark.parametrize("damage", ["", '{"outputs": {"result.json": '])
def test_unreadable_manifest_is_no_cache(tmp_path, damage):
    """A manifest cut short (a run killed while writing it) means the
    run is redone, not that the lookup crashes."""
    (tmp_path / "result.json").write_text("{}\n")
    (tmp_path / "manifest.json").write_text(damage)
    assert load_cached_run(tmp_path) is None


def test_sweep_end_to_end(tmp_path, monkeypatch):
    """A plumbing test, like ``test_pipeline_smoke_rr_then_restart``: both
    branches of a two-angle sweep run through ``run_pipeline`` on the
    smoke grids, and a second sweep reuses every run.  No reflection has
    formed by the end of these marches, so the RR entries cannot fail by
    misclassifying one."""
    argv = ["sweep", "--angles", "16,15", "--quiet",
            "--out", str(tmp_path / "sweep.csv"),
            "--out-dir", str(tmp_path / "runs")]
    for key, value in dict(SMOKE, **{"solver.coarse_max_iterations": "120",
                                     "solver.fine_max_iterations": "30"}
                           ).items():
        argv += ["--set", f"{key}={value}"]
    assert cli.main(argv) == 0
    table = (tmp_path / "sweep.csv").read_text()
    rows = [line.split(",") for line in table.splitlines()[1:]]
    assert [row[:3] for row in rows] == [["16.00", "RR", "RR"],
                                        ["15.00", "RR", "RR"]]
    # no stem in cells for RR; every lowest strip supersonic
    assert all(row[3] == row[5] == "" for row in rows)
    assert all(float(row[4]) > 1.0 and float(row[6]) > 1.0 for row in rows)
    assert (tmp_path / "sweep.dat").is_file()
    runs = {}
    for run_dir in (tmp_path / "runs").iterdir():
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "init_mode" not in manifest["case"]
        config = manifest["config"]
        runs[config["case.init"], config["case.wedge_angle_deg"]] = run_dir
    assert len(runs) == 4
    restarts = {a: d for (init, a), d in runs.items() if init != "impulsive"}
    assert sorted(restarts) == ["15.0", "16.0"]
    assert (f"restart:{restarts['16.0'] / 'checkpoint'}", "15.0") in runs

    coarse = []
    monkeypatch.setattr(pipeline, "run_coarse",
                        lambda *a, **kw: coarse.append(a))
    assert cli.main(argv) == 0
    assert coarse == []
    assert (tmp_path / "sweep.csv").read_text() == table
    assert len(list((tmp_path / "runs").iterdir())) == 4


# a flat wedge leaves the free stream uniform: the coarse stage flags
# nothing, so there is no shock system to enclose or measure
NO_SHOCK = dict(SMOKE, **{"case.wedge_angle_deg": "0",
                          "solver.coarse_max_iterations": "20"})


def test_pipeline_without_shock_ends_after_the_coarse_stage(tmp_path,
                                                            monkeypatch):
    marches = []
    march = pipeline.march_to_steady

    def counting_march(*args, **kwargs):
        marches.append(march(*args, **kwargs))
        return marches[-1]

    monkeypatch.setattr(pipeline, "march_to_steady", counting_march)
    cfg = parse_config(None, overrides=NO_SHOCK)
    with pytest.raises(MeasurementError, match="no shock system detected"):
        run_pipeline(cfg, run_dir=tmp_path, reuse=False)
    assert len(marches) == 1
    # an unfinished run is never cached
    assert not (tmp_path / "manifest.json").exists()
    assert load_cached_run(tmp_path) is None


def test_cli_exits_4_without_shock(tmp_path, capsys):
    argv = ["pipeline", "--quiet", "--out-dir", str(tmp_path)]
    for key, value in NO_SHOCK.items():
        argv += ["--set", f"{key}={value}"]
    assert cli.main(argv) == 4
    assert "error: no shock system detected" in capsys.readouterr().err
    assert not list(tmp_path.glob("*/manifest.json"))


def _checkpoint_blocks(order=2):
    """Two named blocks on jittered vertices, with random coefficients."""
    rng = np.random.default_rng(11)
    discs, coeffs = [], []
    for name, (ni, nj) in (("background", (3, 5)), ("overset", (2, 2))):
        x, y = np.meshgrid(np.arange(ni + 1.0), np.arange(nj + 1.0),
                           indexing="ij")
        verts = np.stack([x, y], axis=-1) + rng.uniform(-0.1, 0.1,
                                                        (ni + 1, nj + 1, 2))
        basis = Basis(order)
        discs.append(Discretization(mesh.GridBlock(verts, name), basis,
                                    GasModel()))
        coeffs.append(rng.standard_normal((4, ni, nj, basis.n_modes)))
    return discs, coeffs


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    discs, coeffs = _checkpoint_blocks()
    save_checkpoint(tmp_path / "ck", discs, coeffs)
    back, back_coeffs = load_checkpoint(tmp_path / "ck", GasModel())
    assert [d.block.name for d in back] == ["background", "overset"]
    for d, c, b, bc in zip(discs, coeffs, back, back_coeffs):
        assert b.basis.order == 2
        assert np.array_equal(b.block.vertices, d.block.vertices)
        assert bc.dtype == np.float64 and np.array_equal(bc, c)


@pytest.mark.parametrize("damage, reason", [
    ("old_format", "not listed by name"),
    ("no_vertices", "vertices_overset.npy"),
    ("no_sidecar", "checkpoint.json")])
def test_unusable_checkpoint_rejected(tmp_path, damage, reason):
    path = tmp_path / "ck"
    discs, coeffs = _checkpoint_blocks()
    save_checkpoint(path, discs, coeffs)
    if damage == "old_format":
        # coefficients beside a sidecar of shapes and case parameters,
        # the patch's vertices in a text grid file
        for p in path.glob("vertices_*.npy"):
            p.unlink()
        (path / "overset.grid").write_text("3 3\n")
        (path / "checkpoint.json").write_text(json.dumps(
            {"blocks": [{"name": d.block.name, "shape": list(c.shape)}
                        for d, c in zip(discs, coeffs)],
             "case": {"mach": 3.0}, "order": 2}))
    elif damage == "no_vertices":
        (path / "vertices_overset.npy").unlink()
    else:
        (path / "checkpoint.json").unlink()
    unusable = re.escape(f"checkpoint {path} is unusable: ")
    with pytest.raises(ConfigError, match=unusable + ".*" + reason):
        load_checkpoint(path, GasModel())
