import json

import numpy as np
import pytest

from machstem import io
from machstem.basis import Basis
from machstem.dg import Discretization
from machstem.gas import GasModel, conserved
from machstem.mesh import GridBlock
from machstem.wedge import FlowCase


def _cartesian_block(nx, ny, x1=1.0, y1=0.5, name="bg"):
    xs = np.linspace(0.0, x1, nx + 1)
    ys = np.linspace(0.0, y1, ny + 1)
    verts = np.zeros((nx + 1, ny + 1, 2))
    verts[..., 0] = xs[:, None]
    verts[..., 1] = ys[None, :]
    return GridBlock(verts, name=name)


@pytest.fixture
def small_disc():
    gas = GasModel()
    blk = _cartesian_block(8, 4)
    disc = Discretization(blk, Basis(1), gas, flux="lax_friedrichs",
                          bc_state=conserved(1.0, 0.5, 0.0, 1.0, gas))
    return disc, gas


def test_write_vtk_structure(tmp_path, small_disc):
    disc, gas = small_disc
    coeffs = disc.project_constant(conserved(1.0, 0.5, 0.0, 1.0, gas))
    path = tmp_path / "field.vtk"
    io.write_vtk(path, disc, coeffs, gas)
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version")
    assert "DATASET STRUCTURED_GRID" in text
    assert "SCALARS density" in text
    assert "SCALARS pressure" in text
    assert "SCALARS mach" in text
    assert "VECTORS velocity" in text
    # uniform state: every density sample is 1
    block = text.split("SCALARS density")[1].split("SCALARS")[0]
    vals = np.array(block.split("\n", 2)[2].split(), float)
    assert np.allclose(vals, 1.0)


def test_residual_csv(tmp_path):
    path = tmp_path / "resid.csv"
    io.write_residual_csv(path, [(0, 1.0, 4.0, 1e-3, 1e-3),
                                 (1, 0.5, 4.0, 1e-3, 2e-3)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,residual,max_wave_speed,dt,time"
    assert lines[1].startswith("0,1.0000000000e+00")
    assert lines[2].endswith(",2.0000000000e-03")
    assert len(lines) == 3


def test_troubled_csv_roundtrip(tmp_path):
    ind = np.zeros((4, 3))
    flagged = np.zeros((4, 3), bool)
    ind[1, 2] = 2.5
    flagged[1, 2] = True
    ind[0, 0] = 0.3
    path = tmp_path / "cells.csv"
    io.write_troubled_csv(path, "bg", ind, flagged)
    # untouched cells are not listed
    assert path.read_text().splitlines() == [
        "block_id,i,j,indicator_value,flagged",
        "bg,0,0,3.000000e-01,0",
        "bg,1,2,2.500000e+00,1"]


def test_troubled_csv_deterministic(tmp_path):
    rng = np.random.default_rng(7)
    ind = rng.random((6, 5))
    flagged = ind > 0.6
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    io.write_troubled_csv(a, "bg", ind, flagged)
    io.write_troubled_csv(b, "bg", ind.copy(), flagged.copy())
    assert a.read_bytes() == b.read_bytes()


def test_gnuplot_dat(tmp_path):
    path = tmp_path / "t.dat"
    io.write_gnuplot_dat(path, [[0.0, 1.0], [2.0, 3.0]], ["x", "y"])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# x y"
    assert lines[1].split() == ["0", "2"]


def test_sweep_table_shows_stem_cells_and_lowest_strip_mach(tmp_path):
    mr = {"classification": "MR", "stem_height_ratio": 0.0686,
          "triple_point": [1.31, 0.0686], "stem_cells": 3.43,
          "strip_min_mach": 0.6204}
    rr = {"classification": "RR", "stem_height_ratio": None,
          "triple_point": None, "stem_cells": None, "strip_min_mach": 1.2745}
    path = tmp_path / "sweep.csv"
    io.write_sweep_table(path, [(24.0, mr, "error: diverged"),
                                (20.5, rr, mr)])
    lines = path.read_text().splitlines()
    assert lines[0] == ("wedge_angle_deg,impulsive_start,restart_chain,"
                        "impulsive_stem_cells,impulsive_strip_min_mach,"
                        "restart_stem_cells,restart_strip_min_mach")
    assert lines[1:] == ["24.00,0.0686,error: diverged,3.430,0.620,,",
                         "20.50,RR,0.0686,,1.274,3.430,0.620"]
    dat = path.with_suffix(".dat").read_text().splitlines()
    assert dat[0].split()[1:] == [
        "wedge_angle_deg", "stem_ratio_impulsive", "stem_ratio_restart",
        "stem_cells_impulsive", "stem_cells_restart",
        "strip_min_mach_impulsive", "strip_min_mach_restart"]
    nan = float("nan")
    np.testing.assert_array_equal(
        np.loadtxt(path.with_suffix(".dat")),
        [[24.0, 0.0686, nan, 3.43, nan, 0.6204, nan],
         [20.5, nan, 0.0686, nan, 3.43, 1.2745, 0.6204]])


def test_manifest_verify(tmp_path):
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0)
    man = io.RunManifest(tmp_path, io.case_to_params(case), {"solver.cfl": 0.3})
    out = tmp_path / "data.csv"
    out.write_text("a,b\n1,2\n")
    man.record(out)
    man.finish()
    doc, problems = io.verify_manifest(tmp_path)
    assert problems == []
    assert doc["case"]["mach"] == 3.0
    assert "data.csv" in doc["outputs"]

    out.write_text("a,b\n1,3\n")  # tamper
    _, problems = io.verify_manifest(tmp_path)
    assert any("checksum mismatch" in p for p in problems)


def test_manifest_missing_output(tmp_path):
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0)
    man = io.RunManifest(tmp_path, io.case_to_params(case), {})
    out = tmp_path / "gone.csv"
    out.write_text("x\n")
    man.record(out)
    man.finish()
    out.unlink()
    _, problems = io.verify_manifest(tmp_path)
    assert problems == ["missing output gone.csv"]


def test_shock_paths_json(tmp_path):
    from machstem.pipeline import ShockSegment
    seg = ShockSegment(start=(0.5, 0.9), end=(1.0, 0.2), angle_deg=-54.5,
                       n_points=40, rms=0.002)
    path = tmp_path / "paths.json"
    io.write_shock_paths_json(path, [seg])
    doc = json.loads(path.read_text())
    assert doc == [{"start": [0.5, 0.9], "end": [1.0, 0.2],
                    "angle_deg": -54.5, "n_points": 40, "rms": 0.002}]
