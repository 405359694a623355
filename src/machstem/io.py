"""Solution and diagnostic file writers plus the run manifest.

All formats are plain text: legacy ASCII VTK structured grids for
fields, comma-separated tables for residual histories, cell flags and
sweeps, JSON for fitted shock paths, and whitespace tables for gnuplot.
A run directory is sealed by a manifest recording every artifact with
its SHA-256 checksum so a finished run can be audited or re-run from
the manifest alone.
"""

import csv
import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np

from . import __version__
from .gas import pressure
from .overset import STATUS_ACTIVE, STATUS_FRINGE

SLICE_POINTS = 800          # samples along a field slice


def _element_samples(disc, coeffs, per_edge):
    """Sample the polynomial solution on an equispaced sub-grid per element."""
    block, basis = disc.block, disc.basis
    t = np.linspace(-1.0, 1.0, per_edge)
    r, s = [a.ravel() for a in np.meshgrid(t, t, indexing="ij")]
    pts = block.map_points(r, s)                      # (ni, nj, m*m, 2)
    modes = basis.eval_modes(r, s)                    # (m*m, Np)
    vals = np.einsum("qp,vijp->vijq", modes, coeffs)  # (4, ni, nj, m*m)
    return pts, vals


def write_vtk(path, disc, coeffs, gas, *, title="machstem field"):
    """Legacy ASCII VTK STRUCTURED_GRID of the sampled DG solution.

    Each element is sampled on an equispaced (order + 1)^2 sub-grid, at
    least 2 x 2.  Element interfaces carry duplicated points so
    inter-element jumps in the discontinuous solution stay visible.
    """
    m = max(2, disc.basis.order + 1)
    ni, nj = disc.block.ni, disc.block.nj
    pts, vals = _element_samples(disc, coeffs, m)
    nx, ny = ni * m, nj * m

    def grid_order(a):
        # (ni, nj, m*m, ...) -> rows over global x index, then y index
        a = a.reshape(ni, nj, m, m, -1)
        return a.transpose(1, 3, 0, 2, 4).reshape(ny * nx, -1)

    xy = grid_order(pts)
    rho, ru, rv, e = (grid_order(vals[k])[:, 0] for k in range(4))
    u, v = ru / rho, rv / rho
    p = pressure(np.stack([rho, ru, rv, e]), gas)
    a = np.sqrt(gas.gamma * p / rho)
    mach = np.sqrt(u * u + v * v) / a

    out = [
        "# vtk DataFile Version 3.0", title, "ASCII",
        "DATASET STRUCTURED_GRID", f"DIMENSIONS {nx} {ny} 1",
        f"POINTS {nx * ny} double",
    ]
    out += [f"{x:.10g} {y:.10g} 0" for x, y in xy]
    out.append(f"POINT_DATA {nx * ny}")
    for name, field in (("density", rho), ("pressure", p), ("mach", mach)):
        out += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        out += [f"{q:.10g}" for q in field]
    out += ["VECTORS velocity double"]
    out += [f"{a_:.10g} {b_:.10g} 0" for a_, b_ in zip(u, v)]
    Path(path).write_text("\n".join(out) + "\n")


def write_residual_csv(path, history):
    """History rows (iteration, residual, max wave speed, dt, physical
    time) as CSV."""
    lines = ["iteration,residual,max_wave_speed,dt,time"]
    for it, res, ws, dt, t in history:
        lines.append(f"{int(it)},{res:.10e},{ws:.10e},{dt:.10e},{t:.10e}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_troubled_csv(path, name, ind, flagged):
    """Troubled-cell export of block ``name``: rows of (block_id, i, j,
    indicator, flagged).

    Only flagged or nonzero-indicator cells are listed to keep the file
    proportional to the shock system, not the grid.
    """
    lines = ["block_id,i,j,indicator_value,flagged"]
    for i, j in np.argwhere(flagged | (ind > 0)):
        lines.append(f"{name},{i},{j},{ind[i, j]:.6e},"
                     f"{int(flagged[i, j])}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_classification_csv(path, assembly):
    """Element activity classification of an overset assembly as CSV."""
    lines = ["block_id,i,j,status"]
    names = {STATUS_ACTIVE: "active", STATUS_FRINGE: "fringe"}
    for name, disc, status in (
            ("background", assembly.bg, assembly.status_bg),
            ("overset", assembly.ov, assembly.status_ov)):
        for i in range(disc.block.ni):
            for j in range(disc.block.nj):
                lines.append(
                    f"{name},{i},{j},{names.get(status[i, j], 'hole')}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_shock_paths_json(path, segments):
    """Fitted shock-path segments with their endpoints as JSON."""
    doc = [{"start": [float(s.start[0]), float(s.start[1])],
            "end": [float(s.end[0]), float(s.end[1])],
            "angle_deg": float(s.angle_deg),
            "n_points": int(s.n_points),
            "rms": float(s.rms)} for s in segments]
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def write_gnuplot_dat(path, columns, names):
    """Whitespace table with a '#' header row, ready for gnuplot."""
    cols = [np.asarray(c, float) for c in columns]
    lines = ["# " + " ".join(names)]
    for row in zip(*cols):
        lines.append(" ".join(f"{v:.10g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_sweep_table(path, rows):
    """Sweep rows ``(angle, impulsive, restart)`` as CSV, and beside it
    the gnuplot table of the same name ending in ``.dat``.

    An entry is a measurement document or an error string.  The CSV
    shows ``RR``, the MR stem height ratio to 4 decimals or the error,
    then each branch's stem in cells and lowest strip's Mach number to 3
    decimals, empty where the entry has none (an error, the stem of RR,
    a document written before they were recorded).  The gnuplot table
    shows the ratios, stems in cells and Mach numbers at full precision,
    NaN where they are empty.
    """
    def text(entry):
        if isinstance(entry, str):
            return entry
        if entry["classification"] == "RR":
            return "RR"
        return f"{entry['stem_height_ratio']:.4f}"

    def number(entry, key):
        value = entry.get(key) if isinstance(entry, dict) else None
        return float("nan") if value is None else value

    extra = ("stem_cells", "strip_min_mach")
    with open(path, "w", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(["wedge_angle_deg", "impulsive_start", "restart_chain",
                      "impulsive_stem_cells", "impulsive_strip_min_mach",
                      "restart_stem_cells", "restart_strip_min_mach"])
        for a, imp, rst in rows:
            values = (number(e, key) for e in (imp, rst) for key in extra)
            out.writerow([f"{a:.2f}", text(imp), text(rst)]
                         + ["" if np.isnan(v) else f"{v:.3f}" for v in values])
    write_gnuplot_dat(Path(path).with_suffix(".dat"),
                      [[r[0] for r in rows]]
                      + [[number(r[b], key) for r in rows]
                         for key in ("stem_height_ratio",) + extra
                         for b in (1, 2)],
                      ["wedge_angle_deg", "stem_ratio_impulsive",
                       "stem_ratio_restart", "stem_cells_impulsive",
                       "stem_cells_restart", "strip_min_mach_impulsive",
                       "strip_min_mach_restart"])


def write_field_slice_dat(path, sampler, gas, y, x_range):
    """Gnuplot table of flow quantities at ``SLICE_POINTS`` points along
    one horizontal line."""
    xs = np.linspace(x_range[0], x_range[1], SLICE_POINTS)
    q = sampler.states(np.stack([xs, np.full(SLICE_POINTS, y)], axis=1))
    p = pressure(q, gas)
    write_gnuplot_dat(path, [xs, q[0], q[1] / q[0], q[2] / q[0], p],
                      ["x", "density", "u", "v", "pressure"])


# ---------------------------------------------------------------------------
# run manifest


def sha256_of(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest:
    """Inventory of one run: inputs, configuration, outputs, checksums."""

    def __init__(self, run_dir, case_params, config):
        self.run_dir = Path(run_dir)
        self.doc = {
            "code_version": __version__,
            "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "case": dict(case_params),
            "config": dict(config),
            "outputs": {},
        }

    def record(self, path):
        p = Path(path)
        rel = str(p.relative_to(self.run_dir))
        self.doc["outputs"][rel] = {"sha256": sha256_of(p),
                                    "bytes": p.stat().st_size}
        return p

    def finish(self):
        self.doc["finished_utc"] = time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        # a reader never sees a half-written manifest
        path = self.run_dir / "manifest.json"
        tmp = path.with_name("manifest.json.tmp")
        tmp.write_text(json.dumps(self.doc, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path


def load_manifest(run_dir):
    return json.loads((Path(run_dir) / "manifest.json").read_text())


def verify_manifest(run_dir):
    """Check that every recorded output exists with a matching checksum."""
    run_dir = Path(run_dir)
    doc = load_manifest(run_dir)
    problems = []
    for rel, meta in doc["outputs"].items():
        p = run_dir / rel
        if not p.is_file():
            problems.append(f"missing output {rel}")
        elif sha256_of(p) != meta["sha256"]:
            problems.append(f"checksum mismatch for {rel}")
    return doc, problems


def case_to_params(case):
    d = dataclasses.asdict(case)
    d.pop("gas", None)
    for k in ("coarse_grid", "fine_background_grid", "overset_grid"):
        d[k] = list(d[k])
    return d
