"""Two-stage wedge-flow pipeline.

Stage one marches a low-order solution on the background channel grid
until the shock system stops moving; the troubled-cell indicator then
marks exactly the cells the shocks cross.  Stage two builds a refined
overset patch around those cells, its grid lines following the flagged
band, and re-converges at high order with the shock-capturing machinery
confined to the patch.  Straight-line shock paths fitted to the flagged
cells are a diagnostic only (``shock_paths.json``).  The orchestrator
wraps both stages with artifact writing, a checksummed manifest, and a
config-keyed run cache; the angle sweep runs it twice per angle.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as artifacts
from . import mesh
from .basis import Basis
from .config import case_from_config, dump_config
from .dg import Discretization
from .errors import (AssemblyError, ConfigError, DivergenceError,
                     MeasurementError)
from .overset import (CompositeSampler, OversetAssembly, points_in_footprint,
                      project_between)
from .stabilization import Stabilizer, kxrcf_indicator, make_limiter_hook
from .timestepping import System, march_to_steady
from .wedge import build_wedge_grid, measure_stem, top_profile, wedge_geometry

CHECKPOINT_DIR = "checkpoint"
# the troubled-cell indicator reads density alone
INDICATOR_VARIABLES = (0,)
# settled-map recompute: the coarse shock smears downstream, so the
# placement scan flags at a lower bar than the in-march limiter
# (``stabilization.threshold``)
FLAG_THRESHOLD = 0.3


# ---------------------------------------------------------------------------
# shock-path fitting


def tls_line(pts):
    """Total-least-squares line through points: (point, direction, rms).

    The direction is a unit vector pointing toward +x (toward +y when
    vertical).
    """
    ctr = pts.mean(axis=0)
    d = pts - ctr
    _, _, vt = np.linalg.svd(d, full_matrices=False)
    direction = vt[0]
    if direction[0] < 0 or (direction[0] == 0 and direction[1] < 0):
        direction = -direction
    resid = d @ np.array([-direction[1], direction[0]])
    return ctr, direction, float(np.sqrt(np.mean(resid ** 2)))


@dataclass
class ShockSegment:
    """One straight piece of the shock system fitted to flagged cells."""

    start: tuple          # leftmost endpoint (x, y)
    end: tuple
    angle_deg: float      # from the +x axis, in (-90, 90]
    n_points: int
    rms: float


def _segment_from_inliers(pts):
    ctr, direction, rms = tls_line(pts)
    t = (pts - ctr) @ direction
    lo, hi = ctr + t.min() * direction, ctr + t.max() * direction
    if lo[0] > hi[0]:
        lo, hi = hi, lo
    ang = math.degrees(math.atan2(direction[1], direction[0]))
    if ang > 90.0:
        ang -= 180.0
    elif ang <= -90.0:
        ang += 180.0
    return ShockSegment((float(lo[0]), float(lo[1])),
                        (float(hi[0]), float(hi[1])), ang, len(pts), rms)


def _longest_run(pts, origin, direction, mask, gap):
    """Restrict an inlier mask to its longest gap-free run along the line.

    Shock branches are contiguous bands of flagged cells, so a candidate
    line grazing two separate branches shows a large hole in its inlier
    spacing; keeping only the longest run stops such mixed fits from
    out-counting the true branches.
    """
    idx = np.where(mask)[0]
    if len(idx) == 0:
        return mask
    t = (pts[idx] - origin) @ direction
    order = np.argsort(t)
    breaks = np.where(np.diff(t[order]) > gap)[0]
    runs = np.split(order, breaks + 1)
    best = max(runs, key=len)
    out = np.zeros(len(pts), bool)
    out[idx[best]] = True
    return out


def fit_shock_paths(points, cell_size, *, max_segments=4, min_points=6,
                    inlier_tol=2.5, gap_cells=5.0, seed=0):
    """Extract straight shock paths from flagged-cell centroids.

    Runs a deterministic (fixed-seed) sequential line search: repeatedly
    find the line with the most centroids within ``inlier_tol`` cell
    sizes in one contiguous run (gaps beyond ``gap_cells`` cells split a
    candidate), refine it by total least squares, claim its inliers, and
    continue until the remaining cells support no further line.  A
    diagnostic: nothing downstream reads the segments.  Returns [] for an
    empty flag map.
    """
    pts = np.asarray(points, float).reshape(-1, 2)
    if len(pts) == 0:
        return []
    rng = np.random.default_rng(seed)
    tol = inlier_tol * cell_size
    gap = gap_cells * cell_size
    remaining = pts.copy()
    claims = []
    while len(remaining) >= min_points and len(claims) < max_segments:
        best_count, best_mask = 0, None
        n_draws = min(400, 4 * len(remaining) ** 2)
        for _ in range(n_draws):
            i, j = rng.choice(len(remaining), size=2, replace=False)
            d = remaining[j] - remaining[i]
            nrm = np.hypot(*d)
            if nrm < 0.5 * cell_size:
                continue
            d /= nrm
            off = (remaining - remaining[i]) @ np.array([-d[1], d[0]])
            mask = _longest_run(remaining, remaining[i], d,
                                np.abs(off) <= tol, gap)
            if mask.sum() > best_count:
                best_count, best_mask = int(mask.sum()), mask
        if best_count < min_points:
            break
        mask = best_mask
        for _ in range(3):        # TLS refinement with inlier re-selection
            ctr, direction, _ = tls_line(remaining[mask])
            off = (remaining - ctr) @ np.array([-direction[1], direction[0]])
            mask = _longest_run(remaining, ctr, direction,
                                np.abs(off) <= tol, gap)
        if mask.sum() < min_points:
            break
        claims.append(remaining[mask])
        remaining = remaining[~mask]

    # A crossing branch can bite a hole out of another branch's inlier
    # run, splitting it in two; re-join near-collinear claims.
    joined = True
    while joined and len(claims) > 1:
        joined = False
        for i in range(len(claims)):
            for j in range(i + 1, len(claims)):
                ci, di, _ = tls_line(claims[i])
                cj, dj, _ = tls_line(claims[j])
                sin_between = abs(di[0] * dj[1] - di[1] * dj[0])
                off = abs((cj - ci) @ np.array([-di[1], di[0]]))
                if sin_between <= math.sin(math.radians(6.0)) and off <= tol:
                    claims[i] = np.vstack([claims[i], claims.pop(j)])
                    joined = True
                    break
            if joined:
                break

    segments = [_segment_from_inliers(c) for c in claims]
    segments.sort(key=lambda s: -s.n_points)
    return segments


# ---------------------------------------------------------------------------
# coarse stage


@dataclass
class CoarseResult:
    disc: object
    coeffs: object
    march: object
    indicator: object
    flagged: object
    segments: list        # fitted shock paths, a diagnostic


def _march_stage(cfg, stage, discs, stabs, coeffs, *, transfer=None,
                 on_log=None):
    """March ``coeffs`` in place with each block's stabilizer as the
    limiter hook; raises ``DivergenceError`` if the march diverges."""
    system = System(discs, transfer=transfer,
                    limiter=make_limiter_hook(discs, stabs))
    march = march_to_steady(
        system, coeffs, on_log=on_log, cfl=cfg["solver.cfl"],
        cfl_start=cfg["solver.cfl_start"],
        cfl_ramp_iters=cfg["solver.cfl_ramp_iters"],
        tol=cfg[f"solver.{stage}_tol"],
        max_iterations=cfg[f"solver.{stage}_max_iterations"],
        stall_window=cfg["solver.stall_window"],
        log_every=cfg["solver.log_every"])
    if march.outcome == "diverged":
        raise DivergenceError(
            f"{stage} stage diverged after {march.iterations} iterations "
            f"(residual {march.residual:.3e})")
    return march


def _coarse_disc(case, cfg):
    block = build_wedge_grid(case, *case.coarse_grid)
    return Discretization(block, Basis(cfg["solver.coarse_order"]), case.gas,
                          flux=cfg["solver.background_flux"],
                          bc_state=case.free_stream())


def run_coarse(case, cfg, *, seed_coeffs=None, on_log=None):
    """Low-order shock-locating solve on the background channel grid.

    Marches with the slope limiter active in every element (the stage
    only has to survive the impulsive start and park the shock system);
    the flag map is then recomputed on the settled solution.  Its
    centroids place the aligned patch; the shock paths fitted to them
    are kept as a diagnostic.
    """
    disc = _coarse_disc(case, cfg)
    stab = Stabilizer(mode="always",
                      variables=INDICATOR_VARIABLES,
                      threshold=cfg["stabilization.threshold"],
                      tvb_m=cfg["stabilization.tvb_m"], positivity=True)
    if seed_coeffs is None:
        coeffs = disc.project_constant(case.free_stream())
    else:
        coeffs = seed_coeffs
    march = _march_stage(cfg, "coarse", [disc], [stab], [coeffs],
                         on_log=on_log)
    # refresh the flag map on the settled solution, at FLAG_THRESHOLD
    ind, flagged = kxrcf_indicator(disc, coeffs, INDICATOR_VARIABLES,
                                   FLAG_THRESHOLD)
    cell = math.sqrt(float(np.median(disc.geo.element_area)))
    segments = fit_shock_paths(disc.block.element_centroids()[flagged], cell)
    return CoarseResult(disc, coeffs, march, ind, flagged, segments)


# ---------------------------------------------------------------------------
# aligned overset patch


def _insert_kinks(stations, case):
    geom = wedge_geometry(case)
    x = stations.copy()
    for kink in (geom["x_le"], geom["x_te"]):
        if x[0] < kink < x[-1]:
            k = int(np.argmin(np.abs(x - kink)))
            k = min(max(k, 1), len(x) - 2)
            x[k] = kink
    return np.maximum.accumulate(x)


def build_aligned_grid(case, cfg, flag_points):
    """Refined patch following the shock band, fitted to the flag map.

    The flagged centroids are the only input.  The patch's cross-stream
    grid lines are x = const stations.  Its lengthwise family follows the
    band's midline, the binned and smoothed middle height of the flagged
    centroids at each station: the incident shock of the 24 deg case, at
    about 43 deg to the wall, crosses both families obliquely.  The upper
    and lower edges offset the midline far enough to enclose every
    flagged cell plus a margin, clipped to the channel walls.  Past the
    flagged band the patch widens to the full channel section and runs to
    the exit: the reflected shock and the slip layers keep going
    downstream of where the locating grid can still flag them, and every
    discontinuity has to leave through a physical boundary of the patch,
    never through an interface into the (unlimited) background.

    The sides are tagged from that clipping: south is wall where it lies
    on the floor, north is wall where it lies on the top profile (outflow
    behind the trailing edge), west is inflow when it starts at the
    inlet, and east, at the exit, is outflow; the rest are interfaces.
    An empty flag map leaves nothing to enclose and raises
    ``MeasurementError``.
    """
    pts = np.asarray(flag_points, float).reshape(-1, 2)
    if len(pts) == 0:
        raise MeasurementError("no shock system detected: the coarse stage "
                               "flagged no cell")
    ni, nj = case.overset_grid
    h = math.sqrt((case.length / case.coarse_grid[0]) *
                  (1.0 / case.coarse_grid[1]))
    margin = cfg["overset.margin_cells"] * h
    xa = max(0.0, pts[:, 0].min() - margin)
    xf = min(case.length, pts[:, 0].max() + margin)   # flagged band east end

    # flagged-band midline, binned per station and smoothed
    nbins = max(8, int((xf - xa) / h))
    edges = np.linspace(xa, xf, nbins + 1)
    mids, heights = [], []
    idx = np.clip(np.digitize(pts[:, 0], edges) - 1, 0, nbins - 1)
    for b in range(nbins):
        sel = idx == b
        if sel.any():
            mids.append(0.5 * (edges[b] + edges[b + 1]))
            heights.append(0.5 * (pts[sel, 1].min() + pts[sel, 1].max()))
    mids, heights = np.array(mids), np.array(heights)
    if len(mids) >= 5:
        kern = np.ones(5) / 5.0
        heights = np.convolve(np.pad(heights, 2, mode="edge"), kern, "valid")

    stations = _insert_kinks(np.linspace(xa, case.length, ni + 1), case)
    c = np.interp(stations, mids, heights)
    off = pts[:, 1] - np.interp(pts[:, 0], mids, heights)
    d_lo = max(cfg["overset.band_below"], float(-off.min()) + margin)
    d_hi = max(cfg["overset.band_above"], float(off.max()) + margin)

    y_top = top_profile(case, stations)
    lower = np.maximum(0.0, c - d_lo)
    upper = np.minimum(y_top, c + d_hi)
    # widen smoothly to the full section past the flagged band so the
    # downstream legs of the shock system stay inside the patch
    ramp = max(min(8.0 * h, case.length - xf), 1e-12)
    s = 0.5 - 0.5 * np.cos(math.pi * np.clip((stations - xf) / ramp, 0., 1.))
    lower = (1.0 - s) * lower
    upper = (1.0 - s) * upper + s * y_top
    if np.any(upper - lower <= 1e-9):
        raise AssemblyError("aligned patch degenerates: band top does not "
                            "clear band bottom inside the channel")
    eta = np.linspace(0.0, 1.0, nj + 1)
    verts = np.empty((ni + 1, nj + 1, 2))
    verts[:, :, 0] = stations[:, None]
    verts[:, :, 1] = lower[:, None] + eta[None, :] * (upper - lower)[:, None]

    # the kinks are stations, so the top profile is straight between
    # them and a face whose ends lie on a boundary lies on it whole
    tol = 1e-8
    on_floor = lower <= tol
    on_top = np.abs(upper - y_top) <= tol
    ahead = (0.5 * (stations[:-1] + stations[1:])
             < wedge_geometry(case)["x_te"] - tol)
    south = np.where(on_floor[:-1] & on_floor[1:], mesh.TAG_WALL,
                     mesh.TAG_INTERFACE)
    north = np.where(on_top[:-1] & on_top[1:],
                     np.where(ahead, mesh.TAG_WALL, mesh.TAG_OUTFLOW),
                     mesh.TAG_INTERFACE)
    tags = {mesh.FACE_S: south, mesh.FACE_N: north,
            mesh.FACE_W: mesh.TAG_INFLOW if xa <= tol else mesh.TAG_INTERFACE,
            mesh.FACE_E: mesh.TAG_OUTFLOW}
    return mesh.GridBlock(verts, name="overset", tags=tags)


# ---------------------------------------------------------------------------
# fine stage


@dataclass
class FineResult:
    discs: list
    coeffs: list
    assembly: object
    march: object
    measurement: object
    invariants: dict
    sampler: object       # CompositeSampler over the blocks, patch first


def _check_background_clean(disc, coeffs, variables, threshold):
    """Settled-state check: the indicator must not fire on any active
    background element.  A hit means part of the shock system parked
    outside the aligned patch, which is an assembly defect — the
    background has no limiter to cope with it."""
    _, flagged = kxrcf_indicator(disc, coeffs, variables, threshold)
    flagged &= disc.active_mask
    if flagged.any():
        n = int(flagged.sum())
        i, j = np.argwhere(flagged)[0]
        raise AssemblyError(
            f"background needs limiting: troubled-cell indicator fired on "
            f"{n} active background element(s) of the settled fine "
            f"solution, first at ({i}, {j}); the aligned patch does not "
            "enclose the whole shock system")


def save_checkpoint(path, discs, coeffs):
    """Write each block's vertices and coefficients as bit-exact float64
    ``vertices_<name>.npy`` and ``coeffs_<name>.npy``, and a
    ``checkpoint.json`` naming the blocks, in order, and the polynomial
    order."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for d, c in zip(discs, coeffs):
        for kind, a in (("vertices", d.block.vertices), ("coeffs", c)):
            np.save(path / f"{kind}_{d.block.name}.npy",
                    np.ascontiguousarray(a, dtype=np.float64))
    doc = {"order": discs[0].basis.order,
           "blocks": [d.block.name for d in discs]}
    (path / "checkpoint.json").write_text(json.dumps(doc, indent=1) + "\n")


def load_checkpoint(path, gas):
    """Rebuild the checkpointed blocks on the vertices their coefficients
    were computed on; returns ``(discs, coeffs)``.  A directory that
    cannot be read, or whose coefficients do not fit a block's grid,
    raises ``ConfigError`` naming it."""
    path = Path(path)
    discs, coeffs = [], []
    try:
        doc = json.loads((path / "checkpoint.json").read_text())
        basis = Basis(doc["order"])
        if not all(isinstance(name, str) for name in doc["blocks"]):
            raise ValueError("its blocks are not listed by name (the "
                             "layout without vertices)")
        for name in doc["blocks"]:
            block = mesh.GridBlock(np.load(path / f"vertices_{name}.npy"),
                                   name)
            c = np.load(path / f"coeffs_{name}.npy")
            if c.shape != (4, block.ni, block.nj, basis.n_modes):
                raise ValueError(f"block {name!r} has shape {c.shape}, "
                                 "incompatible with its grid")
            discs.append(Discretization(block, basis, gas))
            coeffs.append(c)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"restart checkpoint {path} is unusable: {exc}")
    return discs, coeffs


def run_fine(case, cfg, flag_pts, seed, *, on_log=None):
    """High-order two-grid solve with capturing confined to the patch.

    Builds the aligned patch around ``flag_pts``, the flagged cells'
    centroids, which must all lie inside it.  L2-projects ``seed`` -- a
    ``CompositeSampler`` over the coarse solution, or over the blocks of
    a restart checkpoint on their own vertices -- onto the background and
    the patch, and marches both.  Every stage the patch gets the
    indicator-gated limiter and both blocks the positivity guard; the
    background is never limited.  The stem is measured on the settled
    pair.  An empty ``flag_pts`` raises ``MeasurementError`` (no shock
    system detected) before anything is built.
    """
    ov_block = build_aligned_grid(case, cfg, flag_pts)
    # containment: every flagged coarse cell must lie inside the patch
    inside = points_in_footprint(ov_block, flag_pts)
    if not inside.all():
        x, y = flag_pts[~inside][0]
        raise AssemblyError(
            f"containment violated: flagged coarse cell at ({x:.3f}, "
            f"{y:.3f}) lies outside the aligned patch")
    basis = Basis(cfg["solver.fine_order"])
    bg = Discretization(build_wedge_grid(case, *case.fine_background_grid),
                        basis, case.gas, flux=cfg["solver.background_flux"],
                        bc_state=case.free_stream())
    ov = Discretization(ov_block, basis, case.gas,
                        flux=cfg["solver.overset_flux"],
                        bc_state=case.free_stream())
    discs = [bg, ov]
    assembly = OversetAssembly(
        bg, ov, hole_margin=cfg["overset.hole_margin"],
        fringe_width=cfg["overset.fringe_width"],
        ov_fringe_rings=cfg["overset.fringe_rings"])
    # the background gets the admissibility guard only, never a limiter
    stabs = [Stabilizer(mode="off", positivity=True),
             Stabilizer(mode="indicator", variables=INDICATOR_VARIABLES,
                        threshold=cfg["stabilization.threshold"],
                        tvb_m=cfg["stabilization.tvb_m"], positivity=True)]

    coeffs = [project_between(seed, d) for d in discs]
    march = _march_stage(cfg, "fine", discs, stabs, coeffs, on_log=on_log,
                         transfer=assembly.transfer)
    bg_repairs, ov_repairs = assembly.receiver_repairs
    invariants = {"background_guard_activations": stabs[0].guard_activations,
                  "overset_guard_activations": stabs[1].guard_activations,
                  "overset_limiter_activations": stabs[1].limited_cells,
                  "background_receiver_repairs": bg_repairs,
                  "overset_receiver_repairs": ov_repairs}
    _check_background_clean(bg, coeffs[0], INDICATOR_VARIABLES,
                            cfg["stabilization.threshold"])

    sampler = CompositeSampler(discs[::-1], coeffs[::-1])
    measurement = measure_stem(
        sampler, case,
        cell_size=math.sqrt(float(np.median(ov.geo.element_area))),
        n_lines=cfg["measurement.n_lines"], nx=cfg["measurement.nx"])
    return FineResult(discs, coeffs, assembly, march, measurement,
                      invariants, sampler)


# ---------------------------------------------------------------------------
# orchestration


HASH_SECTIONS = ("case", "solver", "stabilization", "overset", "measurement")


def run_key(cfg):
    """Stable digest of the physics-relevant configuration."""
    doc = {k: v for k, v in sorted(cfg.items())
           if k.split(".")[0] in HASH_SECTIONS}
    text = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class RunSummary:
    """A finished run: its directory, its ``result.json`` document, and
    whether it was reused from the cache."""

    run_dir: Path
    result: dict
    cached: bool

    @property
    def measurement(self):
        return self.result["measurement"]

    @property
    def checkpoint(self):
        return self.run_dir / CHECKPOINT_DIR


def _measurement_doc(measurement):
    """The measurement as ``result.json`` records it.  ``stem_cells`` is
    the stem height over the cell size the measurement resolved (null
    for RR), ``strip_min_mach`` the least Mach number behind the lowest
    line's front: a stem near one cell, or a lowest strip near Mach 1,
    reads RR or MR by resolution."""
    diag = measurement.diagnostics
    tp = measurement.triple_point
    return {"classification": measurement.classification,
            "stem_height_ratio": measurement.stem_height_ratio,
            "triple_point": list(tp) if tp else None,
            "stem_cells": tp[1] / diag["cell_size"] if tp else None,
            "strip_min_mach": float(diag["strip_min_mach"][0])}


def load_cached_run(run_dir):
    """The summary of the finished run in ``run_dir``; None when there is
    none to trust: no manifest, a manifest or ``result.json`` that does
    not parse, or an output that fails its checksum."""
    run_dir = Path(run_dir)
    try:
        _, problems = artifacts.verify_manifest(run_dir)
        if problems:
            return None
        res = json.loads((run_dir / "result.json").read_text())
    except (OSError, ValueError):
        return None
    return RunSummary(run_dir, res, True)


def run_pipeline(cfg, *, run_dir=None, reuse=True, on_log=None):
    """Execute (or reuse) one full coarse-to-fine wedge run.

    The run directory is keyed by a digest of the physics configuration;
    a directory holding a checksum-clean manifest is trusted and reused
    unless `reuse` is False.  An impulsive start seeds the fine stage
    from the coarse solution.  A restart (``case.init=restart:<dir>``)
    reads the checkpoint once, its blocks on the vertices stored with
    their coefficients, and seeds both stages from it, the refined patch
    taking priority where the checkpointed blocks overlap.  The fine
    stage's blocks are checkpointed the same way (``save_checkpoint``).
    """
    case = case_from_config(cfg)
    if run_dir is None:
        run_dir = Path(cfg["output.out_dir"]) / run_key(cfg)
    run_dir = Path(run_dir)
    if reuse:
        cached = load_cached_run(run_dir)
        if cached is not None:
            return cached
    run_dir.mkdir(parents=True, exist_ok=True)

    manifest = artifacts.RunManifest(run_dir, artifacts.case_to_params(case),
                                     {k: str(v) for k, v in cfg.items()})
    (run_dir / "config.ini").write_text(dump_config(cfg))
    manifest.record(run_dir / "config.ini")

    def log_stage(stage):
        def log(it, resid, wave, dt):
            if on_log:
                on_log(f"[{stage}] iter {it:6d}  resid {resid:.3e}  "
                       f"wave {wave:.2f}  dt {dt:.2e}")
        return log

    seed, seed_coeffs = None, None
    init = cfg["case.init"]
    if init.startswith("restart:"):
        discs, coeffs = load_checkpoint(init[len("restart:"):], case.gas)
        # the refined patch is the preferred donor where the blocks overlap
        seed = CompositeSampler(discs[::-1], coeffs[::-1])
        seed_coeffs = project_between(seed, _coarse_disc(case, cfg))

    coarse = run_coarse(case, cfg, seed_coeffs=seed_coeffs,
                        on_log=log_stage("coarse"))
    artifacts.write_residual_csv(run_dir / "coarse_residual.csv",
                                 coarse.march.history)
    manifest.record(run_dir / "coarse_residual.csv")
    artifacts.write_troubled_csv(run_dir / "troubled_cells.csv", "background",
                                 coarse.indicator, coarse.flagged)
    manifest.record(run_dir / "troubled_cells.csv")
    artifacts.write_shock_paths_json(run_dir / "shock_paths.json",
                                     coarse.segments)
    manifest.record(run_dir / "shock_paths.json")
    if cfg["output.vtk"]:
        artifacts.write_vtk(run_dir / "coarse.vtk", coarse.disc,
                            coarse.coeffs, case.gas,
                            title="coarse stage solution")
        manifest.record(run_dir / "coarse.vtk")

    if seed is None:
        seed = CompositeSampler([coarse.disc], [coarse.coeffs])
    fine = run_fine(case, cfg,
                    coarse.disc.block.element_centroids()[coarse.flagged],
                    seed, on_log=log_stage("fine"))
    artifacts.write_residual_csv(run_dir / "fine_residual.csv",
                                 fine.march.history)
    manifest.record(run_dir / "fine_residual.csv")
    artifacts.write_classification_csv(run_dir / "assembly.csv",
                                       fine.assembly)
    manifest.record(run_dir / "assembly.csv")
    if cfg["output.vtk"]:
        names = ["fine_background.vtk", "fine_overset.vtk"]
        for d, c, name in zip(fine.discs, fine.coeffs, names):
            artifacts.write_vtk(run_dir / name, d, c, case.gas,
                                title=f"fine stage {d.block.name}")
            manifest.record(run_dir / name)

    save_checkpoint(run_dir / CHECKPOINT_DIR, fine.discs, fine.coeffs)
    for p in sorted((run_dir / CHECKPOINT_DIR).iterdir()):
        manifest.record(p)

    geom = wedge_geometry(case)
    artifacts.write_field_slice_dat(
        run_dir / "wall_slice.dat", fine.sampler, case.gas,
        y=0.02, x_range=(0.0, case.length))
    manifest.record(run_dir / "wall_slice.dat")
    artifacts.write_field_slice_dat(
        run_dir / "mid_slice.dat", fine.sampler, case.gas,
        y=0.5 * geom["y_te"], x_range=(0.0, case.length))
    manifest.record(run_dir / "mid_slice.dat")

    result = {"measurement": _measurement_doc(fine.measurement),
              "invariants": fine.invariants,
              "coarse_outcome": coarse.march.outcome,
              "fine_outcome": fine.march.outcome,
              "coarse_iterations": coarse.march.iterations,
              "fine_iterations": fine.march.iterations,
              "coarse_residual": coarse.march.residual,
              "fine_residual": fine.march.residual,
              "coarse_time": coarse.march.time,
              "fine_time": fine.march.time}
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    manifest.record(run_dir / "result.json")
    manifest.finish()
    return RunSummary(run_dir, result, False)


def run_sweep(cfg, *, reuse=True, on_log=None):
    """Run every angle of ``sweep.angles_deg`` impulsively started and
    restart-seeded; returns rows ``(angle, impulsive, restart)``.

    The angles run once each in descending order, the impulsive branch
    first.  The restart branch starts from ``sweep.restart_seed`` or, when
    that is empty, from the largest angle's impulsive checkpoint, and
    seeds each later angle with the run before it.  An entry is the run's
    measurement document (``result.json``) or ``"error: ..."``: a failed
    run, one that detected no shock system included, is recorded and the
    sweep goes on, but it seeds nothing.
    """
    angles = sorted(set(cfg["sweep.angles_deg"]), reverse=True)
    if not angles:
        raise ConfigError("no sweep angles given: set --angles or config "
                          "key 'sweep.angles_deg'")

    def run(angle, init):
        try:
            summary = run_pipeline(dict(cfg, **{"case.wedge_angle_deg": angle,
                                                "case.init": init}),
                                   reuse=reuse, on_log=on_log)
        except Exception as exc:               # recorded, sweep continues
            return f"error: {exc}", None
        return summary.measurement, summary.checkpoint

    impulsive, checkpoints = zip(*(run(a, "impulsive") for a in angles))
    seed = cfg["sweep.restart_seed"] or checkpoints[0]
    restart = []
    for a in angles:
        entry, seed = (run(a, f"restart:{seed}") if seed is not None
                       else ("error: no seed solution available", None))
        restart.append(entry)
    return list(zip(angles, impulsive, restart))
