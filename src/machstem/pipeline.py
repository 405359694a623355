"""Two-stage wedge-flow pipeline.

Stage one marches a low-order solution on the background channel grid
until the shock system stops moving; the troubled-cell indicator then
marks exactly the cells the shocks cross.  Stage two fits straight-line
paths through those cells, builds a refined overset patch whose grid
lines follow the shock band, and re-converges at high order with the
shock-capturing machinery confined to the patch.  The orchestrator
wraps both stages with artifact writing, a checksummed manifest, and a
config-keyed run cache.
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
from .timestepping import (System, load_checkpoint, march_to_steady,
                           save_checkpoint)
from .wedge import (FlowCase, StemMeasurement, build_wedge_grid, measure_stem,
                    top_profile, wedge_geometry)

CHECKPOINT_DIR = "checkpoint"
OVERSET_GRID_FILE = "overset.grid"


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

    label: str
    start: tuple          # leftmost endpoint (x, y)
    end: tuple
    angle_deg: float      # from the +x axis, in (-90, 90]
    n_points: int
    rms: float
    point: tuple          # TLS line: point + t * direction
    direction: tuple

    def intersect(self, other):
        mat = np.array([self.direction, [-other.direction[0],
                                         -other.direction[1]]]).T
        rhs = np.array(other.point) - np.array(self.point)
        if abs(np.linalg.det(mat)) < 1e-12:
            return None
        t = np.linalg.solve(mat, rhs)
        p = np.array(self.point) + t[0] * np.array(self.direction)
        return (float(p[0]), float(p[1]))


def _segment_from_inliers(pts, label=""):
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
    return ShockSegment(label, (float(lo[0]), float(lo[1])),
                        (float(hi[0]), float(hi[1])), ang, len(pts), rms,
                        (float(ctr[0]), float(ctr[1])),
                        (float(direction[0]), float(direction[1])))


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
                    inlier_tol=2.5, gap_cells=5.0, seed=0, case=None):
    """Extract straight shock paths from flagged-cell centroids.

    Runs a deterministic (fixed-seed) sequential line search: repeatedly
    find the line with the most centroids within ``inlier_tol`` cell
    sizes in one contiguous run (gaps beyond ``gap_cells`` cells split a
    candidate), refine it by total least squares, claim its inliers, and
    continue until the remaining cells support no further line.  With a
    flow case given, segments are labeled by slope and position
    (incident / reflected / stem / slipline), otherwise "front".
    Returns [] for an empty flag map.
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
    _label_segments(segments, case, cell_size)
    return segments


def _label_segments(segments, case, cell_size):
    if case is None:
        for s in segments:
            s.label = s.label or "front"
        return
    geom = wedge_geometry(case)
    incident = None
    for s in segments:
        from_vertical = 90.0 - abs(s.angle_deg)
        low_y = min(s.start[1], s.end[1])
        if from_vertical <= 15.0 and low_y <= 4.0 * cell_size:
            s.label = "stem"
        elif s.angle_deg < -5.0:
            # descending left-to-right; the one rooted nearest the wedge
            # leading edge is the incident shock
            d_le = math.hypot(s.start[0] - geom["x_le"], s.start[1] - 1.0)
            if incident is None or d_le < incident[0]:
                if incident is not None:
                    incident[1].label = "front"
                incident = (d_le, s)
                s.label = "incident"
            else:
                s.label = "front"
        elif s.angle_deg > 5.0:
            s.label = "reflected"
        else:
            s.label = "slipline"


# ---------------------------------------------------------------------------
# coarse stage


@dataclass
class CoarseResult:
    disc: object
    coeffs: object
    march: object
    indicator: object
    flagged: object
    segments: list
    cell_size: float


def _march_config(cfg, stage):
    return dict(cfl=cfg["solver.cfl"],
                cfl_start=cfg["solver.cfl_start"],
                cfl_ramp_iters=cfg["solver.cfl_ramp_iters"],
                tol=cfg[f"solver.{stage}_tol"],
                max_iterations=cfg[f"solver.{stage}_max_iterations"],
                stall_window=cfg["solver.stall_window"],
                log_every=cfg["solver.log_every"])


def _coarse_disc(case, cfg):
    block = build_wedge_grid(case, *case.coarse_grid)
    return Discretization(block, Basis(cfg["solver.coarse_order"]), case.gas,
                          flux=cfg["solver.background_flux"],
                          bc_state=case.free_stream())


def run_coarse(case, cfg, *, seed_coeffs=None, on_log=None):
    """Low-order shock-locating solve on the background channel grid.

    Marches with the slope limiter active in every element (the stage
    only has to survive the impulsive start and park the shock system);
    the flag map is then recomputed on the settled solution and the
    fitted paths feed the aligned-patch construction.
    """
    disc = _coarse_disc(case, cfg)
    stab = Stabilizer(mode="always",
                      variables=_indicator_vars(cfg),
                      threshold=cfg["stabilization.threshold"],
                      tvb_m=cfg["stabilization.tvb_m"], positivity=True)
    system = System([disc], limiter=make_limiter_hook([disc], [stab]))
    if seed_coeffs is None:
        coeffs = disc.project_constant(case.free_stream())
    else:
        coeffs = seed_coeffs
    march = march_to_steady(system, [coeffs], on_log=on_log,
                            **_march_config(cfg, "coarse"))
    if march.outcome == "diverged":
        raise DivergenceError(
            f"coarse stage diverged after {march.iterations} iterations "
            f"(residual {march.residual:.3e})")
    # refresh the flag map on the settled solution; the placement scan
    # flags at a lower bar than the limiter so the smeared downstream
    # leg of the shock still registers
    ind, flagged = kxrcf_indicator(disc, coeffs, _indicator_vars(cfg),
                                   cfg["stabilization.flag_threshold"])
    cell = math.sqrt(float(np.median(disc.geo.element_area)))
    segments = fit_shock_paths(disc.block.element_centroids()[flagged], cell,
                               case=case)
    return CoarseResult(disc, coeffs, march, ind, flagged, segments, cell)


def _indicator_vars(cfg):
    names = {"density": 0, "momentum_x": 1, "momentum_y": 2, "energy": 3}
    try:
        return tuple(names[v] for v in
                     cfg["stabilization.indicator_variables"])
    except KeyError as exc:
        raise ConfigError(
            f"config key 'stabilization.indicator_variables' names an "
            f"unknown variable {exc.args[0]!r} (choose from "
            f"{sorted(names)})")


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


def build_aligned_grid(case, cfg, flag_points, segments=None):
    """Refined patch following the shock band, fitted to the flag map.

    The patch's cross-stream grid lines are x = const stations. Its
    lengthwise family follows the band's midline, the binned and
    smoothed middle height of the flagged centroids at each station, not
    any shock path: the incident shock of the 24 deg case, at about 43 deg
    to the wall, crosses both families obliquely.  The upper and lower edges offset the
    midline far enough to enclose every flagged cell plus a margin,
    clipped to the channel walls.  Past the flagged band
    the patch widens to the full channel section and runs to the exit:
    the reflected shock and the slip layers keep going downstream of
    where the locating grid can still flag them, and every discontinuity
    has to leave through a physical boundary of the patch, never through
    an interface into the (unlimited) background.  Raises if a fitted
    segment leaves the flow domain.
    """
    pts = np.asarray(flag_points, float).reshape(-1, 2)
    if len(pts) == 0:
        return None
    geom = wedge_geometry(case)
    ni, nj = case.overset_grid
    h = math.sqrt((case.length / case.coarse_grid[0]) *
                  (1.0 / case.coarse_grid[1]))
    # endpoints come from centroid projections, which may overhang a
    # boundary by a fraction of a cell; only a clear excursion is a
    # fitting failure
    for s in segments or []:
        for p in (s.start, s.end):
            if not (-h <= p[0] <= case.length + h and
                    -h <= p[1] <= 1.0 + h):
                raise AssemblyError(
                    f"fitted shock path segment '{s.label}' leaves the flow "
                    f"domain at ({p[0]:.3f}, {p[1]:.3f})")
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
    return finish_patch(verts, case, name="overset")


def finish_patch(verts, case, name="overset"):
    """Tag a patch's boundary faces: wall/inflow/outflow where they lie on
    the channel boundary, interface elsewhere."""
    geom = wedge_geometry(case)
    ni, nj = verts.shape[0] - 1, verts.shape[1] - 1
    tol = 1e-8

    def on_bottom(p):
        return abs(p[1]) <= tol

    def on_top(p):
        return abs(p[1] - float(top_profile(case, p[0]))) <= tol

    tags = {}
    south = np.full(ni, mesh.TAG_INTERFACE)
    north = np.full(ni, mesh.TAG_INTERFACE)
    for i in range(ni):
        a, b = verts[i, 0], verts[i + 1, 0]
        if on_bottom(a) and on_bottom(b) and on_bottom(0.5 * (a + b)):
            south[i] = mesh.TAG_WALL
        a, b = verts[i, nj], verts[i + 1, nj]
        m = 0.5 * (a + b)
        if on_top(a) and on_top(b) and on_top(m):
            north[i] = (mesh.TAG_WALL if m[0] < geom["x_te"] - tol
                        else mesh.TAG_OUTFLOW)
    tags[mesh.FACE_S], tags[mesh.FACE_N] = south, north
    tags[mesh.FACE_W] = (mesh.TAG_INFLOW if abs(verts[0, 0, 0]) <= tol
                         else mesh.TAG_INTERFACE)
    tags[mesh.FACE_E] = (mesh.TAG_OUTFLOW
                         if abs(verts[ni, 0, 0] - case.length) <= tol
                         else mesh.TAG_INTERFACE)
    return mesh.GridBlock(verts, name=name, tags=tags)


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
    cell_size: float


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


def _fine_discs(case, cfg, ov_block):
    order = cfg["solver.fine_order"]
    bg_block = build_wedge_grid(case, *case.fine_background_grid)
    bg = Discretization(bg_block, Basis(order), case.gas,
                        flux=cfg["solver.background_flux"],
                        bc_state=case.free_stream())
    discs = [bg]
    if ov_block is not None:
        discs.append(Discretization(ov_block, Basis(order), case.gas,
                                    flux=cfg["solver.overset_flux"],
                                    bc_state=case.free_stream()))
    return discs


def save_fine_checkpoint(path, case, discs, coeffs):
    """Checkpoint with enough sidecar data to rebuild the grids."""
    path = Path(path)
    names = [d.block.name for d in discs]
    meta = {"case": artifacts.case_to_params(case),
            "order": discs[0].basis.order}
    save_checkpoint(str(path), coeffs, names, meta)
    for d in discs:
        if d.block.name == "overset":
            d.block.write(path / OVERSET_GRID_FILE)


def load_fine_checkpoint(path, gas):
    """Rebuild the checkpointed discretizations and coefficients."""
    path = Path(path)
    try:
        coeffs, meta = load_checkpoint(str(path))
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"restart checkpoint {path} is unusable: {exc}")
    params = dict(meta["case"])
    for k in ("coarse_grid", "fine_background_grid", "overset_grid"):
        params[k] = tuple(params[k])
    src_case = FlowCase(gas=gas, **params)
    basis = Basis(meta["order"])
    discs = []
    for entry in meta["blocks"]:
        if entry["name"] == "overset":
            block = mesh.GridBlock.read(path / OVERSET_GRID_FILE,
                                        name="overset")
        else:
            block = build_wedge_grid(src_case,
                                     *src_case.fine_background_grid)
        d = Discretization(block, basis, gas, bc_state=src_case.free_stream())
        discs.append(d)
    for d, c in zip(discs, coeffs):
        if c.shape != (4, d.block.ni, d.block.nj, basis.n_modes):
            raise ConfigError(
                f"restart checkpoint {path} block {d.block.name!r} has "
                f"shape {c.shape}, incompatible with its grid")
    return discs, coeffs


def run_fine(case, cfg, coarse, seed, *, on_log=None):
    """High-order two-grid solve with capturing confined to the patch.

    Builds the aligned patch from the coarse flag map (or reads it from
    ``overset.grid_file``), L2-projects ``seed`` -- a ``CompositeSampler``
    over the coarse solution, or over a restart checkpoint -- onto the
    background and the patch, and marches both.  Every stage the patch
    gets the indicator-gated limiter and both blocks the positivity
    guard; the background is never limited.  With no flagged cell there
    is no patch: the background marches alone and nothing is measured.
    """
    flag_pts = coarse.disc.block.element_centroids()[coarse.flagged]
    grid_file = cfg["overset.grid_file"]
    if grid_file:
        ov_block = mesh.GridBlock.read(grid_file, name="overset")
        ov_block = finish_patch(ov_block.vertices, case, name="overset")
    else:
        ov_block = build_aligned_grid(case, cfg, flag_pts, coarse.segments)
    discs = _fine_discs(case, cfg, ov_block)

    # the background gets the admissibility guard only, never a limiter
    stabs = [Stabilizer(mode="off", positivity=True)]
    assembly = None
    if ov_block is not None:
        # containment: every flagged coarse cell must lie inside the patch
        inside = points_in_footprint(ov_block, flag_pts)
        if not inside.all():
            x, y = flag_pts[~inside][0]
            raise AssemblyError(
                f"containment violated: flagged coarse cell at ({x:.3f}, "
                f"{y:.3f}) lies outside the aligned patch")
        assembly = OversetAssembly(
            discs[0], discs[1], hole_margin=cfg["overset.hole_margin"],
            fringe_width=cfg["overset.fringe_width"],
            ov_fringe_rings=cfg["overset.fringe_rings"])
        stabs.append(Stabilizer(mode="indicator",
                                variables=_indicator_vars(cfg),
                                threshold=cfg["stabilization.threshold"],
                                tvb_m=cfg["stabilization.tvb_m"],
                                positivity=True))

    system = System(discs,
                    transfer=None if assembly is None else assembly.transfer,
                    limiter=make_limiter_hook(discs, stabs))
    coeffs = [project_between(seed, d) for d in discs]
    march = march_to_steady(system, coeffs, on_log=on_log,
                            **_march_config(cfg, "fine"))
    if march.outcome == "diverged":
        raise DivergenceError(
            f"fine stage diverged after {march.iterations} iterations "
            f"(residual {march.residual:.3e})")
    invariants = {"background_guard_activations": stabs[0].guard_activations}
    if assembly is not None:
        invariants["overset_guard_activations"] = stabs[1].guard_activations
        invariants["overset_limiter_activations"] = stabs[1].limited_cells
    _check_background_clean(discs[0], coeffs[0], _indicator_vars(cfg),
                            cfg["stabilization.threshold"])

    cell = math.sqrt(float(np.median(discs[-1].geo.element_area)))
    measurement = None
    if assembly is not None:
        measurement = measure_stem(
            CompositeSampler(discs[::-1], coeffs[::-1]), case,
            cell_size=cell, n_lines=cfg["measurement.n_lines"],
            nx=cfg["measurement.nx"])
    return FineResult(discs, coeffs, assembly, march, measurement,
                      invariants, cell)


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
    run_dir: Path
    measurement: dict
    invariants: dict
    coarse_outcome: str
    fine_outcome: str
    cached: bool

    @property
    def checkpoint(self):
        return self.run_dir / CHECKPOINT_DIR


def _measurement_doc(measurement):
    if measurement is None:
        return {"classification": "none"}
    return {"classification": measurement.classification,
            "stem_height_ratio": measurement.stem_height_ratio,
            "triple_point": (list(measurement.triple_point)
                             if measurement.triple_point else None)}


def load_cached_run(run_dir):
    run_dir = Path(run_dir)
    if not (run_dir / "manifest.json").is_file():
        return None
    doc, problems = artifacts.verify_manifest(run_dir)
    if problems:
        return None
    res = json.loads((run_dir / "result.json").read_text())
    return RunSummary(run_dir, res["measurement"], res["invariants"],
                      res["coarse_outcome"], res["fine_outcome"], True)


def run_pipeline(cfg, *, run_dir=None, reuse=True, on_log=None):
    """Execute (or reuse) one full coarse-to-fine wedge run.

    The run directory is keyed by a digest of the physics configuration;
    a directory holding a checksum-clean manifest is trusted and reused
    unless `reuse` is False.  An impulsive start seeds the fine stage
    from the coarse solution.  A restart (``case.init=restart:<dir>``)
    reads the checkpoint once and seeds both stages from it, the refined
    patch taking priority where the checkpointed blocks overlap.
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
    if case.restart_path is not None:
        discs, coeffs = load_fine_checkpoint(case.restart_path, case.gas)
        # the refined patch is the preferred donor where the blocks overlap
        seed = CompositeSampler(discs[::-1], coeffs[::-1])
        seed_coeffs = project_between(seed, _coarse_disc(case, cfg))

    coarse = run_coarse(case, cfg, seed_coeffs=seed_coeffs,
                        on_log=log_stage("coarse"))
    artifacts.write_residual_csv(run_dir / "coarse_residual.csv",
                                 coarse.march.history)
    manifest.record(run_dir / "coarse_residual.csv")
    artifacts.write_troubled_csv(
        run_dir / "troubled_cells.csv",
        [("background", coarse.indicator, coarse.flagged)])
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
    fine = run_fine(case, cfg, coarse, seed, on_log=log_stage("fine"))
    artifacts.write_residual_csv(run_dir / "fine_residual.csv",
                                 fine.march.history)
    manifest.record(run_dir / "fine_residual.csv")
    if fine.assembly is not None:
        artifacts.write_classification_csv(run_dir / "assembly.csv",
                                           fine.assembly)
        manifest.record(run_dir / "assembly.csv")
    if cfg["output.vtk"]:
        names = ["fine_background.vtk", "fine_overset.vtk"]
        for d, c, name in zip(fine.discs, fine.coeffs, names):
            artifacts.write_vtk(run_dir / name, d, c, case.gas,
                                title=f"fine stage {d.block.name}")
            manifest.record(run_dir / name)

    save_fine_checkpoint(run_dir / CHECKPOINT_DIR, case, fine.discs,
                         fine.coeffs)
    for p in sorted((run_dir / CHECKPOINT_DIR).iterdir()):
        manifest.record(p)

    sampler = CompositeSampler([d for d in reversed(fine.discs)],
                               [c for c in reversed(fine.coeffs)])
    geom = wedge_geometry(case)
    artifacts.write_field_slice_dat(
        run_dir / "wall_slice.dat", sampler, case.gas,
        y=0.02, x_range=(0.0, case.length))
    manifest.record(run_dir / "wall_slice.dat")
    artifacts.write_field_slice_dat(
        run_dir / "mid_slice.dat", sampler, case.gas,
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
    return RunSummary(run_dir, result["measurement"], fine.invariants,
                      coarse.march.outcome, fine.march.outcome, False)


def make_sweep_runner(base_cfg, *, reuse=True, on_log=None):
    """Adapter running one sweep angle through the cached pipeline."""
    def runner(angle_deg, restart_from):
        cfg = dict(base_cfg)
        cfg["case.wedge_angle_deg"] = angle_deg
        cfg["case.init"] = ("impulsive" if restart_from is None
                            else f"restart:{restart_from}")
        summary = run_pipeline(cfg, reuse=reuse, on_log=on_log)
        m = summary.measurement
        if m["classification"] == "none":
            raise MeasurementError("no shock system detected")
        tp = m.get("triple_point")
        meas = StemMeasurement(m["classification"],
                               m.get("stem_height_ratio"),
                               tuple(tp) if tp else None, {})
        return meas, str(summary.checkpoint)
    return runner
