"""Wedge-in-channel flow cases: geometry, initial states, measurement.

The configuration is a planar channel of unit height with a slip wall at
y=0 and a wedge hanging from the top boundary.  The wedge leading edge
sits at (x_le, 1); its surface has length `aspect` (in units of the
channel height) and is inclined by `wedge_angle_deg` into the oncoming
supersonic stream, ending at a trailing-edge shoulder behind which the
top boundary opens to outflow.  The incident oblique shock generated by
the wedge reflects off the bottom wall either regularly (RR) or through
a Mach stem (MR); `measure_stem` classifies a computed flow field and
extracts the stem height.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import mesh
from .errors import ConfigError, MeasurementError
from .gas import GasModel, free_stream

X_LE_FACTOR = 0.4          # leading edge position in channel heights
CHANNEL_HEIGHT = 1.0


@dataclass
class FlowCase:
    """Parameters selecting one wedge flow configuration."""

    mach: float
    wedge_angle_deg: float
    aspect: float = 1.0                 # wedge surface length / channel height
    init_mode: str = "impulsive"        # "impulsive" or "restart:<checkpoint>"
    domain_length_factor: float = 3.0   # channel length / channel height
    coarse_grid: tuple = (200, 100)     # background elements (ni, nj)
    fine_background_grid: tuple = (100, 50)
    overset_grid: tuple = (96, 64)      # shock-aligned patch elements
    gas: GasModel = field(default_factory=GasModel)

    def __post_init__(self):
        if not self.mach > 1.0:
            raise ConfigError(f"mach must exceed 1 (got {self.mach})")
        if not 0.0 <= self.wedge_angle_deg < 45.0:
            raise ConfigError(
                f"wedge_angle_deg must lie in [0, 45) (got {self.wedge_angle_deg})")
        if not self.aspect > 0.0:
            raise ConfigError(f"aspect must be positive (got {self.aspect})")
        if not self.domain_length_factor > 0.0:
            raise ConfigError("domain_length_factor must be positive "
                              f"(got {self.domain_length_factor})")
        mode = self.init_mode
        if mode != "impulsive" and not (mode.startswith("restart:") and
                                        mode[len("restart:"):]):
            raise ConfigError(
                f"init_mode must be 'impulsive' or 'restart:<path>' (got {mode!r})")
        geom = wedge_geometry(self)   # validates the wedge fits the channel
        if geom["x_te"] >= self.length:
            raise ConfigError(
                "wedge trailing edge lies beyond the channel exit "
                f"(x_te={geom['x_te']:.3f} >= L={self.length:.3f})")

    @property
    def length(self):
        return self.domain_length_factor * CHANNEL_HEIGHT

    @property
    def restart_path(self):
        if self.init_mode.startswith("restart:"):
            return self.init_mode[len("restart:"):]
        return None

    def free_stream(self):
        return free_stream(self.mach, self.gas)


def wedge_geometry(case):
    """Key points of the wedge profile; errors if the tip dips below y=0."""
    theta = math.radians(case.wedge_angle_deg)
    w = case.aspect * CHANNEL_HEIGHT
    x_le = X_LE_FACTOR * CHANNEL_HEIGHT
    x_te = x_le + w * math.cos(theta)
    y_te = CHANNEL_HEIGHT - w * math.sin(theta)
    if y_te <= 0.0:
        raise ConfigError(
            "geometry overflow: wedge trailing edge at "
            f"y={y_te:.3f} is not above the reflecting wall")
    return {"x_le": x_le, "x_te": x_te, "y_te": y_te, "surface_length": w}


def top_profile(case, x):
    """Height of the top boundary at station x (vectorized)."""
    geom = wedge_geometry(case)
    x = np.asarray(x, float)
    theta = math.radians(case.wedge_angle_deg)
    y = np.full(x.shape, CHANNEL_HEIGHT)
    on_wedge = x > geom["x_le"]
    y = np.where(on_wedge,
                 CHANNEL_HEIGHT - (x - geom["x_le"]) * math.tan(theta), y)
    return np.maximum(y, geom["y_te"])


def _station_array(case, ni):
    """x stations for `ni` columns with vertices snapped onto the wedge kinks."""
    geom = wedge_geometry(case)
    breaks = [0.0, geom["x_le"], geom["x_te"], case.length]
    if case.wedge_angle_deg == 0.0:
        # degenerate: no kinks, plain uniform channel
        return np.linspace(0.0, case.length, ni + 1)
    lengths = np.diff(breaks)
    # distribute columns proportionally, at least one per segment
    counts = np.maximum(1, np.round(ni * lengths / lengths.sum()).astype(int))
    while counts.sum() > ni:
        counts[np.argmax(counts)] -= 1
    while counts.sum() < ni:
        counts[np.argmin(counts / lengths)] += 1
    xs = [np.linspace(breaks[k], breaks[k + 1], counts[k] + 1)[:-1]
          for k in range(3)]
    return np.concatenate(xs + [[case.length]])


def build_wedge_grid(case, ni=None, nj=None, name="background"):
    """Sheared structured grid fitted to the channel-with-wedge profile.

    Vertices land exactly on the wedge leading and trailing edges so
    every top face lies on the true boundary.  Top-side faces are walls
    up to the trailing edge and outflow behind the shoulder.
    """
    if ni is None or nj is None:
        ni, nj = case.coarse_grid
    geom = wedge_geometry(case)
    x1 = _station_array(case, ni)
    y_top = top_profile(case, x1)
    eta = np.linspace(0.0, 1.0, nj + 1)
    verts = np.empty((ni + 1, nj + 1, 2))
    verts[:, :, 0] = x1[:, None]
    verts[:, :, 1] = eta[None, :] * y_top[:, None]

    xmid = 0.5 * (x1[:-1] + x1[1:])
    top_tags = np.where(xmid < geom["x_te"] - 1e-12,
                        mesh.TAG_WALL, mesh.TAG_OUTFLOW)
    return mesh.GridBlock(verts, name=name, tags={
        mesh.FACE_W: mesh.TAG_INFLOW, mesh.FACE_E: mesh.TAG_OUTFLOW,
        mesh.FACE_S: mesh.TAG_WALL, mesh.FACE_N: top_tags})


# ---------------------------------------------------------------------------
# shock-front measurement


@dataclass
class StemMeasurement:
    """Outcome of classifying a computed wedge flow."""

    classification: str                 # "RR" or "MR"
    stem_height_ratio: float | None     # stem height / channel height; None for RR
    triple_point: tuple | None          # (x, y) of incident/stem junction
    diagnostics: dict

    def __post_init__(self):
        if self.classification == "RR":
            assert self.stem_height_ratio is None
        else:
            assert self.stem_height_ratio is not None and self.stem_height_ratio > 0


def _front_points(sampler, case, y_lines, nx, x_lo, x_hi, grad_floor):
    """Leftmost strong density-gradient station on each horizontal line."""
    xs = np.linspace(x_lo, x_hi, nx)
    dx = xs[1] - xs[0]
    pts, strengths = [], []
    for y in y_lines:
        line = np.stack([xs, np.full(nx, y)], axis=1)
        rho = sampler.density(line)
        grad = np.abs(np.gradient(rho, dx))
        floor = grad_floor * (rho.max() - rho.min()) / (x_hi - x_lo)
        peaks = np.where((grad[1:-1] >= grad[:-2]) & (grad[1:-1] > grad[2:]) &
                         (grad[1:-1] > floor))[0] + 1
        if len(peaks) == 0:
            continue
        k = peaks[0]                      # leftmost: incident shock or stem
        # parabolic sub-cell refinement of the peak position
        g0, g1, g2 = grad[k - 1], grad[k], grad[k + 1]
        denom = g0 - 2.0 * g1 + g2
        shift = 0.5 * (g0 - g2) / denom if abs(denom) > 1e-300 else 0.0
        pts.append((xs[k] + np.clip(shift, -1, 1) * dx, y))
        strengths.append(g1)
    return np.array(pts), np.array(strengths)


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


def _angle_from_vertical_deg(direction):
    return math.degrees(math.atan2(abs(direction[0]), abs(direction[1])))


def measure_stem(sampler, case, *, cell_size, n_lines=120, nx=1200,
                 vertical_tol_deg=10.0, grad_floor=0.05):
    """Classify the reflection pattern and measure the Mach-stem height.

    The shock front is traced as the locus of maximum density gradient
    along horizontal sampling lines.  A Mach reflection is identified by
    a near-vertical front segment (within `vertical_tol_deg` of vertical)
    meeting the reflecting surface; the triple point is the intersection
    of the fitted incident and stem lines and its height is the stem
    height.  If the incident and reflected shocks meet at the wall within
    one overset cell (`cell_size`), the pattern is a regular reflection.
    """
    geom = wedge_geometry(case)
    y_hi = 0.85 * geom["y_te"]
    y_lines = np.linspace(0.01 * CHANNEL_HEIGHT, y_hi, n_lines)
    x_hi = min(case.length, geom["x_te"] + 0.6)
    pts, strengths = _front_points(sampler, case, y_lines, nx,
                                   geom["x_le"], x_hi, grad_floor)
    diag = {"front_points": pts, "peak_gradients": strengths}
    if len(pts) < max(8, n_lines // 3):
        raise MeasurementError(
            f"shock front detected on only {len(pts)} of {n_lines} sampling "
            "lines; the flow is likely unconverged", diagnostics=diag)

    order = np.argsort(pts[:, 1])
    pts = pts[order]

    # Two-piece fit: choose the split height minimizing total residual.
    best = None
    for split in range(4, len(pts) - 4):
        lo, hi = pts[:split], pts[split:]
        _, d_lo, r_lo = tls_line(lo)
        _, d_hi, r_hi = tls_line(hi)
        sse = r_lo ** 2 * len(lo) + r_hi ** 2 * len(hi)
        if best is None or sse < best[0]:
            best = (sse, split, d_lo, d_hi)
    _, split, d_lo, d_hi = best
    lo, hi = pts[:split], pts[split:]
    c_lo, d_lo, r_lo = tls_line(lo)
    c_hi, d_hi, r_hi = tls_line(hi)
    ang_lo = _angle_from_vertical_deg(d_lo)
    ang_hi = _angle_from_vertical_deg(d_hi)
    diag.update(split_height=float(pts[split, 1]),
                lower_angle_from_vertical_deg=ang_lo,
                upper_angle_from_vertical_deg=ang_hi,
                lower_rms=r_lo, upper_rms=r_hi)

    one_line, d_all, r_all = tls_line(pts)
    diag["single_line_rms"] = r_all

    def height_at_wall_intersection():
        # intersection of the two fitted lines
        mat = np.stack([d_lo, -d_hi], axis=1)
        if abs(np.linalg.det(mat)) < 1e-12:
            return None
        t = np.linalg.solve(mat, c_hi - c_lo)
        return c_lo + t[0] * d_lo

    stem_like = ang_lo <= vertical_tol_deg and ang_hi > vertical_tol_deg
    if stem_like:
        tp = height_at_wall_intersection()
        if tp is None or not (0.0 < tp[1] < y_hi):
            raise MeasurementError(
                "incident and stem fits do not intersect inside the "
                "measurement window", diagnostics=diag)
        h_m = float(tp[1])
        if h_m <= cell_size:
            # front kink is within one overset cell of the wall: the
            # incident and reflected shocks meet at the surface
            return StemMeasurement("RR", None, None, diag)
        return StemMeasurement("MR", h_m / CHANNEL_HEIGHT,
                               (float(tp[0]), float(tp[1])), diag)

    straight = r_all < 2.0 * cell_size and ang_hi > vertical_tol_deg
    if straight or (ang_lo > vertical_tol_deg and ang_hi > vertical_tol_deg):
        # single oblique front running to the wall: regular reflection
        return StemMeasurement("RR", None, None, diag)

    raise MeasurementError(
        "ambiguous reflection pattern: lower segment "
        f"{ang_lo:.1f} deg and upper segment {ang_hi:.1f} deg from vertical",
        diagnostics=diag)


# ---------------------------------------------------------------------------
# dual-mode angle sweep


@dataclass
class SweepRow:
    angle_deg: float
    impulsive: str          # "RR", stem ratio as str, or "error: ..."
    restart: str


def _row_entry(measurement):
    if measurement.classification == "RR":
        return "RR"
    return f"{measurement.stem_height_ratio:.4f}"


def hysteresis_sweep(runner, angles_deg, *, restart_seed=None, chain=True):
    """Run every angle twice: impulsively started and restart-seeded.

    `runner(angle_deg, restart_from)` converges one case and returns
    `(measurement, checkpoint_path)`; `restart_from` is None for an
    impulsive start.  The restart branch walks the angles in descending
    order; with `chain=True` (default) each case is seeded with the
    previous (larger-angle) converged solution, otherwise every case
    restarts from the same fixed seed.  The seed is the largest angle's
    impulsive solution unless `restart_seed` (a checkpoint path) is
    given.  Failures are recorded in the table and the sweep continues.
    """
    angles = sorted(set(float(a) for a in angles_deg), reverse=True)
    rows = {a: SweepRow(a, "", "") for a in angles}

    impulsive_ckpt = {}
    for a in angles:
        try:
            meas, ckpt = runner(a, None)
            rows[a].impulsive = _row_entry(meas)
            impulsive_ckpt[a] = ckpt
        except Exception as exc:               # recorded, sweep continues
            rows[a].impulsive = f"error: {exc}"

    if restart_seed is None:
        restart_seed = impulsive_ckpt.get(angles[0])
    prev = restart_seed
    for a in angles:
        if prev is None:
            rows[a].restart = "error: no seed solution available"
            continue
        try:
            meas, ckpt = runner(a, prev)
            rows[a].restart = _row_entry(meas)
            if chain:
                prev = ckpt
        except Exception as exc:
            rows[a].restart = f"error: {exc}"
            if chain:
                prev = None

    return [rows[a] for a in angles]


def sweep_table_csv(rows):
    lines = ["wedge_angle_deg,impulsive_start,restart_chain"]
    for r in rows:
        lines.append(f"{r.angle_deg:.2f},{r.impulsive},{r.restart}")
    return "\n".join(lines) + "\n"
