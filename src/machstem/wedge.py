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

`measure_stem` reads the Mach number just behind the front, the
textbook criterion (Hornung & Robinson, JFM 123:155, 1982; Ben-Dor,
*Shock Wave Reflection Phenomena*, 2nd ed., 2007): it is subsonic behind
a Mach stem (0.475 behind a normal shock at M=3) and supersonic behind
both shocks of a regular reflection (1.586 at M=3 and 16 deg). No line
is fitted.

- The front on a line is the leftmost gradient peak of at least half
  the line's largest. A lower floor picks up the ripples ahead of a
  captured shock: on a 24 deg coarse state one 3 cells upstream, at 3 %
  of the shock's peak. Half still keeps the incident shock ahead of the
  reflected one, whose density jump it is 0.58-0.86 of at M=3 and
  16-24 deg.
- The strip tested is 4 cells long: a captured or projected shock is
  smeared over one to two cells, and the strip must reach the state
  behind it. Near the wall of an RR it may cross the reflected shock,
  behind which the flow is supersonic too.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import mesh
from .config import GRID_RULE, valid_grid
from .errors import ConfigError, MeasurementError
from .gas import GasModel, free_stream, pressure, sound_speed

X_LE_FACTOR = 0.4          # leading edge position in channel heights
CHANNEL_HEIGHT = 1.0
# measure_stem's front peak floor and strip length (module docstring)
FRONT_FRACTION = 0.5
STRIP_CELLS = 4.0


@dataclass
class FlowCase:
    """Parameters selecting one wedge flow configuration."""

    mach: float
    wedge_angle_deg: float
    aspect: float = 1.0                 # wedge surface length / channel height
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
        for name in ("coarse_grid", "fine_background_grid", "overset_grid"):
            grid = getattr(self, name)
            if not valid_grid(grid):
                raise ConfigError(f"{name} must be {GRID_RULE} (got {grid})")
        geom = wedge_geometry(self)   # validates the wedge fits the channel
        if geom["x_te"] >= self.length:
            raise ConfigError(
                "wedge trailing edge lies beyond the channel exit "
                f"(x_te={geom['x_te']:.3f} >= L={self.length:.3f})")

    @property
    def length(self):
        return self.domain_length_factor * CHANNEL_HEIGHT

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


def build_wedge_grid(case, ni, nj):
    """Sheared ``ni`` x ``nj`` grid, the ``background`` block, fitted to
    the channel-with-wedge profile.

    Vertices land exactly on the wedge leading and trailing edges so
    every top face lies on the true boundary.  Top-side faces are walls
    up to the trailing edge and outflow behind the shoulder.
    """
    if not valid_grid((ni, nj)):
        raise ConfigError(f"the wedge grid must be {GRID_RULE} "
                          f"(got {ni}x{nj})")
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
    return mesh.GridBlock(verts, name="background", tags={
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


def _least_mach(q, gas):
    """Least Mach number of the states q, (4, n), that have positive
    density and pressure; inf when none has."""
    q = q[:, q[0] > 0.0]
    q = q[:, pressure(q, gas) > 0.0]
    speed = np.hypot(q[1], q[2]) / q[0]
    return float(np.min(speed / sound_speed(q, gas), initial=np.inf))


def measure_stem(sampler, case, *, cell_size, n_lines=120, nx=1200):
    """Classify the reflection pattern and measure the Mach-stem height.

    Samples ``n_lines`` horizontal lines of ``nx`` stations, with one
    ``sampler.states`` call per line. On each line the front is the
    leftmost local maximum of |d rho / dx| that reaches
    ``FRONT_FRACTION`` of the line's largest one, refined to sub-station
    position by a parabola through the peak and its neighbours. Its
    strip is the line's stations from the front to ``STRIP_CELLS``
    ``cell_size`` behind it, and the strip is subsonic when its least
    Mach number is below 1 (``_least_mach``).

    The pattern is MR when the lowest line's strip is subsonic. The stem
    height is then the y of the top line of the unbroken run of subsonic
    lines counted up from the lowest line, and the triple point is that
    line's front point. A stem no taller than ``cell_size`` is below the
    measurement's resolution and reads RR, as does a supersonic lowest
    strip. Lines without a front are left out; too few lines with a
    front raise ``MeasurementError``.
    """
    geom = wedge_geometry(case)
    y_lines = np.linspace(0.01 * CHANNEL_HEIGHT, 0.85 * geom["y_te"], n_lines)
    xs = np.linspace(geom["x_le"], min(case.length, geom["x_te"] + 0.6), nx)
    dx = xs[1] - xs[0]
    pts, peaks, strip_mach = [], [], []
    for y in y_lines:
        q = sampler.states(np.stack([xs, np.full(nx, y)], axis=1))
        grad = np.abs(np.gradient(q[0], dx))
        is_peak = ((grad[1:-1] >= grad[:-2]) & (grad[1:-1] > grad[2:]) &
                   (grad[1:-1] >= FRONT_FRACTION * grad.max()))
        if not is_peak.any():
            continue
        k = int(np.argmax(is_peak)) + 1          # the leftmost peak
        g0, g1, g2 = grad[k - 1:k + 2]
        denom = g0 - 2.0 * g1 + g2
        shift = 0.5 * (g0 - g2) / denom if abs(denom) > 1e-300 else 0.0
        x = xs[k] + np.clip(shift, -1, 1) * dx
        strip = (xs >= x) & (xs <= x + STRIP_CELLS * cell_size)
        pts.append((x, y))
        peaks.append(g1)
        strip_mach.append(_least_mach(q[:, strip], case.gas))
    diag = {"front_points": np.array(pts), "peak_gradients": np.array(peaks),
            "strip_min_mach": np.array(strip_mach), "cell_size": cell_size}
    if len(pts) < max(8, n_lines // 3):
        raise MeasurementError(
            f"shock front detected on only {len(pts)} of {n_lines} sampling "
            "lines; the flow is likely unconverged", diagnostics=diag)

    # lines in the unbroken run of subsonic strips from the lowest line
    n_stem = int(np.logical_and.accumulate(diag["strip_min_mach"] < 1.0).sum())
    if n_stem == 0 or pts[n_stem - 1][1] <= cell_size:
        return StemMeasurement("RR", None, None, diag)
    x, y = pts[n_stem - 1]
    return StemMeasurement("MR", y / CHANNEL_HEIGHT, (float(x), float(y)),
                           diag)

