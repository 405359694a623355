"""Shock capturing: discontinuity-sensing indicator, moment limiter and
positivity guard.

The indicator measures, per element, the jump of the solution across the
inflow portion of the element boundary, scaled so that smooth solutions
produce values that vanish under refinement while discontinuities hold
values above unity:

    I = |integral over inflow boundary of (own trace - neighbor trace)|
        / ( h^((N+1)/2) * inflow-boundary measure * max-norm of own values )

Elements whose indicator exceeds a threshold (default 1) are flagged and
limited; everything else keeps its full high-order polynomial.

The limiter drops every mode of total degree two or higher in a flagged
element and applies a minmod comparison of the two linear modes against
scaled neighbor mean differences, chosen so that data that are exactly
linear across a uniform grid pass through unchanged. Mode 0 is never
modified. On a parallelogram every other mode integrates to zero, so
there the element mean is kept, the limiter is conservative, and a
second application is a no-op. On other elements, such as the wedge
section's and the shock-aligned patch's trapezoids, the linear and cross
modes integrate to nonzero, so limiting moves the element mean and the
domain totals.

Both see their neighbors through the block's face pairs
(``GridBlock.face_pairs``), periodic sides included. Across a boundary
side there is no neighbor: the indicator compares the element's trace
with itself (zero jump) and the limiter drops that side's constraint
(one-sided limiting).

The positivity guard (after Zhang & Shu, JCP 229:8918, 2010) keeps each
active cell's mean and its values at the guard nodes (``Basis.node_V``:
the volume and face quadrature nodes) above a density and a pressure
floor. Most cells it proves positive from their modes alone:

- Mode 0 is the constant a_0 = 1/2 at every node, and mode p >= 1 is at
  most a_p = max_q |V_qp| in magnitude (``Basis.node_V_max``). So every
  node value of a variable lies in [lo, hi] = c_0 a_0 -+ dev, with
  dev = sum_{p>=1} a_p |c_p|.
- Density is then at least lo_rho, and pressure at least
  (gamma - 1) (lo_E - (max(lo_mx^2, hi_mx^2) + max(lo_my^2, hi_my^2))
  / (2 lo_rho)), which holds at every state of the box [lo, hi]^4 with
  lo_rho > 0.
- A cell is proven when both bounds clear their floors after every
  interval is widened by ``DELTA`` = 1e-12 of its magnitude bound
  |c_0 a_0| + dev, and the pressure bound is cut by ``DELTA`` of its
  terms. The rounding of the node evaluation, of the mean and of the
  bound itself is at most about 25 ulp of that magnitude (P4's 25
  modes), far below ``DELTA``, so a proven cell passes the floating-point
  node test too. Non-finite coefficients fail the floor tests: a NaN
  compares false, and an infinite or overflowing bound makes lo_rho or
  the pressure bound -inf or NaN.
- A proven cell's mean clears the floors as well. ``cell_means`` is the
  volume quadrature sum_q w_q J_q u_q / sum_q w_q J_q, whose weights
  w_q J_q are positive, so each mean lies in its variable's interval,
  and the box's pressure bound applies. (Pressure is concave in the
  conserved variables, so p(mean) >= min_q p_q as well.)

The guard tests means and nodes, and repairs, only the active cells
that are not proven.
"""

from __future__ import annotations

import numpy as np

from .basis import FACE_W, FACE_E, FACE_S, FACE_N
from .gas import conserved, pressure

SQRT3 = np.sqrt(3.0)

# relative margin by which the positivity guard's modal bound must clear
# the floors, far above rounding (module docstring)
DELTA = 1e-12


def _neighbor_traces(disc, traces):
    """Neighbor trace values seen through each face; boundary faces keep
    the element's own trace (zero jump)."""
    out = {f: t.copy() for f, t in traces.items()}
    v = slice(None)
    for fa, sa, fb, sb in disc.block.face_pairs:
        out[fa][(v, *sa)] = traces[fb][(v, *sb)]
        out[fb][(v, *sb)] = traces[fa][(v, *sa)]
    return out


def kxrcf_indicator(disc, coeffs, variables=(0,), threshold=1.0):
    """Inflow-boundary jump indicator.

    Returns ``(indicator, flagged)``: the indicator is the maximum over
    the requested conserved variables, shape (ni, nj); ``flagged`` marks
    elements where it exceeds the threshold.
    """
    basis, geo = disc.basis, disc.geo
    traces = disc.face_traces(coeffs)
    nbr = _neighbor_traces(disc, traces)
    w1 = basis.q1d_weights

    num = np.zeros((len(variables), disc.block.ni, disc.block.nj))
    inflow_len = np.zeros((disc.block.ni, disc.block.nj))
    for face in (FACE_W, FACE_E, FACE_S, FACE_N):
        tr = traces[face]
        n = geo.face_normal[face]
        with np.errstate(invalid="ignore", divide="ignore"):
            vn = (tr[1] * n[..., 0, None] + tr[2] * n[..., 1, None]) / tr[0]
            inflow = vn < 0.0
        wgt = inflow * w1 * geo.face_sj[face][..., None]
        inflow_len += wgt.sum(axis=2)
        for k, v in enumerate(variables):
            num[k] += ((tr[v] - nbr[face][v]) * wgt).sum(axis=2)

    vals = disc.evaluate(coeffs[list(variables)])
    ind = np.zeros_like(inflow_len)
    active = inflow_len > 0.0
    hpow = geo.h_max_edge ** (0.5 * (basis.order + 1))
    for k in range(len(variables)):
        norm = np.max(np.abs(vals[k]), axis=2)
        den = hpow * inflow_len * np.maximum(norm, 1e-300)
        with np.errstate(invalid="ignore"):
            ind_v = np.where(active, np.abs(num[k]) / den, 0.0)
        ind = np.maximum(ind, ind_v)
    return ind, ind > threshold


def _minmod3(a, b, c):
    s = np.sign(a)
    agree = (np.sign(b) == s) & (np.sign(c) == s)
    return np.where(agree, s * np.minimum(np.abs(a),
                                          np.minimum(np.abs(b),
                                                     np.abs(c))), 0.0)


def moment_limit(disc, coeffs, flagged, tvb_m=0.0):
    """Limit flagged elements in place; mode 0 is untouched, which keeps
    the means of parallelograms only (module docstring).

    The minmod is taken, and the modes written, at the flagged elements
    only: through slices when every element is flagged, through their
    indices otherwise.
    """
    if not np.any(flagged):
        return
    basis = disc.basis
    means = disc.cell_means(coeffs)
    if flagged.all():
        sel = (slice(None), slice(None))
        high = (slice(None), slice(None), basis.modes_high)
    else:
        sel = np.nonzero(flagged)
        high = (sel[0][:, None], sel[1][:, None], basis.modes_high)

    # scaled neighbor mean differences per face; a boundary face keeps
    # the mode itself, which drops that constraint (one-sided limiting)
    c10 = coeffs[:, :, :, basis.mode_lin_r]
    c01 = coeffs[:, :, :, basis.mode_lin_s]
    diff = {f: c.copy() for f, c in ((FACE_W, c10), (FACE_E, c10),
                                     (FACE_S, c01), (FACE_N, c01))}
    v = slice(None)
    for fa, sa, fb, sb in disc.block.face_pairs:
        # face_a is the E or N face, so this is the forward difference
        diff[fa][(v, *sa)] = diff[fb][(v, *sb)] = (
            means[(v, *sb)] - means[(v, *sa)]) / SQRT3

    keep = (disc.geo.h_max_edge[sel] ** 2 * tvb_m if tvb_m > 0.0
            else None)
    for c, up, down in ((c10, FACE_E, FACE_W), (c01, FACE_N, FACE_S)):
        own = c[(v, *sel)]
        lim = _minmod3(own, diff[up][(v, *sel)], diff[down][(v, *sel)])
        if keep is not None:
            lim = np.where(np.abs(own) <= keep, own, lim)
        c[(v, *sel)] = lim
    coeffs[(v, *high)] = 0.0


def _dips_below_floors(vals, gas, rho_floor, p_floor):
    """Cells whose node values, node-major (4, n_nodes, ...), reach a
    floor or are not finite. Every non-finite conserved value reaches rho
    or p: a NaN fails the floor test, and an infinity shows in the min
    or the max."""
    rho = vals[0]
    p = pressure(vals, gas)
    return (~(rho.min(axis=0) > rho_floor) | ~(p.min(axis=0) > p_floor)
            | (np.maximum(rho.max(axis=0), p.max(axis=0)) == np.inf))


def _proven_positive(disc, coeffs, rho_floor, p_floor):
    """Cells, (ni, nj), whose modes alone prove every guard node and the
    cell mean above both floors (module docstring).

    Per variable, ``mid`` = c_0 a_0 is the interval's centre and
    ``reach`` = (|mid| + dev) (1 + DELTA) the largest magnitude on the
    widened interval [lo, hi] = mid -+ (reach - |mid|).
    """
    a = disc.basis.node_V_max
    mid = coeffs[..., 0] * a[0]
    reach = (np.abs(coeffs) @ a) * (1.0 + DELTA)
    lo_rho = mid[0] - (reach[0] - np.abs(mid[0]))
    lo_e = mid[3] - (reach[3] - np.abs(mid[3]))
    ke = 0.5 * (reach[1] ** 2 + reach[2] ** 2) / lo_rho
    p_lo = (disc.gas.gamma - 1.0) * (lo_e - ke - DELTA * (reach[3] + ke))
    return (lo_rho > rho_floor) & (p_lo > p_floor)


def positivity_guard(disc, coeffs, rho_floor=1e-8, p_floor=1e-10):
    """Emergency fallback keeping every active cell's state physical.

    A cell whose mean density or pressure is non-finite or below the
    floor is rebuilt as a constant cell with floored values; a cell
    whose polynomial dips below the floors anywhere on its guard nodes
    (``Basis.node_V``: the volume and face quadrature nodes) has its
    non-constant modes halved, at most 60 times, until the dip
    disappears.  A no-op on physical states, so steady solutions are
    untouched.  Only active cells are read or changed.  Returns the
    number of cell repairs made.

    Cells that their modes prove positive (``_proven_positive``) are
    left alone without evaluating a node or a mean: their node values
    and means clear both floors (module docstring). The mean test, the
    rebuild and the halving passes gather the other active cells, each
    halving pass after the first only the cells the pass before shrank.
    Repairs and coefficients are those of testing every active cell.
    """
    gas = disc.gas
    v = slice(None)
    repaired = 0

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        cells = np.nonzero(disc.active_mask
                           & ~_proven_positive(disc, coeffs, rho_floor,
                                               p_floor))
        if cells[0].size == 0:
            return 0
        means = disc.cell_means(coeffs[(v, *cells)], cells)
        pm = pressure(means, gas)
        bad = (~np.isfinite(means).all(axis=0) | (means[0] <= rho_floor)
               | ~np.isfinite(pm) | (pm <= p_floor))
        if bad.any():
            m = means[:, bad]
            rho = np.maximum(np.nan_to_num(m[0], nan=rho_floor), rho_floor)
            u = np.nan_to_num(m[1] / rho, nan=0.0, posinf=0.0, neginf=0.0)
            vel = np.nan_to_num(m[2] / rho, nan=0.0, posinf=0.0, neginf=0.0)
            p = np.maximum(np.nan_to_num(pm[bad], nan=p_floor), p_floor)
            state = conserved(rho, u, vel, p, gas)
            at = tuple(ix[bad] for ix in cells)
            coeffs[(v, *at)] = 0.0
            coeffs[(v, *at, 0)] = 2.0 * state        # mode-0 value is 1/2
            repaired += int(bad.sum())

        # node-major values make the per-cell min and max run over the
        # outer axis, with long contiguous rows
        V = disc.basis.node_V
        for _ in range(60):
            vals = np.tensordot(V, coeffs[(v, *cells)], (1, -1))
            dip = _dips_below_floors(vals.swapaxes(0, 1), gas, rho_floor,
                                     p_floor)
            if not dip.any():
                break
            cells = tuple(ix[dip] for ix in cells)
            coeffs[(v, *cells, slice(1, None))] *= 0.5
            repaired += int(dip.sum())
    return repaired


class Stabilizer:
    """Per-block limiting policy: indicator-gated, always-on, or off.

    Records the most recent flag map in ``last_flagged`` and sums the
    cells it limits over all calls in ``limited_cells``.  With
    ``positivity`` set, the positivity guard runs after the limiter and
    its cell-repair count accumulates in ``guard_activations``.
    """

    def __init__(self, mode="indicator", variables=(0,), threshold=1.0,
                 tvb_m=0.0, positivity=False):
        if mode not in ("indicator", "always", "off"):
            raise ValueError(f"unknown stabilization mode {mode!r}")
        self.mode = mode
        self.variables = tuple(variables)
        self.threshold = threshold
        self.tvb_m = tvb_m
        self.positivity = positivity
        self.guard_activations = 0
        self.limited_cells = 0
        self.last_flagged = None

    def __call__(self, disc, coeffs):
        if self.mode != "off":
            if self.mode == "always":
                flagged = disc.active_mask.copy()
            else:
                _, flagged = kxrcf_indicator(disc, coeffs, self.variables,
                                             self.threshold)
                flagged &= disc.active_mask
            self.last_flagged = flagged
            self.limited_cells += int(flagged.sum())
            moment_limit(disc, coeffs, flagged, self.tvb_m)
        if self.positivity:
            self.guard_activations += positivity_guard(disc, coeffs)


def make_limiter_hook(discs, stabilizers):
    """Build the marcher hook applying each block's stabilizer in turn."""
    def hook(coeffs_list):
        for d, st, c in zip(discs, stabilizers, coeffs_list):
            if st is not None:
                st(d, c)
    return hook
