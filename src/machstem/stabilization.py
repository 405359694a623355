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
linear across a uniform grid pass through unchanged. Every element
keeps its mean, so the limiter is conservative:

- On a parallelogram every mode but mode 0 integrates to zero, so mode 0
  is left alone, and a second application is a no-op.
- On other elements, such as the wedge section's and the shock-aligned
  patch's trapezoids, the linear and cross modes integrate to nonzero.
  There the limiter adds sum_p (old_p - new_p) I_p / I_0 to mode 0,
  with I_p the integral of mode p over the element
  (``Discretization.mean_shift``), which puts back the mean that the
  changed modes took away.

Both see their neighbors through the block's face pairs
(``GridBlock.face_pairs``), periodic sides included, and read the
neighbour's values in place, with no copy of them. The limiter keeps
one scaled mean difference per face, in two padded arrays whose shifted
views give each element its W and E (or S and N) differences, so a face
pair costs one subtraction and the block's linear modes are never
copied. Across a boundary side there is no neighbor: the indicator
counts no jump there and the limiter drops that side's constraint
(one-sided limiting).

The positivity guard (after Zhang & Shu, JCP 229:8918, 2010) keeps each
guarded cell's mean and its values at the guard nodes (``Basis.node_V``:
the volume and face quadrature nodes) above a density and a pressure
floor; the guarded cells are the active ones, or the overset receivers
after a transfer. Most cells it proves positive from their modes alone:

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

The guard tests means and nodes, and repairs, only the guarded cells
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
# the positivity guard's density and pressure floors
RHO_FLOOR = 1e-8
P_FLOOR = 1e-10


def _fold(ufunc, a):
    """``ufunc`` folded over the last axis of ``a``, left to right, by
    whole slices: inner loops over the other axes rather than one loop
    of a few terms per element.

    For ``np.add`` and an axis shorter than 8 (face points up to P5) this
    has the bits of ``a.sum(axis=-1)``: numpy sums a contiguous axis
    pairwise, which for fewer than 8 terms is left to right. For
    ``np.maximum`` any order gives the bits of ``a.max(axis=-1)``.
    """
    out = ufunc(a[..., 0], a[..., 1])
    for k in range(2, a.shape[-1]):
        ufunc(out, a[..., k], out=out)
    return out


def kxrcf_indicator(disc, coeffs, variables=(0,), threshold=1.0):
    """Inflow-boundary jump indicator.

    Returns ``(indicator, flagged)``: the indicator is the maximum over
    the requested conserved variables, shape (ni, nj); ``flagged`` marks
    elements where it exceeds the threshold.

    Only the variables read are traced (``Discretization.face_traces``):
    density, both momenta and the requested ones. The jumps are formed
    per face pair, on each side's faces only, with no copy of the
    neighbour traces; a boundary face adds nothing. One face at a time,
    the inflow weights w sJ are built face-shaped, from sJ repeated over
    the face points and w tiled over one row of faces, and zeroed off the
    inflow points. Sums and maxima over the face points and the volume
    nodes fold whole slices (``_fold``).
    """
    basis, geo = disc.basis, disc.geo
    traces = disc.face_traces(coeffs[:max((2, *variables)) + 1])
    nf = basis.nq_1d
    w_row = np.tile(basis.q1d_weights, (disc.block.nj, 1))
    # per face: (its selection, the neighbour's face, the neighbour's
    # selection) for each face pair it belongs to
    across = {f: [] for f in traces}
    for fa, sa, fb, sb in disc.block.face_pairs:
        across[fa].append((sa, fb, sb))
        across[fb].append((sb, fa, sa))

    num = np.zeros((len(variables), disc.block.ni, disc.block.nj))
    inflow_len = np.zeros((disc.block.ni, disc.block.nj))
    # faces in a fixed order, so each element sums its faces' terms in
    # the order W, E, S, N
    for face in (FACE_W, FACE_E, FACE_S, FACE_N):
        tr = traces[face]
        n = geo.face_normal[face]
        with np.errstate(invalid="ignore", divide="ignore"):
            vn = (tr[1] * n[..., 0, None] + tr[2] * n[..., 1, None]) / tr[0]
        sj = geo.face_sj[face]
        wgt = np.repeat(sj, nf).reshape(*sj.shape, nf)
        wgt *= w_row
        wgt *= vn < 0.0
        inflow_len += _fold(np.add, wgt)
        for own, other, at in across[face]:
            for k, v in enumerate(variables):
                jump = tr[(v, *own)] - traces[other][(v, *at)]
                jump *= wgt[own]
                num[k][own] += _fold(np.add, jump)

    ind = np.zeros_like(inflow_len)
    active = inflow_len > 0.0
    hpow = geo.h_max_edge ** (0.5 * (basis.order + 1))
    for k, v in enumerate(variables):
        vals = disc.evaluate(coeffs[v])
        norm = _fold(np.maximum, np.abs(vals, out=vals))
        den = hpow * inflow_len * np.maximum(norm, 1e-300)
        with np.errstate(invalid="ignore"):
            ind_v = np.where(active, np.abs(num[k]) / den, 0.0)
        ind = np.maximum(ind, ind_v)
    return ind, ind > threshold


def _minmod3(a, b, c):
    """The argument of least magnitude when all three share a sign, else
    0: the smallest when all are positive, the largest when all are
    negative; a NaN argument gives 0. The least and the greatest of the
    three, lo and hi, are the only float arrays it allocates: hi becomes
    +0 where it is not negative, then takes lo where lo is positive. The
    bits of the sign-and-magnitude form, signed zeros and infinities
    included."""
    lo = np.minimum(b, c)
    np.minimum(a, lo, out=lo)
    hi = np.maximum(b, c)
    np.maximum(a, hi, out=hi)
    np.copyto(hi, 0.0, where=~(hi < 0))
    np.copyto(hi, lo, where=lo > 0)
    return hi


def _padded_rows(sel, n, up):
    """The rows of a padded difference array (``moment_limit``) that hold
    the up (E or N) or down (W or S) faces of the elements ``sel``, a
    slice of the n elements along the pair's direction."""
    start, stop, _ = sel.indices(n)
    return slice(start + up, stop + up)


def moment_limit(disc, coeffs, flagged, tvb_m=0.0):
    """Limit flagged elements in place, keeping every element's mean
    (module docstring).

    The scaled neighbour mean differences live in two padded arrays, E/W
    (4, ni + 1, nj) and N/S (4, ni, nj + 1): element i's W face is row
    i, its E face row i + 1, and likewise along j, so the E and W
    differences are shifted views of one array. Each face pair takes one
    subtraction: an interior pair's faces share their rows, and a
    periodic wrap writes both ends. An end row on a boundary side holds
    the mode itself, which drops that side's constraint. The minmod is
    taken, and the modes written, at the flagged elements only: through
    slices when every element is flagged, through their indices
    otherwise. Mode 0 changes only at the flagged elements that are not
    parallelograms (``Discretization.skewed``).
    """
    if not np.any(flagged):
        return
    basis = disc.basis
    means = disc.cell_means(coeffs)
    v = slice(None)
    # the flagged elements that are not parallelograms (flat indices),
    # their mean shifts and their modes before limiting; a take on the
    # merged element axis is faster than an (i, j) gather
    fix = np.take(flagged, disc.skewed)
    skewed, shift = disc.skewed[fix], disc.mean_shift[fix]
    before = coeffs.reshape(4, -1, basis.n_modes).take(skewed, axis=1)
    if flagged.all():
        sel = (slice(None), slice(None))
        high = (slice(None), slice(None), basis.modes_high)
    else:
        sel = np.nonzero(flagged)
        high = (sel[0][:, None], sel[1][:, None], basis.modes_high)

    ni, nj = flagged.shape
    c10 = coeffs[:, :, :, basis.mode_lin_r]
    c01 = coeffs[:, :, :, basis.mode_lin_s]
    d10 = np.empty((4, ni + 1, nj))
    d01 = np.empty((4, ni, nj + 1))
    d10[:, 0], d10[:, ni] = c10[:, 0], c10[:, -1]
    d01[:, :, 0], d01[:, :, nj] = c01[:, :, 0], c01[:, :, -1]
    for fa, sa, fb, sb in disc.block.face_pairs:
        # face_a is the E or N face, so this is the forward difference
        ax, d = (0, d10) if fa == FACE_E else (1, d01)
        rows_a, rows_b = list(sa), list(sb)
        rows_a[ax] = _padded_rows(sa[ax], (ni, nj)[ax], 1)
        rows_b[ax] = _padded_rows(sb[ax], (ni, nj)[ax], 0)
        out = d[(v, *rows_a)]
        np.subtract(means[(v, *sb)], means[(v, *sa)], out=out)
        out /= SQRT3
        if rows_a != rows_b:
            d[(v, *rows_b)] = out

    keep = (disc.geo.h_max_edge[sel] ** 2 * tvb_m if tvb_m > 0.0
            else None)
    for c, up, down in ((c10, d10[:, 1:], d10[:, :-1]),
                        (c01, d01[:, :, 1:], d01[:, :, :-1])):
        own = c[(v, *sel)]
        lim = _minmod3(own, up[(v, *sel)], down[(v, *sel)])
        if keep is not None:
            lim = np.where(np.abs(own) <= keep, own, lim)
        c[(v, *sel)] = lim
    coeffs[(v, *high)] = 0.0
    if skewed.size:
        lost = before - coeffs.reshape(4, -1, basis.n_modes).take(skewed,
                                                                  axis=1)
        at = np.unravel_index(skewed, flagged.shape)
        coeffs[(v, *at, 0)] += np.einsum("vnp,np->vn", lost[..., 1:], shift)


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


def positivity_guard(disc, coeffs, cells=None):
    """Emergency fallback keeping every guarded cell's state physical.

    A cell whose mean density or pressure is non-finite or below its
    floor (``RHO_FLOOR``, ``P_FLOOR``) is rebuilt as a constant cell with
    floored values; a cell whose polynomial dips below the floors
    anywhere on its guard nodes
    (``Basis.node_V``: the volume and face quadrature nodes) has its
    non-constant modes halved, at most 60 times, until the dip
    disappears.  A no-op on physical states, so steady solutions are
    untouched.  Only the guarded cells are read or changed: ``cells``,
    a pair of index arrays (the overset receivers), or the active cells
    when None.  Returns the number of cell repairs made.

    Cells that their modes prove positive (``_proven_positive``; given
    ``cells`` are gathered first) are left alone without evaluating a
    node or a mean (module docstring). The mean test, the rebuild and
    the halving passes gather the cells not proven, each halving pass
    after the first only the cells the pass before shrank.  Repairs and
    coefficients are those of testing every guarded cell.
    """
    gas = disc.gas
    v = slice(None)
    repaired = 0

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if cells is None:
            cells = np.nonzero(disc.active_mask
                               & ~_proven_positive(disc, coeffs, RHO_FLOOR,
                                                   P_FLOOR))
        else:
            weak = ~_proven_positive(disc, coeffs[(v, *cells)], RHO_FLOOR,
                                     P_FLOOR)
            cells = tuple(ix[weak] for ix in cells)
        if cells[0].size == 0:
            return 0
        means = disc.cell_means(coeffs[(v, *cells)], cells)
        pm = pressure(means, gas)
        bad = (~np.isfinite(means).all(axis=0) | (means[0] <= RHO_FLOOR)
               | ~np.isfinite(pm) | (pm <= P_FLOOR))
        if bad.any():
            m = means[:, bad]
            rho = np.maximum(np.nan_to_num(m[0], nan=RHO_FLOOR), RHO_FLOOR)
            u = np.nan_to_num(m[1] / rho, nan=0.0, posinf=0.0, neginf=0.0)
            vel = np.nan_to_num(m[2] / rho, nan=0.0, posinf=0.0, neginf=0.0)
            p = np.maximum(np.nan_to_num(pm[bad], nan=P_FLOOR), P_FLOOR)
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
            dip = _dips_below_floors(vals.swapaxes(0, 1), gas, RHO_FLOOR,
                                     P_FLOOR)
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
