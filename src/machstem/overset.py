"""Overset (chimera) coupling between a background block and an
overlapping shock-aligned block.

Background elements under the overlapping block are classified by their
erosion depth from the edge of the covered region (the taxicab distance
to the nearest uncovered element):

  * depth 1 .. hole_margin          stay ACTIVE — they keep computing and
                                    serve as donors for the overlapping
                                    block's outer fringe;
  * the next fringe_width layers    become FRINGE — each stage their
                                    coefficients are replaced by an L2
                                    projection of the overlapping block's
                                    interior solution;
  * anything deeper                 becomes HOLE — frozen, never read.

One fringe layer is all the active elements read. A DG element sees a
neighbour only through a shared face, and an element at depth
hole_margin + 1 always has a 4-neighbour at depth hole_margin, so every
receiver of that layer feeds an active element's face flux. Holes, and
any deeper fringe a larger ``fringe_width`` keeps, are inactive: the
fluxes computed from them land in inactive elements only, and no active
element, wave speed, indicator value or guard reads them.

The overlapping block is ACTIVE everywhere except a one-ring fringe along
its sides tagged as interface, which receives projections of the
background solution. Donors must always be ACTIVE elements of the other
block; assembly fails loudly if coverage is too thin to satisfy that.
After every transfer the positivity guard repairs the receivers of both
blocks: the projection of a donor shock can dip below the floors at a
receiver's guard nodes.

All donor lookups invert the bilinear element mapping with Newton
iteration, seeded by a centroid k-d tree and finished by a structured
walk, so points are located robustly even on stretched sheared grids.
Each point is tried in the element of its nearest centroid first, which
contains almost every point; the other k-d candidates, in order, are
tried only for the points the nearer ones miss, and the walk takes the
rest.  A Newton solve stops once an iteration leaves (r, s) exactly
unchanged, so a point costs about one solve of a few iterations.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy.ndimage import distance_transform_cdt
from scipy.spatial import cKDTree

from .basis import FACE_W, FACE_E, FACE_S, FACE_N
from .dg import dispatch
from .errors import AssemblyError
from .mesh import TAG_INTERFACE
from .stabilization import positivity_guard

STATUS_ACTIVE = 0
STATUS_FRINGE = 1
STATUS_HOLE = 2

N_CANDIDATES = 8      # k-d candidate elements per located point
LOCATE_TOL = 1e-9     # reference-coordinate slack of "inside an element"
COVER_SHRINK = 1e-6   # corner pull toward the center (covered_elements)
# footprint dilation, in units of a block's longest element edge, within
# which a sampler block that is not the last locates points: far wider
# than the distance outside an element that LOCATE_TOL and locate's
# residual check admit, about 1e-8 of its edge (CompositeSampler)
FOOTPRINT_MARGIN = 1e-6


# ---------------------------------------------------------------------
# point location
# ---------------------------------------------------------------------
def boundary_polygon(block):
    """Closed perimeter polygon of a block, counterclockwise."""
    V = block.vertices
    south = V[:, 0]
    east = V[-1, :]
    north = V[::-1, -1]
    west = V[0, ::-1]
    return np.concatenate([south, east[1:], north[1:], west[1:]])


def points_in_footprint(block, pts):
    """Crossing-number test of points against the block's perimeter.

    The points are sorted by y once, and each edge is tested only against
    the band of points with min(y0, y1) <= y < max(y0, y1), the ones
    whose horizontal ray it can cross.
    """
    poly = boundary_polygon(block)
    x, y = np.asarray(pts, float).reshape(-1, 2).T
    order = np.argsort(y, kind="stable")
    xs, ys = x[order], y[order]
    x0, y0 = poly[:-1, 0], poly[:-1, 1]
    x1, y1 = poly[1:, 0], poly[1:, 1]
    lo = np.searchsorted(ys, np.minimum(y0, y1))
    hi = np.searchsorted(ys, np.maximum(y0, y1))
    inside = np.zeros(x.shape, bool)
    for a0, b0, a1, b1, m, n in zip(x0, y0, x1, y1, lo, hi):
        if m < n:
            xc = a0 + (ys[m:n] - b0) / (b1 - b0) * (a1 - a0)
            inside[m:n] ^= xs[m:n] < xc
    inside[order] = inside.copy()
    return inside.reshape(np.asarray(pts).shape[:-1])


def points_near_footprint(block, pts, margin):
    """Points inside the block's footprint (``points_in_footprint``) or
    within ``margin`` of its perimeter.

    The outside points are sorted by y once, and each edge measures its
    distance to the band of them whose y lies within ``margin`` of the
    edge's y range.
    """
    pts = np.asarray(pts, float).reshape(-1, 2)
    near = points_in_footprint(block, pts)
    out = np.flatnonzero(~near)
    order = np.argsort(pts[out, 1], kind="stable")
    xs, ys = pts[out[order]].T
    poly = boundary_polygon(block)
    x0, y0 = poly[:-1, 0], poly[:-1, 1]
    x1, y1 = poly[1:, 0], poly[1:, 1]
    lo = np.searchsorted(ys, np.minimum(y0, y1) - margin)
    hi = np.searchsorted(ys, np.maximum(y0, y1) + margin, side="right")
    hit = np.zeros(out.size, bool)
    for a0, b0, a1, b1, m, n in zip(x0, y0, x1, y1, lo, hi):
        if m < n:
            ex, ey = a1 - a0, b1 - b0
            px, py = xs[m:n] - a0, ys[m:n] - b0
            t = np.clip((px * ex + py * ey) / (ex * ex + ey * ey), 0.0, 1.0)
            hit[m:n] |= np.hypot(px - t * ex, py - t * ey) <= margin
    near[out[order[hit]]] = True
    return near


def _bilinear_coeffs(block):
    c00, c10, c11, c01 = block.corners
    a = 0.25 * (c00 + c10 + c11 + c01)
    b = 0.25 * (c10 + c11 - c00 - c01)
    c = 0.25 * (c01 + c11 - c00 - c10)
    d = 0.25 * (c00 + c11 - c10 - c01)
    return a, b, c, d


def _newton_rs(a, b, c, d, pts, iters=12):
    """Invert x = a + b r + c s + d r s for each (point, element) pair.

    All inputs are stacked arrays of matching shape (..., 2); returns
    (r, s), those of ``iters`` iterations from (0, 0).  A pair leaves the
    loop once an iteration leaves its (r, s) exactly unchanged, since
    every later iteration would repeat the same arithmetic.  (r, s)
    never become -0.0 (a sum is -0.0 only if both terms are), so equal
    values are equal bits.
    """
    shape = pts.shape[:-1]
    a, b, c, d, pts = (np.reshape(v, (-1, 2)) for v in (a, b, c, d, pts))
    n = len(pts)
    r_out, s_out = np.zeros(n), np.zeros(n)
    r, s, live = np.zeros(n), np.zeros(n), np.arange(n)
    for _ in range(iters):
        xr = b + d * s[:, None]
        xs = c + d * r[:, None]
        res = pts - (a + b * r[:, None] + c * s[:, None]
                     + d * (r * s)[:, None])
        det = xr[:, 0] * xs[:, 1] - xr[:, 1] * xs[:, 0]
        det = np.where(np.abs(det) < 1e-300, 1e-300, det)
        dr = (res[:, 0] * xs[:, 1] - res[:, 1] * xs[:, 0]) / det
        ds = (xr[:, 0] * res[:, 1] - xr[:, 1] * res[:, 0]) / det
        r_new = np.clip(r + dr, -3.0, 3.0)
        s_new = np.clip(s + ds, -3.0, 3.0)
        r_out[live], s_out[live] = r_new, s_new
        moving = (r_new != r) | (s_new != s)
        if moving.all():
            r, s = r_new, s_new
            continue
        live, a, b, c, d, pts, r, s = (
            v[moving] for v in (live, a, b, c, d, pts, r_new, s_new))
        if not live.size:
            break
    return r_out.reshape(shape), s_out.reshape(shape)


class PointLocator:
    """Finds the element and reference coordinates containing points."""

    def __init__(self, block):
        self.block = block
        self.a, self.b, self.c, self.d = _bilinear_coeffs(block)
        cent = block.element_centroids().reshape(-1, 2)
        self.tree = cKDTree(cent)
        self.k = min(N_CANDIDATES, block.n_elements)
        c00, c10, c11, c01 = block.corners
        d1 = c11 - c00
        d2 = c01 - c10
        self._area = 0.5 * np.abs(d1[..., 0] * d2[..., 1]
                                  - d1[..., 1] * d2[..., 0]).reshape(-1)

    def locate(self, pts, clamp=False):
        """Locate flat (n, 2) points.

        Returns (found, ij, rs): bool (n,), int (n, 2), float (n, 2).
        With ``clamp=True`` unfound points snap to the nearest element
        with reference coordinates clipped to the element, and ``found``
        stays False for them.
        """
        pts = np.asarray(pts, float).reshape(-1, 2)
        n = pts.shape[0]
        nj = self.block.nj
        _, cand = self.tree.query(pts, k=self.k)
        cand = cand.reshape(n, self.k)
        # the candidates in k-d order, each only for the points every
        # nearer one missed: the first that contains a point takes it
        pick = cand[:, 0].copy()
        rs = np.zeros((n, 2))
        found = np.zeros(n, bool)
        todo = np.arange(n)
        for col in range(self.k):
            e = cand[todo, col]
            af, bf, cf, df = (v.reshape(-1, 2)[e]
                              for v in (self.a, self.b, self.c, self.d))
            p = pts[todo]
            r, s = _newton_rs(af, bf, cf, df, p)
            good = ((np.abs(r) <= 1.0 + LOCATE_TOL)
                    & (np.abs(s) <= 1.0 + LOCATE_TOL))
            # residual check guards against false Newton fixed points
            res = p - (af + bf * r[:, None] + cf * s[:, None]
                       + df * (r * s)[:, None])
            scale = np.sqrt(self._area[e])
            good &= np.hypot(res[:, 0], res[:, 1]) <= 1e-8 * np.maximum(
                scale, 1e-12)
            hit = todo[good]
            found[hit] = True
            pick[hit] = e[good]
            rs[hit] = np.column_stack([r[good], s[good]])
            todo = todo[~good]
            if not todo.size:
                break
        ij = np.column_stack([pick // nj, pick % nj])

        missing = ~found
        if np.any(missing):
            fi, fj, fr, fs, ffound = self._walk(pts[missing], pick[missing],
                                                LOCATE_TOL)
            ij[missing] = np.column_stack([fi, fj])
            rs[missing] = np.column_stack([fr, fs])
            found[missing] = ffound
        lim = 1.0 if clamp else 1.0 + LOCATE_TOL
        return found, ij, np.clip(rs, -lim, lim)

    def _walk(self, pts, start_flat, tol):
        """Structured walk for the points the seeds missed, in lock step.

        Each step runs one Newton solve per walking point in its current
        element, then moves every point not yet stopped one element
        toward its (r, s). A walk stops when its element contains the
        point (found), when it would step off the block or revisit an
        element, or after 2 (ni + nj) elements; the (r, s) returned are
        always those of the element returned.
        """
        ni, nj = self.block.ni, self.block.nj
        n = len(pts)
        i, j = np.divmod(np.asarray(start_flat, int), nj)
        r = np.zeros(n)
        s = np.zeros(n)
        found = np.zeros(n, bool)
        # the walking points: their indices, elements and elements visited
        p, pi, pj = np.arange(n), i.copy(), j.copy()
        seen = np.empty((n, 0), int)
        for _ in range(2 * (ni + nj)):
            rp, sp = _newton_rs(self.a[pi, pj], self.b[pi, pj],
                                self.c[pi, pj], self.d[pi, pj], pts[p])
            r[p], s[p], i[p], j[p] = rp, sp, pi, pj
            flat = pi * nj + pj
            revisit = (seen == flat[:, None]).any(axis=1)
            inside = ~revisit & (np.abs(rp) <= 1.0 + tol) & (
                np.abs(sp) <= 1.0 + tol)
            found[p] = inside
            i2 = np.clip(pi + (rp > 1.0) - (rp < -1.0), 0, ni - 1)
            j2 = np.clip(pj + (sp > 1.0) - (sp < -1.0), 0, nj - 1)
            move = ~(revisit | inside | ((i2 == pi) & (j2 == pj)))
            p, pi, pj = p[move], i2[move], j2[move]
            seen = np.column_stack([seen[move], flat[move]])
            if not p.size:
                break
        else:
            # capped: return the element the last step moved to
            r[p], s[p] = _newton_rs(self.a[pi, pj], self.b[pi, pj],
                                    self.c[pi, pj], self.d[pi, pj], pts[p])
            i[p], j[p] = pi, pj
        return i, j, r, s, found


# ---------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------
def covered_elements(background, overset):
    """Background elements whose corners and center all fall inside the
    overlapping block's footprint.

    Corners are pulled slightly toward the element center first
    (``COVER_SHRINK``), so an element whose edge lies exactly on the
    footprint boundary (both blocks ending on the same wall, say) still
    counts as covered.
    """
    cent = background.element_centroids()
    test = cent + (1.0 - COVER_SHRINK) * (
        np.stack([*background.corners, cent]) - cent)
    return points_in_footprint(overset, test).all(axis=0)


def erosion_depth(covered):
    """Layer index of covered elements, counted inward from the covered
    region's interior edge: the taxicab distance to the nearest uncovered
    element of the grid.  Uncovered elements get 0.  The grid border
    itself does not start a front: where the overlapping block runs all
    the way to the domain boundary there is no flow on the far side to
    exchange with.  A fully covered grid falls back to index distance
    from the border, through one uncovered ring around it.
    """
    if covered.all():
        return distance_transform_cdt(np.pad(covered, 1),
                                      metric="taxicab")[1:-1, 1:-1]
    return distance_transform_cdt(covered, metric="taxicab")


def classify_background(background, overset, hole_margin=2, fringe_width=1):
    """Status array for the background block under one overlapping block."""
    covered = covered_elements(background, overset)
    depth = erosion_depth(covered)
    if covered.any() and depth.max() <= hole_margin:
        raise AssemblyError(
            f"insufficient overlap: the overlapping block covers background "
            f"elements only {depth.max()} layer(s) deep, but {hole_margin} "
            f"active donor layer(s) plus fringe are required; widen the "
            f"overlapping block or coarsen the background")
    status = np.full(covered.shape, STATUS_ACTIVE, int)
    status[depth > hole_margin] = STATUS_FRINGE
    status[depth > hole_margin + fringe_width] = STATUS_HOLE
    return status


def overset_fringe(block, rings=1):
    """Fringe mask of the overlapping block: outermost ring(s) inside the
    faces tagged as interface.  Sides may mix physical and interface tags
    face by face (a patch edge partly on a wall); only the interface part
    receives fringe."""
    mask = np.zeros((block.ni, block.nj), bool)
    w_if = block.tags[FACE_W] == TAG_INTERFACE      # (nj,)
    e_if = block.tags[FACE_E] == TAG_INTERFACE
    s_if = block.tags[FACE_S] == TAG_INTERFACE      # (ni,)
    n_if = block.tags[FACE_N] == TAG_INTERFACE
    for k in range(rings):
        mask[k, w_if] = True
        mask[block.ni - 1 - k, e_if] = True
        mask[s_if, k] = True
        mask[n_if, block.nj - 1 - k] = True
    return mask


# ---------------------------------------------------------------------
# transfer operators
# ---------------------------------------------------------------------
class TransferOp:
    """Precomputed L2 projection of one donor block's solution onto the
    fringe elements of a receiver block.  Every donor element must be
    active in ``donor_status``."""

    def __init__(self, receiver_disc, fringe_mask, donor_disc, donor_status,
                 label):
        self.receiver = receiver_disc
        self.donor = donor_disc
        self.cells = np.nonzero(fringe_mask)
        nf = len(self.cells[0])
        self.label = label
        if nf == 0:
            self.proj = None
            return
        rb = receiver_disc.basis
        geo = receiver_disc.geo
        nq = rb.vol_nodes.shape[0]
        pts = geo.vol_points[fringe_mask]            # (nf, nq, 2)
        locator = PointLocator(donor_disc.block)
        found, ij, rs = locator.locate(pts.reshape(-1, 2))
        if not found.all():
            k = int(np.argmin(found))
            bad = pts.reshape(-1, 2)[k]
            fi, fj = (ix[k // nq] for ix in self.cells)
            raise AssemblyError(
                f"{self.label}: quadrature point ({bad[0]:.6g}, {bad[1]:.6g})"
                f" of fringe element ({fi}, {fj}) lies outside the donor "
                f"block {donor_disc.block.name!r}; the blocks do not "
                f"overlap there")
        stat = donor_status[ij[:, 0], ij[:, 1]]
        if np.any(stat != STATUS_ACTIVE):
            k = int(np.argmax(stat != STATUS_ACTIVE))
            raise AssemblyError(
                f"{self.label}: donor element "
                f"({ij[k, 0]}, {ij[k, 1]}) of block "
                f"{donor_disc.block.name!r} is not active (status "
                f"{int(stat[k])}); receivers must never interpolate "
                f"from fringe or hole data — increase the active donor "
                f"margin or the overlap width")
        self.donor_flat = (ij[:, 0] * donor_disc.block.nj
                           + ij[:, 1]).reshape(nf, nq)
        self.donor_basis = donor_disc.basis.eval_modes(
            rs[:, 0], rs[:, 1]).reshape(nf, nq, -1)
        # receiver projection: coeffs = Minv @ V^T diag(w * detJ), with
        # Minv = V_g^T diag(minv_scale) V_g as in ``inverse_mass``, built
        # transposed, one (nq, Np) stack per receiver: the receiver is
        # the batch axis, so its row does not depend on the other
        # receivers
        wdet = rb.vol_weights * geo.detJ[fringe_mask]               # (nf, nq)
        Vg = rb.gauss_V
        rows = ((rb.vol_V * wdet[..., None]) @ Vg.T
                * geo.minv_scale[fringe_mask][:, None, :]) @ Vg
        self.proj = np.ascontiguousarray(rows.transpose(0, 2, 1))
        # contraction orders, found once from the operand shapes;
        # zero-stride stand-ins take the place of the per-call operands
        def path(subscripts, fixed, call_shape):
            stand_in = np.broadcast_to(0.0, call_shape)
            return np.einsum_path(subscripts, fixed, stand_in,
                                  optimize=True)[0]

        self._paths = (
            path("fqd,vfqd->vfq", self.donor_basis,
                 (4, *self.donor_basis.shape)),
            path("fpq,vfq->vfp", self.proj, (4, nf, nq)))

    def __call__(self, donor_coeffs, receiver_coeffs):
        if self.proj is None:
            return
        dflat = donor_coeffs.reshape(4, -1, donor_coeffs.shape[-1])
        gathered = dflat[:, self.donor_flat]          # (4, nf, nq, Npd)
        vals = np.einsum("fqd,vfqd->vfq", self.donor_basis, gathered,
                         optimize=self._paths[0])
        proj = np.einsum("fpq,vfq->vfp", self.proj, vals,
                         optimize=self._paths[1])
        receiver_coeffs[(slice(None), *self.cells)] = proj


def project_between(sampler, dst_disc):
    """L2-project a (multi-block) solution onto another block.

    ``sampler`` is a ``CompositeSampler`` over the source blocks in
    priority order; destination quadrature points outside every source
    block take the nearest element of its last block.  Seeds the coarse
    and fine stages from a coarse solution or a restart checkpoint.
    """
    def states(x, y):
        return sampler.states(np.stack([x, y], axis=-1)).reshape(
            (4,) + x.shape)
    return dst_disc.project(states)


# ---------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------
class OversetAssembly:
    """Classified two-block system with both transfer directions built."""

    def __init__(self, bg_disc, ov_disc, hole_margin=2, fringe_width=1,
                 ov_fringe_rings=1):
        self.bg = bg_disc
        self.ov = ov_disc
        self.status_bg = classify_background(bg_disc.block, ov_disc.block,
                                             hole_margin, fringe_width)
        ov_fr = overset_fringe(ov_disc.block, ov_fringe_rings)
        if not ov_fr.any():
            raise AssemblyError(
                f"overlapping block {ov_disc.block.name!r} has no side "
                f"tagged as interface; nothing would couple the blocks")
        self.status_ov = np.where(ov_fr, STATUS_FRINGE, STATUS_ACTIVE)
        bg_disc.active_mask = self.status_bg == STATUS_ACTIVE
        ov_disc.active_mask = self.status_ov == STATUS_ACTIVE
        self.to_bg = TransferOp(bg_disc, self.status_bg == STATUS_FRINGE,
                                ov_disc, self.status_ov, "background fringe")
        self.to_ov = TransferOp(ov_disc, ov_fr, bg_disc, self.status_bg,
                                "overset fringe")
        # each block with its receivers, and the guard's repairs of them
        self.receivers = [(op.receiver, op.cells)
                          for op in (self.to_bg, self.to_ov)]
        self.receiver_repairs = [0, 0]

    def transfer(self, coeffs_list):
        """Both directions, as two tasks of ``dg.dispatch`` when either
        block spans more than one row block: each reads active donors
        only and writes its own receiver's fringe.  Then the positivity
        guard repairs each block's receivers, and only those."""
        bg_c, ov_c = coeffs_list
        dispatch([partial(self.to_bg, ov_c, bg_c),
                  partial(self.to_ov, bg_c, ov_c)],
                 self.bg.pooled or self.ov.pooled)
        for k, ((disc, cells), c) in enumerate(zip(self.receivers,
                                                   coeffs_list)):
            self.receiver_repairs[k] += positivity_guard(disc, c, cells)

    def counts(self):
        kinds = (("active", STATUS_ACTIVE), ("fringe", STATUS_FRINGE),
                 ("hole", STATUS_HOLE))
        return {name: {kind: int((st == s).sum()) for kind, s in kinds}
                for name, st in (("background", self.status_bg),
                                 ("overset", self.status_ov))}


class CompositeSampler:
    """Evaluates a multi-block solution at arbitrary physical points.

    Blocks are tried in the given priority order (pass the refined
    overlapping block first so its sharper solution wins inside the
    overlap); points outside every block clamp to the nearest element of
    the last block. A block before the last locates only the points
    inside its footprint or near it, within ``FOOTPRINT_MARGIN`` times
    its longest element edge (``points_near_footprint``): no point
    farther out can be found in it, and locating one would cost Newton
    in every k-d candidate and a walk.
    """

    def __init__(self, discs, coeffs_list):
        self.discs = list(discs)
        self.coeffs = list(coeffs_list)
        self.locators = [PointLocator(d.block) for d in self.discs]
        self.margins = [FOOTPRINT_MARGIN * d.geo.h_max_edge.max()
                        for d in self.discs]

    def states(self, pts):
        pts = np.asarray(pts, float).reshape(-1, 2)
        out = np.empty((4, len(pts)))
        todo = np.ones(len(pts), bool)
        for k, (disc, loc, coeffs, margin) in enumerate(
                zip(self.discs, self.locators, self.coeffs, self.margins)):
            if not todo.any():
                break
            last = k == len(self.discs) - 1
            idx = np.flatnonzero(todo)
            if not last:
                idx = idx[points_near_footprint(disc.block, pts[idx],
                                                margin)]
            found, ij, rs = loc.locate(pts[idx], clamp=last)
            take = found | last
            sel = idx[take]
            modes = disc.basis.eval_modes(rs[take, 0], rs[take, 1])
            c = coeffs[:, ij[take, 0], ij[take, 1]]    # (4, n, Np)
            out[:, sel] = np.einsum("qd,vqd->vq", modes, c, optimize=True)
            todo[sel] = False
        return out
