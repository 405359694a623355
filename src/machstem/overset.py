"""Overset (chimera) coupling between a background block and an
overlapping shock-aligned block.

Background elements under the overlapping block are classified by their
erosion depth from the edge of the covered region:

  * depth 1 .. hole_margin          stay ACTIVE — they keep computing and
                                    serve as donors for the overlapping
                                    block's outer fringe;
  * the next fringe_width layers    become FRINGE — each stage their
                                    coefficients are replaced by an L2
                                    projection of the overlapping block's
                                    interior solution;
  * anything deeper                 becomes HOLE — frozen, never read.

The overlapping block is ACTIVE everywhere except a one-ring fringe along
its sides tagged as interface, which receives projections of the
background solution. Donors must always be ACTIVE elements of the other
block; assembly fails loudly if coverage is too thin to satisfy that.

If the covered region has no interior edge (the blocks are coincident,
as in unit tests), erosion depth falls back to index distance from the
block border.

All donor lookups invert the bilinear element mapping with Newton
iteration, seeded by a centroid k-d tree and finished by a structured
walk, so points are located robustly even on stretched sheared grids.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy.spatial import cKDTree

from .basis import FACE_W, FACE_E, FACE_S, FACE_N
from .dg import dispatch
from .errors import AssemblyError
from .mesh import TAG_INTERFACE

STATUS_ACTIVE = 0
STATUS_FRINGE = 1
STATUS_HOLE = 2


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
    """Crossing-number test of points against the block's perimeter."""
    poly = boundary_polygon(block)
    x = np.asarray(pts, float)[..., 0].ravel()
    y = np.asarray(pts, float)[..., 1].ravel()
    x0, y0 = poly[:-1, 0], poly[:-1, 1]
    x1, y1 = poly[1:, 0], poly[1:, 1]
    inside = np.zeros(x.shape, bool)
    for a0, b0, a1, b1 in zip(x0, y0, x1, y1):
        crosses = (b0 > y) != (b1 > y)
        if not np.any(crosses):
            continue
        xc = a0 + (y[crosses] - b0) / (b1 - b0) * (a1 - a0)
        hit = np.zeros(x.shape, bool)
        hit[crosses] = x[crosses] < xc
        inside ^= hit
    return inside.reshape(np.asarray(pts).shape[:-1])


def _bilinear_coeffs(block):
    c00, c10, c11, c01 = block.corners
    a = 0.25 * (c00 + c10 + c11 + c01)
    b = 0.25 * (c10 + c11 - c00 - c01)
    c = 0.25 * (c01 + c11 - c00 - c10)
    d = 0.25 * (c00 + c11 - c10 - c01)
    return a, b, c, d


def _newton_rs(a, b, c, d, pts, iters=12):
    """Invert x = a + b r + c s + d r s for each (point, element) pair.

    All inputs are stacked arrays of matching leading shape; returns (r, s).
    """
    r = np.zeros(pts.shape[:-1])
    s = np.zeros(pts.shape[:-1])
    for _ in range(iters):
        xr = b + d * s[..., None]
        xs = c + d * r[..., None]
        res = pts - (a + b * r[..., None] + c * s[..., None]
                     + d * (r * s)[..., None])
        det = xr[..., 0] * xs[..., 1] - xr[..., 1] * xs[..., 0]
        det = np.where(np.abs(det) < 1e-300, 1e-300, det)
        dr = (res[..., 0] * xs[..., 1] - res[..., 1] * xs[..., 0]) / det
        ds = (xr[..., 0] * res[..., 1] - xr[..., 1] * res[..., 0]) / det
        r = np.clip(r + dr, -3.0, 3.0)
        s = np.clip(s + ds, -3.0, 3.0)
    return r, s


class PointLocator:
    """Finds the element and reference coordinates containing points."""

    def __init__(self, block, n_candidates=8):
        self.block = block
        self.a, self.b, self.c, self.d = _bilinear_coeffs(block)
        cent = block.element_centroids().reshape(-1, 2)
        self.tree = cKDTree(cent)
        self.k = min(n_candidates, block.n_elements)
        c00, c10, c11, c01 = block.corners
        d1 = c11 - c00
        d2 = c01 - c10
        self._area = 0.5 * np.abs(d1[..., 0] * d2[..., 1]
                                  - d1[..., 1] * d2[..., 0]).reshape(-1)

    def locate(self, pts, tol=1e-9, clamp=False):
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
        af = self.a.reshape(-1, 2)[cand]
        bf = self.b.reshape(-1, 2)[cand]
        cf = self.c.reshape(-1, 2)[cand]
        df = self.d.reshape(-1, 2)[cand]
        r, s = _newton_rs(af, bf, cf, df, pts[:, None, :])
        good = (np.abs(r) <= 1.0 + tol) & (np.abs(s) <= 1.0 + tol)
        # residual check guards against false Newton fixed points
        res = pts[:, None, :] - (af + bf * r[..., None] + cf * s[..., None]
                                 + df * (r * s)[..., None])
        scale = np.sqrt(self._area[cand])
        good &= np.hypot(res[..., 0], res[..., 1]) <= 1e-8 * np.maximum(
            scale, 1e-12)
        first = np.argmax(good, axis=1)
        found = good[np.arange(n), first]
        pick = cand[np.arange(n), first]
        ij = np.column_stack([pick // nj, pick % nj])
        rs = np.column_stack([r[np.arange(n), first], s[np.arange(n), first]])

        missing = ~found
        if np.any(missing):
            fi, fj, fr, fs, ffound = self._walk(pts[missing], pick[missing],
                                                tol)
            ij[missing, 0] = fi
            ij[missing, 1] = fj
            rs[missing, 0] = fr
            rs[missing, 1] = fs
            found[missing] = ffound
        if clamp:
            rs = np.clip(rs, -1.0, 1.0)
        return found, ij, np.clip(rs, -1.0 - tol, 1.0 + tol)

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
def covered_elements(background, overset, shrink=1e-6):
    """Background elements whose corners and center all fall inside the
    overlapping block's footprint.

    Corners are pulled slightly toward the element center first, so an
    element whose edge lies exactly on the footprint boundary (both blocks
    ending on the same wall, say) still counts as covered.
    """
    c00, c10, c11, c01 = background.corners
    cent = background.element_centroids()
    covered = np.ones((background.ni, background.nj), bool)
    for corner in (c00, c10, c11, c01, cent):
        test = cent + (1.0 - shrink) * (corner - cent)
        covered &= points_in_footprint(overset, test)
    return covered


def erosion_depth(covered):
    """Layer index of covered elements, counted inward from the covered
    region's interior edge (uncovered 4-neighbors within the grid).
    Uncovered elements get 0.  The grid border itself does not start a
    front: where the overlapping block runs all the way to the domain
    boundary there is no flow on the far side to exchange with.  A fully
    covered grid falls back to index distance from the border.
    """
    ni, nj = covered.shape
    depth = np.zeros((ni, nj), int)
    if not covered.any():
        return depth
    if covered.all():
        ii, jj = np.meshgrid(np.arange(ni), np.arange(nj), indexing="ij")
        return np.minimum(np.minimum(ii, ni - 1 - ii),
                          np.minimum(jj, nj - 1 - jj)) + 1
    pad = np.pad(covered, 1, mode="edge")
    front = covered & ~(pad[:-2, 1:-1] & pad[2:, 1:-1]
                        & pad[1:-1, :-2] & pad[1:-1, 2:])
    depth[front] = 1
    cur = front
    d = 1
    while True:
        padc = np.pad(cur, 1, constant_values=False)
        nxt = covered & (depth == 0) & (padc[:-2, 1:-1] | padc[2:, 1:-1]
                                        | padc[1:-1, :-2] | padc[1:-1, 2:])
        if not nxt.any():
            return depth
        d += 1
        depth[nxt] = d
        cur = nxt


def classify_background(background, overset, hole_margin=2, fringe_width=2):
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
    fringe elements of a receiver block."""

    def __init__(self, receiver_disc, fringe_mask, donor_disc,
                 donor_status=None, label=""):
        self.receiver = receiver_disc
        self.donor = donor_disc
        self.fringe_idx = np.argwhere(fringe_mask)
        nf = len(self.fringe_idx)
        self.label = label or "transfer"
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
            fi, fj = self.fringe_idx[k // nq]
            raise AssemblyError(
                f"{self.label}: quadrature point ({bad[0]:.6g}, {bad[1]:.6g})"
                f" of fringe element ({fi}, {fj}) lies outside the donor "
                f"block {donor_disc.block.name!r}; the blocks do not "
                f"overlap there")
        if donor_status is not None:
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
        # receiver projection: coeffs = Minv @ V^T diag(w * detJ), built
        # transposed, one (nf, Np) row stack per quadrature node
        wdet = rb.vol_weights[:, None] * geo.detJ[fringe_mask].T    # (nq, nf)
        rows = receiver_disc.inverse_mass(
            rb.vol_V[:, None, :] * wdet[..., None], fringe_mask)
        self.proj = np.ascontiguousarray(rows.transpose(1, 2, 0))
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
        receiver_coeffs[:, self.fringe_idx[:, 0], self.fringe_idx[:, 1]] = proj


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

    def __init__(self, bg_disc, ov_disc, hole_margin=2, fringe_width=2,
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
                                ov_disc, donor_status=self.status_ov,
                                label="background fringe")
        self.to_ov = TransferOp(ov_disc, ov_fr, bg_disc,
                                donor_status=self.status_bg,
                                label="overset fringe")

    def transfer(self, coeffs_list):
        """Both directions, as two tasks of ``dg.dispatch`` when either
        block spans more than one row block: each reads active donors
        only and writes its own receiver's fringe."""
        bg_c, ov_c = coeffs_list
        dispatch([partial(self.to_bg, ov_c, bg_c),
                  partial(self.to_ov, bg_c, ov_c)],
                 self.bg.pooled or self.ov.pooled)

    def counts(self):
        out = {}
        for name, st in (("background", self.status_bg),
                         ("overset", self.status_ov)):
            out[name] = {"active": int((st == STATUS_ACTIVE).sum()),
                         "fringe": int((st == STATUS_FRINGE).sum()),
                         "hole": int((st == STATUS_HOLE).sum())}
        return out


class CompositeSampler:
    """Evaluates a multi-block solution at arbitrary physical points.

    Blocks are tried in the given priority order (pass the refined
    overlapping block first so its sharper solution wins inside the
    overlap); points outside every block clamp to the nearest element of
    the last block.
    """

    def __init__(self, discs, coeffs_list):
        self.discs = list(discs)
        self.coeffs = list(coeffs_list)
        self.locators = [PointLocator(d.block) for d in self.discs]

    def states(self, pts):
        pts = np.asarray(pts, float).reshape(-1, 2)
        out = np.empty((4, len(pts)))
        todo = np.ones(len(pts), bool)
        for k, (disc, loc, coeffs) in enumerate(
                zip(self.discs, self.locators, self.coeffs)):
            if not todo.any():
                break
            last = k == len(self.discs) - 1
            found, ij, rs = loc.locate(pts[todo], clamp=last)
            take = found | last
            sel = np.where(todo)[0][take]
            modes = disc.basis.eval_modes(rs[take, 0], rs[take, 1])
            c = coeffs[:, ij[take, 0], ij[take, 1]]    # (4, n, Np)
            out[:, sel] = np.einsum("qd,vqd->vq", modes, c, optimize=True)
            todo[sel] = False
        return out
