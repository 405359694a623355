"""Structured curvilinear quad blocks with bilinear element mappings.

A block is an (ni x nj) array of straight-sided quadrilateral elements
defined by an (ni+1 x nj+1) vertex lattice. Element (i, j) spans vertices
(i, j), (i+1, j), (i+1, j+1), (i, j+1) and maps the reference square
through the standard bilinear shape functions, so edges stay straight,
edge normals are constant per face, and the metric identities hold to
quadrature exactness (uniform flow produces a zero residual to round-off).
The Jacobian determinant is bilinear too, which is what lets the mass
matrix be inverted at the Gauss points without storing any per-element
matrix (see ``_BlockGeometry``); curved elements would need stored
inverses again.

Boundary conditions are carried as one integer tag per boundary face on
each of the four sides, which lets a single side mix tags (the channel
top wall ahead of a shoulder, outflow behind it). Periodic is the
exception: it applies to whole sides, in opposite pairs.

The block is the only place that knows which element lies across each
face. It builds that relation once from its tags, as face pairs
``(face_a, sel_a, face_b, sel_b)`` -- face ``face_a`` of the elements
``sel_a`` touches face ``face_b`` of the elements ``sel_b``, with
``face_a`` the E or N face -- and tagged boundary sides ``(face, sel)``.
Every ``sel`` is a tuple of slices over the element indices ``(i, j)``,
and every element face lies in exactly one pair or one boundary side.
"""

from __future__ import annotations

import numpy as np

from .basis import FACE_W, FACE_E, FACE_S, FACE_N

# boundary face tags
TAG_INFLOW = 1
TAG_OUTFLOW = 2
TAG_WALL = 3
TAG_INTERFACE = 4   # overset outer boundary: data arrives by transfer
TAG_PERIODIC = 5

SIDE_NAMES = {FACE_W: "west", FACE_E: "east", FACE_S: "south",
              FACE_N: "north"}


class GridBlock:
    """Structured block of bilinear quad elements plus boundary tags."""

    def __init__(self, vertices, name="block", tags=None):
        vertices = np.asarray(vertices, float)
        if vertices.ndim != 3 or vertices.shape[2] != 2:
            raise ValueError("vertices must have shape (nvi, nvj, 2)")
        if vertices.shape[0] < 2 or vertices.shape[1] < 2:
            raise ValueError("a block needs at least one element")
        self.vertices = vertices
        self.name = name
        self.ni = vertices.shape[0] - 1
        self.nj = vertices.shape[1] - 1
        self.n_elements = self.ni * self.nj
        tags = {} if tags is None else tags
        self.tags = {}
        for face, side in SIDE_NAMES.items():
            n = self.nj if face in (FACE_W, FACE_E) else self.ni
            t = tags.get(face, TAG_OUTFLOW)
            t = np.full(n, t, int) if np.isscalar(t) else np.array(t, int)
            if t.shape != (n,):
                raise ValueError(
                    f"tag array length mismatch on the {side} side")
            self.tags[face] = t
        self.face_pairs, self.boundary_sides = self._face_table()
        self._geometry_cache = {}

    def _face_table(self):
        """Face pairs and tagged boundary sides of the structured grid.

        Interior pairs come first, then one wrap pair per periodic
        direction; the boundary sides leave periodic sides out.
        """
        every, first, last = slice(None), slice(0, 1), slice(-1, None)
        interior, wraps, sides = [], [], []
        for lo, hi, n, at in (
                (FACE_W, FACE_E, self.ni, lambda s: (s, every)),
                (FACE_S, FACE_N, self.nj, lambda s: (every, s))):
            if n > 1:
                interior.append((hi, at(slice(None, -1)),
                                 lo, at(slice(1, None))))
            periodic = {}
            for f in (lo, hi):
                p = self.tags[f] == TAG_PERIODIC
                if p.any() and not p.all():
                    raise ValueError(
                        f"block {self.name!r}: the {SIDE_NAMES[f]} side is "
                        "only partly periodic; periodic takes whole sides")
                periodic[f] = p.all()
            if periodic[lo] != periodic[hi]:
                f, g = (lo, hi) if periodic[lo] else (hi, lo)
                raise ValueError(
                    f"block {self.name!r}: the {SIDE_NAMES[f]} side is "
                    f"periodic but the {SIDE_NAMES[g]} side is not")
            if periodic[lo]:
                wraps.append((hi, at(last), lo, at(first)))
            else:
                sides += [(lo, at(first)), (hi, at(last))]
        return interior + wraps, sides

    # corner fields as (ni, nj) arrays
    @property
    def corners(self):
        V = self.vertices
        return (V[:-1, :-1], V[1:, :-1], V[1:, 1:], V[:-1, 1:])

    def element_centroids(self):
        c00, c10, c11, c01 = self.corners
        return 0.25 * (c00 + c10 + c11 + c01)

    def map_points(self, r, s):
        """Map reference points (r, s), each of shape (npts,), through
        every element's bilinear mapping: (ni, nj, npts, 2).

        Computed node-major, one coordinate at a time, on (npts, ni, nj)
        arrays, so no pass broadcasts against the node or coordinate
        axis; each coordinate is transposed once into place.
        """
        r = np.asarray(r, float)[:, None, None]
        s = np.asarray(s, float)[:, None, None]
        n00 = (1 - r) * (1 - s) / 4.0
        n10 = (1 + r) * (1 - s) / 4.0
        n11 = (1 + r) * (1 + s) / 4.0
        n01 = (1 - r) * (1 + s) / 4.0
        out = np.empty((self.ni, self.nj, r.shape[0], 2))
        for k in range(2):
            c00, c10, c11, c01 = (c[..., k] for c in self.corners)
            out[..., k] = (c00 * n00 + c10 * n10 + c11 * n11
                           + c01 * n01).transpose(1, 2, 0)
        return out

    def geometry(self, basis):
        """Metric data for a basis, cached per polynomial order."""
        key = basis.order
        cached = self._geometry_cache.get(key)
        if cached is None:
            cached = _BlockGeometry(self, basis)
            self._geometry_cache[key] = cached
        return cached

    def __repr__(self):
        return f"GridBlock({self.name!r}, {self.ni}x{self.nj})"


def _metrics(block, r, s):
    """Derivatives x_r, y_r, x_s, y_s of the bilinear element maps and
    det J = x_r y_s - x_s y_r at reference points (r, s), each (npts,);
    each result is node-major, (npts, ni, nj)."""
    c00, c10, c11, c01 = block.corners
    r = r[:, None, None]
    s = s[:, None, None]

    def d_dr(k):
        return ((c10[..., k] - c00[..., k]) * (1 - s)
                + (c11[..., k] - c01[..., k]) * (1 + s)) / 4.0

    def d_ds(k):
        return ((c01[..., k] - c00[..., k]) * (1 - r)
                + (c11[..., k] - c10[..., k]) * (1 + r)) / 4.0

    x_r, y_r, x_s, y_s = d_dr(0), d_dr(1), d_ds(0), d_ds(1)
    return x_r, y_r, x_s, y_s, x_r * y_s - x_s * y_r


def _element_major(a):
    """A node-major (npts, ni, nj) field as a contiguous (ni, nj, npts)
    one."""
    return np.ascontiguousarray(a.transpose(1, 2, 0))


class _BlockGeometry:
    """Quadrature-point metrics of one block under one basis.

    The elements are straight-sided, so det J is bilinear and the mass
    matrix is V_g^T diag(w_g J) V_g exactly at the basis's (N+1)^2 Gauss
    points. Its inverse is V_g^T diag(minv_scale) V_g, with
    ``minv_scale`` = w_g / J there, shape (ni, nj, n_modes), the only
    per-element data the inverse needs.

    The metrics are built node-major (``_metrics``) and stored element
    major, (ni, nj, npts). The volume quadrature points are not stored:
    ``vol_points`` maps them at each read, and only set-up and answer
    work (projection, L2 errors, transfer operators) reads them.
    """

    def __init__(self, block, basis):
        self.block = block
        self.basis = basis
        c00, c10, c11, c01 = block.corners
        x_r, y_r, x_s, y_s, detJ = _metrics(block, *basis.vol_nodes.T)
        if np.any(detJ <= 0.0):
            bad = np.argwhere((detJ <= 0.0).any(axis=0))[0]
            raise ValueError(
                f"block {block.name!r}: degenerate or inverted element "
                f"(i={bad[0]}, j={bad[1]})")
        g_r = np.sqrt(x_r ** 2 + y_r ** 2)
        g_s = np.sqrt(x_s ** 2 + y_s ** 2)
        self.h_dt = 2.0 * np.min(detJ / np.maximum(g_r, g_s), axis=0)
        self.x_r, self.y_r, self.x_s, self.y_s, self.detJ = map(
            _element_major, (x_r, y_r, x_s, y_s, detJ))
        # the Gauss points lie inside the hull of the volume nodes, where
        # the bilinear det J is positive
        self.minv_scale = _element_major(
            basis.gauss_weights[:, None, None]
            / _metrics(block, *basis.gauss_nodes.T)[4])
        self.element_area = np.einsum("q,ijq->ij", basis.vol_weights,
                                      self.detJ)

        # straight edges: constant tangent, normal, half-length per face
        V00, V10, V11, V01 = c00, c10, c11, c01
        self.face_normal = {}
        self.face_sj = {}
        # rotating the edge tangent t by -90 deg gives (t_y, -t_x); the
        # outward sense per face is fixed by the reference orientation
        for face, (a, b, sign_out) in {
            FACE_W: (V00, V01, -1.0),   # tangent is d/ds along the edge
            FACE_E: (V10, V11, +1.0),
            FACE_S: (V00, V10, +1.0),   # tangent is d/dr along the edge
            FACE_N: (V01, V11, -1.0),
        }.items():
            t = (b - a) / 2.0  # derivative of position along the face param
            sj = np.sqrt(t[..., 0] ** 2 + t[..., 1] ** 2)
            if np.any(sj <= 0.0):
                bad = np.argwhere(sj <= 0.0)[0]
                raise ValueError(
                    f"block {block.name!r}: zero-length edge at element "
                    f"(i={bad[0]}, j={bad[1]}) face {face}")
            n = np.stack([t[..., 1], -t[..., 0]], axis=-1) * sign_out
            self.face_normal[face] = n / sj[..., None]
            self.face_sj[face] = sj

        # characteristic size
        edge_len = {f: 2.0 * self.face_sj[f] for f in self.face_sj}
        self.h_max_edge = np.maximum.reduce(list(edge_len.values()))

    @property
    def vol_points(self):
        """Volume quadrature points, (ni, nj, nq, 2), mapped at each read
        (class docstring)."""
        return self.block.map_points(*self.basis.vol_nodes.T)
