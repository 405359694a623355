"""Modal discontinuous Galerkin discretization of 2D compressible Euler.

One ``Discretization`` owns a grid block, a basis, a gas model, and a
numerical flux, and evaluates the semi-discrete right-hand side

    d coeffs / dt = Minv * (volume term - surface term)

in the weak form: the volume term contracts the physical fluxes against
basis gradients through the cofactor metrics, and the surface term
integrates a single numerical flux per interior face, added to the left
element and subtracted from the right, so conservation holds to round-off.

Minv is applied at the (N+1)^2 Gauss points, as V_g^T diag(w_g / J) V_g
(``Discretization.inverse_mass``). That is the exact inverse, not an
approximation, only because every element is a straight-sided bilinear
quad: det J is bilinear, so N+1 Gauss points per direction integrate the
mass matrix exactly (Hesthaven & Warburton 2008, sec. 6; the exact case
of the weight-adjusted inverse of Chan, Hewett & Warburton, SIAM J. Sci.
Comput. 39, 2017). No per-element matrix is built or stored.

Coefficient layout: ``(4, ni, nj, n_modes)`` — variable first, element
grid, then modal index.

The volume flux is built from the contravariant velocities
U = u y_s - v x_s and W = v x_r - u y_r, one primitive state per node:

    A = F y_s - G x_s = (rho U, m_x U + p y_s, m_y U - p x_s, (E + p) U)
    B = G x_r - F y_r = (rho W, m_x W - p y_r, m_y W + p x_r, (E + p) W)

and contracted against the weighted basis gradients.

Only the active elements evolve (``Discretization.active_mask``; overset
assembly turns holes and fringes off). The element-local work -- the
volume term, the face lift, the mass inverse, the wave speed and the
positivity guard -- runs on those elements only, and the residual is
exactly zero elsewhere. The face fluxes are computed on the whole block
through the face table's slices, which is cheaper than gathering the
faces of the active elements.

Which element lies across each face comes from the block's face table
(``GridBlock.face_pairs``): interior faces, and periodic sides, which
are whole sides in opposite pairs, each get one flux call per pair. The
remaining boundary sides (``GridBlock.boundary_sides``) share a single
flux call: their faces form one batch, side after side in the order of
``boundary_sides``, each side's faces in element order, and one
vectorised pass builds every ghost state of the batch from the per-face
tags: inflow (free-stream Dirichlet through the flux), outflow
(zero-gradient copy), slip wall (normal-velocity mirror), and interface
(copy; the overset layer owns those faces by overwriting fringe
coefficients). A residual thus makes ``len(face_pairs) + 1`` flux calls
(``len(face_pairs)`` on a fully periodic block). The flux is pointwise,
so the batch gives the same face values as one call per side.
"""

from __future__ import annotations

import numpy as np

from . import gas as gasmod
from .basis import FACE_W, FACE_E, FACE_S, FACE_N
from .fluxes import get_flux
from .mesh import TAG_INFLOW, TAG_OUTFLOW, TAG_WALL

FACES = (FACE_W, FACE_E, FACE_S, FACE_N)


class Discretization:
    def __init__(self, block, basis, gas, flux="lax_friedrichs",
                 bc_state=None):
        self.block = block
        self.basis = basis
        self.gas = gas
        self.flux = get_flux(flux) if isinstance(flux, str) else flux
        self.flux_name = (flux if isinstance(flux, str)
                          else getattr(flux, "__name__", "custom"))
        self.geo = block.geometry(basis)
        self.bc_state = None if bc_state is None else np.asarray(bc_state, float)
        self.active_mask = np.ones((block.ni, block.nj), bool)
        w1 = basis.q1d_weights
        wv = basis.vol_weights[:, None]
        self._vol_WDr = basis.vol_Dr * wv
        self._vol_WDs = basis.vol_Ds * wv
        # flux*sJ at the W, E, S, N face nodes -> minus the surface term
        self._lift = -np.vstack([basis.face_V[f] * w1[:, None]
                                 for f in FACES])
        self._vol_WV = basis.vol_V * wv
        # integral of every mode over every element, (ni, nj, n_modes)
        self._mode_integrals = ((basis.vol_weights * self.geo.detJ)
                                @ basis.vol_V)
        self._boundary_table()

    def _boundary_table(self):
        """The batch of all boundary-side faces (module docstring).

        ``_bnd_sides`` holds one ``(face, sel, rows, shape)`` per side:
        its faces are rows ``rows`` of the batch and have the element
        shape ``shape`` in the block. The batch's outward normals
        (n, 1) and ``face_sj`` (1, n, 1) broadcast against its
        (4, n, nq) traces; ``_bnd_tagged`` maps each ghost-building tag
        present to the rows that carry it and their normals.
        """
        geo, block = self.geo, self.block
        sides = block.boundary_sides
        self._bnd_sides = []
        if not sides:
            return
        start = 0
        for face, sel in sides:
            shape = geo.face_sj[face][sel].shape
            rows = slice(start, start + shape[0] * shape[1])
            self._bnd_sides.append((face, sel, rows, shape))
            start = rows.stop
        nrm = np.concatenate([geo.face_normal[f][s].reshape(-1, 2)
                              for f, s in sides])
        self._bnd_nx, self._bnd_ny = nrm[:, 0, None], nrm[:, 1, None]
        self._bnd_sj = np.concatenate(
            [geo.face_sj[f][s].ravel() for f, s in sides])[None, :, None]
        tags = np.concatenate([block.tags[f] for f, _ in sides])
        self._bnd_tagged = {}
        for tag in (TAG_OUTFLOW, TAG_WALL, TAG_INFLOW):
            rows = np.flatnonzero(tags == tag)
            if rows.size == 0:
                continue
            if rows[-1] - rows[0] + 1 == rows.size:  # contiguous: a view
                rows = slice(rows[0], rows[-1] + 1)
            self._bnd_tagged[tag] = (rows, self._bnd_nx[rows],
                                     self._bnd_ny[rows])

    @property
    def active_mask(self):
        """Read-only (ni, nj) flags of the elements whose coefficients
        evolve; overset assembly narrows it by assigning a new mask."""
        return self._active_mask

    @active_mask.setter
    def active_mask(self, mask):
        mask = np.array(mask, bool)
        shape = (self.block.ni, self.block.nj)
        if mask.shape != shape:
            raise ValueError(f"block {self.block.name!r}: active_mask has "
                             f"shape {mask.shape}, expected {shape}")
        mask.flags.writeable = False
        self._active_mask = mask
        # the selection the element-local kernels run on, for indexing
        # after the variable axis: plain slices (views, no copies) when
        # every element is active, the boolean mask otherwise
        self._all_active = bool(mask.all())
        self.active_sel = ((slice(None), slice(None)) if self._all_active
                           else (mask,))
        geo = self.geo
        self._active_metrics = tuple(m[self.active_sel] for m in
                                     (geo.x_r, geo.x_s, geo.y_r, geo.y_s))

    # ---- projection / evaluation -------------------------------------
    def project(self, fn):
        """L2-project ``fn(x, y) -> (4, ...)`` onto the modal space."""
        pts = self.geo.vol_points
        vals = np.asarray(fn(pts[..., 0], pts[..., 1]), float)
        rhs = np.einsum("qp,vijq->vijp", self._vol_WV,
                        vals * self.geo.detJ[None], optimize=True)
        return self.inverse_mass(rhs)

    def inverse_mass(self, r, mask=None):
        """Apply each element's inverse mass matrix to the last axis of r.

        ``r`` has shape (..., ni, nj, n_modes), or the shape of the
        elements that ``mask`` selects: a boolean (ni, nj) mask gives
        (..., n, n_modes), ``active_sel`` that of the active elements.
        """
        scale = self.geo.minv_scale
        if mask is not None:
            scale = scale[mask]
        Vg = self.basis.gauss_V
        return ((r @ Vg.T) * scale) @ Vg

    def project_constant(self, state):
        """Coefficients representing one uniform conserved state."""
        c = np.zeros((4, self.block.ni, self.block.nj, self.basis.n_modes))
        c[:, :, :, self.basis.mode_const] = np.asarray(state, float)[:, None, None] * 2.0
        return c

    def evaluate(self, coeffs):
        """Point values at the volume quadrature nodes: (..., nq) for
        coefficients (..., n_modes), (4, ni, nj, nq) for a whole block."""
        return coeffs @ self.basis.vol_V.T

    def face_traces(self, coeffs):
        return {f: coeffs @ self.basis.face_V[f].T for f in FACES}

    def cell_means(self, coeffs):
        """Per-element means of the conserved variables, shape (4,ni,nj)."""
        tot = np.einsum("vijp,ijp->vij", coeffs, self._mode_integrals)
        return tot / self.geo.element_area[None]

    def conserved_totals(self, coeffs, mask=None):
        """Domain integrals of the four conserved variables."""
        contrib = np.einsum("vijp,ijp->vij", coeffs, self._mode_integrals)
        if mask is not None:
            contrib = contrib * mask[None]
        return contrib.sum(axis=(1, 2))

    def l2_error(self, coeffs, fn, mask=None):
        """Composite L2 norm of (solution - fn) over (masked) elements."""
        pts = self.geo.vol_points
        ref = np.asarray(fn(pts[..., 0], pts[..., 1]), float)
        diff = self.evaluate(coeffs) - ref
        cell = np.einsum("q,vijq,ijq->vij", self.basis.vol_weights,
                         diff * diff, self.geo.detJ, optimize=True)
        if mask is not None:
            cell = cell * mask[None]
        return np.sqrt(cell.sum(axis=(1, 2)))

    def max_wave_speed(self, coeffs):
        """Per-element max |u| + a over the volume nodes, shape (ni, nj);
        computed at the active elements only, zero at the others."""
        vals = self.evaluate(coeffs[(slice(None), *self.active_sel)])
        lam = gasmod.max_wave_speed(vals, self.gas).max(axis=-1)
        if self._all_active:
            return lam
        out = np.zeros(self._active_mask.shape)
        out[self._active_mask] = lam
        return out

    # ---- boundary ghosts ---------------------------------------------
    def _ghost_states(self, q_in):
        """Ghost traces of the boundary-face batch, from its interior
        traces ``q_in`` (4, n_boundary_faces, nq), in one pass."""
        ghost = q_in.copy()  # outflow / interface default: zero gradient
        tagged = self._bnd_tagged
        if TAG_OUTFLOW in tagged:
            # one-way boundary: an extrapolated ghost that would carry
            # mass back in (re-entrant normal momentum) gets its normal
            # momentum clipped to zero, otherwise the boundary acts as a
            # reservoir feeding spurious unstarted states
            rows, nx, ny = tagged[TAG_OUTFLOW]
            qo = q_in[:, rows]
            neg = np.minimum(qo[1] * nx + qo[2] * ny, 0.0)
            ghost[1, rows] = qo[1] - neg * nx
            ghost[2, rows] = qo[2] - neg * ny
        if TAG_WALL in tagged:
            rows, nx, ny = tagged[TAG_WALL]
            qw = q_in[:, rows]
            vn = qw[1] * nx + qw[2] * ny
            ghost[1, rows] = qw[1] - 2.0 * vn * nx
            ghost[2, rows] = qw[2] - 2.0 * vn * ny
        if TAG_INFLOW in tagged:
            if self.bc_state is None:
                raise ValueError(
                    f"block {self.block.name!r}: inflow tag present but no "
                    "free-stream state was given")
            ghost[:, tagged[TAG_INFLOW][0]] = self.bc_state[:, None, None]
        return ghost

    # ---- residual ----------------------------------------------------
    def residual(self, coeffs):
        """Semi-discrete rate of change of the modal coefficients, exactly
        zero at inactive elements."""
        geo, gas = self.geo, self.gas
        v = slice(None)  # the variable axis, ahead of an element selection
        act = (v, *self.active_sel)

        # volume term at the active elements, from the contravariant
        # velocities U, W (module docstring)
        q = self.evaluate(coeffs[act])
        _, ux, uy, p = gasmod.primitives(q, gas)
        x_r, x_s, y_r, y_s = self._active_metrics
        U = ux * y_s - uy * x_s
        W = uy * x_r - ux * y_r
        A = q * U
        A[1] += p * y_s
        A[2] -= p * x_s
        A[3] += p * U
        B = q * W
        B[1] -= p * y_r
        B[2] += p * x_r
        B[3] += p * W
        rhs = A @ self._vol_WDr
        rhs += B @ self._vol_WDs

        # surface term: every element face's flux*sJ goes into one slot
        # of S, lifted below by one matmul; one flux per face pair, added
        # to one side and subtracted from the other
        tr = self.face_traces(coeffs)
        nf = self.basis.nq_1d
        S = np.empty(coeffs.shape[:-1] + (len(FACES) * nf,))
        slot = {f: S[..., k * nf:(k + 1) * nf] for k, f in enumerate(FACES)}
        for fa, sa, fb, sb in self.block.face_pairs:
            n = geo.face_normal[fa][sa]
            fhat = self.flux(tr[fa][(v, *sa)], tr[fb][(v, *sb)],
                             n[..., 0, None], n[..., 1, None], gas)
            fhat *= geo.face_sj[fa][sa][None, ..., None]
            slot[fa][(v, *sa)] = fhat
            np.negative(fhat, out=slot[fb][(v, *sb)])
        # every boundary side in one batch: gather, ghost, one flux call,
        # scatter back into the slots
        if self._bnd_sides:
            q_in = np.empty((4, self._bnd_sj.shape[1], nf))
            for face, sel, rows, _ in self._bnd_sides:
                q_in[:, rows] = tr[face][(v, *sel)].reshape(4, -1, nf)
            fhat = self.flux(q_in, self._ghost_states(q_in),
                             self._bnd_nx, self._bnd_ny, gas)
            fhat *= self._bnd_sj
            for face, sel, rows, shape in self._bnd_sides:
                slot[face][(v, *sel)] = fhat[:, rows].reshape(4, *shape, nf)
        rhs += S[act] @ self._lift

        rhs = self.inverse_mass(rhs, self.active_sel)
        if self._all_active:
            return rhs
        out = np.zeros(coeffs.shape)
        out[act] = rhs
        return out

