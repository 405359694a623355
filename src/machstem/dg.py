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
are whole sides in opposite pairs, each get one flux per pair. The
remaining boundary sides (``GridBlock.boundary_sides``) take a ghost
state from the per-face tag arrays: inflow (free-stream Dirichlet
through the flux), outflow (zero-gradient copy), slip wall
(normal-velocity mirror), and interface (copy; the overset layer owns
those faces by overwriting fringe coefficients).
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
    def _ghost_states(self, q_in, face, nrm):
        """Ghost trace for one boundary side from the tag array.

        q_in: (4, ni, nj, nq) interior trace of the side's elements, one of
        ni, nj being 1; nrm: (ni, nj, 2) outward unit normals.
        """
        tags = self.block.tags[face].reshape(q_in.shape[1:3])
        ghost = q_in.copy()  # outflow / interface default: zero gradient
        out = tags == TAG_OUTFLOW
        if np.any(out):
            # one-way boundary: an extrapolated ghost that would carry
            # mass back in (re-entrant normal momentum) gets its normal
            # momentum clipped to zero, otherwise the boundary acts as a
            # reservoir feeding spurious unstarted states
            nx = nrm[out, 0][:, None]
            ny = nrm[out, 1][:, None]
            qo = q_in[:, out, :]
            vn = qo[1] * nx + qo[2] * ny
            neg = np.minimum(vn, 0.0)
            go = qo.copy()
            go[1] = qo[1] - neg * nx
            go[2] = qo[2] - neg * ny
            ghost[:, out, :] = go
        wall = tags == TAG_WALL
        if np.any(wall):
            nx = nrm[wall, 0][:, None]
            ny = nrm[wall, 1][:, None]
            qw = q_in[:, wall, :]
            vn = qw[1] * nx + qw[2] * ny
            gw = qw.copy()
            gw[1] = qw[1] - 2.0 * vn * nx
            gw[2] = qw[2] - 2.0 * vn * ny
            ghost[:, wall, :] = gw
        infl = tags == TAG_INFLOW
        if np.any(infl):
            if self.bc_state is None:
                raise ValueError(
                    f"block {self.block.name!r}: inflow tag present but no "
                    "free-stream state was given")
            ghost[:, infl, :] = self.bc_state[:, None, None]
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
        for face, sel in self.block.boundary_sides:
            n = geo.face_normal[face][sel]
            q_in = tr[face][(v, *sel)]
            fhat = self.flux(q_in, self._ghost_states(q_in, face, n),
                             n[..., 0, None], n[..., 1, None], gas)
            np.multiply(fhat, geo.face_sj[face][sel][None, ..., None],
                        out=slot[face][(v, *sel)])
        rhs += S[act] @ self._lift

        rhs = self.inverse_mass(rhs, self.active_sel)
        if self._all_active:
            return rhs
        out = np.zeros(coeffs.shape)
        out[act] = rhs
        return out

