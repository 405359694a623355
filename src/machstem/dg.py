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
        # elements whose coefficients evolve; overset assembly narrows this
        self.active_mask = np.ones((block.ni, block.nj), bool)
        w1 = basis.q1d_weights
        # basis columns pre-weighted by face quadrature weights
        self._face_W = {f: basis.face_V[f] * w1[:, None]
                        for f in (FACE_W, FACE_E, FACE_S, FACE_N)}
        self._vol_WDr = basis.vol_Dr * basis.vol_weights[:, None]
        self._vol_WDs = basis.vol_Ds * basis.vol_weights[:, None]
        self._vol_WV = basis.vol_V * basis.vol_weights[:, None]
        # integral of every mode over every element, (ni, nj, n_modes)
        self._mode_integrals = ((basis.vol_weights * self.geo.detJ)
                                @ basis.vol_V)

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

        ``r`` has shape (..., ni, nj, n_modes), or (..., n, n_modes) over
        the n elements selected by the boolean (ni, nj) ``mask``.
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
        """Point values at the volume quadrature nodes, shape (4,ni,nj,nq)."""
        return np.einsum("qp,vijp->vijq", self.basis.vol_V, coeffs,
                         optimize=True)

    def face_traces(self, coeffs):
        return {f: np.einsum("qp,vijp->vijq", self.basis.face_V[f], coeffs,
                             optimize=True)
                for f in (FACE_W, FACE_E, FACE_S, FACE_N)}

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
        """Per-element max |u| + a over the volume nodes, shape (ni,nj)."""
        vals = self.evaluate(coeffs)
        return gasmod.max_wave_speed(vals, self.gas).max(axis=2)

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
    def residual(self, coeffs, mask_inactive=True):
        """Semi-discrete rate of change of the modal coefficients."""
        geo, gas = self.geo, self.gas
        vals = self.evaluate(coeffs)
        F, G = gasmod.flux(vals, gas)
        A = F * geo.y_s[None] - G * geo.x_s[None]
        B = -F * geo.y_r[None] + G * geo.x_r[None]
        rhs = (np.einsum("qp,vijq->vijp", self._vol_WDr, A, optimize=True)
               + np.einsum("qp,vijq->vijp", self._vol_WDs, B, optimize=True))

        tr = self.face_traces(coeffs)
        v = slice(None)  # the variable axis, ahead of an element selection

        def surf(face, sel, fhat_sj):
            """Accumulate -(surface integral) of fhat*sJ over one face of
            the selected elements."""
            rhs[(v, *sel)] -= np.einsum("qp,vijq->vijp", self._face_W[face],
                                        fhat_sj, optimize=True)

        # one flux per face pair, added to one side, subtracted from the other
        for fa, sa, fb, sb in self.block.face_pairs:
            n = geo.face_normal[fa][sa]
            fhat = self.flux(tr[fa][(v, *sa)], tr[fb][(v, *sb)],
                             n[..., 0, None], n[..., 1, None], gas)
            fhat_sj = fhat * geo.face_sj[fa][sa][None, ..., None]
            surf(fa, sa, fhat_sj)
            surf(fb, sb, -fhat_sj)

        for face, sel in self.block.boundary_sides:
            n = geo.face_normal[face][sel]
            q_in = tr[face][(v, *sel)]
            fhat = self.flux(q_in, self._ghost_states(q_in, face, n),
                             n[..., 0, None], n[..., 1, None], gas)
            surf(face, sel, fhat * geo.face_sj[face][sel][None, ..., None])

        rhs = self.inverse_mass(rhs)
        if mask_inactive and not self.active_mask.all():
            rhs[:, ~self.active_mask] = 0.0
        return rhs
