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
volume term, the face lift, the mass inverse and the wave speed -- runs
on those elements only, and the residual is exactly zero elsewhere. The
positivity guard (``stabilization``) bounds every element from its
modes in one whole-block pass, and gathers the few it cannot prove.

Every pass over a block's nodes runs over row blocks: ranges of the
element index ``i`` of ``BLOCK_NODES // (nj * points per element)``
rows, where the points are the volume nodes of an element-local pass and
the face points of a flux call. Such a pass keeps about 20 node-sized
temporaries alive at once. Over a whole 200x100 P1 block that is about
25 MB, which streams from memory; over ``BLOCK_NODES`` = 16384 nodes it
is about 2.6 MB, which stays near a core's 2 MB L2 cache (loop tiling:
Wolf & Lam, PLDI 1991). The value was measured, not derived: row blocks
of one row made the 200x100 P1 march 1.5 times slower through per-call
overhead, and 36864-node row blocks made the two-block P4 vortex march
slower through page faults. A block smaller than one row block runs as
a single row block.

The element-local passes run on ``Discretization.row_blocks``: a row
block whose elements are all active is selected by its slice, a view;
one with no active element is left out; a partly active one gathers its
active elements. The face fluxes are computed on the whole block through
the face table's slices, one call per row range of each face pair, which
is cheaper than gathering the faces of the active elements.

Which element lies across each face comes from the block's face table
(``GridBlock.face_pairs``): interior faces, and periodic sides, which
are whole sides in opposite pairs, each get one flux call per row range
of the pair. The remaining boundary sides (``GridBlock.boundary_sides``)
share a single flux call: their faces form one batch, side after side in
the order of ``boundary_sides``, each side's faces in element order, and
one vectorised pass builds every ghost state of the batch from the per-face
tags: inflow (free-stream Dirichlet through the flux), outflow
(zero-gradient copy), slip wall (normal-velocity mirror), and interface
(copy; the overset layer owns those faces by overwriting fringe
coefficients). A residual thus makes one flux call per row range of
every face pair, plus one for the batch unless the block is fully
periodic. The flux is pointwise, so the row ranges and the batch give
the same face values as one call per pair and per side.

The passes over row blocks and face row ranges run on every CPU the
process may use (``WORKERS``, its affinity set): ``dispatch`` cuts a
pass's tasks into ``WORKERS`` interleaved shares, runs the first on the
calling thread and the others on a pool of ``WORKERS - 1`` threads,
made on first use. Four passes go through it: the face fluxes (one task
per row range of a face pair, one for the boundary batch), the volume
terms of the residual after them (one per row block), the wave speed
(one per row block), and the overset transfer (``OversetAssembly``; its
two directions). Each task writes only its own elements or face slots
and no sum crosses tasks, so the results are bit for bit the serial
ones. The gate is the input's: a pass goes to the pool only when its
block spans more than one row block (``Discretization.pooled``), as the
per-call cost of the pool outweighs a few small tasks. Each share runs
in a copy of the caller's context, which carries numpy's ``errstate``;
a forked child drops the pool it inherits without its threads and makes
its own; a dispatch made from a pool thread runs serially there, as
waiting on the pool from inside it could deadlock. With one CPU there
is no pool and every pass is the serial loop. Wall time falls; CPU time
does not.

Each ``Discretization`` owns one face-trace scratch (four (4, ni, nj,
nq_1d) arrays) and one surface-flux array (4, ni, nj, 4 * nq_1d),
allocated on first use and kept for the block's life, so a march does
not allocate, free and fault in these block-sized arrays at every
residual. ``face_traces`` and ``_surface_fluxes`` return that scratch,
and the next call on the same block overwrites it; copy what must
outlive it. ``residual`` writes into the caller's array when given one.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from . import gas as gasmod
from .basis import FACE_W, FACE_E, FACE_S, FACE_N
from .fluxes import get_flux
from .mesh import TAG_INFLOW, TAG_OUTFLOW, TAG_WALL

FACES = (FACE_W, FACE_E, FACE_S, FACE_N)

# points per row block: about 20 node-sized float64 temporaries of this
# many points fill a 2 MB L2 cache (module docstring)
BLOCK_NODES = 16384


def _row_ranges(n, height):
    """Consecutive ranges of at most ``height`` (at least 1) of n rows."""
    height = max(1, height)
    return [slice(a, min(a + height, n)) for a in range(0, n, height)]


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# the CPUs this process may run on: the caller and WORKERS - 1 pool
# threads share a pass (module docstring)
WORKERS = _cpus()
_pool = None
_pool_lock = threading.Lock()
_local = threading.local()


def _mark_worker():
    _local.in_pool = True


def _forget_pool():
    # a forked child inherits the pool object but not its threads, and
    # the lock in whatever state another thread held it
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_share(share):
    for task in share:
        task()


def dispatch(tasks, pooled):
    """Call every task, a callable of no argument; on the pool when
    ``pooled``.

    The tasks are cut into ``WORKERS`` interleaved shares; the caller
    runs the first and the pool the others, each in a copy of the
    caller's context, so its ``np.errstate`` holds there too. Every
    share has finished when this returns or raises; the caller's error
    comes first, then the workers' in share order. Serial with one CPU,
    with fewer than two tasks, and when called from a pool thread.
    """
    global _pool
    n = min(WORKERS, len(tasks))
    if not pooled or n < 2 or getattr(_local, "in_pool", False):
        _run_share(tasks)
        return
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(WORKERS - 1, "machstem-dg",
                                       initializer=_mark_worker)
        pool = _pool
    futures = [pool.submit(contextvars.copy_context().run, _run_share,
                           tasks[k::n]) for k in range(1, n)]
    try:
        _run_share(tasks[::n])
    finally:
        errors = [f.exception() for f in futures]
    for err in errors:
        if err is not None:
            raise err


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
        # I_p / I_0 for p >= 1, the change of an element's mode 0 that
        # keeps its mean when mode p falls by one, at the elements (flat
        # indices) where one is nonzero; on a parallelogram every one is
        # rounding of a zero, below 1e-13, and is stored as 0
        # (stabilization.moment_limit)
        shift = self._mode_integrals[..., 1:] / self._mode_integrals[..., :1]
        shift[np.abs(shift) < 1e-13] = 0.0
        self.skewed = np.flatnonzero(shift.any(axis=-1))
        self.mean_shift = shift.reshape(block.ni * block.nj,
                                        basis.n_modes - 1)[self.skewed]
        self._pair_table()
        self._boundary_table()
        # the face-trace and surface-flux scratch (module docstring),
        # allocated by the first call that needs it
        self._traces = None
        self._S = None

    def _pair_table(self):
        """Each face pair cut into row ranges (module docstring).

        ``_pair_rows`` holds one ``(face_a, sel_a, face_b, sel_b, nx, ny,
        sj)`` per row range: the pair restricted to those rows of its
        elements, with face a's normals (..., 1) and ``face_sj``
        (1, ..., 1) there, all views.
        """
        geo, block = self.geo, self.block
        height = BLOCK_NODES // (block.nj * self.basis.nq_1d)
        self._pair_rows = []
        for fa, sa, fb, sb in block.face_pairs:
            a0, a1, _ = sa[0].indices(block.ni)
            b0 = sb[0].indices(block.ni)[0]
            for r in _row_ranges(a1 - a0, height):
                ra = (slice(a0 + r.start, a0 + r.stop), sa[1])
                rb = (slice(b0 + r.start, b0 + r.stop), sb[1])
                n = geo.face_normal[fa][ra]
                self._pair_rows.append(
                    (fa, ra, fb, rb, n[..., 0, None], n[..., 1, None],
                     geo.face_sj[fa][ra][None, ..., None]))

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
        # the row blocks of active elements (module docstring), each an
        # index of the element axes: a slice of rows, or the (i, j)
        # indices of the active elements of a partly active block
        height = BLOCK_NODES // (shape[1] * self.basis.vol_V.shape[0])
        ranges = _row_ranges(shape[0], height)
        # the gate of the pool (module docstring): whether the block
        # spans more than one row block, whatever its mask
        self.pooled = len(ranges) > 1
        blocks = []
        for rows in ranges:
            on = mask[rows]
            if on.all():
                blocks.append((rows, slice(None)))
            elif on.any():
                i, j = np.nonzero(on)
                blocks.append((i + rows.start, j))
        self.row_blocks = tuple(blocks)
        self._inactive = np.nonzero(~mask)
        geo = self.geo
        self._row_metrics = tuple(
            tuple(m[sel] for m in (geo.x_r, geo.x_s, geo.y_r, geo.y_s))
            for sel in blocks)

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
        elements that ``mask``, an index of the (ni, nj) element grid,
        selects: a boolean (ni, nj) mask gives (..., n, n_modes), a row
        block (``row_blocks``) the shape of its elements.
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
        """Values at the face quadrature points, {face: (4, ni, nj,
        nq_1d)}: the block's trace scratch, which the next call
        overwrites (module docstring)."""
        if self._traces is None:
            shape = (4, self.block.ni, self.block.nj, self.basis.nq_1d)
            self._traces = {f: np.empty(shape) for f in FACES}
        for f, t in self._traces.items():
            np.matmul(coeffs, self.basis.face_V[f].T, out=t)
        return self._traces

    def cell_means(self, coeffs, mask=None):
        """Per-element means of the conserved variables, shape (4,ni,nj).

        With ``mask``, an index of the (ni, nj) element grid, ``coeffs``
        holds the selected elements only, (4, ..., n_modes), and so does
        the result, (4, ...).
        """
        integrals, area = self._mode_integrals, self.geo.element_area
        if mask is not None:
            integrals, area = integrals[mask], area[mask]
        tot = np.einsum("v...p,...p->v...", coeffs, integrals)
        return tot / area[None]

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
        computed at the active elements only, a row block at a time,
        zero at the others."""
        out = np.zeros(self._active_mask.shape)

        def wave(sel):
            vals = self.evaluate(coeffs[(slice(None), *sel)])
            out[sel] = gasmod.max_wave_speed(vals, self.gas).max(axis=-1)

        dispatch([partial(wave, sel) for sel in self.row_blocks],
                 self.pooled)
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
    def _surface_fluxes(self, coeffs):
        """flux*sJ at every element face, (4, ni, nj, 4 * nq_1d): face
        k's quadrature points are slot k, faces in ``FACES`` order. One
        flux per face pair, added to one side and subtracted from the
        other, one flux call per row range of a pair (``_pair_rows``).
        The result is the block's surface-flux scratch, which the next
        call overwrites (module docstring)."""
        gas = self.gas
        v = slice(None)  # the variable axis, ahead of an element selection
        tr = self.face_traces(coeffs)
        nf = self.basis.nq_1d
        if self._S is None:
            self._S = np.empty((4, self.block.ni, self.block.nj,
                                len(FACES) * nf))
        S = self._S
        slot = {f: S[..., k * nf:(k + 1) * nf] for k, f in enumerate(FACES)}

        def pair(fa, sa, fb, sb, nx, ny, sj):
            fhat = self.flux(tr[fa][(v, *sa)], tr[fb][(v, *sb)], nx, ny, gas)
            fhat *= sj
            slot[fa][(v, *sa)] = fhat
            np.negative(fhat, out=slot[fb][(v, *sb)])

        def boundary():
            # every boundary side in one batch: gather, ghost, one flux
            # call, scatter back into the slots
            q_in = np.empty((4, self._bnd_sj.shape[1], nf))
            for face, sel, rows, _ in self._bnd_sides:
                q_in[:, rows] = tr[face][(v, *sel)].reshape(4, -1, nf)
            fhat = self.flux(q_in, self._ghost_states(q_in),
                             self._bnd_nx, self._bnd_ny, gas)
            fhat *= self._bnd_sj
            for face, sel, rows, shape in self._bnd_sides:
                slot[face][(v, *sel)] = fhat[:, rows].reshape(4, *shape, nf)

        tasks = [partial(pair, *rows) for rows in self._pair_rows]
        if self._bnd_sides:
            tasks.append(boundary)
        dispatch(tasks, self.pooled)
        return S

    def residual(self, coeffs, out=None):
        """Semi-discrete rate of change of the modal coefficients, exactly
        zero at inactive elements, written into ``out`` (a new array
        when None) and returned."""
        S = self._surface_fluxes(coeffs)
        if out is None:
            out = np.empty(coeffs.shape)
        out[(slice(None), *self._inactive)] = 0.0

        def volume(sel, x_r, x_s, y_r, y_s):
            at = (slice(None), *sel)
            # volume term from the contravariant velocities U, W (module
            # docstring)
            q = self.evaluate(coeffs[at])
            _, ux, uy, p = gasmod.primitives(q, self.gas)
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
            # surface term, lifted by one matmul
            rhs += S[at] @ self._lift
            out[at] = self.inverse_mass(rhs, sel)

        dispatch([partial(volume, sel, *metrics) for sel, metrics
                  in zip(self.row_blocks, self._row_metrics)], self.pooled)
        return out
