import gc
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from machstem import dg, stabilization
from machstem.basis import Basis, FACE_W, FACE_E, FACE_S, FACE_N
from machstem.dg import FACES, Discretization
from machstem.fluxes import get_flux
from machstem.gas import (GasModel, conserved, flux as euler_flux,
                          free_stream, pressure, primitives)
from machstem.mesh import (GridBlock, TAG_INFLOW, TAG_INTERFACE, TAG_OUTFLOW,
                           TAG_PERIODIC, TAG_WALL)
from machstem.mms import vortex_ic, vortex_state
from machstem.stabilization import positivity_guard
from machstem.timestepping import System
from machstem.wedge import FlowCase, build_wedge_grid

GAS = GasModel()


def wavy_block(nx, ny, amp=0.08, lx=1.0, ly=1.0, **kw):
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.zeros((nx + 1, ny + 1, 2))
    verts[..., 0] = lx * (X + amp * np.sin(np.pi * X) * np.sin(2 * np.pi * Y))
    verts[..., 1] = ly * (Y + amp * np.sin(2 * np.pi * X) * np.sin(np.pi * Y))
    return GridBlock(verts, **kw)


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("flux", ["lax_friedrichs", "slau2"])
def test_free_stream_preserved_on_curvilinear_block(order, flux):
    """Uniform flow through a distorted block must give a zero rate."""
    q_inf = free_stream(3.0, GAS)
    blk = wavy_block(6, 5, tags={FACE_W: TAG_INFLOW, FACE_E: TAG_OUTFLOW,
                                 FACE_S: TAG_OUTFLOW, FACE_N: TAG_OUTFLOW})
    disc = Discretization(blk, Basis(order), GAS, flux=flux, bc_state=q_inf)
    coeffs = disc.project_constant(q_inf)
    rhs = disc.residual(coeffs)
    assert np.max(np.abs(rhs)) < 1e-11


def test_free_stream_preserved_with_aligned_walls():
    """Walls parallel to a horizontal stream do not disturb it."""
    q_inf = free_stream(3.0, GAS)
    xs = np.linspace(0.0, 2.0, 9)
    ys = np.linspace(0.0, 1.0, 5)
    # shear interior columns sideways; walls stay straight horizontal lines
    verts = np.zeros((9, 5, 2))
    verts[..., 0] = xs[:, None] + 0.03 * np.sin(np.pi * ys[None, :] / 1.0)
    verts[..., 1] = ys[None, :]
    blk = GridBlock(verts, tags={FACE_W: TAG_INFLOW, FACE_E: TAG_OUTFLOW,
                                 FACE_S: TAG_WALL, FACE_N: TAG_WALL})
    disc = Discretization(blk, Basis(3), GAS, flux="slau2", bc_state=q_inf)
    coeffs = disc.project_constant(q_inf)
    assert np.max(np.abs(disc.residual(coeffs))) < 1e-11


def test_projection_reproduces_constant_exactly():
    q_inf = free_stream(2.0, GAS)
    blk = wavy_block(4, 4)
    disc = Discretization(blk, Basis(2), GAS)
    coeffs = disc.project(lambda x, y: np.broadcast_to(
        q_inf[:, None, None, None], (4,) + x.shape).copy())
    assert np.allclose(coeffs, disc.project_constant(q_inf), atol=1e-13)


def test_projection_accuracy_improves_with_order():
    blk = wavy_block(6, 6)
    errs = []
    for order in (1, 2, 3, 4):
        disc = Discretization(blk, Basis(order), GAS)
        fn = lambda x, y: vortex_state(4.0 * x + 8.0, 4.0 * y + 8.0, 0.0, GAS)
        errs.append(np.linalg.norm(disc.l2_error(disc.project(fn), fn)))
    errs = np.array(errs)
    assert np.all(errs[1:] < 0.35 * errs[:-1])


@settings(max_examples=30, deadline=None)
@given(order=st.integers(1, 4), ni=st.integers(1, 4), nj=st.integers(1, 4),
       origin=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       size=st.tuples(st.floats(0.2, 1.5), st.floats(0.2, 1.5)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_projection_reproduces_tensor_polynomials(order, ni, nj, origin,
                                                  size, seed):
    """On an affine (Cartesian) block every polynomial of degree <= N in
    each coordinate lies in the modal space, so projecting it is exact."""
    xs = origin[0] + size[0] * np.linspace(0.0, 1.0, ni + 1)
    ys = origin[1] + size[1] * np.linspace(0.0, 1.0, nj + 1)
    verts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    disc = Discretization(GridBlock(verts), Basis(order), GAS)
    coef = np.random.default_rng(seed).uniform(
        -1.0, 1.0, (4, order + 1, order + 1))

    def poly(x, y):
        return np.stack([np.polynomial.polynomial.polyval2d(x, y, c)
                         for c in coef])

    pts = disc.geo.vol_points
    exact = poly(pts[..., 0], pts[..., 1])
    got = disc.evaluate(disc.project(poly))
    assert np.allclose(got, exact, rtol=0.0,
                       atol=1e-11 * max(1.0, np.abs(exact).max()))


@settings(max_examples=40, deadline=None)
@given(order=st.integers(0, 4), ni=st.integers(1, 3), nj=st.integers(1, 3),
       size=st.tuples(st.floats(0.05, 3.0), st.floats(0.05, 3.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gauss_point_inverse_inverts_quadrature_mass_matrix(order, ni, nj,
                                                            size, seed):
    """On convex, non-affine bilinear quads V_g^T diag(w_g / J) V_g is the
    inverse of the mass matrix built from the volume quadrature."""
    rng = np.random.default_rng(seed)
    xs = size[0] * np.arange(ni + 1)
    ys = size[1] * np.arange(nj + 1)
    verts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    # vertices move by under a quarter cell: every quad stays convex
    verts += rng.uniform(-0.2, 0.2, verts.shape) * np.array(size)
    blk = GridBlock(verts)
    c00, c10, c11, c01 = blk.corners
    twist = np.abs(c00 + c11 - c10 - c01).max(axis=-1)
    assert np.all(twist > 0.0)          # no element is a parallelogram
    basis = Basis(order)
    disc = Discretization(blk, basis, GAS)
    wdet = basis.vol_weights * disc.geo.detJ
    mass = np.einsum("qp,ijq,qr->ijpr", basis.vol_V, wdet, basis.vol_V)
    rows = np.moveaxis(mass, 2, 0)      # rows[k, i, j] = mass[i, j, k, :]
    got = disc.inverse_mass(rows)
    eye = np.broadcast_to(np.eye(basis.n_modes)[:, None, None, :],
                          got.shape)
    assert np.max(np.abs(got - eye)) <= 1e-12


def test_cell_means_match_node_quadrature_on_p4_wavy_block():
    disc = Discretization(wavy_block(7, 5, amp=0.1), Basis(4), GAS)
    coeffs = np.random.default_rng(4).standard_normal((4, 7, 5, 25))
    wdet = disc.basis.vol_weights * disc.geo.detJ
    cell = np.einsum("vijq,ijq->vij", disc.evaluate(coeffs), wdet)
    ref = cell / wdet.sum(axis=-1)
    got = disc.cell_means(coeffs)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    mask = np.zeros((7, 5), bool)
    mask[2:5, 1:4] = True
    tot = disc.conserved_totals(coeffs, mask=mask)
    assert np.allclose(tot, cell[:, mask].sum(axis=-1), rtol=1e-14, atol=0)


def _reference_ghost(q, tag, nx, ny, bc_state):
    g = q.copy()
    mn = q[1] * nx + q[2] * ny
    if tag == TAG_INFLOW:
        g[:] = bc_state[:, None]
    elif tag == TAG_WALL:
        g[1] -= 2.0 * mn * nx
        g[2] -= 2.0 * mn * ny
    elif tag == TAG_OUTFLOW:
        g[1] -= np.minimum(mn, 0.0) * nx
        g[2] -= np.minimum(mn, 0.0) * ny
    return g


def reference_residual(disc, coeffs):
    """Loop-per-element residual with its own neighbour rule: the element
    across each face is found by index arithmetic, wrapped on periodic
    sides; off the block the face's tag gives the ghost state."""
    blk, basis, geo = disc.block, disc.basis, disc.geo
    w1, wq = basis.q1d_weights, basis.vol_weights
    across = {FACE_W: (-1, 0, FACE_E), FACE_E: (1, 0, FACE_W),
              FACE_S: (0, -1, FACE_N), FACE_N: (0, 1, FACE_S)}
    rhs = np.zeros_like(coeffs)
    for i in range(blk.ni):
        for j in range(blk.nj):
            c = coeffs[:, i, j]
            F, G = euler_flux(c @ basis.vol_V.T, GAS)
            A = F * geo.y_s[i, j] - G * geo.x_s[i, j]
            B = -F * geo.y_r[i, j] + G * geo.x_r[i, j]
            r = (A * wq) @ basis.vol_Dr + (B * wq) @ basis.vol_Ds
            for face, (di, dj, opp) in across.items():
                q_in = c @ basis.face_V[face].T
                nx, ny = geo.face_normal[face][i, j]
                ii, jj = i + di, j + dj
                tag = blk.tags[face][j if face in (FACE_W, FACE_E) else i]
                if (0 <= ii < blk.ni and 0 <= jj < blk.nj
                        or tag == TAG_PERIODIC):
                    q_out = (coeffs[:, ii % blk.ni, jj % blk.nj]
                             @ basis.face_V[opp].T)
                else:
                    q_out = _reference_ghost(q_in, tag, nx, ny,
                                             disc.bc_state)
                fhat = disc.flux(q_in, q_out, nx, ny, GAS)
                r -= (fhat * w1 * geo.face_sj[face][i, j]) @ \
                    basis.face_V[face]
            mass = basis.vol_V.T @ (basis.vol_V
                                    * (wq * geo.detJ[i, j])[:, None])
            rhs[:, i, j] = r @ np.linalg.inv(mass).T
    return rhs


def random_admissible_state(disc, seed):
    """Random per-element states with small random higher modes."""
    rng = np.random.default_rng(seed)
    shape = (disc.block.ni, disc.block.nj)
    mean = conserved(rng.uniform(0.8, 1.2, shape),
                     rng.uniform(-1.5, 1.5, shape),
                     rng.uniform(-1.5, 1.5, shape),
                     rng.uniform(0.5, 1.0, shape), GAS)
    coeffs = 0.02 * rng.standard_normal(
        (4,) + shape + (disc.basis.n_modes,)) * np.abs(mean)[..., None]
    coeffs[..., disc.basis.mode_const] = 2.0 * mean
    vals = np.einsum("qp,vijp->vijq", disc.basis.node_V, coeffs)
    assert vals[0].min() > 0.0 and pressure(vals, GAS).min() > 0.0
    return coeffs


MIXED_NORTH = [TAG_INFLOW, TAG_OUTFLOW, TAG_WALL, TAG_INTERFACE, TAG_WALL]
LAYOUTS = {
    "mixed": {FACE_W: TAG_INFLOW, FACE_E: TAG_OUTFLOW, FACE_S: TAG_WALL,
              FACE_N: MIXED_NORTH},
    "periodic": {f: TAG_PERIODIC for f in (FACE_W, FACE_E, FACE_S, FACE_N)},
    # a wrap pair plus a boundary batch of only two tagged sides
    "half-periodic": {FACE_W: TAG_PERIODIC, FACE_E: TAG_PERIODIC,
                      FACE_S: TAG_WALL, FACE_N: MIXED_NORTH},
}


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("flux_name", ["lax_friedrichs", "slau2"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_residual_matches_loop_per_element_reference(order, flux_name,
                                                     layout):
    """The face table pairs every face with the element, wrap or ghost
    that an element-by-element index rule finds."""
    blk = wavy_block(5, 4, tags=LAYOUTS[layout])
    disc = Discretization(blk, Basis(order), GAS, flux=flux_name,
                          bc_state=free_stream(3.0, GAS))
    coeffs = random_admissible_state(disc, seed=11 * order)
    got = disc.residual(coeffs)
    ref = reference_residual(disc, coeffs)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_residual_makes_one_flux_call_for_all_boundary_sides(layout):
    """One flux call per face pair (a single row range each on a block
    this small), plus one for the whole boundary batch when the block
    has boundary sides."""
    from machstem.fluxes import lax_friedrichs
    blk = wavy_block(5, 4, tags=LAYOUTS[layout])
    calls = []

    def counting_flux(qL, qR, nx, ny, gas):
        calls.append(qL.shape)
        return lax_friedrichs(qL, qR, nx, ny, gas)

    disc = Discretization(blk, Basis(2), GAS, flux=counting_flux,
                          bc_state=free_stream(3.0, GAS))
    disc.residual(random_admissible_state(disc, seed=4))
    assert len(calls) == (len(blk.face_pairs)
                          + (1 if blk.boundary_sides else 0))
    if blk.boundary_sides:  # the last call carries every boundary face
        assert calls[-1][1] == sum(blk.tags[f].size
                                   for f, _ in blk.boundary_sides)


def periodic_vortex_disc(n, order, scale=1.0, distort=True):
    xs = np.linspace(0.0, 20.0, n + 1)
    ys = np.linspace(0.0, 20.0, n + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.zeros((n + 1, n + 1, 2))
    amp = 0.6 * scale if distort else 0.0
    verts[..., 0] = X + amp * np.sin(np.pi * X / 10.0) * np.sin(np.pi * Y / 10.0)
    verts[..., 1] = Y + amp * np.sin(np.pi * X / 10.0) * np.sin(np.pi * Y / 10.0)
    blk = GridBlock(verts, tags={f: TAG_PERIODIC for f in
                                 (FACE_W, FACE_E, FACE_S, FACE_N)})
    return Discretization(blk, Basis(order), GAS, flux="slau2")


def test_conservation_rate_zero_on_periodic_box():
    """With periodic boundaries every face flux cancels pairwise, so the
    rate of change of each conserved integral is zero to round-off."""
    disc = periodic_vortex_disc(8, 3)
    coeffs = disc.project(vortex_ic(GAS))
    rate = disc.conserved_totals(disc.residual(coeffs))
    tot = disc.conserved_totals(coeffs)
    assert np.all(np.abs(rate) < 1e-11 * np.maximum(1.0, np.abs(tot)))


def test_residual_approximates_analytic_time_derivative():
    """The semi-discrete rate of the projected vortex must converge to the
    exact partial-time derivative as resolution grows."""
    errs = []
    for n in (16, 32):
        disc = periodic_vortex_disc(n, 3, distort=False)
        coeffs = disc.project(vortex_ic(GAS))
        rhs = disc.residual(coeffs)
        dt = 1e-6
        exact_rate = (vortex_state(disc.geo.vol_points[..., 0],
                                   disc.geo.vol_points[..., 1], dt, GAS)
                      - vortex_state(disc.geo.vol_points[..., 0],
                                     disc.geo.vol_points[..., 1], -dt, GAS)
                      ) / (2.0 * dt)
        num_rate = disc.evaluate(rhs)
        errs.append(np.max(np.abs(num_rate - exact_rate)))
    # operator truncation error converges one order below solution error;
    # a metric or flux bug shows up as stagnation at O(1)
    assert errs[1] < errs[0] / 3.0


def hole_mask(n, lo, hi):
    """(n, n) active mask with the square [lo, hi)^2 inactive."""
    mask = np.ones((n, n), bool)
    mask[lo:hi, lo:hi] = False
    return mask


def test_inactive_elements_frozen():
    """With an interior inactive region the residual equals the
    all-active one at the active elements and is exactly 0 elsewhere."""
    q_inf = free_stream(3.0, GAS)
    for order, flux, seed in ((1, "lax_friedrichs", 1), (4, "slau2", 3)):
        blk = wavy_block(7, 7, tags={FACE_W: TAG_INFLOW, FACE_S: TAG_WALL})
        disc = Discretization(blk, Basis(order), GAS, flux=flux,
                              bc_state=q_inf)
        coeffs = random_admissible_state(disc, seed)
        full = disc.residual(coeffs)
        mask = hole_mask(7, 2, 5)
        disc.active_mask = mask
        rhs = disc.residual(coeffs)
        assert np.all(rhs[:, ~mask] == 0.0)
        assert (np.max(np.abs(rhs[:, mask] - full[:, mask]))
                <= 1e-13 * np.max(np.abs(full)))


def test_nan_in_a_hole_leaves_active_elements_alone():
    """Holes border only inactive (fringe) elements; a NaN state there
    changes neither the active residual nor the stable step."""
    disc = Discretization(wavy_block(9, 9), Basis(2), GAS)
    disc.active_mask = hole_mask(9, 2, 7)
    coeffs = random_admissible_state(disc, seed=5)
    system = System([disc])
    rhs = disc.residual(coeffs)
    dt = system.stable_dt([coeffs], 0.3)
    coeffs[:, 3:6, 3:6] = np.nan
    with np.errstate(invalid="ignore"):
        assert np.array_equal(disc.residual(coeffs), rhs)
        assert system.stable_dt([coeffs], 0.3) == dt


def test_reassigned_active_mask_takes_effect():
    disc = Discretization(wavy_block(6, 6), Basis(1), GAS)
    coeffs = random_admissible_state(disc, seed=2)
    full = disc.residual(coeffs)
    first = hole_mask(6, 1, 3)
    disc.active_mask = first
    assert np.all(disc.residual(coeffs)[:, ~first] == 0.0)
    second = hole_mask(6, 3, 5)
    disc.active_mask = second
    rhs = disc.residual(coeffs)
    assert np.all(rhs[:, ~second] == 0.0)
    assert np.all(rhs[:, 1:3, 1:3] != 0.0)
    assert (np.max(np.abs(rhs[:, second] - full[:, second]))
            <= 1e-13 * np.max(np.abs(full)))
    disc.active_mask = np.ones((6, 6), bool)
    assert np.array_equal(disc.residual(coeffs), full)
    # the mask is a copy, read-only: changing it takes an assignment
    second[:] = False
    assert disc.active_mask.all()
    with pytest.raises(ValueError):
        disc.active_mask[0, 0] = False
    with pytest.raises(ValueError, match="shape"):
        disc.active_mask = np.ones((6, 5), bool)


def test_inflow_requires_bc_state():
    blk = wavy_block(3, 3, tags={FACE_W: TAG_INFLOW})
    disc = Discretization(blk, Basis(1), GAS)
    coeffs = disc.project_constant(free_stream(2.0, GAS))
    with pytest.raises(ValueError, match="free-stream state"):
        disc.residual(coeffs)


def test_wall_mirror_keeps_wall_flux_mass_free():
    """A slip wall transmits pressure but no mass: for any state, the wall
    face numerical flux has zero mass component when the normal velocity
    mirror is used with a symmetric-dissipation flux."""
    from machstem.fluxes import lax_friedrichs
    q = conserved(1.2, 0.4, 0.9, 1.1, GAS)
    nx, ny = 0.6, 0.8
    vn = (q[1] * nx + q[2] * ny) / q[0]
    ghost = q.copy()
    ghost[1] -= 2 * vn * q[0] * nx
    ghost[2] -= 2 * vn * q[0] * ny
    f = lax_friedrichs(q, ghost, nx, ny, GAS)
    assert abs(f[0]) < 1e-14
    assert abs(f[3]) < 1e-14


# ---- row blocks -------------------------------------------------------

WEDGE_CASE = FlowCase(mach=3.0, wedge_angle_deg=24.0)
ROW_NI, ROW_NJ = 10, 4


def row_block_mask():
    """Rows 0-2 off (a skipped row block at 1- and 3-row heights) and a
    hole that leaves rows 5-6 partly active."""
    mask = np.ones((ROW_NI, ROW_NJ), bool)
    mask[:3] = False
    mask[5:7, 1:3] = False
    return mask


def row_block_grid(layout):
    if layout == "wedge":
        return build_wedge_grid(WEDGE_CASE, ROW_NI, ROW_NJ)
    return wavy_block(ROW_NI, ROW_NJ, tags=LAYOUTS["periodic"])


def split_sizes(order):
    """BLOCK_NODES values giving 1-row ranges everywhere, 3-row volume
    blocks, 3-row face ranges, and one volume block of all ni rows."""
    nq, nf = (order + 2) ** 2, order + 2
    return 1, 3 * ROW_NJ * nq, 3 * ROW_NJ * nf, ROW_NI * ROW_NJ * nq


def whole_block_surface_fluxes(disc, coeffs):
    """The surface fluxes from the block's face table and geometry alone:
    whole-block face traces, one product per face over every element,
    then one flux call per face pair and one for the boundary sides, side
    after side, with ``geo.face_normal`` and ``geo.face_sj`` broadcast
    over the face points. ``_surface_fluxes`` must reproduce their bits
    at the faces of the active elements."""
    v = slice(None)
    geo, sides = disc.geo, disc.block.boundary_sides
    nf = disc.basis.nq_1d
    tr = {f: coeffs @ disc.basis.face_V[f].T for f in FACES}
    S = np.empty((4, disc.block.ni, disc.block.nj, 4 * nf))
    slot = {f: S[..., k * nf:(k + 1) * nf] for k, f in enumerate(FACES)}
    for fa, sa, fb, sb in disc.block.face_pairs:
        n = geo.face_normal[fa][sa]
        fhat = disc.flux(tr[fa][(v, *sa)], tr[fb][(v, *sb)], n[..., 0, None],
                         n[..., 1, None], GAS)
        fhat *= geo.face_sj[fa][sa][..., None]
        slot[fa][(v, *sa)] = fhat
        slot[fb][(v, *sb)] = -fhat
    if sides:
        q_in = np.concatenate([tr[f][(v, *s)].reshape(4, -1, nf)
                               for f, s in sides], axis=1)
        n = np.concatenate([geo.face_normal[f][s].reshape(-1, 2)
                            for f, s in sides])
        nx, ny = n[:, 0, None], n[:, 1, None]
        fhat = disc.flux(q_in, disc._ghost_states(q_in, nx, ny), nx, ny,
                         GAS)
        fhat *= np.concatenate([geo.face_sj[f][s].ravel()
                                for f, s in sides])[:, None]
        start = 0
        for f, s in sides:
            shape = geo.face_sj[f][s].shape
            stop = start + shape[0] * shape[1]
            slot[f][(v, *s)] = fhat[:, start:stop].reshape(4, *shape, nf)
            start = stop
    return S


def live_ranges(disc, height):
    """The number of ranges of at most ``height`` rows that cover, for
    every face pair, the rows from the first to the last with an active
    element on either side of one of their faces."""
    mask = disc.active_mask
    count = 0
    for _, sa, _, sb in disc.block.face_pairs:
        live = np.flatnonzero(mask[sa].any(axis=1) | mask[sb].any(axis=1))
        if live.size:
            count += -(-(live[-1] + 1 - live[0]) // height)
    return count


def row_split_disc(monkeypatch, block_nodes, layout, order, flux_name,
                   masked, calls=None):
    monkeypatch.setattr(dg, "BLOCK_NODES", block_nodes)
    base = flux = get_flux(flux_name)
    if calls is not None:
        def flux(qL, qR, nx, ny, gas):
            calls.append(qL.shape)
            return base(qL, qR, nx, ny, gas)
    disc = Discretization(row_block_grid(layout), Basis(order), GAS,
                          flux=flux, bc_state=WEDGE_CASE.free_stream())
    if masked:
        disc.active_mask = row_block_mask()
    return disc


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("flux_name", ["lax_friedrichs", "slau2"])
@pytest.mark.parametrize("layout", ["wedge", "periodic"])
@pytest.mark.parametrize("masked", [False, True])
def test_row_blocks_match_one_block(monkeypatch, order, flux_name, layout,
                                    masked):
    """Uneven row splits, and one range per pair, give the face fluxes
    of whole-block traces bit for bit at the faces of the active elements
    (each task traces its own faces) with one flux call per live row
    range, and a residual and wave speed within round-off of one
    block."""
    one = row_split_disc(monkeypatch, 10 ** 9, layout, order, flux_name,
                         masked)
    coeffs = random_admissible_state(one, seed=7 * order + masked)
    on = one.active_mask
    S_ref = whole_block_surface_fluxes(one, coeffs)[:, on]
    assert np.array_equal(one._surface_fluxes(coeffs)[:, on], S_ref)
    rhs_ref = one.residual(coeffs)
    lam_ref = one.max_wave_speed(coeffs)
    for block_nodes in split_sizes(order):
        calls = []
        disc = row_split_disc(monkeypatch, block_nodes, layout, order,
                              flux_name, masked, calls)
        # the row blocks cover exactly the active elements; a fully
        # active one is a slice of rows
        cover = np.zeros((ROW_NI, ROW_NJ), int)
        for sel in disc.row_blocks:
            cover[sel] += 1
            rows = np.arange(ROW_NI)[sel[0]]
            assert isinstance(sel[0], slice) == disc.active_mask[rows].all()
        assert np.array_equal(cover, disc.active_mask)
        assert np.array_equal(disc._surface_fluxes(coeffs)[:, on], S_ref)
        height = max(1, block_nodes // (ROW_NJ * (order + 2)))
        assert len(calls) == (live_ranges(disc, height)
                              + bool(disc.block.boundary_sides))
        rhs = disc.residual(coeffs)
        assert np.all(rhs[:, ~disc.active_mask] == 0.0)
        assert (np.max(np.abs(rhs - rhs_ref))
                <= 1e-14 * np.max(np.abs(rhs_ref)))
        lam = disc.max_wave_speed(coeffs)
        assert np.all(lam[~disc.active_mask] == 0.0)
        assert np.max(np.abs(lam - lam_ref)) <= 1e-14 * np.max(lam_ref)


def modal_chain_residual(disc, coeffs):
    """The residual through the modal right-hand side: volume and lift
    operators that end at the modes, then ``inverse_mass``, over every
    active element at once. The residual's operators end at the Gauss
    points instead, which changes its sums at rounding level only."""
    basis, geo = disc.basis, disc.geo
    on = disc.active_mask
    wv = basis.vol_weights[:, None]
    lift = -np.vstack([basis.face_V[f] * basis.q1d_weights[:, None]
                       for f in FACES])
    S = disc._surface_fluxes(coeffs)
    q = disc.evaluate(coeffs[:, on])
    x_r, x_s, y_r, y_s = (m[on] for m in (geo.x_r, geo.x_s, geo.y_r,
                                          geo.y_s))
    rho, ux, uy, p = primitives(q, GAS)
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
    rhs = A @ (basis.vol_Dr * wv) + B @ (basis.vol_Ds * wv) + S[:, on] @ lift
    out = np.zeros_like(coeffs)
    out[:, on] = disc.inverse_mass(rhs, on)
    return out


@pytest.mark.parametrize("order", [1, 4])
@pytest.mark.parametrize("layout", ["wedge", "periodic"])
@pytest.mark.parametrize("masked", [False, True])
def test_gauss_point_operators_match_modal_chain(monkeypatch, order, layout,
                                                 masked):
    """Volume and lift operators that end at the Gauss points give the
    residual of the modal right-hand side and ``inverse_mass`` to 1e-13
    relative, on the wedge's trapezoids and the wavy block's curved-edge
    quads, through sliced and, with the mask, gathered row blocks."""
    disc = row_split_disc(monkeypatch, split_sizes(order)[1], layout, order,
                          "slau2", masked)
    assert disc.skewed.size > 0
    kinds = {isinstance(sel[0], slice) for sel in disc.row_blocks}
    assert kinds == ({True, False} if masked else {True})
    coeffs = random_admissible_state(disc, seed=7 * order + masked)
    got = disc.residual(coeffs)
    ref = modal_chain_residual(disc, coeffs)
    assert np.all(got[:, ~disc.active_mask] == 0.0)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_residual_into_callers_array_matches_a_new_one(monkeypatch):
    """A NaN-filled ``out`` gets the bits of a new array: the same rates,
    and positive zeros at the inactive elements, on full, partly active
    and inactive row blocks."""
    disc = row_split_disc(monkeypatch, 3 * ROW_NJ * 16, "wedge", 2,
                          "slau2", masked=True)
    coeffs = random_admissible_state(disc, seed=8)
    want = disc.residual(coeffs)
    out = np.full(coeffs.shape, np.nan)
    got = disc.residual(coeffs, out=out)
    assert got is out
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    idle = got[:, ~disc.active_mask]
    assert idle.size and np.all(idle == 0.0) and not np.signbit(idle).any()


def test_blocks_keep_their_own_scratch():
    """Each block owns its surface-flux array: a residual of another
    block of the same shape leaves it alone, and residuals called in
    turn equal residuals of fresh blocks."""
    def pair():
        return (Discretization(wavy_block(6, 5), Basis(2), GAS),
                Discretization(wavy_block(6, 5, amp=0.03,
                                          tags=LAYOUTS["periodic"]),
                               Basis(2), GAS))

    a, b = pair()
    ca = random_admissible_state(a, seed=1)
    cb = random_admissible_state(b, seed=2)
    fresh = [d.residual(c) for d, c in zip(pair(), (ca, cb))]
    S = a._surface_fluxes(ca)
    kept = S.copy()
    rb = b.residual(cb)
    assert np.array_equal(S, kept)
    assert a._surface_fluxes(ca) is S
    for _ in range(2):
        assert np.array_equal(a.residual(ca), fresh[0])
        assert np.array_equal(b.residual(cb), fresh[1])
    assert np.array_equal(rb, fresh[1])


def test_block_keeps_only_its_surface_flux_array():
    """After its first residual, and an indicator call, a P1 block holds
    one block-sized array, its surface fluxes: the face traces, the
    face-shaped normals and sJ of the flux tasks and the indicator's
    weights all live in the calls that build them. Any one of them kept
    over the block's faces would hold an (ni, nj, nq_1d) array."""
    disc = Discretization(
        wavy_block(40, 30, tags={FACE_W: TAG_INFLOW, FACE_E: TAG_OUTFLOW,
                                 FACE_S: TAG_WALL, FACE_N: TAG_WALL}),
        Basis(1), GAS, bc_state=free_stream(3.0, GAS))
    coeffs = random_admissible_state(disc, seed=6)
    out = np.empty(coeffs.shape)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        disc.residual(coeffs, out=out)
        stabilization.kxrcf_indicator(disc, coeffs, (0, 3))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    S = disc._S.nbytes
    face_shaped = 40 * 30 * disc.basis.nq_1d * 8
    assert S <= held < S + face_shaped


# ---- live face rows ---------------------------------------------------

@pytest.mark.parametrize("n", [1, 53, 55, 108])
@pytest.mark.parametrize("height", [0, 7, 54])
def test_even_ranges_cover_the_rows_in_the_fewest_even_ranges(n, height):
    lo = 3
    ranges = dg._even_ranges(lo, lo + n, height)
    sizes = [r.stop - r.start for r in ranges]
    assert ranges[0].start == lo and ranges[-1].stop == lo + n
    assert all(a.stop == b.start for a, b in zip(ranges, ranges[1:]))
    assert len(ranges) == -(-n // max(1, height))
    assert max(sizes) <= max(1, height) and max(sizes) - min(sizes) <= 1


def test_face_rows_without_an_active_element_get_no_flux(monkeypatch):
    """With element rows 0-2 inactive and a hole in rows 5-6, 3-row face
    ranges straddle the edge of the active rows. A NaN-filled surface-flux
    array leaves the active elements' residual equal to one from the
    whole-block reference fluxes, and finite, while the faces between
    inactive elements keep their NaN. Once the mask is widened, the newly
    active rows get their fluxes."""
    calls = []
    disc = row_split_disc(monkeypatch, 3 * ROW_NJ * 3, "wedge", 1,
                          "slau2", masked=True, calls=calls)
    coeffs = random_admissible_state(disc, seed=9)
    nf = disc.basis.nq_1d

    def check():
        disc._surface_fluxes = lambda c: whole_block_surface_fluxes(disc, c)
        want = disc.residual(coeffs)
        del disc._surface_fluxes
        disc._S = np.full((4, ROW_NI, ROW_NJ, 4 * nf), np.nan)
        del calls[:]
        got = disc.residual(coeffs)
        on = disc.active_mask
        assert np.array_equal(got[:, on], want[:, on])
        assert np.all(np.isfinite(got[:, on]))
        # one flux call per live 3-row range, and the boundary batch
        assert len(calls) == live_ranges(disc, 3) + 1
        return disc._S

    S = check()
    # the east faces of rows 0-1 and the south faces of rows 0-2 border
    # inactive elements only: no flux call wrote them
    assert np.all(np.isnan(S[:, :2, :, nf:2 * nf]))
    assert np.all(np.isnan(S[:, :3, 1:, 2 * nf:3 * nf]))
    assert not np.isnan(S[:, 2, :, nf:2 * nf]).any()
    disc.active_mask = np.ones((ROW_NI, ROW_NJ), bool)
    assert np.all(np.isfinite(check()))


def dipping_state(disc):
    """An admissible state with a bad mean, dips that a few halvings
    repair, one that 60 halvings do not, and NaN in an inactive cell."""
    coeffs = random_admissible_state(disc, seed=3)
    lin = disc.basis.mode_lin_r
    coeffs[0, 3, 1, 0] = -1.0                     # negative mean density
    coeffs[0, 4, 2, lin] = 3.0 * coeffs[0, 4, 2, 0]
    coeffs[3, 7, 0, lin] = -2.5 * coeffs[3, 7, 0, 0]
    coeffs[0, 8, 3, lin] = 1e20                   # past the 60-pass cap
    coeffs[:, 5, 1] = np.nan                      # inactive when masked
    return coeffs


@pytest.mark.parametrize("order", [1, 4])
@pytest.mark.parametrize("masked", [False, True])
def test_guard_on_row_blocks_matches_one_block(monkeypatch, order, masked):
    one = row_split_disc(monkeypatch, 10 ** 9, "wedge", order,
                         "lax_friedrichs", masked)
    start = dipping_state(one)
    ref = start.copy()
    with np.errstate(invalid="ignore"):
        n_ref = positivity_guard(one, ref)
    # 60 halvings at the capped cell, at least one at each other dip
    assert n_ref >= 60 + 3
    assert ref[0, 8, 3, one.basis.mode_lin_r] == 1e20 * 0.5 ** 60
    for block_nodes in split_sizes(order):
        disc = row_split_disc(monkeypatch, block_nodes, "wedge", order,
                              "lax_friedrichs", masked)
        coeffs = start.copy()
        with np.errstate(invalid="ignore"):
            assert positivity_guard(disc, coeffs) == n_ref
        assert np.array_equal(coeffs, ref, equal_nan=True)


def smooth_state(disc):
    """The projection of a smooth admissible field: its modes decay with
    their degree, as a march's do."""
    def fn(x, y):
        wave = np.sin(2.0 * x) * np.cos(3.0 * y)
        return conserved(1.0 + 0.3 * wave, 1.2 - 0.4 * wave, 0.3 * wave,
                         0.7 + 0.2 * wave, GAS)
    return disc.project(fn)


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("masked", [False, True])
def test_guard_proves_admissible_cells_without_nodes_or_means(
        monkeypatch, order, masked):
    """On admissible states the modal bound proves every cell, so the
    guard evaluates no node and no mean; on a dipping state it does.
    At P1 the state is ``random_admissible_state``; at P2 and P4 its
    2 % noise in every one of 9 or 25 modes lies beyond the bound (at P4
    it leaves about 20-40 of 40 cells unproven), so those orders take a
    projected smooth field."""
    disc = row_split_disc(monkeypatch, 10 ** 9, "wedge", order,
                          "lax_friedrichs", masked)
    calls = {"nodes": 0, "means": 0}
    dips, means = stabilization._dips_below_floors, disc.cell_means

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(stabilization, "_dips_below_floors",
                        counted("nodes", dips))
    monkeypatch.setattr(disc, "cell_means", counted("means", means))
    states = [smooth_state(disc)]
    if order == 1:
        states.append(random_admissible_state(disc, seed=masked))
    for coeffs in states:
        start = coeffs.copy()
        assert positivity_guard(disc, coeffs) == 0
        assert np.array_equal(coeffs, start)
    assert calls == {"nodes": 0, "means": 0}
    coeffs = dipping_state(disc)
    with np.errstate(invalid="ignore"):
        assert positivity_guard(disc, coeffs) > 0
    assert calls["nodes"] > 1 and calls["means"] == 1


# ---- the pool ---------------------------------------------------------

POOL_THREAD = "machstem-dg"


def use_pool(monkeypatch):
    """Let ``dg.dispatch`` use the pool, with at least one thread."""
    monkeypatch.setattr(dg, "WORKERS", max(dg.WORKERS, 2))


def no_pool(monkeypatch):
    """Take the pool away: every pass runs on the calling thread."""
    monkeypatch.setattr(dg, "WORKERS", 1)


def thread_recording_flux(name, threads):
    base = get_flux(name)

    def flux(qL, qR, nx, ny, gas):
        threads.append(threading.current_thread().name)
        return base(qL, qR, nx, ny, gas)
    return flux


def pool_wedge_disc(flux):
    """The 200x100 P1 coarse wedge block: 12 row blocks."""
    return Discretization(build_wedge_grid(WEDGE_CASE, 200, 100), Basis(1),
                          GAS, flux=flux, bc_state=WEDGE_CASE.free_stream())


def pool_box_disc(flux):
    """The 32x32 P4 periodic box: 3 row blocks, and wrap pairs."""
    disc = periodic_vortex_disc(32, 4)
    disc.flux = flux
    return disc


@pytest.mark.parametrize("make", [pool_wedge_disc, pool_box_disc])
def test_pool_matches_serial(monkeypatch, make):
    """The residual and the wave speed on the pool are bit for bit those
    of the serial loops, and part of the work ran on a pool thread."""
    threads, waves = [], []
    disc = make(thread_recording_flux("slau2", threads))
    assert disc.pooled and len(disc.row_blocks) >= 3
    coeffs = (random_admissible_state(disc, seed=13) if disc.basis.order == 1
              else disc.project(vortex_ic(GAS)))
    wave_speed = dg.gasmod.max_wave_speed

    def recording_wave_speed(q, gas):
        waves.append(threading.current_thread().name)
        return wave_speed(q, gas)

    monkeypatch.setattr(dg.gasmod, "max_wave_speed", recording_wave_speed)
    use_pool(monkeypatch)
    got = disc.residual(coeffs).copy(), disc.max_wave_speed(coeffs)
    assert any(t.startswith(POOL_THREAD) for t in threads)
    assert any(t.startswith(POOL_THREAD) for t in waves)
    no_pool(monkeypatch)
    threads.clear()
    want = disc.residual(coeffs), disc.max_wave_speed(coeffs)
    assert not any(t.startswith(POOL_THREAD) for t in threads)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_more_shares_than_cores_match_serial(monkeypatch):
    """Six shares on a fresh pool of five threads, switching threads
    every 10 us: every task runs once and writes only its own slots, so
    repeated residuals and wave speeds keep the serial bits."""
    disc = pool_wedge_disc("slau2")
    coeffs = random_admissible_state(disc, seed=5)
    no_pool(monkeypatch)
    want = disc.residual(coeffs).copy(), disc.max_wave_speed(coeffs)
    monkeypatch.setattr(dg, "WORKERS", 6)
    monkeypatch.setattr(dg, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            assert np.array_equal(disc.residual(coeffs), want[0])
            assert np.array_equal(disc.max_wave_speed(coeffs), want[1])
    finally:
        sys.setswitchinterval(interval)
        dg._pool.shutdown()


def test_small_block_stays_on_the_calling_thread(monkeypatch):
    """The gate: a block of one row block dispatches nothing."""
    threads = []
    disc = Discretization(wavy_block(8, 6), Basis(2), GAS,
                          flux=thread_recording_flux("lax_friedrichs",
                                                     threads))
    assert not disc.pooled
    use_pool(monkeypatch)
    disc.residual(random_admissible_state(disc, seed=1))
    assert threads and not any(t.startswith(POOL_THREAD) for t in threads)


def test_one_cpu_starts_no_thread(monkeypatch):
    no_pool(monkeypatch)
    monkeypatch.setattr(dg, "_pool", None)
    before = threading.active_count()
    disc = pool_wedge_disc("lax_friedrichs")
    disc.residual(random_admissible_state(disc, seed=2))
    assert dg._pool is None and threading.active_count() == before


def test_pool_threads_keep_the_callers_errstate(monkeypatch):
    """An inadmissible element in a row block that a pool thread computes
    (negative density: its sound speed is NaN) warns nowhere under the
    caller's ``np.errstate``; pytest turns a RuntimeWarning into an
    error, so a pool thread with numpy's default state would raise."""
    use_pool(monkeypatch)
    disc = pool_wedge_disc("lax_friedrichs")
    coeffs = disc.project_constant(WEDGE_CASE.free_stream())
    # row block 1 is the first task of the pool's first share
    i = disc.row_blocks[1][0].start + 2
    coeffs[0, i, 5, disc.basis.mode_const] = -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            rhs = disc.residual(coeffs)
            lam = disc.max_wave_speed(coeffs)
    assert np.isnan(rhs[:, i, 5]).all() and np.isnan(lam[i, 5])
    assert np.isfinite(rhs[:, :i - 1]).all() and np.isfinite(lam[:i - 1]).all()


def test_dispatch_from_a_pool_thread_runs_there(monkeypatch):
    """No nesting: the tasks of a dispatch made by a pool thread all run
    on that thread (waiting on the pool from inside it could deadlock)."""
    use_pool(monkeypatch)
    seen = []

    def inner(task):
        seen.append((task[0], threading.current_thread().name))

    def outer(task):
        dg.dispatch([partial(inner, (task, k)) for k in range(4)], True)

    caller = threading.Thread(
        target=dg.dispatch, args=([partial(outer, 0), partial(outer, 1)],
                                  True), daemon=True)
    caller.start()
    caller.join(timeout=30.0)
    assert not caller.is_alive(), "a nested dispatch deadlocked"
    names = {name for task, name in seen if task == 1}
    assert len(seen) == 8 and len(names) == 1
    assert names.pop().startswith(POOL_THREAD)


@pytest.mark.parametrize("bad_task", [0, 1])
def test_a_raising_task_surfaces_after_every_share_ends(monkeypatch,
                                                        bad_task):
    """A flux that raises on one row range, in the caller's share (task
    0) or in the pool's (task 1): the caller gets that exception, and no
    flux call is still running or yet to come when it does."""
    monkeypatch.setattr(dg, "WORKERS", 2)
    state = {"running": 0, "done": 0}
    lock = threading.Lock()
    bad = []

    def flux(qL, qR, nx, ny, gas):
        with lock:
            state["running"] += 1
        try:
            if qL.shape == bad[0].shape and np.array_equal(qL, bad[0]):
                raise FloatingPointError("bad row range")
            time.sleep(0.01)
            return get_flux("lax_friedrichs")(qL, qR, nx, ny, gas)
        finally:
            with lock:
                state["running"] -= 1
                state["done"] += 1

    disc = pool_wedge_disc(flux)
    coeffs = random_admissible_state(disc, seed=3)
    face, sel = disc._pair_rows[bad_task][:2]
    bad.append(coeffs[(slice(None), *sel)] @ disc.basis.face_V[face].T)
    with pytest.raises(FloatingPointError, match="bad row range"):
        disc.residual(coeffs)
    done = state["done"]
    # the bad task is the first of its share, which stops there; the
    # other share (tasks 1, 3, ... or 0, 2, ...) ran to its end
    tasks = len(disc._pair_rows) + 1
    assert done == len(range(1 - bad_task, tasks, 2)) + 1
    assert state["running"] == 0
    time.sleep(0.05)
    assert state["done"] == done


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_on_a_pool_of_its_own(monkeypatch):
    """A child forked after the pool started does not inherit its
    threads: it builds its own pool, gets the parent's bits and exits."""
    use_pool(monkeypatch)
    disc = pool_wedge_disc("lax_friedrichs")
    coeffs = random_admissible_state(disc, seed=4)
    want = disc.residual(coeffs).copy()
    assert dg._pool is not None
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(disc.residual(coeffs), want) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung")
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
