import numpy as np
import pytest

from machstem.basis import Basis, FACE_W, FACE_E, FACE_S, FACE_N
from machstem.dg import Discretization
from machstem.errors import AssemblyError
from machstem.gas import GasModel, free_stream
from machstem.mesh import GridBlock, TAG_INTERFACE, TAG_INFLOW, TAG_OUTFLOW
from machstem.overset import (PointLocator, _newton_rs, points_in_footprint,
                              boundary_polygon,
                              covered_elements, erosion_depth,
                              classify_background, overset_fringe,
                              TransferOp, OversetAssembly, CompositeSampler,
                              project_between,
                              STATUS_ACTIVE, STATUS_FRINGE, STATUS_HOLE)

GAS = GasModel()


def cartesian_block(nx, ny, x0=0.0, x1=1.0, y0=0.0, y1=1.0, **kw):
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    verts = np.zeros((nx + 1, ny + 1, 2))
    verts[..., 0] = xs[:, None]
    verts[..., 1] = ys[None, :]
    return GridBlock(verts, **kw)


def sheared_block(nx, ny, x0, x1, y0, y1, shear=0.15, **kw):
    """Parallelogram-ish block: x rows shift with y, rows stay straight."""
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    verts = np.zeros((nx + 1, ny + 1, 2))
    verts[..., 0] = xs[:, None] + shear * (ys[None, :] - y0)
    verts[..., 1] = ys[None, :]
    return GridBlock(verts, **kw)


def interface_tags():
    return {f: TAG_INTERFACE for f in (FACE_W, FACE_E, FACE_S, FACE_N)}


def test_locator_roundtrip_on_sheared_block():
    blk = sheared_block(7, 5, 0.0, 2.0, 0.0, 1.0, shear=0.3)
    rng = np.random.default_rng(5)
    r = rng.uniform(-0.99, 0.99, 40)
    s = rng.uniform(-0.99, 0.99, 40)
    pts = blk.map_points(r, s)  # (ni, nj, 40, 2)
    flat = pts.reshape(-1, 2)
    loc = PointLocator(blk)
    found, ij, rs = loc.locate(flat)
    assert found.all()
    # reconstruct: mapping the found (r, s) in the found element returns
    # the original physical point
    back = np.empty_like(flat)
    for k in range(len(flat)):
        i, j = ij[k]
        back[k] = blk.map_points(rs[k, 0:1], rs[k, 1:2])[i, j, 0]
    assert np.allclose(back, flat, atol=1e-9)


def test_locator_reports_outside_points():
    blk = cartesian_block(4, 4)
    loc = PointLocator(blk)
    found, ij, rs = loc.locate(np.array([[0.5, 0.5], [1.7, 0.5],
                                         [-0.2, -0.2]]))
    assert list(found) == [True, False, False]


def test_locator_clamp_snaps_to_nearest():
    blk = cartesian_block(4, 4)
    loc = PointLocator(blk)
    found, ij, rs = loc.locate(np.array([[1.05, 0.5]]), clamp=True)
    assert not found[0]
    assert ij[0, 0] == 3
    assert np.all(np.abs(rs) <= 1.0)


def reference_walk(loc, pts, start_flat, tol):
    """One point at a time: visit at most 2 (ni + nj) elements, stopping
    on the element that contains the point, on a revisit or on a step off
    the block; (r, s) always belong to the element returned."""
    ni, nj = loc.block.ni, loc.block.nj
    out = []
    for p, start in zip(pts, start_flat):
        i, j = divmod(int(start), nj)
        seen, found = set(), False
        for _ in range(2 * (ni + nj)):
            r, s = _newton_rs(loc.a[i, j], loc.b[i, j], loc.c[i, j],
                              loc.d[i, j], p)
            if (i, j) in seen:
                break
            seen.add((i, j))
            if abs(r) <= 1.0 + tol and abs(s) <= 1.0 + tol:
                found = True
                break
            i2 = min(max(i + int(r > 1.0) - int(r < -1.0), 0), ni - 1)
            j2 = min(max(j + int(s > 1.0) - int(s < -1.0), 0), nj - 1)
            if (i2, j2) == (i, j):
                break
            i, j = i2, j2
        else:
            r, s = _newton_rs(loc.a[i, j], loc.b[i, j], loc.c[i, j],
                              loc.d[i, j], p)
        out.append((i, j, r, s, found))
    return tuple(map(np.array, zip(*out)))


def stretched_sheared_block(nx=40, ny=30):
    """Geometric x spacing (ratio 1.2), wall-clustered y, strong shear: the
    nearest centroids of a point in a large cell are often all small
    cells, so the k-d candidates miss it."""
    xs = np.cumsum(np.r_[0.0, 1.2 ** np.arange(nx)])
    ys = np.tanh(3.0 * np.linspace(0.0, 1.0, ny + 1)) / np.tanh(3.0)
    verts = np.zeros((nx + 1, ny + 1, 2))
    verts[..., 0] = xs[:, None] / xs[-1] + 1.5 * ys[None, :]
    verts[..., 1] = 0.2 * ys[None, :]
    return GridBlock(verts)


def test_lock_step_walk_matches_scalar_reference():
    blk = stretched_sheared_block()
    rng = np.random.default_rng(1)
    n = 400
    inside = blk.map_points(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))[
        rng.integers(0, blk.ni, n), rng.integers(0, blk.nj, n), np.arange(n)]
    outside = np.column_stack([rng.uniform(-0.5, 3.0, 60),
                               rng.uniform(-0.1, 0.3, 60)])
    outside = outside[~points_in_footprint(blk, outside)]
    pts = np.vstack([inside, outside])
    loc = PointLocator(blk)
    walks = []

    def spy(*args):
        walks.append((args, PointLocator._walk(loc, *args)))
        return walks[-1][1]

    loc._walk = spy
    # with clamp, every point the k-d candidates miss is walked
    found, ij, rs = loc.locate(pts, clamp=True)
    assert found[:n].all() and not found[n:].any()
    (walked, start, tol), got = walks[0]
    # the walk saw points the k-d candidates missed, and points outside
    assert got[4].sum() > 100 and (~got[4]).sum() == len(outside) > 20
    ref = reference_walk(loc, walked, start, tol)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
    # from arbitrary start elements too
    pts = pts[::8]
    start = rng.integers(0, blk.n_elements, len(pts))
    got = loc._walk(pts, start, 1e-9)
    ref = reference_walk(loc, pts, start, 1e-9)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


def test_locate_walks_only_points_that_may_lie_in_the_block():
    """Skipping the walk for points outside the footprint and away from
    its perimeter changes no answer: inside points, outside points, and
    points within 1e-10 of the perimeter (either side) are found exactly
    as when every point the k-d candidates miss is walked."""
    blk = stretched_sheared_block()
    rng = np.random.default_rng(4)
    n = 300
    inside = blk.map_points(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))[
        rng.integers(0, blk.ni, n), rng.integers(0, blk.nj, n), np.arange(n)]
    outside = np.column_stack([rng.uniform(-0.5, 3.0, 200),
                               rng.uniform(-0.1, 0.3, 200)])
    outside = outside[~points_in_footprint(blk, outside)]
    rim = boundary_polygon(blk)
    k = rng.integers(0, len(rim) - 1, 600)
    a, b = rim[k], rim[k + 1]
    edge = b - a
    outward = np.column_stack([edge[:, 1], -edge[:, 0]]) / np.hypot(
        edge[:, 0], edge[:, 1])[:, None]
    on_rim = (a + rng.uniform(0, 1, (600, 1)) * edge
              + rng.choice([-1e-10, 0.0, 1e-10], (600, 1)) * outward)
    pts = np.vstack([inside, outside, on_rim])

    walked = []

    def locator(walk_every_point):
        loc = PointLocator(blk)

        def spy(p, *args):
            walked.append(len(p))
            return PointLocator._walk(loc, p, *args)

        loc._walk = spy
        if walk_every_point:
            loc._may_contain = lambda p, tol: np.ones(len(p), bool)
        return loc

    found, ij, rs = locator(False).locate(pts)
    found_all, ij_all, rs_all = locator(True).locate(pts)
    assert np.array_equal(found, found_all)
    assert np.array_equal(ij[found], ij_all[found])
    assert np.array_equal(rs[found], rs_all[found])
    assert found[:n].all() and not found[n:n + len(outside)].any()
    assert walked[0] < walked[1] - len(outside) // 2


def test_walk_stopped_by_revisit_returns_rs_of_its_element():
    """A folded lattice (vertex column 2 left of column 1) sends the walk
    from element 0 to 1 and back; it stops in element 0 with element 0's
    (r, s), not those of element 1."""
    verts = np.zeros((4, 2, 2))
    verts[..., 0] = np.array([0.0, 1.0, 0.5, 2.0])[:, None]
    verts[..., 1] = np.array([0.0, 1.0])[None, :]
    loc = PointLocator(GridBlock(verts))
    pt = np.array([[1.2, 0.5]])
    i, j, r, s, found = loc._walk(pt, np.array([0]), 1e-9)
    assert (i[0], j[0], found[0]) == (0, 0, False)
    assert np.allclose([r[0], s[0]], [1.4, 0.0])
    for a, b in zip((i, j, r, s, found),
                    reference_walk(loc, pt, [0], 1e-9)):
        assert np.array_equal(a, b)


def test_footprint_crossing_test():
    blk = sheared_block(6, 4, 1.0, 3.0, 0.0, 1.0, shear=0.2)
    pts = np.array([[2.0, 0.5], [1.05, 0.01], [0.5, 0.5], [3.3, 0.99],
                    [3.15, 0.9]])
    inside = points_in_footprint(blk, pts)
    # x range at y: [1 + 0.2 y, 3 + 0.2 y]
    assert list(inside) == [True, True, False, False, True]


def test_covered_elements_shrink_handles_shared_wall():
    """An overset band sitting exactly on the background wall still covers
    the background's wall-adjacent row."""
    bg = cartesian_block(10, 6, 0.0, 1.0, 0.0, 0.6)
    ov = cartesian_block(8, 8, 0.28, 0.72, 0.0, 0.35)  # same bottom y=0
    cov = covered_elements(bg, ov)
    assert cov[4, 0] and cov[5, 0]     # wall row under the band: covered
    assert cov[4, 2]
    assert not cov[0, 0] and not cov[4, 4]


def test_erosion_depth_band():
    cov = np.zeros((8, 7), bool)
    cov[2:6, 1:6] = True
    d = erosion_depth(cov)
    assert d[2, 1] == 1 and d[3, 2] == 2 and d[4, 3] == 2
    assert d.max() == 2
    assert np.all(d[~cov] == 0)


def test_erosion_depth_fully_covered_uses_border_distance():
    cov = np.ones((6, 5), bool)
    d = erosion_depth(cov)
    assert d[0, 0] == 1 and d[1, 1] == 2 and d[2, 2] == 3
    assert d[5, 4] == 1 and d[2, 4] == 1


def test_classify_background_bands():
    bg = cartesian_block(20, 20, 0.0, 1.0, 0.0, 1.0)
    ov = cartesian_block(12, 12, 0.2, 0.8, 0.2, 0.8, tags=interface_tags())
    status = classify_background(bg, ov, hole_margin=2, fringe_width=2)
    # covered band is elements 4..11 in each direction (12 wide), so depth
    # runs 1..6 from the edge: active 1-2, fringe 3-4, hole 5-6
    assert status[0, 0] == STATUS_ACTIVE
    assert status[4, 10] == STATUS_ACTIVE      # depth 1
    assert status[5, 10] == STATUS_ACTIVE      # depth 2
    assert status[6, 10] == STATUS_FRINGE      # depth 3
    assert status[7, 10] == STATUS_FRINGE      # depth 4
    assert status[8, 10] == STATUS_HOLE
    assert status[10, 10] == STATUS_HOLE


def test_classify_insufficient_overlap_raises():
    bg = cartesian_block(20, 20)
    ov = cartesian_block(4, 4, 0.2, 0.39, 0.2, 0.39, tags=interface_tags())
    with pytest.raises(AssemblyError, match="insufficient overlap"):
        classify_background(bg, ov, hole_margin=2, fringe_width=2)


def test_overset_fringe_rings_follow_interface_tags():
    blk = cartesian_block(6, 5, tags={FACE_W: TAG_INTERFACE,
                                      FACE_E: TAG_INTERFACE,
                                      FACE_N: TAG_INTERFACE,
                                      FACE_S: TAG_OUTFLOW})
    fr = overset_fringe(blk, rings=1)
    assert fr[0].all() and fr[-1].all() and fr[:, -1].all()
    assert not fr[2:4, 0].any()      # south side is physical, no fringe


def test_transfer_requires_active_donors():
    bg = cartesian_block(20, 20)
    ov = cartesian_block(12, 12, 0.2, 0.8, 0.2, 0.8, tags=interface_tags())
    bgd = Discretization(bg, Basis(1), GAS)
    ovd = Discretization(ov, Basis(1), GAS)
    all_fringe = np.full((12, 12), STATUS_FRINGE)
    fringe_mask = classify_background(bg, ov) == STATUS_FRINGE
    with pytest.raises(AssemblyError, match="not active"):
        TransferOp(bgd, fringe_mask, ovd, donor_status=all_fringe)


def coincident_assembly(order=1):
    bg = cartesian_block(10, 10)
    ov = cartesian_block(10, 10, tags=interface_tags())
    bgd = Discretization(bg, Basis(order), GAS)
    ovd = Discretization(ov, Basis(order), GAS)
    return OversetAssembly(bgd, ovd, hole_margin=2, fringe_width=2)


def test_coincident_grids_classification():
    asm = coincident_assembly()
    st = asm.status_bg
    assert st[0, 0] == STATUS_ACTIVE and st[1, 5] == STATUS_ACTIVE
    assert st[2, 5] == STATUS_FRINGE and st[3, 5] == STATUS_FRINGE
    assert st[4, 4] == STATUS_HOLE and st[5, 5] == STATUS_HOLE
    # overset fringe is its outer ring only
    assert asm.status_ov[0, 0] == STATUS_FRINGE
    assert asm.status_ov[1, 1] == STATUS_ACTIVE
    counts = asm.counts()
    assert counts["background"]["hole"] == 4
    assert counts["overset"]["fringe"] == 36


def test_transfer_reproduces_constant_exactly():
    asm = coincident_assembly(order=2)
    q = free_stream(3.0, GAS)
    bg_c = asm.bg.project_constant(q)
    ov_c = asm.ov.project_constant(q)
    bg_ref = bg_c.copy()
    ov_ref = ov_c.copy()
    # scramble the fringe data first; transfer must restore it
    bg_c[:, asm.status_bg == STATUS_FRINGE] = 7.7
    ov_c[:, asm.status_ov == STATUS_FRINGE] = -3.3
    asm.transfer([bg_c, ov_c])
    assert np.allclose(bg_c, bg_ref, atol=1e-12)
    assert np.allclose(ov_c, ov_ref, atol=1e-12)


def test_transfer_exact_for_in_range_polynomials():
    """A degree-N polynomial field living on both blocks transfers without
    projection error even when elements do not align."""
    bg = cartesian_block(20, 20)
    ov = sheared_block(14, 14, 0.18, 0.78, 0.2, 0.8, shear=0.05,
                       tags=interface_tags())
    bgd = Discretization(bg, Basis(2), GAS)
    ovd = Discretization(ov, Basis(2), GAS)
    asm = OversetAssembly(bgd, ovd)

    def poly(x, y):
        f = 1.0 + 0.3 * x - 0.1 * y + 0.05 * x * y + 0.02 * x * x
        return np.stack([f, 0.2 * f, -0.1 * f, 2.0 + 0.5 * f])

    bg_c = bgd.project(poly)
    ov_c = ovd.project(poly)
    bg_ref = bg_c.copy()
    ov_ref = ov_c.copy()
    bg_c[:, asm.status_bg == STATUS_FRINGE] = 9.9
    ov_c[:, asm.status_ov == STATUS_FRINGE] = 9.9
    asm.transfer([bg_c, ov_c])
    assert np.allclose(bg_c, bg_ref, atol=1e-11)
    assert np.allclose(ov_c, ov_ref, atol=1e-11)


def test_free_stream_residual_zero_through_assembly():
    """Uniform flow across a sheared overlapping patch: after transfer,
    every active element's rate must vanish to round-off."""
    q = free_stream(3.0, GAS)
    bg = cartesian_block(24, 16, 0.0, 1.5, 0.0, 1.0,
                         tags={FACE_W: TAG_INFLOW})
    ov = sheared_block(16, 12, 0.4, 1.1, 0.25, 0.75, shear=0.12,
                       tags=interface_tags())
    bgd = Discretization(bg, Basis(3), GAS, flux="lax_friedrichs",
                         bc_state=q)
    ovd = Discretization(ov, Basis(3), GAS, flux="slau2", bc_state=q)
    asm = OversetAssembly(bgd, ovd)
    bg_c = bgd.project_constant(q)
    ov_c = ovd.project_constant(q)
    asm.transfer([bg_c, ov_c])
    r_bg = bgd.residual(bg_c)
    r_ov = ovd.residual(ov_c)
    assert np.max(np.abs(r_bg)) < 1e-11
    assert np.max(np.abs(r_ov)) < 1e-11


def test_transfer_matches_projection_of_donor_solution():
    """Each fringe receives exactly the L2 projection of the donor
    solution, also when that solution is discontinuous between donor
    elements."""
    bg = cartesian_block(20, 20)
    ov = sheared_block(14, 14, 0.18, 0.78, 0.2, 0.8, shear=0.05,
                       tags=interface_tags())
    bgd = Discretization(bg, Basis(2), GAS)
    ovd = Discretization(ov, Basis(3), GAS)
    asm = OversetAssembly(bgd, ovd)
    rng = np.random.default_rng(4)
    bg_c = rng.normal(size=(4, 20, 20, bgd.basis.n_modes))
    ov_c = rng.normal(size=(4, 14, 14, ovd.basis.n_modes))
    for op, donor_c, recv_c in ((asm.to_bg, ov_c, bg_c),
                                (asm.to_ov, bg_c, ov_c)):
        fringe = np.zeros(recv_c.shape[1:3], bool)
        fringe[op.fringe_idx[:, 0], op.fringe_idx[:, 1]] = True
        ref = project_between(CompositeSampler([op.donor], [donor_c]),
                              op.receiver)
        out = recv_c.copy()
        op(donor_c, out)
        assert np.allclose(out[:, fringe], ref[:, fringe], atol=1e-12)
        assert np.array_equal(out[:, ~fringe], recv_c[:, ~fringe])


def test_project_between_preserves_polynomials():
    src = Discretization(cartesian_block(8, 8), Basis(2), GAS)
    dst = Discretization(cartesian_block(13, 11), Basis(3), GAS)

    def poly(x, y):
        f = 0.5 + 0.2 * x + 0.3 * y + 0.1 * x * y
        return np.stack([f, f * 0.1, f * 0.2, f + 1.0])

    src_c = src.project(poly)
    dst_c = project_between(CompositeSampler([src], [src_c]), dst)
    assert np.linalg.norm(dst.l2_error(dst_c, poly)) < 1e-11

    # two overlapping sources: the first one listed wins in the overlap
    patch = Discretization(cartesian_block(4, 4, 0.3, 0.7, 0.3, 0.7),
                           Basis(2), GAS)

    def other(x, y):
        return poly(x, y) + np.stack([1.0 - x * y, 0.5 * x, y, x + y])

    patch_c = patch.project(other)
    dst = Discretization(cartesian_block(10, 10), Basis(2), GAS)
    inside = np.zeros((10, 10), bool)
    inside[3:7, 3:7] = True              # destination cells under the patch
    both = project_between(
        CompositeSampler([patch, src], [patch_c, src_c]), dst)
    assert np.allclose(both[:, inside], dst.project(other)[:, inside],
                       atol=1e-11)
    assert np.allclose(both[:, ~inside], dst.project(poly)[:, ~inside],
                       atol=1e-11)
    reverse = project_between(
        CompositeSampler([src, patch], [src_c, patch_c]), dst)
    assert np.allclose(reverse, dst.project(poly), atol=1e-11)


def test_project_between_clamps_marginal_points():
    src = Discretization(cartesian_block(6, 6, 0.0, 1.0, 0.0, 1.0),
                         Basis(1), GAS)
    # destination pokes slightly past the source on the east side
    dst = Discretization(cartesian_block(6, 6, 0.5, 1.0 + 1e-9, 0.2, 0.8),
                         Basis(1), GAS)
    q = free_stream(2.0, GAS)
    src_c = src.project_constant(q)
    dst_c = project_between(CompositeSampler([src], [src_c]), dst)
    assert np.allclose(dst_c, dst.project_constant(q), atol=1e-10)


def test_assembly_requires_interface_tags():
    bg = cartesian_block(20, 20)
    ov = cartesian_block(10, 10, 0.2, 0.8, 0.2, 0.8)  # no interface tags
    with pytest.raises(AssemblyError, match="interface"):
        OversetAssembly(Discretization(bg, Basis(1), GAS),
                        Discretization(ov, Basis(1), GAS))
