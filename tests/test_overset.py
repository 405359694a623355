import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from machstem import dg
from machstem.basis import Basis, FACE_W, FACE_E, FACE_S, FACE_N
from machstem.dg import Discretization
from machstem.errors import AssemblyError
from machstem.gas import GasModel, conserved, free_stream
from machstem.mesh import GridBlock, TAG_INTERFACE, TAG_INFLOW, TAG_OUTFLOW
from machstem.stabilization import (Stabilizer, _dips_below_floors,
                                    make_limiter_hook)
from machstem.timestepping import System, march_to_steady
from machstem.wedge import FlowCase, build_wedge_grid
from machstem.overset import (PointLocator, _newton_rs, points_in_footprint,
                              points_near_footprint, boundary_polygon,
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


def reference_newton_rs(a, b, c, d, pts, iters=12):
    """Newton on every pair for all ``iters`` iterations, broadcasting
    its inputs: the solve ``_newton_rs`` must reproduce bit for bit."""
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


def reference_locate(loc, pts, tol=1e-9, clamp=False):
    """Newton in all k-d candidates of every point at once, the first
    candidate that contains the point taking it, then the walk for the
    rest: the result ``PointLocator.locate`` must reproduce bit for bit."""
    pts = np.asarray(pts, float).reshape(-1, 2)
    n, nj = len(pts), loc.block.nj
    cand = loc.tree.query(pts, k=loc.k)[1].reshape(n, loc.k)
    af, bf, cf, df = (v.reshape(-1, 2)[cand]
                      for v in (loc.a, loc.b, loc.c, loc.d))
    r, s = reference_newton_rs(af, bf, cf, df, pts[:, None, :])
    good = (np.abs(r) <= 1.0 + tol) & (np.abs(s) <= 1.0 + tol)
    res = pts[:, None, :] - (af + bf * r[..., None] + cf * s[..., None]
                             + df * (r * s)[..., None])
    scale = np.sqrt(loc._area[cand])
    good &= np.hypot(res[..., 0], res[..., 1]) <= 1e-8 * np.maximum(
        scale, 1e-12)
    first = np.argmax(good, axis=1)
    rows = np.arange(n)
    found = good[rows, first]
    pick = cand[rows, first]
    ij = np.column_stack([pick // nj, pick % nj])
    rs = np.column_stack([r[rows, first], s[rows, first]])
    missing = ~found
    if missing.any():
        fi, fj, fr, fs, ffound = loc._walk(pts[missing], pick[missing], tol)
        ij[missing] = np.column_stack([fi, fj])
        rs[missing] = np.column_stack([fr, fs])
        found[missing] = ffound
    lim = 1.0 if clamp else 1.0 + tol
    return found, ij, np.clip(rs, -lim, lim)


def reference_footprint(block, pts):
    """Every perimeter edge against every point."""
    poly = boundary_polygon(block)
    x, y = np.asarray(pts, float).reshape(-1, 2).T
    inside = np.zeros(x.shape, bool)
    for (a0, b0), (a1, b1) in zip(poly[:-1], poly[1:]):
        crosses = (b0 > y) != (b1 > y)
        xc = a0 + (y[crosses] - b0) / (b1 - b0) * (a1 - a0)
        hit = np.zeros(x.shape, bool)
        hit[crosses] = x[crosses] < xc
        inside ^= hit
    return inside.reshape(np.asarray(pts).shape[:-1])


LOCATE_BLOCKS = {
    "stretched": stretched_sheared_block(),
    "sheared": sheared_block(9, 7, 0.0, 2.0, 0.0, 1.0, shear=0.3),
    "wedge": build_wedge_grid(FlowCase(mach=3.0, wedge_angle_deg=24.0),
                              30, 15),
}


def mapped(loc, i, j, r, s):
    """Physical points of reference points (r, s) in elements (i, j)."""
    a, b, c, d = (v[i, j] for v in (loc.a, loc.b, loc.c, loc.d))
    return a + b * r[:, None] + c * s[:, None] + d * (r * s)[:, None]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(LOCATE_BLOCKS)), st.booleans(), st.data())
def test_locate_matches_all_candidate_reference(kind, clamp, data):
    """Points inside elements, on their shared edges (r or s exactly
    +-1), at the vertices, midway along edges and around the block."""
    blk = LOCATE_BLOCKS[kind]
    loc = PointLocator(blk)
    n = data.draw(st.integers(1, 30))

    def draws(elements):
        return np.array(data.draw(st.lists(elements, min_size=n,
                                           max_size=n)))

    ref_coord = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]),
                          st.floats(-1.0, 1.0))
    i, j = draws(st.integers(0, blk.ni - 1)), draws(st.integers(0, blk.nj - 1))
    inside = mapped(loc, i, j, draws(ref_coord), draws(ref_coord))
    vi, vj = draws(st.integers(0, blk.ni)), draws(st.integers(0, blk.nj))
    corners = blk.vertices[vi, vj]
    mids = 0.5 * (corners + blk.vertices[np.minimum(vi + 1, blk.ni), vj])
    lo, hi = blk.vertices.min(axis=(0, 1)), blk.vertices.max(axis=(0, 1))
    around = lo + (hi - lo) * draws(st.tuples(st.floats(-0.3, 1.3),
                                              st.floats(-0.3, 1.3)))
    pts = np.vstack([inside, corners, mids, around])
    for got, want in zip(loc.locate(pts, clamp=clamp),
                         reference_locate(loc, pts, clamp=clamp)):
        assert np.array_equal(got, want)
    assert np.array_equal(points_in_footprint(blk, pts),
                          reference_footprint(blk, pts))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(LOCATE_BLOCKS)), st.integers(0, 2**32 - 1))
def test_newton_stopped_at_fixed_points_matches_twelve_iterations(kind,
                                                                  seed):
    """Pairs of points in their own elements, which converge or end in
    a cycle of one ULP, and with random elements, whose (r, s) mostly
    hit the +-3 clip: the early-stopped solve returns the bits of 12
    full iterations."""
    blk = LOCATE_BLOCKS[kind]
    loc = PointLocator(blk)
    rng = np.random.default_rng(seed)
    n = 1000
    i, j = rng.integers(0, blk.ni, n), rng.integers(0, blk.nj, n)
    pts = mapped(loc, i, j, rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
    ei = np.r_[i, rng.integers(0, blk.ni, n)]
    ej = np.r_[j, rng.integers(0, blk.nj, n)]
    pts = np.vstack([pts, pts])
    coeffs = [v[ei, ej] for v in (loc.a, loc.b, loc.c, loc.d)]
    r, s = _newton_rs(*coeffs, pts)
    want = reference_newton_rs(*coeffs, pts)
    assert np.array_equal(r, want[0]) and np.array_equal(s, want[1])
    # the sample holds every kind of pair: one iteration fewer leaves
    # the cycling pairs elsewhere, the converged and clipped ones alone
    r11, s11 = reference_newton_rs(*coeffs, pts, iters=11)
    cycling = (r11 != r) | (s11 != s)
    clipped = (np.abs(r) == 3.0) | (np.abs(s) == 3.0)
    assert cycling[:n].any() and (~cycling[:n]).any() and clipped[n:].any()


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


def front_and_grow_depth(covered):
    """Reference erosion depth: a front of the covered elements with an
    uncovered 4-neighbour in the grid, grown one 4-neighbour layer at a
    time; a fully covered grid counts the index distance from the
    border."""
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
    cur, d = front, 1
    while True:
        padc = np.pad(cur, 1, constant_values=False)
        nxt = covered & (depth == 0) & (padc[:-2, 1:-1] | padc[2:, 1:-1]
                                        | padc[1:-1, :-2] | padc[1:-1, 2:])
        if not nxt.any():
            return depth
        d += 1
        depth[nxt] = d
        cur = nxt


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 13), st.integers(1, 13), st.data())
def test_erosion_depth_matches_front_and_grow_loop(ni, nj, data):
    cells = data.draw(st.one_of(
        st.just([True] * (ni * nj)),
        st.lists(st.booleans(), min_size=ni * nj, max_size=ni * nj)))
    covered = np.array(cells, bool).reshape(ni, nj)
    assert np.array_equal(erosion_depth(covered),
                          front_and_grow_depth(covered))


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
        TransferOp(bgd, fringe_mask, ovd, all_fringe, "background fringe")


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
        fringe[op.cells] = True
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


def unfiltered_states(sampler, pts):
    """Every block in turn locates every point no earlier block took:
    the states ``CompositeSampler.states`` must reproduce bit for bit."""
    out = np.empty((4, len(pts)))
    todo = np.ones(len(pts), bool)
    for k, (disc, loc, coeffs) in enumerate(
            zip(sampler.discs, sampler.locators, sampler.coeffs)):
        last = k == len(sampler.discs) - 1
        found, ij, rs = loc.locate(pts[todo], clamp=last)
        take = found | last
        sel = np.where(todo)[0][take]
        modes = disc.basis.eval_modes(rs[take, 0], rs[take, 1])
        c = coeffs[:, ij[take, 0], ij[take, 1]]
        out[:, sel] = np.einsum("qd,vqd->vq", modes, c, optimize=True)
        todo[sel] = False
    return out


def trapezoid_patch():
    """A sheared patch of trapezoids, inside the unit square."""
    xs = np.linspace(0.0, 1.0, 8)
    ys = np.linspace(0.0, 1.0, 6)
    verts = np.zeros((8, 6, 2))
    verts[..., 0] = 0.2 + 0.5 * xs[:, None] + 0.1 * ys[None, :]
    verts[..., 1] = 0.15 + ys[None, :] * (0.4 + 0.3 * xs[:, None]) \
        + 0.1 * xs[:, None]
    return GridBlock(verts, name="patch")


SAMPLER_BLOCKS = (trapezoid_patch(), sheared_block(11, 9, -0.1, 1.0, -0.1,
                                                    1.05, shear=0.1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_sampler_locates_near_its_patch_as_it_locates_everywhere(seed, data):
    """A patch that is not the last block locates only the points near
    its footprint, and every point gets the bits of locating all of them
    in it: points around the blocks, and points 1e-12 to 1e-6 inside and
    outside the patch's perimeter edges, or on them."""
    rng = np.random.default_rng(seed)
    discs = [Discretization(b, Basis(2), GAS) for b in SAMPLER_BLOCKS]
    coeffs = [rng.standard_normal((4, b.ni, b.nj, 9))
              for b in SAMPLER_BLOCKS]
    sampler = CompositeSampler(discs, coeffs)
    poly = boundary_polygon(SAMPLER_BLOCKS[0])
    n = data.draw(st.integers(1, 40))
    edge = np.array(data.draw(st.lists(st.integers(0, len(poly) - 2),
                                       min_size=n, max_size=n)))
    t = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0])
                                    | st.floats(0.0, 1.0),
                                    min_size=n, max_size=n)))
    gap = np.array(data.draw(st.lists(
        st.sampled_from([0.0]) | st.floats(-12.0, -6.0).map(lambda e: 10 ** e)
        | st.floats(-12.0, -6.0).map(lambda e: -10 ** e),
        min_size=n, max_size=n)))
    a, b = poly[edge], poly[edge + 1]
    along = b - a
    # the perimeter runs counterclockwise, so (t_y, -t_x) points out
    out = np.column_stack([along[:, 1], -along[:, 0]])
    out /= np.hypot(out[:, 0], out[:, 1])[:, None]
    rim = a + t[:, None] * along + gap[:, None] * out
    around = rng.uniform(-0.2, 1.2, (60, 2))
    pts = np.vstack([rim, around])
    assert np.array_equal(sampler.states(pts),
                          unfiltered_states(sampler, pts))
    loc = sampler.locators[0]
    found, ij, rs = loc.locate(pts)
    near = points_near_footprint(SAMPLER_BLOCKS[0], pts,
                                 sampler.margins[0])
    assert not (found & ~near).any()
    assert near[points_in_footprint(SAMPLER_BLOCKS[0], pts)].all()
    for got, want in zip(loc.locate(pts[near]),
                         (found[near], ij[near], rs[near])):
        assert np.array_equal(got, want)


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


def test_pool_matches_serial_on_a_partly_active_assembly(monkeypatch):
    """On an assembly whose P4 background spans four row blocks and has
    holes, the transfer, the residuals and the wave speeds on the pool
    are bit for bit the serial ones, and the two transfer directions ran
    on two threads."""
    q = free_stream(3.0, GAS)
    bg = cartesian_block(60, 30, 0.0, 1.5, 0.0, 1.0,
                         tags={FACE_W: TAG_INFLOW})
    ov = sheared_block(24, 18, 0.4, 1.1, 0.25, 0.75, shear=0.12,
                       tags=interface_tags())
    bgd = Discretization(bg, Basis(4), GAS, flux="lax_friedrichs",
                         bc_state=q)
    ovd = Discretization(ov, Basis(4), GAS, flux="slau2", bc_state=q)
    asm = OversetAssembly(bgd, ovd)
    assert bgd.pooled and len(bgd.row_blocks) == 4 and not ovd.pooled
    assert asm.counts()["background"]["hole"] > 0

    def smooth(x, y):
        wave = np.sin(4.0 * x) * np.cos(5.0 * y)
        return conserved(1.0 + 0.3 * wave, 1.2 - 0.4 * wave, 0.3 * wave,
                         0.7 + 0.2 * wave, GAS)

    start = [bgd.project(smooth), ovd.project(smooth)]
    threads = {}
    for name in ("to_bg", "to_ov"):
        def recording(donor, receiver, name=name, op=getattr(asm, name)):
            threads[name] = threading.current_thread().name
            op(donor, receiver)
        monkeypatch.setattr(asm, name, recording)

    def run(workers):
        monkeypatch.setattr(dg, "WORKERS", workers)
        coeffs = [c.copy() for c in start]
        asm.transfer(coeffs)
        return (coeffs + [d.residual(c).copy() for d, c in zip((bgd, ovd),
                                                               coeffs)]
                + [d.max_wave_speed(c) for d, c in zip((bgd, ovd), coeffs)])

    got = run(max(dg.WORKERS, 2))
    assert threads["to_bg"] != threads["to_ov"]
    want = run(1)
    assert threads["to_bg"] == threads["to_ov"]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert not np.array_equal(got[0], start[0])


def shock_assembly(order=4, **kw):
    """An inflow channel with a sheared patch deep enough for holes."""
    q = free_stream(3.0, GAS)
    bg = cartesian_block(30, 20, 0.0, 1.5, 0.0, 1.0,
                         tags={FACE_W: TAG_INFLOW})
    ov = sheared_block(18, 14, 0.4, 1.1, 0.2, 0.8, shear=0.12,
                       tags=interface_tags())
    bgd = Discretization(bg, Basis(order), GAS, flux="lax_friedrichs",
                         bc_state=q)
    ovd = Discretization(ov, Basis(order), GAS, flux="slau2", bc_state=q)
    return OversetAssembly(bgd, ovd, **kw)


def jump(x, y, high=(1.0, 10.0), low=(1e-3, 1e-3)):
    """Density and pressure jumping at x = 0.73, fluid at rest."""
    near = x < 0.73
    rho = np.where(near, high[0], low[0])
    p = np.where(near, high[1], low[1])
    return conserved(rho, 0.0 * x, 0.0 * x, p, GAS)


def test_transfer_guards_receivers_of_a_strong_jump():
    """P4 donors holding a strong density and pressure jump across the
    fringe, constant in each element so that every donor value is
    admissible: the projection onto a receiver the jump crosses dips
    below the floors, and the transfer's guard leaves no receiver
    below them at a guard node, changing no active element."""
    asm = shock_assembly()
    coeffs = []
    for d in (asm.bg, asm.ov):
        c = np.zeros((4, d.block.ni, d.block.nj, d.basis.n_modes))
        cx, cy = np.moveaxis(d.block.element_centroids(), -1, 0)
        c[..., 0] = 2.0 * jump(cx, cy)          # mode-0 value is 1/2
        coeffs.append(c)
    before = [c.copy() for c in coeffs]
    asm.transfer(coeffs)
    for (d, cells), c, b in zip(asm.receivers, coeffs, before):
        vals = np.tensordot(d.basis.node_V, c[(slice(None), *cells)],
                            (1, -1))
        dips = _dips_below_floors(vals.swapaxes(0, 1), GAS, 1e-8, 1e-10)
        assert not dips.any()
        assert np.array_equal(c[:, d.active_mask], b[:, d.active_mask])
    assert min(asm.receiver_repairs) > 0


def faces_an_active_element(status):
    active = np.pad(status == STATUS_ACTIVE, 1)
    return (active[:-2, 1:-1] | active[2:, 1:-1]
            | active[1:-1, :-2] | active[1:-1, 2:])


def test_second_fringe_layer_changes_no_active_state():
    """The default single background fringe layer is the one the active
    elements read through their faces; a two-block march with a second
    layer gives the same active coefficients and history, bit for bit."""
    def march(**kw):
        asm = shock_assembly(order=2, **kw)
        discs = [asm.bg, asm.ov]
        stabs = [Stabilizer(mode="off", positivity=True),
                 Stabilizer(mode="indicator", positivity=True)]
        system = System(discs, transfer=asm.transfer,
                        limiter=make_limiter_hook(discs, stabs))
        coeffs = [d.project(lambda x, y: jump(x, y, (1.9, 5.0), (1.0, 1.0)))
                  for d in discs]
        res = march_to_steady(system, coeffs, max_iterations=15, tol=1e-14)
        return asm, [c[:, d.active_mask] for d, c in zip(discs, coeffs)], \
            np.array(res.history)

    one, two = march(), march(fringe_width=2)
    status = [run[0].status_bg for run in (one, two)]
    assert faces_an_active_element(status[0])[status[0] == STATUS_FRINGE].all()
    second = (status[1] == STATUS_FRINGE) & (status[0] == STATUS_HOLE)
    assert second.any()
    assert not faces_an_active_element(status[1])[second].any()
    for a, b in zip(one[1], two[1]):
        assert np.array_equal(a, b)
    assert np.array_equal(one[2], two[2]) and len(one[2]) == 15


def test_projection_rows_do_not_depend_on_the_other_receivers():
    """Each receiver's projection row is built with the receiver as the
    batch axis: the background receivers that one and two fringe layers
    share get the same rows, bit for bit."""
    def rows(asm):
        op = asm.to_bg
        return dict(zip(zip(*(ix.tolist() for ix in op.cells)), op.proj))

    one, two = rows(shock_assembly()), rows(shock_assembly(fringe_width=2))
    assert set(one) < set(two)
    for cell, row in one.items():
        assert np.array_equal(row, two[cell])
