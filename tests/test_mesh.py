import numpy as np
import pytest

from machstem.basis import Basis, FACE_W, FACE_E, FACE_S, FACE_N
from machstem.config import parse_config
from machstem.mesh import (GridBlock, TAG_INFLOW, TAG_INTERFACE, TAG_OUTFLOW,
                           TAG_PERIODIC, TAG_WALL)
from machstem.pipeline import build_aligned_grid
from machstem.wedge import FlowCase, build_wedge_grid


def cartesian_block(nx, ny, x0=0.0, x1=1.0, y0=0.0, y1=1.0, **kw):
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    verts = np.zeros((nx + 1, ny + 1, 2))
    verts[..., 0] = xs[:, None]
    verts[..., 1] = ys[None, :]
    return GridBlock(verts, **kw)


def wavy_block(nx, ny, amp=0.08):
    """Smoothly distorted block; elements stay straight-sided quads."""
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.zeros((nx + 1, ny + 1, 2))
    verts[..., 0] = X + amp * np.sin(np.pi * X) * np.sin(2 * np.pi * Y)
    verts[..., 1] = Y + amp * np.sin(2 * np.pi * X) * np.sin(np.pi * Y)
    return GridBlock(verts, name="wavy")


def face_points(blk, basis):
    """Physical quadrature points of every face, (ni, nj, nq, 2) each."""
    x1 = basis.q1d_nodes
    ones = np.ones_like(x1)
    return {face: blk.map_points(fr, fs) for face, (fr, fs) in {
        FACE_W: (-ones, x1), FACE_E: (ones, x1),
        FACE_S: (x1, -ones), FACE_N: (x1, ones)}.items()}


def test_cartesian_geometry():
    nx, ny = 4, 3
    blk = cartesian_block(nx, ny, x1=2.0, y1=1.5)
    basis = Basis(2)
    geo = blk.geometry(basis)
    hx, hy = 2.0 / nx, 1.5 / ny
    assert np.allclose(geo.detJ, hx * hy / 4.0)
    assert np.allclose(geo.element_area, hx * hy)
    # mass matrix of an affine element is detJ * identity, and so is the
    # Gauss-point form of its inverse, V_g^T diag(w_g / detJ) V_g
    eye = np.eye(basis.n_modes)
    mass = np.einsum("qp,ijq,qr->ijpr", basis.vol_V,
                     basis.vol_weights * geo.detJ, basis.vol_V)
    assert np.allclose(mass, hx * hy / 4.0 * eye, atol=1e-14)
    inv = np.einsum("gp,ijg,gr->ijpr", basis.gauss_V, geo.minv_scale,
                    basis.gauss_V)
    assert np.allclose(inv, 4.0 / (hx * hy) * eye, atol=1e-11)


def test_outward_normals_cartesian():
    blk = cartesian_block(3, 3)
    geo = blk.geometry(Basis(1))
    assert np.allclose(geo.face_normal[FACE_W], [-1.0, 0.0])
    assert np.allclose(geo.face_normal[FACE_E], [1.0, 0.0])
    assert np.allclose(geo.face_normal[FACE_S], [0.0, -1.0])
    assert np.allclose(geo.face_normal[FACE_N], [0.0, 1.0])
    assert np.allclose(geo.face_sj[FACE_W], 0.5 / 3.0)
    assert np.allclose(geo.face_sj[FACE_S], 0.5 / 3.0)


def test_normals_unit_length_and_outward_curvilinear():
    blk = wavy_block(5, 4)
    geo = blk.geometry(Basis(3))
    pts = face_points(blk, Basis(3))
    cent = blk.element_centroids()
    for face in (FACE_W, FACE_E, FACE_S, FACE_N):
        n = geo.face_normal[face]
        assert np.allclose(np.hypot(n[..., 0], n[..., 1]), 1.0)
        # outward: normal points away from the centroid through the face mid
        mids = pts[face].mean(axis=2)
        d = mids - cent
        assert np.all(np.einsum("ijk,ijk->ij", d, n) > 0.0)


def test_watertight_shared_faces():
    """Opposite faces of neighboring elements carry opposite normals and
    identical physical quadrature points, in matching order."""
    blk = wavy_block(4, 4)
    geo = blk.geometry(Basis(2))
    pts = face_points(blk, Basis(2))
    pe = pts[FACE_E][:-1, :]
    pw = pts[FACE_W][1:, :]
    assert np.allclose(pe, pw, atol=1e-14)
    assert np.allclose(geo.face_normal[FACE_E][:-1, :],
                       -geo.face_normal[FACE_W][1:, :], atol=1e-14)
    assert np.allclose(geo.face_sj[FACE_E][:-1, :],
                       geo.face_sj[FACE_W][1:, :], atol=1e-14)
    pn = pts[FACE_N][:, :-1]
    ps = pts[FACE_S][:, 1:]
    assert np.allclose(pn, ps, atol=1e-14)
    assert np.allclose(geo.face_normal[FACE_N][:, :-1],
                       -geo.face_normal[FACE_S][:, 1:], atol=1e-14)


def test_metric_identity_discrete_divergence():
    """Constant fields have exactly zero weak divergence: the volume term
    with a constant flux equals the surface sum of n*sJ integrals."""
    blk = wavy_block(4, 3)
    basis = Basis(3)
    geo = blk.geometry(basis)
    # sum over faces of (outward normal * sJ * total face weight) must
    # vanish per element for any closed straight-edge polygon
    total = np.zeros((blk.ni, blk.nj, 2))
    wsum = basis.q1d_weights.sum()
    for face in (FACE_W, FACE_E, FACE_S, FACE_N):
        total += geo.face_normal[face] * geo.face_sj[face][..., None] * wsum
    assert np.allclose(total, 0.0, atol=1e-13)


def test_h_dt_square_matches_side_length():
    blk = cartesian_block(10, 10, x1=0.1, y1=0.1)
    geo = blk.geometry(Basis(1))
    assert np.allclose(geo.h_dt, 0.01)
    assert np.allclose(geo.h_max_edge, 0.01)


def test_inverted_element_rejected():
    blk = cartesian_block(2, 2)
    blk.vertices[1, 1] = (-0.3, -0.3)  # fold the central vertex outside
    with pytest.raises(ValueError, match="inverted|degenerate"):
        blk.geometry(Basis(1))


def test_tags_scalar_and_mixed():
    blk = cartesian_block(4, 2, tags={FACE_W: TAG_INFLOW, FACE_S: TAG_WALL,
                                      FACE_N: [TAG_WALL, TAG_WALL,
                                               TAG_OUTFLOW, TAG_OUTFLOW]})
    assert np.all(blk.tags[FACE_W] == TAG_INFLOW)
    assert np.all(blk.tags[FACE_S] == TAG_WALL)
    assert list(blk.tags[FACE_N]) == [TAG_WALL, TAG_WALL,
                                      TAG_OUTFLOW, TAG_OUTFLOW]
    assert np.all(blk.tags[FACE_E] == TAG_OUTFLOW)  # default


@pytest.mark.parametrize("nx, ny, tags", [
    (4, 3, {}),
    (4, 2, {FACE_W: TAG_INFLOW, FACE_S: TAG_WALL,
            FACE_N: [TAG_WALL, TAG_INTERFACE, TAG_OUTFLOW, TAG_OUTFLOW]}),
    (5, 3, {FACE_W: TAG_PERIODIC, FACE_E: TAG_PERIODIC, FACE_S: TAG_WALL}),
    (3, 4, {FACE_S: TAG_PERIODIC, FACE_N: TAG_PERIODIC,
            FACE_W: TAG_INFLOW}),
    (4, 4, {f: TAG_PERIODIC for f in (FACE_W, FACE_E, FACE_S, FACE_N)}),
    (1, 3, {FACE_W: TAG_PERIODIC, FACE_E: TAG_PERIODIC}),
    (1, 1, {}),
])
def test_face_table_covers_every_face_once(nx, ny, tags):
    """Each element face lies in exactly one face pair or one boundary
    side, pairs join faces that touch (across the period of the unit box
    for wrap pairs), and periodic sides are never boundary sides."""
    blk = cartesian_block(nx, ny, tags=tags)
    pts = face_points(blk, Basis(1))
    seen = np.zeros((4, nx, ny), int)
    for fa, sa, fb, sb in blk.face_pairs:
        assert (fa, fb) in ((FACE_E, FACE_W), (FACE_N, FACE_S))
        seen[fa][sa] += 1
        seen[fb][sb] += 1
        gap = pts[fa][sa] - pts[fb][sb]
        assert np.allclose(gap - np.round(gap), 0.0, atol=1e-14)
    for face, sel in blk.boundary_sides:
        seen[face][sel] += 1
        assert not np.any(blk.tags[face] == TAG_PERIODIC)
    assert np.all(seen == 1)


def test_periodic_side_needs_a_periodic_opposite():
    # an inflow west side against a periodic east side would count the
    # west faces twice
    with pytest.raises(ValueError, match="east side is periodic but the "
                                         "west side is not"):
        cartesian_block(4, 3, tags={FACE_W: TAG_INFLOW,
                                    FACE_E: TAG_PERIODIC})
    with pytest.raises(ValueError, match="south side is periodic"):
        cartesian_block(4, 3, tags={FACE_S: TAG_PERIODIC})


def test_partly_periodic_side_rejected():
    with pytest.raises(ValueError, match="north side is only partly"):
        cartesian_block(3, 2, tags={
            FACE_S: TAG_PERIODIC,
            FACE_N: [TAG_PERIODIC, TAG_WALL, TAG_PERIODIC]})


# ---- node-major metrics -------------------------------------------------

def reference_map_points(block, r, s):
    """Element-major mapping, broadcasting each corner against the node
    axis: ``GridBlock.map_points`` must reproduce its bits."""
    c00, c10, c11, c01 = block.corners
    n00 = (1 - r) * (1 - s) / 4.0
    n10 = (1 + r) * (1 - s) / 4.0
    n11 = (1 + r) * (1 + s) / 4.0
    n01 = (1 - r) * (1 + s) / 4.0
    return (c00[:, :, None, :] * n00[..., None]
            + c10[:, :, None, :] * n10[..., None]
            + c11[:, :, None, :] * n11[..., None]
            + c01[:, :, None, :] * n01[..., None])


def reference_metrics(block, r, s):
    """Element-major x_r, y_r, x_s, y_s and det J, (ni, nj, npts)."""
    c00, c10, c11, c01 = block.corners

    def d_dr(k):
        return ((c10[..., k] - c00[..., k])[:, :, None] * (1 - s) +
                (c11[..., k] - c01[..., k])[:, :, None] * (1 + s)) / 4.0

    def d_ds(k):
        return ((c01[..., k] - c00[..., k])[:, :, None] * (1 - r) +
                (c11[..., k] - c10[..., k])[:, :, None] * (1 + r)) / 4.0

    x_r, y_r, x_s, y_s = d_dr(0), d_dr(1), d_ds(0), d_ds(1)
    return x_r, y_r, x_s, y_s, x_r * y_s - x_s * y_r


def sheared_block(nx, ny, shear=0.3):
    xs = np.linspace(0.0, 2.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    verts = np.zeros((nx + 1, ny + 1, 2))
    verts[..., 0] = xs[:, None] + shear * ys[None, :] ** 2
    verts[..., 1] = ys[None, :] * (1.0 + 0.2 * xs[:, None])
    return GridBlock(verts, name="sheared")


def patch_block():
    case = FlowCase(mach=3.0, wedge_angle_deg=24.0, coarse_grid=(150, 50),
                    overset_grid=(30, 20))
    cfg = parse_config(None, overrides={"case.coarse_grid": "150x50",
                                        "case.overset_grid": "30x20"})
    t = np.linspace(0.0, 1.0, 80)
    ang = np.radians(-40.0)
    band = np.column_stack([0.5 + t * np.cos(ang), 0.916 + t * np.sin(ang)])
    return build_aligned_grid(case, cfg, band)


METRIC_BLOCKS = {
    "wedge": lambda: build_wedge_grid(FlowCase(mach=3.0,
                                               wedge_angle_deg=24.0), 23, 9),
    "sheared": lambda: sheared_block(11, 7),
    "patch": patch_block,
}


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("kind", sorted(METRIC_BLOCKS))
def test_node_major_geometry_matches_element_major_reference(kind, order):
    """Every stored field, and the volume points mapped on read, has the
    bits of the element-major build, stored contiguous (ni, nj, npts)."""
    blk = METRIC_BLOCKS[kind]()
    basis = Basis(order)
    r, s = basis.vol_nodes.T
    x_r, y_r, x_s, y_s, detJ = reference_metrics(blk, r, s)
    g_r = np.sqrt(x_r ** 2 + y_r ** 2)
    g_s = np.sqrt(x_s ** 2 + y_s ** 2)
    want = {
        "x_r": x_r, "y_r": y_r, "x_s": x_s, "y_s": y_s, "detJ": detJ,
        "vol_points": reference_map_points(blk, r, s),
        "minv_scale": basis.gauss_weights / reference_metrics(
            blk, *basis.gauss_nodes.T)[4],
        "element_area": np.einsum("q,ijq->ij", basis.vol_weights, detJ),
        "h_dt": 2.0 * np.min(detJ / np.maximum(g_r, g_s), axis=2),
    }
    geo = blk.geometry(basis)
    for name, ref in want.items():
        got = getattr(geo, name)
        assert got.flags.c_contiguous, name
        assert got.shape == ref.shape and np.array_equal(got, ref), name
    x1 = basis.q1d_nodes
    for fr, fs in ((x1, -np.ones_like(x1)), (np.ones_like(x1), x1)):
        assert np.array_equal(blk.map_points(fr, fs),
                              reference_map_points(blk, fr, fs))
