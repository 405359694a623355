import numpy as np
import pytest

from machstem.basis import Basis
from machstem.dg import Discretization
from machstem.gas import GasModel, conserved, free_stream, pressure
from machstem.mesh import GridBlock, TAG_PERIODIC
from machstem.mms import vortex_ic
from machstem.stabilization import (kxrcf_indicator, moment_limit,
                                    positivity_guard, _dips_below_floors,
                                    Stabilizer, make_limiter_hook)

GAS = GasModel()


def box_disc(n, order, size=20.0, flux="lax_friedrichs", periodic=False):
    xs = np.linspace(0.0, size, n + 1)
    verts = np.zeros((n + 1, n + 1, 2))
    verts[..., 0] = xs[:, None]
    verts[..., 1] = xs[None, :]
    tags = {f: TAG_PERIODIC for f in range(4)} if periodic else None
    return Discretization(GridBlock(verts, tags=tags), Basis(order), GAS,
                          flux=flux)


def shock_ic(x, y, x0=10.0):
    """Vertical jump at x = x0 between two supersonic states."""
    left = conserved(1.4, 3.0, 0.0, 1.0, GAS)
    right = conserved(5.4, 0.78, 0.0, 10.3, GAS)
    out = np.where(x[None] < x0, left[:, None, None, None],
                   right[:, None, None, None])
    return np.broadcast_to(out, (4,) + x.shape).copy()


def test_indicator_zero_flags_on_smooth_field():
    disc = box_disc(16, 3)
    coeffs = disc.project(vortex_ic(GAS))
    ind, flagged = kxrcf_indicator(disc, coeffs)
    assert not np.any(flagged)
    assert np.all(ind < 0.5)


def test_indicator_decays_under_refinement_on_smooth_field():
    vals = []
    for n in (24, 48):
        disc = box_disc(n, 3)
        coeffs = disc.project(vortex_ic(GAS))
        ind, _ = kxrcf_indicator(disc, coeffs)
        vals.append(ind.max())
    assert vals[1] < 0.5 * vals[0]


def test_indicator_flags_discontinuity():
    """At solver-typical element sizes (h < 1) a strong jump drives the
    indicator far above threshold in the jump column and nowhere else."""
    disc = box_disc(16, 2, size=2.0)
    coeffs = disc.project(lambda x, y: shock_ic(x, y, x0=1.0))
    ind, flagged = kxrcf_indicator(disc, coeffs)
    cols = np.where(flagged.any(axis=1))[0]
    assert len(cols) > 0
    # flags concentrate at the jump columns (x0 is between cols 7 and 8)
    assert set(cols) <= {6, 7, 8, 9}
    assert np.all(flagged[cols[0]])


def test_indicator_empty_inflow_gives_zero():
    """A purely diverging velocity field makes every face an outflow face
    for the central element, so its indicator must be exactly zero."""
    disc = box_disc(3, 1, size=3.0)

    def diverging(x, y):
        return conserved(np.ones_like(x), 2.0 * (x - 1.5), 2.0 * (y - 1.5),
                         np.ones_like(x), GAS)

    coeffs = disc.project(diverging)
    ind, flagged = kxrcf_indicator(disc, coeffs)
    assert ind[1, 1] == 0.0
    assert not flagged[1, 1]


def test_indicator_sees_across_periodic_seam():
    """A contact at x = 0.5 carried in +x on a periodic box has a second
    jump at the seam x = 0 = 1: the columns just downstream of both are
    flagged."""
    disc = box_disc(16, 1, size=1.0, periodic=True)

    def contact(x, y):
        rho = np.where(x < 0.5, 1.0, 2.0)
        return conserved(rho, np.ones_like(x), np.zeros_like(x),
                         np.ones_like(x), GAS)

    _, flagged = kxrcf_indicator(disc, disc.project(contact))
    assert set(np.where(flagged.any(axis=1))[0]) == {0, 8}
    assert np.all(flagged[[0, 8]])


def test_limiter_takes_wrap_neighbor_mean_on_periodic_block():
    """The limited slope of a seam element is set by the mean of its
    neighbor across the seam."""
    disc = box_disc(5, 1, size=1.0, periodic=True)
    coeffs = disc.project_constant(free_stream(2.0, GAS))
    coeffs[0, 1, :, disc.basis.mode_const] += 2.0    # east mean +1
    coeffs[0, 4, :, disc.basis.mode_const] -= 0.02   # wrap west mean -0.01
    coeffs[0, 0, 2, disc.basis.mode_lin_r] = 0.05
    means = disc.cell_means(coeffs)
    flagged = np.zeros((5, 5), bool)
    flagged[0, 2] = True
    moment_limit(disc, coeffs, flagged)
    expected = (means[0, 0, 2] - means[0, 4, 2]) / np.sqrt(3.0)
    assert np.isclose(expected, 0.01 / np.sqrt(3.0), rtol=1e-12)
    assert coeffs[0, 0, 2, disc.basis.mode_lin_r] == expected


def test_limiter_preserves_cell_means():
    disc = box_disc(12, 3)
    coeffs = disc.project(shock_ic)
    before = disc.cell_means(coeffs)
    _, flagged = kxrcf_indicator(disc, coeffs)
    moment_limit(disc, coeffs, flagged)
    after = disc.cell_means(coeffs)
    assert np.allclose(before, after, rtol=0, atol=1e-13)


def test_limiter_idempotent():
    disc = box_disc(12, 3)
    coeffs = disc.project(shock_ic)
    _, flagged = kxrcf_indicator(disc, coeffs)
    moment_limit(disc, coeffs, flagged)
    once = coeffs.copy()
    moment_limit(disc, coeffs, flagged)
    assert np.array_equal(coeffs, once)


def test_limiter_zeroes_high_modes_of_flagged_elements():
    disc = box_disc(8, 4)
    coeffs = disc.project(shock_ic)
    flagged = np.ones((8, 8), bool)
    moment_limit(disc, coeffs, flagged)
    assert np.all(coeffs[:, :, :, disc.basis.modes_high] == 0.0)


def test_limiter_exact_on_linear_data():
    """Globally linear fields pass through the limiter bitwise-unchanged
    on a uniform grid, including boundary elements."""
    disc = box_disc(6, 2, size=1.0)

    def linear(x, y):
        rho = 1.0 + 0.3 * x - 0.2 * y
        return np.stack([rho, 0.1 + 0.2 * x + 0.05 * y,
                         0.3 * np.ones_like(x), 2.0 + 0.1 * y])

    coeffs = disc.project(linear)
    limited = coeffs.copy()
    moment_limit(disc, limited, np.ones((6, 6), bool))
    assert np.allclose(limited, coeffs, atol=1e-13)


def test_limiter_clamps_overshoot_against_flat_neighbors():
    disc = box_disc(5, 1, size=1.0)
    q_inf = free_stream(2.0, GAS)
    coeffs = disc.project_constant(q_inf)
    coeffs[0, 2, 2, disc.basis.mode_lin_r] = 0.5  # spurious density slope
    flagged = np.zeros((5, 5), bool)
    flagged[2, 2] = True
    moment_limit(disc, coeffs, flagged)
    assert coeffs[0, 2, 2, disc.basis.mode_lin_r] == 0.0


def test_tvb_keeps_small_slopes():
    disc = box_disc(5, 1, size=5.0)  # h = 1 so the tvb bound is just M
    q_inf = free_stream(2.0, GAS)
    coeffs = disc.project_constant(q_inf)
    coeffs[0, 2, 2, disc.basis.mode_lin_r] = 0.01
    flagged = np.zeros((5, 5), bool)
    flagged[2, 2] = True
    moment_limit(disc, coeffs, flagged, tvb_m=0.05)
    assert coeffs[0, 2, 2, disc.basis.mode_lin_r] == 0.01


def test_stabilizer_always_mode_flags_active_only():
    disc = box_disc(6, 2)
    mask = np.ones((6, 6), bool)
    mask[:2] = False
    disc.active_mask = mask
    st = Stabilizer(mode="always")
    coeffs = disc.project(shock_ic)
    orig = coeffs.copy()
    st(disc, coeffs)
    assert np.all(st.last_flagged[2:])
    assert not np.any(st.last_flagged[:2])
    # inactive elements keep their high modes
    assert np.array_equal(coeffs[:, :2], orig[:, :2])
    assert np.all(coeffs[:, 2:, :, disc.basis.modes_high] == 0.0)


def test_stabilizer_records_indicator_and_hook_applies():
    disc = box_disc(10, 2, size=2.0)
    st = Stabilizer(mode="indicator")
    hook = make_limiter_hook([disc], [st])
    coeffs = disc.project(lambda x, y: shock_ic(x, y, x0=1.0))
    hook([coeffs])
    assert st.last_flagged.any()
    assert np.all(coeffs[:, st.last_flagged][:, :, disc.basis.modes_high]
                  == 0.0)


def test_stabilizer_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown stabilization mode"):
        Stabilizer(mode="everywhere")


def old_dip_predicate(vals, rho_floor, p_floor):
    """The guard's node test before the min/max form: two full isfinite
    scans besides the floor tests."""
    p = pressure(vals, GAS)
    return ((vals[0].min(axis=-1) <= rho_floor)
            | (p.min(axis=-1) <= p_floor)
            | ~np.isfinite(vals).all(axis=(0, 3))
            | ~np.isfinite(p).all(axis=-1))


@pytest.mark.parametrize("order", [1, 4])
def test_guard_flags_exactly_the_cell_with_a_nonfinite_node(order):
    disc = box_disc(4, order)       # the jump lies on element edges
    coeffs = disc.project(lambda x, y: shock_ic(x, y, x0=10.0))
    vals = coeffs @ disc.basis.node_V.T
    n_vol = disc.basis.vol_V.shape[0]

    def node_major(v):
        return np.moveaxis(v, -1, 1)

    with np.errstate(invalid="ignore", over="ignore"):
        assert not _dips_below_floors(node_major(vals), GAS, 1e-8,
                                      1e-10).any()
        for var in range(4):
            for node in (n_vol // 2, n_vol + 1):     # a volume, a face node
                for bad in (np.nan, np.inf, -np.inf):
                    v = vals.copy()
                    v[var, 1, 2, node] = bad
                    got = _dips_below_floors(node_major(v), GAS, 1e-8,
                                             1e-10)
                    assert np.array_equal(
                        got, old_dip_predicate(v, 1e-8, 1e-10))
                    assert np.argwhere(got).tolist() == [[1, 2]]


def reference_guard(disc, coeffs, rho_floor=1e-8, p_floor=1e-10):
    """Every halving pass re-evaluates every active cell (the mean
    rebuild is not exercised here)."""
    repaired = 0
    for _ in range(60):
        vals = coeffs @ disc.basis.node_V.T
        bad = old_dip_predicate(vals, rho_floor, p_floor) & disc.active_mask
        if not bad.any():
            break
        coeffs[:, bad, 1:] *= 0.5
        repaired += int(bad.sum())
    return repaired


def test_guard_shrinks_active_dips_and_leaves_inactive_cells_alone():
    disc = box_disc(4, 2)
    mask = np.ones((4, 4), bool)
    mask[0] = False
    disc.active_mask = mask
    coeffs = disc.project(lambda x, y: shock_ic(x, y, x0=10.0))
    coeffs[0, 2, 1, disc.basis.mode_lin_r] = 3.0 * coeffs[0, 2, 1, 0]
    coeffs[3, 3, 3, disc.basis.mode_lin_s] = -2.5 * coeffs[3, 3, 3, 0]
    coeffs[:, 0, 2] = np.nan
    coeffs[0, 0, 1, disc.basis.mode_lin_r] = 5.0 * coeffs[0, 0, 1, 0]
    ref = coeffs.copy()
    n_ref = reference_guard(disc, ref)
    with np.errstate(invalid="ignore"):
        n = positivity_guard(disc, coeffs)
    assert n == n_ref > 2
    assert np.array_equal(coeffs, ref, equal_nan=True)
    with np.errstate(invalid="ignore"):
        vals = np.moveaxis(coeffs @ disc.basis.node_V.T, -1, 1)
        assert not _dips_below_floors(vals, GAS, 1e-8, 1e-10)[mask].any()
    assert np.isnan(coeffs[:, 0, 2]).all()
