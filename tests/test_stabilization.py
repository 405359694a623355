import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from machstem.basis import Basis
from machstem.dg import Discretization
from machstem.gas import GasModel, conserved, free_stream, pressure
from machstem.mesh import GridBlock, TAG_PERIODIC
from machstem.mms import vortex_ic
from machstem.stabilization import (kxrcf_indicator, moment_limit,
                                    positivity_guard, _dips_below_floors,
                                    _minmod3, _proven_positive,
                                    Stabilizer, make_limiter_hook)
from machstem.wedge import FlowCase, build_wedge_grid

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
    """On parallelograms. Every element is flagged: at this element size
    the indicator flags none."""
    disc = box_disc(12, 3)
    coeffs = disc.project(shock_ic)
    before = disc.cell_means(coeffs)
    flagged = np.ones(before.shape[1:], bool)
    moment_limit(disc, coeffs, flagged)
    assert not np.array_equal(disc.project(shock_ic), coeffs)
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


def reference_moment_limit(disc, coeffs, flagged, tvb_m=0.0):
    """The limiter as it was before it worked on the flagged elements
    only: minmod over the whole block, high modes gathered, zeroed at
    the flagged elements and written back."""
    from machstem.basis import FACE_W, FACE_E, FACE_S, FACE_N
    if not np.any(flagged):
        return
    basis = disc.basis
    means = disc.cell_means(coeffs)
    c10 = coeffs[:, :, :, basis.mode_lin_r]
    c01 = coeffs[:, :, :, basis.mode_lin_s]
    diff = {f: c.copy() for f, c in ((FACE_W, c10), (FACE_E, c10),
                                     (FACE_S, c01), (FACE_N, c01))}
    v = slice(None)
    for fa, sa, fb, sb in disc.block.face_pairs:
        diff[fa][(v, *sa)] = diff[fb][(v, *sb)] = (
            means[(v, *sb)] - means[(v, *sa)]) / np.sqrt(3.0)
    lim10 = _minmod3(c10, diff[FACE_E], diff[FACE_W])
    lim01 = _minmod3(c01, diff[FACE_N], diff[FACE_S])
    if tvb_m > 0.0:
        keep = disc.geo.h_max_edge[None] ** 2 * tvb_m
        lim10 = np.where(np.abs(c10) <= keep, c10, lim10)
        lim01 = np.where(np.abs(c01) <= keep, c01, lim01)
    c10[:, flagged] = lim10[:, flagged]
    c01[:, flagged] = lim01[:, flagged]
    hi = coeffs[:, :, :, basis.modes_high]
    hi[:, flagged] = 0.0
    coeffs[:, :, :, basis.modes_high] = hi


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("flags", ["all", "partial"])
@pytest.mark.parametrize("tvb_m", [0.0, 0.5])
def test_limiter_matches_whole_block_reference(order, periodic, flags,
                                               tvb_m):
    """Limiting at the flagged elements only writes the coefficients the
    whole-block limiter writes, bit for bit."""
    rng = np.random.default_rng(order + 2 * periodic)
    disc = box_disc(7, order, size=2.0, periodic=periodic)
    shape = (7, 7)
    mean = conserved(rng.uniform(0.8, 1.2, shape),
                     rng.uniform(-1.5, 1.5, shape),
                     rng.uniform(-1.5, 1.5, shape),
                     rng.uniform(0.5, 1.0, shape), GAS)
    coeffs = 0.05 * rng.standard_normal(
        (4,) + shape + (disc.basis.n_modes,)) * np.abs(mean)[..., None]
    coeffs[..., disc.basis.mode_const] = 2.0 * mean
    flagged = (np.ones(shape, bool) if flags == "all"
               else rng.uniform(size=shape) < 0.3)
    start = coeffs.copy()
    ref = coeffs.copy()
    reference_moment_limit(disc, ref, flagged, tvb_m)
    moment_limit(disc, coeffs, flagged, tvb_m)
    assert np.array_equal(coeffs, ref)
    # the limiter acts, and the TVB bound keeps some slopes it would cut
    assert not np.array_equal(coeffs, start)
    if tvb_m > 0.0:
        moment_limit(disc, start, flagged)
        assert not np.array_equal(coeffs, start)


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


# ---- the guard's modal proof ------------------------------------------

RHO_FLOOR, P_FLOOR = 1e-8, 1e-10
WEDGE_CASE = FlowCase(mach=3.0, wedge_angle_deg=24.0)
_WEDGE_DISCS = {}


def masked_wedge_disc(order):
    """A 10x4 wedge block, trapezoids in columns 1-3, with rows 0-1 and
    part of rows 5-6 inactive."""
    if order not in _WEDGE_DISCS:
        disc = Discretization(build_wedge_grid(WEDGE_CASE, 10, 4),
                              Basis(order), GAS,
                              bc_state=WEDGE_CASE.free_stream())
        mask = np.ones((10, 4), bool)
        mask[:2] = False
        mask[5:7, 1:3] = False
        disc.active_mask = mask
        _WEDGE_DISCS[order] = disc
    return _WEDGE_DISCS[order]


def parent_positivity_guard(disc, coeffs, rho_floor=1e-8, p_floor=1e-10):
    """The guard before the modal proof: every active cell's mean, then
    every active cell's guard nodes a row block at a time."""
    gas = disc.gas
    active = disc.active_mask
    repaired = 0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        means = disc.cell_means(coeffs)
        pm = pressure(means, gas)
        bad = active & (~np.isfinite(means).all(axis=0)
                        | (means[0] <= rho_floor) | ~np.isfinite(pm)
                        | (pm <= p_floor))
        if bad.any():
            m = means[:, bad]
            rho = np.maximum(np.nan_to_num(m[0], nan=rho_floor), rho_floor)
            u = np.nan_to_num(m[1] / rho, nan=0.0, posinf=0.0, neginf=0.0)
            vel = np.nan_to_num(m[2] / rho, nan=0.0, posinf=0.0, neginf=0.0)
            p = np.maximum(np.nan_to_num(pm[bad], nan=p_floor), p_floor)
            state = conserved(rho, u, vel, p, gas)
            coeffs[:, bad, :] = 0.0
            coeffs[:, bad, 0] = 2.0 * state
            repaired += int(bad.sum())
        V = disc.basis.node_V
        sels = disc.row_blocks
        for _ in range(60):
            bad = np.zeros(active.shape, bool)
            for sel in sels:
                vals = np.tensordot(V, coeffs[(slice(None), *sel)], (1, -1))
                bad[sel] = _dips_below_floors(vals.swapaxes(0, 1), gas,
                                              rho_floor, p_floor)
            if not bad.any():
                break
            coeffs[:, bad, 1:] *= 0.5
            repaired += int(bad.sum())
            sels = ((bad,),)
    return repaired


def cell_at_floor(disc, coeffs, cell, var, offset, mode, sign):
    """Make one cell's state linear in ``mode`` with its node minimum of
    density (var 0) or pressure (var 3) at the floor plus ``offset``
    times the variable's mean; the other variables are constant, the
    momentum zero when density is the one at its floor."""
    basis = disc.basis
    c = coeffs[(slice(None), *cell)]
    c[:, 1:] = 0.0
    a = basis.node_V_max[mode]
    mean = c[:, 0] * basis.node_V_max[0]
    if var == 0:
        c[1:3, 0] = 0.0
        c[0, mode] = sign * (mean[0] - RHO_FLOOR - offset * mean[0]) / a
    else:
        ke = 0.5 * (mean[1] ** 2 + mean[2] ** 2) / mean[0]
        e_min = ke + P_FLOOR / (GAS.gamma - 1.0) + offset * mean[3]
        c[3, mode] = sign * (mean[3] - e_min) / a


OFFSETS = (-1e-11, -1e-13, 1e-13, 1e-11)


@st.composite
def guard_states(draw, order):
    """An admissible state on the masked wedge block with a few cells
    made to sit near a floor, to have a bad mean, a non-finite or huge
    coefficient, or a slope that 60 halvings do not mend."""
    disc = masked_wedge_disc(order)
    basis = disc.basis
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (10, 4)
    mean = conserved(rng.uniform(0.8, 1.2, shape),
                     rng.uniform(-1.5, 1.5, shape),
                     rng.uniform(-1.5, 1.5, shape),
                     rng.uniform(0.5, 1.0, shape), GAS)
    coeffs = 0.02 * rng.standard_normal(
        (4,) + shape + (basis.n_modes,)) * np.abs(mean)[..., None]
    coeffs[..., 0] = 2.0 * mean
    cells = st.tuples(st.integers(0, 9), st.integers(0, 3))
    modes = st.integers(0, basis.n_modes - 1)
    slopes = st.sampled_from([basis.mode_lin_r, basis.mode_lin_s])
    for _ in range(draw(st.integers(0, 4))):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            edit_cell(draw, disc, coeffs, cells, modes, slopes)
    return disc, coeffs


def edit_cell(draw, disc, coeffs, cells, modes, slopes):
    """One of the edits of ``guard_states``, at a drawn cell."""
    cell = draw(cells)
    at = (slice(None), *cell)
    kind = draw(st.sampled_from(["floor", "mean", "nonfinite", "steep",
                                 "huge"]))
    if kind == "floor":
        cell_at_floor(disc, coeffs, cell, draw(st.sampled_from([0, 3])),
                      draw(st.sampled_from(OFFSETS)), draw(slopes),
                      draw(st.sampled_from([-1.0, 1.0])))
    elif kind == "mean":
        var = draw(st.sampled_from([0, 3]))
        coeffs[(var, *cell, 0)] *= -draw(st.sampled_from([0.0, 1.0]))
    elif kind == "nonfinite":
        coeffs[(draw(st.integers(0, 3)), *cell, draw(modes))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "steep":
        coeffs[(draw(st.integers(0, 3)), *cell, draw(slopes))] = (
            draw(st.sampled_from([-1e20, 1e20])))
    elif draw(st.booleans()):
        coeffs[at] *= 1e200
    else:
        coeffs[(draw(st.integers(0, 3)), *cell, draw(modes))] = (
            draw(st.sampled_from([-1e200, 1e200])))


@pytest.mark.parametrize("order", [1, 2, 4])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_guard_matches_testing_every_cell(order, data):
    """Skipping the proven cells repairs what testing every active cell's
    mean and nodes repairs, to the same coefficients."""
    disc, coeffs = data.draw(guard_states(order))
    ref = coeffs.copy()
    n_ref = parent_positivity_guard(disc, ref)
    assert positivity_guard(disc, coeffs) == n_ref
    assert np.array_equal(coeffs, ref, equal_nan=True)


@pytest.mark.parametrize("order", [1, 2, 4])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_proven_cells_clear_the_floors_at_nodes_and_means(order, data):
    """The two lemmas: a proven cell's guard-node values and its cell
    mean are finite and above both floors."""
    disc, coeffs = data.draw(guard_states(order))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        proven = _proven_positive(disc, coeffs, RHO_FLOOR, P_FLOOR)
        vals = np.tensordot(disc.basis.node_V, coeffs[:, proven], (1, -1))
        assert not _dips_below_floors(vals.swapaxes(0, 1), GAS, RHO_FLOOR,
                                      P_FLOOR).any()
        means = disc.cell_means(coeffs)[:, proven]
        pm = pressure(means, GAS)
    assert np.isfinite(means).all() and np.isfinite(pm).all()
    assert np.all(means[0] > RHO_FLOOR) and np.all(pm > P_FLOOR)


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("var", [0, 3])
def test_proof_margin_lies_between_rounding_and_a_real_gap(order, var):
    """A node minimum 1e-11 of the mean above a floor is proven; one
    1e-13 above is left to the node test, which passes it; one 1e-13
    below is halved once."""
    disc = masked_wedge_disc(order)
    mean = conserved(1.0, 0.7, -0.4, 0.8, GAS)
    coeffs = disc.project_constant(mean)
    cells = {1e-11: (3, 0), 1e-13: (3, 1), -1e-13: (3, 2)}
    for offset, cell in cells.items():
        cell_at_floor(disc, coeffs, cell, var, offset,
                      disc.basis.mode_lin_s, -1.0)
    proven = _proven_positive(disc, coeffs, RHO_FLOOR, P_FLOOR)
    assert [proven[c] for c in cells.values()] == [True, False, False]
    assert proven.sum() == proven.size - 2
    ref = coeffs.copy()
    assert positivity_guard(disc, coeffs) == 1
    ref[(slice(None), *cells[-1e-13], slice(1, None))] *= 0.5
    assert np.array_equal(coeffs, ref)
