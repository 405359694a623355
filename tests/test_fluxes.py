import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from machstem.gas import (GasModel, conserved, free_stream, max_wave_speed,
                          normal_flux, primitives, sound_speed,
                          total_enthalpy)
from machstem.fluxes import lax_friedrichs, slau2, get_flux

GAS = GasModel()

NORMALS = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0),
           (np.sqrt(0.5), np.sqrt(0.5)), (0.6, -0.8)]


def rot(q, c, s):
    """Rotate the velocity components of a conserved state."""
    out = q.copy()
    out[1] = c * q[1] - s * q[2]
    out[2] = s * q[1] + c * q[2]
    return out


@pytest.mark.parametrize("flux", [lax_friedrichs, slau2])
@pytest.mark.parametrize("nxny", NORMALS)
def test_consistency(flux, nxny):
    nx, ny = nxny
    q = conserved(1.1, 0.7, -0.4, 0.9, GAS)
    assert np.allclose(flux(q, q, nx, ny, GAS),
                       normal_flux(q, nx, ny, GAS), atol=1e-13)


@pytest.mark.parametrize("flux", [lax_friedrichs, slau2])
@pytest.mark.parametrize("nxny", NORMALS)
def test_antisymmetry_conservation(flux, nxny):
    nx, ny = nxny
    qL = conserved(1.0, 0.9, 0.2, 1.0, GAS)
    qR = conserved(0.6, -0.3, 0.5, 1.4, GAS)
    f1 = flux(qL, qR, nx, ny, GAS)
    f2 = flux(qR, qL, -nx, -ny, GAS)
    assert np.allclose(f1, -f2, atol=1e-13)


@pytest.mark.parametrize("flux", [lax_friedrichs, slau2])
def test_rotational_invariance(flux):
    ang = 0.37
    c, s = np.cos(ang), np.sin(ang)
    qL = conserved(1.0, 0.9, 0.2, 1.0, GAS)
    qR = conserved(0.6, -0.3, 0.5, 1.4, GAS)
    nx, ny = 0.6, 0.8
    f = flux(qL, qR, nx, ny, GAS)
    # rotating states and normal together rotates the flux momentum pair
    f_rot = flux(rot(qL, c, s), rot(qR, c, s),
                 c * nx - s * ny, s * nx + c * ny, GAS)
    assert np.allclose(f_rot, rot(f, c, s), atol=1e-13)


def test_slau2_supersonic_shared_normal_velocity_is_exact_upwind():
    """With matching supersonic normal velocity, the scheme reduces to the
    exact one-sided flux of the upwind state."""
    for nx, ny in [(1.0, 0.0), (0.6, 0.8)]:
        u, v = 2.5 * nx, 2.5 * ny
        qL = conserved(1.0, u + 0.3 * -ny, v + 0.3 * nx, 1.0, GAS)  # add tangential
        qR = conserved(0.55, u - 0.2 * -ny, v - 0.2 * nx, 0.8, GAS)
        f = slau2(qL, qR, nx, ny, GAS)
        assert np.allclose(f, normal_flux(qL, nx, ny, GAS), atol=1e-12)


def test_slau2_stationary_contact_resolved_exactly():
    p = 0.9
    qL = conserved(1.0, 0.0, 0.0, p, GAS)
    qR = conserved(0.125, 0.0, 0.0, p, GAS)
    f = slau2(qL, qR, 1.0, 0.0, GAS)
    assert np.allclose(f, [0.0, p, 0.0, 0.0], atol=1e-14)


def test_slau2_pressure_dissipation_vanishes_supersonic():
    """The mass flux must be free of the pressure-difference term at
    supersonic speeds: changing pR leaves the mass flux unchanged."""
    qL = conserved(1.0, 2.0, 0.0, 0.5, GAS)
    qR1 = conserved(0.9, 2.2, 0.0, 0.6, GAS)
    qR2 = conserved(0.9, 2.2, 0.0, 0.9, GAS)
    f1 = slau2(qL, qR1, 1.0, 0.0, GAS)
    f2 = slau2(qL, qR2, 1.0, 0.0, GAS)
    assert np.isclose(f1[0], f2[0], atol=1e-13)


def test_lax_friedrichs_dissipates_density_jump():
    """LLF adds |lambda|max * jump dissipation to the central average."""
    qL = conserved(1.0, 0.1, 0.0, 1.0, GAS)
    qR = conserved(0.5, 0.1, 0.0, 1.0, GAS)
    f = lax_friedrichs(qL, qR, 1.0, 0.0, GAS)
    central = 0.5 * (normal_flux(qL, 1.0, 0.0, GAS)
                     + normal_flux(qR, 1.0, 0.0, GAS))
    assert f[0] > central[0]  # jump qR-qL < 0 adds positive mass flux


@pytest.mark.parametrize("flux", [lax_friedrichs, slau2])
def test_free_stream_pairs_give_free_stream_flux(flux):
    q = free_stream(3.0, GAS)
    for nx, ny in NORMALS:
        assert np.allclose(flux(q, q, nx, ny, GAS),
                           normal_flux(q, nx, ny, GAS), atol=1e-13)


@pytest.mark.parametrize("name", ["lax_friedrichs", "slau2"])
def test_registry(name):
    assert callable(get_flux(name))


def test_registry_unknown():
    with pytest.raises(ValueError, match="unknown flux"):
        get_flux("roe")


@pytest.mark.parametrize("flux", [lax_friedrichs, slau2])
def test_batched_shapes(flux):
    rng = np.random.default_rng(7)
    rho = 1.0 + 0.1 * rng.random((3, 5))
    u = 0.5 * rng.standard_normal((3, 5))
    v = 0.5 * rng.standard_normal((3, 5))
    p = 1.0 + 0.1 * rng.random((3, 5))
    qL = conserved(rho, u, v, p, GAS)
    qR = conserved(rho[::-1], u[::-1], v[::-1], p[::-1], GAS)
    nx = np.full((3, 5), 0.6)
    ny = np.full((3, 5), 0.8)
    f = flux(qL, qR, nx, ny, GAS)
    assert f.shape == (4, 3, 5)
    # each entry matches the scalar evaluation
    f00 = flux(qL[:, 0, 0], qR[:, 0, 0], 0.6, 0.8, GAS)
    assert np.allclose(f[:, 0, 0], f00)


def reference_lax_friedrichs(qL, qR, nx, ny, gas):
    fL = normal_flux(qL, nx, ny, gas)
    fR = normal_flux(qR, nx, ny, gas)
    lam = np.maximum(max_wave_speed(qL, gas), max_wave_speed(qR, gas))
    return 0.5 * (fL + fR) - 0.5 * lam * (qR - qL)


def reference_slau2(qL, qR, nx, ny, gas):
    """SLAU2 written term by term from the gas-module helpers."""
    rhoL, uL, vL, pL = primitives(qL, gas)
    rhoR, uR, vR, pR = primitives(qR, gas)
    HL, HR = total_enthalpy(qL, gas), total_enthalpy(qR, gas)
    cbar = 0.5 * (sound_speed(qL, gas) + sound_speed(qR, gas))
    vnL = uL * nx + vL * ny
    vnR = uR * nx + vR * ny
    mL, mR = vnL / cbar, vnR / cbar
    vbar = np.sqrt(0.5 * (uL * uL + vL * vL + uR * uR + vR * vR))
    chi = (1.0 - np.minimum(1.0, vbar / cbar)) ** 2
    g = -np.clip(mL, -1.0, 0.0) * np.clip(mR, 0.0, 1.0)
    vn_avg = (rhoL * np.abs(vnL) + rhoR * np.abs(vnR)) / (rhoL + rhoR)
    vn_p = (1.0 - g) * vn_avg + g * np.abs(vnL)
    vn_m = (1.0 - g) * vn_avg + g * np.abs(vnR)
    mdot = 0.5 * (rhoL * (vnL + vn_p) + rhoR * (vnR - vn_m)
                  - chi / cbar * (pR - pL))

    def split(m, sign):
        if abs(m) >= 1.0:
            return 0.5 * (1.0 + sign * np.sign(m))
        return 0.25 * (m + sign) ** 2 * (2.0 - sign * m)

    split = np.vectorize(split)
    fp, fm = split(mL, 1.0), split(mR, -1.0)
    ptilde = (0.5 * (pL + pR) + 0.5 * (fp - fm) * (pL - pR)
              + vbar * (fp + fm - 1.0) * 0.5 * (rhoL + rhoR) * cbar)
    psiL = np.stack([np.ones_like(uL), uL, vL, HL])
    psiR = np.stack([np.ones_like(uR), uR, vR, HR])
    pn = np.stack([0.0 * ptilde, ptilde * nx, ptilde * ny, 0.0 * ptilde])
    return np.where(mdot > 0.0, mdot * psiL, mdot * psiR) + pn


def random_states(rng, shape):
    """Admissible states from near-vacuum to hypersonic, some pairs equal."""
    rho = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), shape))
    p = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), shape))
    speed = rng.uniform(0.0, 6.0, shape) * np.sqrt(GAS.gamma * p / rho)
    ang = rng.uniform(0.0, 2.0 * np.pi, shape)
    return conserved(rho, speed * np.cos(ang), speed * np.sin(ang), p, GAS)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_fluxes_match_term_by_term_reference(seed):
    """Both fluxes, on batched traces shaped like the residual's (normals
    broadcast over the face nodes), agree with references built from the
    gas-module helpers to 1e-13 of the largest term of the LF flux."""
    rng = np.random.default_rng(seed)
    qL = random_states(rng, (7, 5))
    qR = random_states(rng, (7, 5))
    qR[:, 0] = qL[:, 0]
    ang = rng.uniform(0.0, 2.0 * np.pi, (7, 1))
    nx, ny = np.cos(ang), np.sin(ang)
    lam = np.maximum(max_wave_speed(qL, GAS), max_wave_speed(qR, GAS))
    scale = np.max([np.abs(normal_flux(qL, nx, ny, GAS)),
                    np.abs(normal_flux(qR, nx, ny, GAS)),
                    lam * np.abs(qR - qL)], axis=(0, 1))
    for flux, ref in ((lax_friedrichs, reference_lax_friedrichs),
                      (slau2, reference_slau2)):
        f = flux(qL, qR, nx, ny, GAS)
        assert f.shape == qL.shape
        assert np.all(np.abs(f - ref(qL, qR, nx, ny, GAS)) <= 1e-13 * scale)


# ---- the kernels against their textbook form -------------------------

def parent_lax_friedrichs(qL, qR, nx, ny, gas):
    """Local Lax-Friedrichs written out, one new array per operation."""
    rhoL, uL, vL, pL = primitives(qL, gas)
    rhoR, uR, vR, pR = primitives(qR, gas)
    unL = uL * nx + vL * ny
    unR = uR * nx + vR * ny
    g = gas.gamma
    lam = np.maximum(np.sqrt(uL * uL + vL * vL) + np.sqrt(g * pL / rhoL),
                     np.sqrt(uR * uR + vR * vR) + np.sqrt(g * pR / rhoR))
    f = qL * unL + qR * unR
    f[1] += (pL + pR) * nx
    f[2] += (pL + pR) * ny
    f[3] += pL * unL + pR * unR
    f -= lam * (qR - qL)
    f *= 0.5
    return f


def parent_pressure_split(m, sign):
    sup = np.abs(m) >= 1.0
    w_sup = 0.5 * (1.0 + sign * np.sign(m))
    w_sub = 0.25 * (m + sign) ** 2 * (2.0 - sign * m)
    return np.where(sup, w_sup, w_sub)


def parent_slau2(qL, qR, nx, ny, gas):
    """SLAU2 written out, one new array per operation, every repeated
    sub-expression evaluated again."""
    rhoL, uL, vL, pL = primitives(qL, gas)
    rhoR, uR, vR, pR = primitives(qR, gas)
    HL = (qL[3] + pL) / rhoL
    HR = (qR[3] + pR) / rhoR
    cL = np.sqrt(gas.gamma * pL / rhoL)
    cR = np.sqrt(gas.gamma * pR / rhoR)
    cbar = 0.5 * (cL + cR)
    vnL = uL * nx + vL * ny
    vnR = uR * nx + vR * ny
    mL = vnL / cbar
    mR = vnR / cbar
    v2_mean = 0.5 * (uL * uL + vL * vL + uR * uR + vR * vR)
    mhat = np.minimum(1.0, np.sqrt(v2_mean) / cbar)
    chi = (1.0 - mhat) ** 2
    g = -np.maximum(np.minimum(mL, 0.0), -1.0) * \
        np.minimum(np.maximum(mR, 0.0), 1.0)
    vn_abs_avg = (rhoL * np.abs(vnL) + rhoR * np.abs(vnR)) / (rhoL + rhoR)
    vn_abs_p = (1.0 - g) * vn_abs_avg + g * np.abs(vnL)
    vn_abs_m = (1.0 - g) * vn_abs_avg + g * np.abs(vnR)
    mdot = 0.5 * (rhoL * (vnL + vn_abs_p) + rhoR * (vnR - vn_abs_m)
                  - (chi / cbar) * (pR - pL))
    fpL = parent_pressure_split(mL, +1.0)
    fmR = parent_pressure_split(mR, -1.0)
    ptilde = (0.5 * (pL + pR)
              + 0.5 * (fpL - fmR) * (pL - pR)
              + np.sqrt(v2_mean) * (fpL + fmR - 1.0)
                * 0.5 * (rhoL + rhoR) * cbar)
    up = np.maximum(mdot, 0.0)
    um = np.minimum(mdot, 0.0)
    f = np.empty((4,) + mdot.shape)
    f[0] = mdot
    f[1] = up * uL + um * uR + ptilde * nx
    f[2] = up * vL + um * vR + ptilde * ny
    f[3] = up * HL + um * HR
    return f


KERNELS = [(lax_friedrichs, parent_lax_friedrichs), (slau2, parent_slau2)]


@st.composite
def flux_inputs(draw):
    """Trace pairs and normals of every shape the kernels take: single
    states with scalar or 0-d normals, and batched (4, n, nq) traces
    with normals (n, 1), face-shaped or scalar. Some states are
    admissible, some have a negative or zero density or pressure, and
    some pairs share their left and right states."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    layout = draw(st.sampled_from(["single", "single-0d", "column",
                                   "face", "scalar"]))
    shape = () if layout.startswith("single") else (
        draw(st.integers(1, 5)), draw(st.integers(1, 6)))
    qL, qR = random_states(rng, shape), random_states(rng, shape)
    for q in (qL, qR):
        if draw(st.booleans()):
            bad = rng.uniform(size=shape) < 0.5
            var = draw(st.sampled_from([0, 3]))
            sign = draw(st.sampled_from([-1.0, 0.0]))
            q[var] = np.where(bad, sign * q[var], q[var])
    if draw(st.booleans()):
        qR[:] = qL
    ang = rng.uniform(0.0, 2.0 * np.pi, shape[:1] + (1,) * bool(shape))
    nx, ny = np.cos(ang), np.sin(ang)
    if layout == "single":
        nx, ny = float(nx), float(ny)
    elif layout == "single-0d":
        nx, ny = np.array(nx), np.array(ny)
    elif layout == "face":
        nx, ny = (np.repeat(c, shape[1], axis=1) for c in (nx, ny))
    elif layout == "scalar":
        nx, ny = float(nx[0, 0]), float(ny[0, 0])
    return qL, qR, nx, ny


@settings(max_examples=200, deadline=None)
@given(args=flux_inputs())
def test_kernels_match_their_written_out_form_bit_for_bit(args):
    """Both fluxes give the bits of the formula written out with a new
    array per operation, NaN where it gives NaN, on every normal shape,
    and leave their arguments as they were."""
    qL, qR, nx, ny = args
    kept = [np.copy(a) for a in args]
    for flux, parent in KERNELS:
        with np.errstate(all="ignore"):
            got = flux(qL, qR, nx, ny, GAS)
            want = parent(qL, qR, nx, ny, GAS)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        for a, b in zip(args, kept):
            assert np.array_equal(a, b, equal_nan=True)
