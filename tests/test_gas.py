import numpy as np
import pytest

from machstem import gas
from machstem.errors import InvalidStateError

GAS = gas.GasModel()


def test_pressure_free_stream_mach3():
    q = np.array([1.4, 4.2, 0.0, 8.8])
    assert gas.pressure(q, GAS) == pytest.approx(1.0, abs=1e-14)


def test_pressure_quiescent():
    q = np.array([1.0, 0.0, 0.0, 2.5])
    assert gas.pressure(q, GAS) == pytest.approx(1.0, abs=1e-14)


def test_free_stream_construction():
    q = gas.free_stream(3.0, GAS)
    # rho = 1, p = 1/gamma: E = 1/(gamma (gamma - 1)) + M^2/2 = 44/7
    assert np.allclose(q, [1.0, 3.0, 0.0, 44.0 / 7.0])
    assert gas.sound_speed(q, GAS) == pytest.approx(1.0)
    assert gas.max_wave_speed(q, GAS) == pytest.approx(4.0)


def test_flux_free_stream():
    q = gas.free_stream(3.0, GAS)
    F, G = gas.flux(q, GAS)
    # p = 5/7 and E + p = 7
    assert np.allclose(F, [3.0, 68.0 / 7.0, 0.0, 21.0], atol=1e-12)
    assert np.allclose(G, [0.0, 0.0, 5.0 / 7.0, 0.0], atol=1e-12)


def test_primitive_conserved_roundtrip():
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.1, 5.0, 200)
    u = rng.uniform(-3, 3, 200)
    v = rng.uniform(-3, 3, 200)
    p = rng.uniform(0.05, 9.0, 200)
    q = gas.conserved(rho, u, v, p, GAS)
    r2, u2, v2, p2 = gas.primitives(q, GAS)
    for a, b in ((rho, r2), (u, u2), (v, v2), (p, p2)):
        assert np.max(np.abs(a - b)) < 1e-13


def test_normal_flux_rotational_invariance():
    # F(q).n must equal rotating q into the normal frame, taking the
    # x-flux there, and rotating the momentum components back.
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = gas.conserved(rng.uniform(0.2, 4), rng.uniform(-3, 3),
                          rng.uniform(-3, 3), rng.uniform(0.1, 8), GAS)
        ang = rng.uniform(0, 2 * np.pi)
        nx, ny = np.cos(ang), np.sin(ang)
        direct = gas.normal_flux(q, nx, ny, GAS)
        qr = q.copy()
        qr[1] = nx * q[1] + ny * q[2]
        qr[2] = -ny * q[1] + nx * q[2]
        Fr, _ = gas.flux(qr, GAS)
        back = Fr.copy()
        back[1] = nx * Fr[1] - ny * Fr[2]
        back[2] = ny * Fr[1] + nx * Fr[2]
        assert np.max(np.abs(direct - back)) < 1e-12


def test_batched_shapes():
    q = np.tile(gas.free_stream(2.0, GAS)[:, None, None], (1, 5, 9))
    F, G = gas.flux(q, GAS)
    assert F.shape == (4, 5, 9)
    assert np.allclose(gas.max_wave_speed(q, GAS), 3.0)


def test_validate_rejects_negative_pressure():
    q = np.array([1.0, 0.0, 0.0, -2.0])
    with pytest.raises(InvalidStateError):
        gas.validate(q, GAS)


def test_validate_rejects_negative_density_and_reports_location():
    q = np.tile(gas.free_stream(2.0, GAS)[:, None], (1, 6))
    q[0, 4] = -1.0
    with pytest.raises(InvalidStateError) as err:
        gas.validate(q, GAS, where="block bg")
    assert "block bg" in str(err.value)


def test_validate_passes_and_returns_pressure():
    q = gas.free_stream(3.0, GAS)
    assert gas.validate(q, GAS) == pytest.approx(1.0 / 1.4)


@pytest.mark.parametrize("shape", [(), (7,), (3, 5, 9)])
def test_primitives_and_wave_speed_keep_the_one_line_formulas_bits(shape):
    """``primitives`` forms p in place and ``max_wave_speed`` forms
    u^2 + v^2 once: both keep the bits of the one-line formulas, for a
    single state and batches."""
    rng = np.random.default_rng(len(shape))
    q = np.stack([rng.uniform(0.5, 2.0, shape), rng.uniform(-1.0, 1.0, shape),
                  rng.uniform(-1.0, 1.0, shape), rng.uniform(2.0, 3.0, shape)])
    rho = q[0]
    u, v = q[1] / rho, q[2] / rho
    p = (GAS.gamma - 1.0) * (q[3] - 0.5 * rho * (u * u + v * v))
    lam = np.sqrt(u * u + v * v) + np.sqrt(GAS.gamma * p / rho)
    got = gas.primitives(q, GAS)
    for a, b in zip(got, (rho, u, v, p)):
        assert np.array_equal(np.asarray(a).view(np.uint64),
                              np.asarray(b).view(np.uint64))
    assert np.array_equal(np.asarray(gas.max_wave_speed(q, GAS))
                          .view(np.uint64), np.asarray(lam).view(np.uint64))
