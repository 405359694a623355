import numpy as np
import pytest

from machstem.basis import Basis, FACE_W, FACE_E, FACE_S, FACE_N
from machstem.dg import Discretization
from machstem.errors import DivergenceError
from machstem.gas import GasModel, free_stream
from machstem.mesh import GridBlock, TAG_INFLOW, TAG_OUTFLOW
from machstem.timestepping import (System, march_to_steady,
                                   advance_time, save_checkpoint,
                                   load_checkpoint, RK_B)

GAS = GasModel()


def cartesian_block(nx, ny, lx=1.0, ly=1.0, **kw):
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    verts = np.zeros((nx + 1, ny + 1, 2))
    verts[..., 0] = xs[:, None]
    verts[..., 1] = ys[None, :]
    return GridBlock(verts, **kw)


def test_rk_weights_sum_to_one():
    assert np.isclose(RK_B.sum(), 1.0, atol=1e-15)


class ScalarODE:
    """Duck-typed system for ``advance_time``: y' = f(y), fixed step."""

    def __init__(self, f, dt):
        self.f, self.dt = f, dt

    def apply_hooks(self, coeffs_list):
        pass

    def rhs(self, coeffs_list):
        return [self.f(c) for c in coeffs_list]

    def stable_dt(self, coeffs_list, cfl):
        return self.dt, 0.0


@pytest.mark.parametrize("f, y0, exact", [
    (lambda y: -y, 1.0, np.exp(-2.0)),
    (lambda y: y * (1.0 - y), 0.1, 1.0 / (1.0 + 9.0 * np.exp(-2.0))),
], ids=["linear-decay", "logistic"])
def test_rk_order_exceeds_4p9_through_advance_time(f, y0, exact):
    """Richardson order estimate over [0, 2] from 20 and 40 steps."""
    def err(n):
        y = [np.array([y0])]
        t = advance_time(ScalarODE(f, 2.0 / n), y, 2.0)
        assert np.isclose(t, 2.0, atol=1e-13)
        return abs(y[0][0] - exact)

    assert np.log2(err(20) / err(40)) >= 4.9


def test_stable_dt_reference_value():
    """h=0.01 squares, linear basis, wave speed 4, cfl 0.3 -> dt 2.5e-4."""
    blk = cartesian_block(10, 10, lx=0.1, ly=0.1,
                          tags={FACE_W: TAG_INFLOW})
    q_inf = free_stream(3.0, GAS)  # |u| + a = 3 + 1 = 4
    disc = Discretization(blk, Basis(1), GAS, bc_state=q_inf)
    sys = System([disc])
    coeffs = disc.project_constant(q_inf)
    dt, wave = sys.stable_dt([coeffs], 0.3)
    assert np.isclose(dt, 2.5e-4, rtol=1e-12)
    assert np.isclose(wave, 4.0, rtol=1e-12)


@pytest.mark.parametrize("nan_block", [0, 1])
def test_stable_dt_raises_on_nan_in_any_block(nan_block):
    """One NaN element in either of two blocks is a blow-up; Python's min
    and max would drop the NaN and return a finite dt."""
    q_inf = free_stream(3.0, GAS)
    discs = [Discretization(cartesian_block(4, 3, lx=lx,
                                            tags={FACE_W: TAG_INFLOW}),
                            Basis(1), GAS, bc_state=q_inf)
             for lx in (1.0, 0.5)]
    coeffs = [d.project_constant(q_inf) for d in discs]
    coeffs[nan_block][:, 1, 1] = np.nan
    with pytest.raises(DivergenceError, match="not finite"):
        System(discs).stable_dt(coeffs, 0.3)


def test_march_evaluates_wave_speed_once_per_iteration(monkeypatch):
    """The step size and the logged wave speed share one evaluation."""
    q_inf = free_stream(3.0, GAS)
    discs = [Discretization(cartesian_block(4, 3, lx=lx,
                                            tags={FACE_W: TAG_INFLOW}),
                            Basis(1), GAS, bc_state=q_inf)
             for lx in (1.0, 0.5)]
    calls = {id(d): 0 for d in discs}
    wave_speed = Discretization.max_wave_speed

    def counting(disc, coeffs):
        calls[id(disc)] += 1
        return wave_speed(disc, coeffs)

    monkeypatch.setattr(Discretization, "max_wave_speed", counting)
    res = march_to_steady(System(discs),
                          [d.project_constant(q_inf) for d in discs],
                          max_iterations=5, tol=0.0)
    assert res.iterations == 5
    assert list(calls.values()) == [5, 5]
    assert all(np.isclose(row[2], 4.0, rtol=1e-12) for row in res.history)


def test_march_converges_on_uniform_channel():
    """A perturbed supersonic channel relaxes back to the free stream."""
    q_inf = free_stream(3.0, GAS)
    blk = cartesian_block(8, 8, tags={FACE_W: TAG_INFLOW, FACE_E: TAG_OUTFLOW,
                                      FACE_S: TAG_OUTFLOW, FACE_N: TAG_OUTFLOW})
    disc = Discretization(blk, Basis(1), GAS, flux="lax_friedrichs",
                          bc_state=q_inf)

    def ic(x, y):
        bump = 0.05 * np.exp(-40.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2))
        out = np.broadcast_to(q_inf[:, None, None, None],
                              (4,) + x.shape).copy()
        out[0] *= 1.0 + bump
        return out

    coeffs = disc.project(ic)
    res = march_to_steady(System([disc]), [coeffs], cfl=0.3,
                          max_iterations=2000, tol=1e-10)
    assert res.outcome == "converged"
    assert res.residual < 1e-10
    # the steady state is the uniform stream itself
    mean = disc.cell_means(coeffs)
    assert np.allclose(mean, q_inf[:, None, None], atol=1e-8)


def test_march_reports_divergence_without_raising():
    class Explodes:
        def apply_hooks(self, cl):
            pass

        def stable_dt(self, cl, cfl):
            return 0.1, 1.0

        def rhs(self, cl):
            return [10.0 * c for c in cl]

        def density_residual(self, rhs_list):
            return float(np.sqrt(np.mean(rhs_list[0][0] ** 2)))

    coeffs = [np.ones((4, 2, 2, 3))]
    res = march_to_steady(Explodes(), coeffs, max_iterations=200,
                          tol=0.0, diverge_factor=100.0)
    assert res.outcome == "diverged"
    assert res.iterations < 200


def test_cfl_ramp_grows_step_size():
    q_inf = free_stream(3.0, GAS)
    blk = cartesian_block(4, 4, tags={FACE_W: TAG_INFLOW})
    disc = Discretization(blk, Basis(1), GAS, bc_state=q_inf)
    coeffs = disc.project_constant(q_inf)
    res = march_to_steady(System([disc]), [coeffs], cfl=0.4,
                          max_iterations=10, tol=0.0,
                          cfl_ramp_iters=8, cfl_start=0.1)
    dts = [row[3] for row in res.history]
    assert dts[0] < dts[-1]
    assert np.isclose(dts[-1] / dts[0], 0.4 / (0.1 + (0.4 - 0.1) / 8.0),
                      rtol=1e-10)


def test_advance_time_hits_final_time_exactly():
    q_inf = free_stream(2.0, GAS)
    blk = cartesian_block(4, 4, tags={FACE_W: TAG_INFLOW})
    disc = Discretization(blk, Basis(1), GAS, bc_state=q_inf)
    coeffs = disc.project_constant(q_inf)
    t = advance_time(System([disc]), [coeffs], 0.0123, cfl=0.3)
    assert np.isclose(t, 0.0123, atol=1e-13)
    # uniform flow stays uniform through the whole march
    assert np.allclose(coeffs, disc.project_constant(q_inf), atol=1e-11)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 3, 5, 9))
    b = rng.standard_normal((4, 2, 2, 4))
    save_checkpoint(tmp_path / "ck", [a, b], ["bg", "ov"],
                    meta={"iteration": 42, "residual": 1.5e-7})
    back, meta = load_checkpoint(tmp_path / "ck")
    assert meta["iteration"] == 42
    assert len(back) == 2
    assert np.array_equal(back[0], a) and back[0].dtype == np.float64
    assert np.array_equal(back[1], b)


def test_checkpoint_shape_mismatch_detected(tmp_path):
    a = np.zeros((4, 2, 2, 3))
    save_checkpoint(tmp_path / "ck", [a], ["bg"])
    # corrupt the sidecar
    import json
    p = tmp_path / "ck" / "checkpoint.json"
    meta = json.loads(p.read_text())
    meta["blocks"][0]["shape"] = [4, 9, 9, 3]
    p.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="does not match"):
        load_checkpoint(tmp_path / "ck")
