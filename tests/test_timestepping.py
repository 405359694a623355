import tracemalloc
from itertools import accumulate

import numpy as np
import pytest

from machstem import config, convergence, pipeline
from machstem.basis import Basis, FACE_W, FACE_E, FACE_S, FACE_N
from machstem.dg import Discretization
from machstem.errors import DivergenceError
from machstem.gas import GasModel, free_stream
from machstem.mesh import GridBlock, TAG_INFLOW, TAG_OUTFLOW
from machstem.overset import CompositeSampler
from machstem.stabilization import kxrcf_indicator
from machstem.timestepping import (System, MarchResult, march_to_steady,
                                   advance_time, save_checkpoint,
                                   load_checkpoint, RK_A, RK_B, N_STAGES)

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

    def rhs(self, coeffs_list, out):
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

        def rhs(self, cl, out):
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
    # every row carries the physical time reached, the running sum of dt
    assert [row[4] for row in res.history] == list(accumulate(dts))
    assert res.time == res.history[-1][4]
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


# ---- the in-place stages against the out-of-place formulas ------------

def new_rates(system, coeffs_list):
    return [d.residual(c) for d, c in zip(system.discs, coeffs_list)]


def out_of_place_march(system, coeffs_list, *, cfl=0.3,
                           max_iterations=1000, tol=1e-8, cfl_ramp_iters=0,
                           cfl_start=None, diverge_factor=1e4,
                           stall_window=0, log_every=0, on_log=None):
    """The SSP march with a new array for every rate and stage."""
    system.apply_hooks(coeffs_list)
    history = []
    resid0 = None
    resid = np.inf
    best = np.inf
    best_it = 0
    it = 0
    t = 0.0
    for it in range(1, max_iterations + 1):
        cfl_now = cfl
        if cfl_ramp_iters > 0:
            lo = cfl_start if cfl_start is not None else 0.25 * cfl
            frac = min(1.0, it / float(cfl_ramp_iters))
            cfl_now = lo + (cfl - lo) * frac
        try:
            dt, wave = system.stable_dt(coeffs_list, cfl_now)
        except DivergenceError:
            return MarchResult("diverged", it - 1, resid, history)

        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            k0 = new_rates(system, coeffs_list)
            u1 = [c + dt * r for c, r in zip(coeffs_list, k0)]
            system.apply_hooks(u1)
            k1 = new_rates(system, u1)
            u2 = [0.75 * c + 0.25 * (s + dt * r)
                  for c, s, r in zip(coeffs_list, u1, k1)]
            system.apply_hooks(u2)
            k2 = new_rates(system, u2)
            for c, s, r in zip(coeffs_list, u2, k2):
                c *= 1.0 / 3.0
                c += (2.0 / 3.0) * (s + dt * r)
            system.apply_hooks(coeffs_list)
            resid = system.density_residual(k0)

        t += dt
        history.append((it, resid, wave, dt, t))
        if not np.isfinite(resid):
            return MarchResult("diverged", it, resid, history)
        if resid0 is None:
            resid0 = max(resid, 1e-300)
        elif resid > diverge_factor * resid0:
            return MarchResult("diverged", it, resid, history)
        if resid < tol:
            return MarchResult("converged", it, resid, history)
        if resid < 0.99 * best:
            best = resid
            best_it = it
        elif stall_window and it - best_it >= stall_window:
            return MarchResult("stalled", it, resid, history)
    return MarchResult("max_iterations", it, resid, history)


def out_of_place_advance_time(system, coeffs_list, t_final, *, cfl=0.3):
    """The RK5 march with a new array for every rate and stage."""
    t = 0.0
    system.apply_hooks(coeffs_list)
    while t < t_final - 1e-14:
        dt = min(system.stable_dt(coeffs_list, cfl)[0], t_final - t)
        k = [new_rates(system, coeffs_list)]
        for i in range(1, N_STAGES):
            stage = [c.copy() for c in coeffs_list]
            for aij, kj in zip(RK_A[i], k):
                if aij != 0.0:
                    for s, r in zip(stage, kj):
                        s += dt * aij * r
            system.apply_hooks(stage)
            k.append(new_rates(system, stage))
        for bi, ki in zip(RK_B, k):
            if bi != 0.0:
                for c, r in zip(coeffs_list, ki):
                    c += dt * bi * r
        system.apply_hooks(coeffs_list)
        t += dt
    return t


def copying_kxrcf_indicator(disc, coeffs, variables=(0,), threshold=1.0):
    """The indicator with whole-block copies of the neighbour traces."""
    basis, geo = disc.basis, disc.geo
    traces = {f: coeffs @ basis.face_V[f].T
              for f in (FACE_W, FACE_E, FACE_S, FACE_N)}
    nbr = {f: t.copy() for f, t in traces.items()}
    v = slice(None)
    for fa, sa, fb, sb in disc.block.face_pairs:
        nbr[fa][(v, *sa)] = traces[fb][(v, *sb)]
        nbr[fb][(v, *sb)] = traces[fa][(v, *sa)]
    w1 = basis.q1d_weights
    num = np.zeros((len(variables), disc.block.ni, disc.block.nj))
    inflow_len = np.zeros((disc.block.ni, disc.block.nj))
    for face in (FACE_W, FACE_E, FACE_S, FACE_N):
        tr = traces[face]
        n = geo.face_normal[face]
        with np.errstate(invalid="ignore", divide="ignore"):
            vn = (tr[1] * n[..., 0, None] + tr[2] * n[..., 1, None]) / tr[0]
            inflow = vn < 0.0
        wgt = inflow * w1 * geo.face_sj[face][..., None]
        inflow_len += wgt.sum(axis=2)
        for k, var in enumerate(variables):
            num[k] += ((tr[var] - nbr[face][var]) * wgt).sum(axis=2)
    vals = disc.evaluate(coeffs[list(variables)])
    ind = np.zeros_like(inflow_len)
    active = inflow_len > 0.0
    hpow = geo.h_max_edge ** (0.5 * (basis.order + 1))
    for k in range(len(variables)):
        norm = np.max(np.abs(vals[k]), axis=2)
        den = hpow * inflow_len * np.maximum(norm, 1e-300)
        with np.errstate(invalid="ignore"):
            ind_v = np.where(active, np.abs(num[k]) / den, 0.0)
        ind = np.maximum(ind, ind_v)
    return ind, ind > threshold


class Compared(Exception):
    """Ends the calling stage once its march has been compared."""


def compare_marchers(monkeypatch, module, name, reference, runs):
    """Make ``module.name`` run ``reference`` on a copy of the start state
    and then the marcher itself, record both, and raise ``Compared``."""
    marcher = getattr(module, name)

    def both(system, coeffs_list, *args, **kwargs):
        ref = [c.copy() for c in coeffs_list]
        want = reference(system, ref, *args, **kwargs)
        got = marcher(system, coeffs_list, *args, **kwargs)
        runs.append((system, ref, coeffs_list, want, got))
        raise Compared

    monkeypatch.setattr(module, name, both)


def assert_same_march(run):
    system, ref, coeffs, want, got = run
    if isinstance(want, MarchResult):
        assert got.outcome == want.outcome
        assert got.iterations == want.iterations
        assert np.array_equal(np.array(got.history), np.array(want.history))
    else:
        assert got == want
    for c, r in zip(coeffs, ref):
        assert np.all(np.isfinite(c))
        assert np.array_equal(c, r)
    for d, c in zip(system.discs, coeffs):
        for variables in ((0,), (0, 3)):
            new = kxrcf_indicator(d, c, variables)
            old = copying_kxrcf_indicator(d, c, variables)
            assert np.array_equal(new[0], old[0])
            assert np.array_equal(new[1], old[1])


def small_wedge(**over):
    """The tiny regular-reflection case of the pipeline smoke test."""
    cfg = config.parse_config(None, overrides=dict({
        "case.wedge_angle_deg": "16",
        "case.coarse_grid": "40x20",
        "case.fine_background_grid": "20x10",
        "case.overset_grid": "24x16",
        "solver.fine_order": "2",
        "solver.coarse_max_iterations": "30",
        "solver.fine_max_iterations": "4",
        "solver.cfl_ramp_iters": "50",
        "solver.stall_window": "0",
        "solver.log_every": "0"}, **over))
    return cfg, config.case_from_config(cfg)


def test_coarse_march_matches_out_of_place_stages(monkeypatch):
    """run_coarse's block: every cell limited, guard on, bit for bit."""
    cfg, case = small_wedge()
    runs = []
    compare_marchers(monkeypatch, pipeline, "march_to_steady",
                     out_of_place_march, runs)
    with pytest.raises(Compared):
        pipeline.run_coarse(case, cfg)
    assert_same_march(runs[0])
    assert runs[0][4].iterations == 30


def test_fine_march_matches_out_of_place_stages(monkeypatch):
    """run_fine's P2 background and patch with its hooks: transfer, the
    indicator-gated patch and the guarded background, bit for bit."""
    cfg, case = small_wedge(**{"solver.coarse_max_iterations": "60"})
    coarse = pipeline.run_coarse(case, cfg)
    runs = []
    compare_marchers(monkeypatch, pipeline, "march_to_steady",
                     out_of_place_march, runs)
    with pytest.raises(Compared):
        pipeline.run_fine(case, cfg, coarse,
                          CompositeSampler([coarse.disc], [coarse.coeffs]))
    system = runs[0][0]
    assert len(system.discs) == 2 and system.transfer is not None
    assert_same_march(runs[0])


def test_vortex_advance_time_matches_out_of_place_stages(monkeypatch):
    """The two-block P4 vortex (16 cells) through the RK5 stages."""
    runs = []
    compare_marchers(monkeypatch, convergence, "advance_time",
                     out_of_place_advance_time, runs)
    with pytest.raises(Compared):
        convergence.two_block_study(4)
    assert runs[0][0].discs[0].block.ni == 16
    assert_same_march(runs[0])


def test_march_keeps_memory_flat_at_residual_entries(monkeypatch):
    """From the second iteration on, the traced memory at every residual
    entry is the same to within 1% of one state array: no rate, stage or
    scratch is allocated anew."""
    cfg, case = small_wedge(**{"case.coarse_grid": "80x40",
                               "solver.coarse_max_iterations": "5"})
    entries = []
    residual = Discretization.residual

    def recording(disc, *args, **kwargs):
        entries.append(tracemalloc.get_traced_memory()[0])
        return residual(disc, *args, **kwargs)

    monkeypatch.setattr(Discretization, "residual", recording)
    tracemalloc.start()
    try:
        coarse = pipeline.run_coarse(case, cfg)
    finally:
        tracemalloc.stop()
    state = coarse.coeffs.nbytes
    assert len(entries) == 3 * 5
    later = np.array(entries[3:])
    assert later.max() - later.min() <= 0.01 * state


def test_march_uses_the_arrays_rhs_returns():
    """A system whose rhs returns new arrays, not ``out``, marches as
    the out-of-place formulas do."""
    class Decay:
        def apply_hooks(self, cl):
            pass

        def stable_dt(self, cl, cfl):
            return 0.1, 1.0

        def rhs(self, cl, out):
            return [-c for c in cl]

        def density_residual(self, rhs_list):
            return float(np.abs(rhs_list[0]).max())

    got = [np.linspace(1.0, 2.0, 12).reshape(4, 1, 1, 3)]
    want = [got[0].copy()]
    march_to_steady(Decay(), got, max_iterations=3, tol=0.0)
    for _ in range(3):
        u1 = want[0] - 0.1 * want[0]
        u2 = 0.75 * want[0] + 0.25 * (u1 - 0.1 * u1)
        want[0] = want[0] * (1.0 / 3.0) + (2.0 / 3.0) * (u2 - 0.1 * u2)
    assert np.array_equal(got[0], want[0])
