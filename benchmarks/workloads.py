"""The four benchmark workloads.

Each workload is built from a seed, which only changes the generated
inputs, and then runs one operation at a time: ``operation()`` does the
timed work and returns its raw answer, ``check(answer)`` lists what is
wrong with it (empty when correct).  Every call into machstem goes
through a module attribute, so the clock and the tracer see it.

The flow case is M=3 with the wedge hanging from the top wall (von
Neumann angle 19.656 deg, detachment angle 21.458 deg).
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path

import numpy as np

from machstem import (basis, config, convergence, dg, gas, mesh, mms,
                      overset, pipeline, shock_relations, stabilization,
                      timestepping, wedge)

import checks

MACH = 3.0
MARCH_ANGLE_DEG = 24.0       # the default case, beyond detachment (MR)


def _seed_perturbation(seed, length):
    """Smooth relative density-and-pressure bump, 0.2-0.5 % in size."""
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.002, 0.005)
    ph_x, ph_y = rng.uniform(0.0, 2.0 * math.pi, 2)
    gas_model = gas.GasModel()

    def perturb(state_fn):
        def fn(x, y):
            rho, u, v, p = gas.primitives(np.asarray(state_fn(x, y), float),
                                          gas_model)
            f = 1.0 + amp * (np.sin(2.0 * math.pi * x / length + ph_x)
                             * np.sin(math.pi * y + ph_y))
            return gas.conserved(rho * f, u, v, p * f, gas_model)
        return fn
    return perturb


def _uniform(state):
    state = np.asarray(state, float)
    return lambda x, y: np.broadcast_to(
        state.reshape((4,) + (1,) * np.ndim(x)), (4,) + np.shape(x))


def _march_overrides(stage, iterations):
    # a fixed iteration count: the residual never reaches the tolerance
    # and the stall rule is off
    return {f"solver.{stage}_max_iterations": iterations,
            f"solver.{stage}_tol": 1e-12,
            "solver.stall_window": 0,
            "solver.log_every": 0}


def _march_answer(outcome, discs, coeffs):
    return {"outcome": outcome,
            "means": [d.cell_means(c)[:, d.active_mask]
                      for d, c in zip(discs, coeffs)],
            "totals": [d.conserved_totals(c, mask=d.active_mask)
                       for d, c in zip(discs, coeffs)]}


class CoarseMarch:
    """``pipeline.run_coarse`` at 24 deg: 200x100 grid, P1, LF, fixed count."""

    name = "coarse-march"
    iterations = 24

    def __init__(self, seed, out_dir):
        self.cfg = config.parse_config(
            overrides=_march_overrides("coarse", self.iterations))
        self.case = config.case_from_config(self.cfg)
        self.perturb = _seed_perturbation(seed, self.case.length)

    def operation(self):
        cfg, case = self.cfg, self.case
        block = wedge.build_wedge_grid(case, *case.coarse_grid)
        disc = dg.Discretization(block, basis.Basis(cfg["solver.coarse_order"]),
                                 case.gas, flux=cfg["solver.background_flux"],
                                 bc_state=case.free_stream())
        start = disc.project(self.perturb(_uniform(case.free_stream())))
        res = pipeline.run_coarse(case, cfg, seed_coeffs=start)
        ans = _march_answer(res.march.outcome, [res.disc], [res.coeffs])
        ans.update(flagged=int(np.sum(res.flagged)),
                   segments=len(res.segments))
        return ans

    def check(self, ans):
        return checks.check_coarse(ans)


class FineMarch:
    """The default P4 two-block system marched a fixed iteration count.

    The patch is built by ``pipeline.build_aligned_grid`` from the coarse
    centroids along the theoretical incident shock and at the leading
    edge; both blocks start from a smeared incident-shock state.  The
    hooks are those ``pipeline.run_fine`` installs: overset transfer,
    the indicator-gated limiter with the guard on the patch, and the
    guard on the background at the end of every iteration.
    """

    name = "fine-march"
    iterations = 10

    def __init__(self, seed, out_dir):
        self.cfg = config.parse_config(
            overrides=_march_overrides("fine", self.iterations))
        self.case = config.case_from_config(self.cfg)
        case = self.case
        geom = wedge.wedge_geometry(case)
        shock = shock_relations.oblique_shock(
            MACH, math.radians(MARCH_ANGLE_DEG))
        apex = np.array([geom["x_le"], 1.0])
        along = np.array([math.cos(shock.beta), -math.sin(shock.beta)])
        normal = np.array([-along[1], along[0]])     # points downstream
        ni, nj = case.coarse_grid
        h = math.sqrt((case.length / ni) * (1.0 / nj))
        cent = wedge.build_wedge_grid(case, ni, nj).element_centroids()
        cent = cent.reshape(-1, 2)
        rel = cent - apex
        near_shock = (np.abs(rel @ normal) <= 1.5 * h) & (rel @ along >= 0.0)
        near_le = np.hypot(rel[:, 0], rel[:, 1]) <= 3.0 * h
        self.flag_points = cent[near_shock | near_le]

        # free stream ahead of the incident shock, the oblique-shock
        # state (deflected by the wedge angle) behind it
        g = case.gas
        rho1, p1 = 1.0, 1.0 / g.gamma
        rho2 = rho1 * shock.density_ratio
        p2 = p1 * shock.pressure_ratio
        speed2 = shock.m2 * math.sqrt(g.gamma * p2 / rho2)
        before = np.asarray(case.free_stream(), float)
        after = np.asarray(gas.conserved(
            rho2, speed2 * math.cos(shock.theta),
            -speed2 * math.sin(shock.theta), p2, g), float)

        def smeared(x, y):
            side = (x - apex[0]) * normal[0] + (y - apex[1]) * normal[1]
            w = 0.5 * (1.0 + np.tanh(side / (2.0 * h)))
            shape = (4,) + (1,) * np.ndim(x)
            return (before.reshape(shape) * (1.0 - w)
                    + after.reshape(shape) * w)

        self.start_state = _seed_perturbation(seed, case.length)(smeared)

    def operation(self):
        cfg, case = self.cfg, self.case
        order = cfg["solver.fine_order"]
        variables = (0,)        # stabilization.indicator_variables = density
        ov_block = pipeline.build_aligned_grid(case, cfg, self.flag_points)
        bg = dg.Discretization(
            wedge.build_wedge_grid(case, *case.fine_background_grid),
            basis.Basis(order), case.gas, flux=cfg["solver.background_flux"],
            bc_state=case.free_stream())
        ov = dg.Discretization(ov_block, basis.Basis(order), case.gas,
                               flux=cfg["solver.overset_flux"],
                               bc_state=case.free_stream())
        assembly = overset.OversetAssembly(
            bg, ov, hole_margin=cfg["overset.hole_margin"],
            fringe_width=cfg["overset.fringe_width"],
            ov_fringe_rings=cfg["overset.fringe_rings"])
        stab = stabilization.Stabilizer(
            mode="indicator", variables=variables,
            threshold=cfg["stabilization.threshold"],
            tvb_m=cfg["stabilization.tvb_m"], positivity=True)
        calls = [0]
        patch_flags = [0]

        def limiter(coeffs_list):
            stab(ov, coeffs_list[1])
            patch_flags[0] += int(np.sum(stab.last_flagged))
            # march_to_steady runs the hooks once before the march and
            # after each of its three stages: guard the end-of-iteration
            # background states
            if calls[0] % 3 == 0:
                stabilization.positivity_guard(bg, coeffs_list[0])
            calls[0] += 1

        system = timestepping.System([bg, ov], transfer=assembly.transfer,
                                     limiter=limiter)
        coeffs = [bg.project(self.start_state), ov.project(self.start_state)]
        march = timestepping.march_to_steady(
            system, coeffs, cfl=cfg["solver.cfl"],
            cfl_start=cfg["solver.cfl_start"],
            cfl_ramp_iters=cfg["solver.cfl_ramp_iters"],
            tol=cfg["solver.fine_tol"],
            max_iterations=cfg["solver.fine_max_iterations"],
            stall_window=cfg["solver.stall_window"])
        _, bg_flags = stabilization.kxrcf_indicator(
            bg, coeffs[0], variables, cfg["stabilization.threshold"])
        ans = _march_answer(march.outcome, [bg, ov], coeffs)
        ans.update(patch_flagged=patch_flags[0],
                   fringe=sum(c["fringe"]
                              for c in assembly.counts().values()),
                   background_flagged=int(np.sum(bg_flags & bg.active_mask)))
        return ans

    def check(self, ans):
        return checks.check_fine(ans)


class SmokeRR:
    """``pipeline.run_pipeline`` end to end on a tiny regular-reflection case."""

    name = "smoke-rr"
    overrides = {
        "case.coarse_grid": "40x20",
        "case.fine_background_grid": "20x10",
        "case.overset_grid": "24x16",
        "solver.fine_order": 2,
        "solver.coarse_max_iterations": 300,
        "solver.fine_max_iterations": 100,
        "solver.cfl_ramp_iters": 50,
        "solver.stall_window": 0,
        "solver.log_every": 0,
        "measurement.n_lines": 24,
        "measurement.nx": 200,
        "output.vtk": 1,
    }

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        # 15.5-16.5 deg stays well below the von Neumann angle
        self.angle = 16.0 + rng.uniform(-0.5, 0.5)
        self.run_dir = Path(out_dir) / "runs" / f"{self.name}-seed{seed}"

    def operation(self):
        run_dir = self.run_dir       # fresh: the check removes it
        cfg = config.parse_config(overrides=dict(
            self.overrides, **{"case.wedge_angle_deg": self.angle}))
        summary = pipeline.run_pipeline(cfg, run_dir=run_dir, reuse=False)
        return {"classification": summary.measurement["classification"],
                "run_dir": run_dir}

    def check(self, ans):
        try:
            return checks.check_smoke(ans)
        finally:
            shutil.rmtree(ans["run_dir"], ignore_errors=True)


def _periodic_box(n):
    x = np.linspace(0.0, mms.DOMAIN, n + 1)
    verts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
    return mesh.GridBlock(verts, name="background", tags={
        f: mesh.TAG_PERIODIC for f in (mesh.FACE_W, mesh.FACE_E,
                                       mesh.FACE_S, mesh.FACE_N)})


def _sheared_patch(n, bounds):
    xa, xb, ya, yb = bounds
    x = np.linspace(xa, xb, n + 1)
    y = np.linspace(ya, yb, n + 1)
    verts = np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1)
    verts[:, :, 0] += convergence.PATCH_SHEAR * (verts[:, :, 1] - ya)
    return mesh.GridBlock(verts, name="overset", tags={
        f: mesh.TAG_INTERFACE for f in (mesh.FACE_W, mesh.FACE_E,
                                        mesh.FACE_S, mesh.FACE_N)})


class VortexP4:
    """The two-block P4 vortex order study on its two coarser levels."""

    name = "vortex-p4"
    levels = 2

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        offset = rng.uniform(-0.25, 0.25, 2)
        self.center = (mms.CENTER[0] + offset[0], mms.CENTER[1] + offset[1])
        self.gas = gas.GasModel()

    def operation(self):
        flux, bg_grids, ov_grids, bounds = convergence.TWO_BLOCK[4]
        p4 = basis.Basis(4)
        ic = mms.vortex_ic(self.gas, center=self.center)
        exact = mms.vortex_at(convergence.T_FINAL, self.gas,
                              center=self.center)
        hs, errors = [], []
        for n_bg, n_ov in list(zip(bg_grids, ov_grids))[:self.levels]:
            bg = dg.Discretization(_periodic_box(n_bg), p4, self.gas,
                                   flux="lax_friedrichs")
            ov = dg.Discretization(_sheared_patch(n_ov, bounds), p4,
                                   self.gas, flux=flux)
            assembly = overset.OversetAssembly(bg, ov)
            system = timestepping.System([bg, ov],
                                         transfer=assembly.transfer)
            coeffs = [bg.project(ic), ov.project(ic)]
            timestepping.advance_time(system, coeffs, convergence.T_FINAL,
                                      cfl=convergence.CFL)
            e2 = sum(float(d.l2_error(c, exact, mask=d.active_mask)[0]) ** 2
                     for d, c in zip((bg, ov), coeffs))
            hs.append(mms.DOMAIN / n_bg)
            errors.append(math.sqrt(e2))
        slope = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
        return {"order": slope, "finest_error": errors[-1]}

    def check(self, ans):
        return checks.check_vortex(ans)


WORKLOADS = {w.name: w for w in (CoarseMarch, FineMarch, SmokeRR, VortexP4)}
