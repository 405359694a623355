"""Explicit time marching: a six-stage fifth-order Runge-Kutta scheme for
time-accurate integration, a strong-stability-preserving three-stage
scheme for the pseudo-time steady-state driver, and a CFL step-size rule.

The marcher advances one or several grid blocks together. After every
stage update it calls the system's hooks (overset transfer first, then
limiting), so intermediate states are always consistent across blocks and
free of limiter-visible overshoots before the next rhs evaluation.  The
steady driver deliberately uses the SSP scheme: its stages are convex
combinations of forward-Euler steps, so limiting and positivity repairs
applied per stage carry over to the full step, which the fifth-order
tableau (with its negative stage weights) cannot guarantee near shocks.

Both marchers allocate their work arrays once per call and reuse them
at every step. ``march_to_steady`` keeps two arrays per block besides
the coefficients, a rate and a stage, and does the SSP algebra in place
(the low-storage form: Ketcheson, SIAM J. Sci. Comput. 30:2113, 2008):
the first rate becomes the first stage, the second rate is blended
into the second stage, and the third rate is blended into the
coefficients. ``advance_time`` keeps its six rates and one stage. Each
in-place update keeps the operation order of the out-of-place formulas
(only the operands of commutative products and sums swap), so the
results are bit for bit those of the formulas. A per-element dt that
broadcasts against the coefficients would go through the same in-place
stages.

Checkpoints are written as raw float64 ``.npy`` arrays, one per block,
with a JSON sidecar; reloading reproduces the coefficients bit for bit.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import DivergenceError

# six-stage fifth-order explicit tableau; its stage times (0, 1/4, 1/4,
# 1/2, 3/4, 1) are not stored, as no right-hand side depends on time
RK_A = [
    [],
    [1.0 / 4.0],
    [1.0 / 8.0, 1.0 / 8.0],
    [0.0, -1.0 / 2.0, 1.0],
    [3.0 / 16.0, 0.0, 0.0, 9.0 / 16.0],
    [-3.0 / 7.0, 2.0 / 7.0, 12.0 / 7.0, -12.0 / 7.0, 8.0 / 7.0],
]
RK_B = np.array([7.0, 0.0, 32.0, 12.0, 32.0, 7.0]) / 90.0
N_STAGES = 6


class System:
    """Bundle of discretizations advanced in lock step.

    ``transfer`` and ``limiter`` are optional callables taking the list of
    coefficient arrays and mutating it in place; transfer runs first.

    ``rhs(coeffs_list, out)`` writes each block's rate into the matching
    array of ``out`` and returns the list of rates. The marchers use the
    arrays ``rhs`` returns, which need not be ``out``'s, as their work
    arrays and overwrite them.
    """

    def __init__(self, discs, transfer=None, limiter=None):
        self.discs = list(discs)
        self.transfer = transfer
        self.limiter = limiter

    def apply_hooks(self, coeffs_list):
        if self.transfer is not None:
            self.transfer(coeffs_list)
        if self.limiter is not None:
            self.limiter(coeffs_list)

    def rhs(self, coeffs_list, out):
        return [d.residual(c, r)
                for d, c, r in zip(self.discs, coeffs_list, out)]

    def max_wave_speed(self, coeffs_list):
        """Per-block (ni, nj) arrays of the element max |u| + a, zero at
        inactive elements."""
        return [d.max_wave_speed(c) for d, c in zip(self.discs, coeffs_list)]

    def stable_dt(self, coeffs_list, cfl):
        """``(dt, wave)``: dt is cfl * min over active elements of
        h / ((2N+1) * wave speed), wave the max wave speed over them,
        both from one ``max_wave_speed`` call. Raises ``DivergenceError``
        when the wave speed of any active element is not finite."""
        dt = np.inf
        wave = 0.0
        for d, lam in zip(self.discs, self.max_wave_speed(coeffs_list)):
            lam = lam[d.active_mask]
            if lam.size:
                denom = (2 * d.basis.order + 1) * lam
                local = d.geo.h_dt[d.active_mask] / np.maximum(denom, 1e-300)
                # np.minimum and np.maximum keep a NaN; min and max drop it
                dt = np.minimum(dt, np.min(local))
                wave = np.maximum(wave, np.max(lam))
        if not (np.isfinite(dt) and np.isfinite(wave)):
            raise DivergenceError("wave speed is not finite; state blew up")
        return cfl * float(dt), float(wave)

    def density_residual(self, rhs_list):
        """Volume-weighted RMS of the density rate over active elements."""
        num = 0.0
        den = 0.0
        for d, r in zip(self.discs, rhs_list):
            rate = r[0] @ d.basis.vol_V.T
            cell = (rate * rate * d.geo.detJ) @ d.basis.vol_weights
            num += float(cell[d.active_mask].sum())
            den += float(d.geo.element_area[d.active_mask].sum())
        return np.sqrt(num / den)


class MarchResult:
    def __init__(self, outcome, iterations, residual, history):
        self.outcome = outcome          # converged | max_iterations | diverged
        self.iterations = iterations
        self.residual = residual
        # rows (iter, residual, wavespeed, dt, physical time t after the
        # iteration)
        self.history = history

    @property
    def time(self):
        """Physical time t at the end of the march."""
        return self.history[-1][4] if self.history else 0.0

    def __repr__(self):
        return (f"MarchResult({self.outcome!r}, iterations={self.iterations}, "
                f"residual={self.residual:.3e})")


def march_to_steady(system, coeffs_list, *, cfl=0.3, max_iterations=1000,
                    tol=1e-8, cfl_ramp_iters=0, cfl_start=None,
                    diverge_factor=1e4, stall_window=0, log_every=0,
                    on_log=None):
    """Pseudo-time march until the density residual drops below ``tol``.

    Never raises on blow-up: a non-finite or exploding residual ends the
    march with outcome ``"diverged"`` so drivers can decide what to do.
    With ``stall_window > 0`` the march also ends (outcome ``"stalled"``)
    once the best residual has not improved by 1% for that many
    iterations — captured shocks limit-cycle the cell-wise residual, so
    a plateau, not ``tol``, is the practical end state of shocked runs.
    """
    system.apply_hooks(coeffs_list)
    # the rate and the stage of each block (module docstring)
    rate = [np.empty_like(c) for c in coeffs_list]
    stage = [np.empty_like(c) for c in coeffs_list]
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
            # SSP three-stage scheme (each stage a convex blend of
            # forward-Euler steps; hooks keep every stage admissible),
            # k_i the rate at stage i
            rate = system.rhs(coeffs_list, rate)
            resid = system.density_residual(rate)
            for c, r in zip(coeffs_list, rate):
                r *= dt
                r += c                      # u1 = c + dt k0, in k0's array
            rate, stage = stage, rate
            system.apply_hooks(stage)
            rate = system.rhs(stage, rate)
            for c, u, r in zip(coeffs_list, stage, rate):
                r *= dt
                r += u
                r *= 0.25
                np.multiply(c, 0.75, out=u)
                u += r                      # u2 = 3/4 c + 1/4 (u1 + dt k1)
            system.apply_hooks(stage)
            rate = system.rhs(stage, rate)
            for c, u, r in zip(coeffs_list, stage, rate):
                r *= dt
                r += u
                r *= 2.0 / 3.0
                c *= 1.0 / 3.0
                c += r                      # 1/3 c + 2/3 (u2 + dt k2)
            system.apply_hooks(coeffs_list)

        t += dt
        history.append((it, resid, wave, dt, t))
        if log_every and (it % log_every == 0 or it == 1) and on_log:
            on_log(it, resid, wave, dt)
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


def advance_time(system, coeffs_list, t_final, *, cfl=0.3):
    """March an unsteady problem to exactly ``t_final``."""
    t = 0.0
    system.apply_hooks(coeffs_list)
    # the six rates and the stage (module docstring); the array of the
    # rate about to be computed holds each product dt a_ij k_j, and the
    # stage each dt b_i k_i, before it is summed
    k = [[np.empty_like(c) for c in coeffs_list] for _ in range(N_STAGES)]
    stage = [np.empty_like(c) for c in coeffs_list]
    while t < t_final - 1e-14:
        dt = min(system.stable_dt(coeffs_list, cfl)[0], t_final - t)
        k[0] = system.rhs(coeffs_list, k[0])
        for i in range(1, N_STAGES):
            for s, c in zip(stage, coeffs_list):
                np.copyto(s, c)
            for aij, kj in zip(RK_A[i], k):
                if aij != 0.0:
                    for s, r, tmp in zip(stage, kj, k[i]):
                        np.multiply(r, dt * aij, out=tmp)
                        s += tmp
            system.apply_hooks(stage)
            k[i] = system.rhs(stage, k[i])
        for bi, ki in zip(RK_B, k):
            if bi != 0.0:
                for c, r, tmp in zip(coeffs_list, ki, stage):
                    np.multiply(r, dt * bi, out=tmp)
                    c += tmp
        system.apply_hooks(coeffs_list)
        t += dt
    return t


def save_checkpoint(path, coeffs_list, block_names, meta=None):
    """Write coefficients (bit-exact float64) plus a JSON sidecar."""
    os.makedirs(path, exist_ok=True)
    for name, c in zip(block_names, coeffs_list):
        np.save(os.path.join(path, f"coeffs_{name}.npy"),
                np.ascontiguousarray(c, dtype=np.float64))
    side = {"blocks": [{"name": n, "shape": list(c.shape)}
                       for n, c in zip(block_names, coeffs_list)]}
    side.update(meta or {})
    with open(os.path.join(path, "checkpoint.json"), "w") as fh:
        json.dump(side, fh, indent=1)


def load_checkpoint(path):
    """Read a checkpoint directory back; returns (coeffs_list, meta)."""
    with open(os.path.join(path, "checkpoint.json")) as fh:
        meta = json.load(fh)
    coeffs = [np.load(os.path.join(path, f"coeffs_{b['name']}.npy"))
              for b in meta["blocks"]]
    for b, c in zip(meta["blocks"], coeffs):
        if list(c.shape) != b["shape"]:
            raise ValueError(
                f"checkpoint block {b['name']!r}: shape {list(c.shape)} "
                f"does not match sidecar {b['shape']}")
    return coeffs, meta
