"""Interface numerical fluxes for the compressible Euler equations.

Both fluxes share the signature ``flux(qL, qR, nx, ny, gas) -> (4, ...)``
where ``qL``/``qR`` are conserved-state traces of shape ``(4, ...)`` and
``nx``/``ny`` broadcast against the trailing axes. The normal points from
the L side toward the R side, and antisymmetry
``flux(qL, qR, n) == -flux(qR, qL, -n)`` guarantees discrete conservation
when the same face value is added to one element and subtracted from its
neighbor.

``lax_friedrichs`` is the robust globally dissipative baseline used on
grids whose limiter is armed everywhere; ``slau2`` is the low-dissipation
pressure-flux-blended scheme used where shear layers and the wall jet
behind a strong reflection must stay crisp.
"""

from __future__ import annotations

import numpy as np

from . import gas as gasmod


def lax_friedrichs(qL, qR, nx, ny, gas):
    """Local Lax-Friedrichs (Rusanov) flux.

    Each side's physical normal flux is q * u_n plus the pressure terms
    (0, p nx, p ny, p u_n), from one ``primitives`` call per side.
    """
    rhoL, uL, vL, pL = gasmod.primitives(qL, gas)
    rhoR, uR, vR, pR = gasmod.primitives(qR, gas)
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


def _pressure_split(m, sign):
    """Polynomial subsonic / pass-through supersonic pressure weight.

    sign=+1 gives the left-running weight f+, sign=-1 the right-running f-.
    """
    sup = np.abs(m) >= 1.0
    w_sup = 0.5 * (1.0 + sign * np.sign(m))
    w_sub = 0.25 * (m + sign) ** 2 * (2.0 - sign * m)
    return np.where(sup, w_sup, w_sub)


def slau2(qL, qR, nx, ny, gas):
    """Simple low-dissipation upwind flux with shock-stable pressure term.

    Mass flux blends density-weighted normal velocities with a pressure
    difference correction that vanishes at sonic-and-above speeds; the
    interface pressure adds a dissipation term scaled by the mean velocity
    magnitude, which keeps strong shocks clean without carbuncle trouble.
    """
    rhoL, uL, vL, pL = gasmod.primitives(qL, gas)
    rhoR, uR, vR, pR = gasmod.primitives(qR, gas)
    HL = (qL[3] + pL) / rhoL
    HR = (qR[3] + pR) / rhoR
    cL = np.sqrt(gas.gamma * pL / rhoL)
    cR = np.sqrt(gas.gamma * pR / rhoR)
    cbar = 0.5 * (cL + cR)

    vnL = uL * nx + vL * ny
    vnR = uR * nx + vR * ny
    mL = vnL / cbar
    mR = vnR / cbar

    # interface Mach from the full velocity magnitudes, capped at 1
    v2_mean = 0.5 * (uL * uL + vL * vL + uR * uR + vR * vR)
    mhat = np.minimum(1.0, np.sqrt(v2_mean) / cbar)
    chi = (1.0 - mhat) ** 2

    # velocity-difference sensing weight
    g = -np.maximum(np.minimum(mL, 0.0), -1.0) * \
        np.minimum(np.maximum(mR, 0.0), 1.0)
    vn_abs_avg = (rhoL * np.abs(vnL) + rhoR * np.abs(vnR)) / (rhoL + rhoR)
    vn_abs_p = (1.0 - g) * vn_abs_avg + g * np.abs(vnL)
    vn_abs_m = (1.0 - g) * vn_abs_avg + g * np.abs(vnR)

    mdot = 0.5 * (rhoL * (vnL + vn_abs_p) + rhoR * (vnR - vn_abs_m)
                  - (chi / cbar) * (pR - pL))

    fpL = _pressure_split(mL, +1.0)
    fmR = _pressure_split(mR, -1.0)
    ptilde = (0.5 * (pL + pR)
              + 0.5 * (fpL - fmR) * (pL - pR)
              + np.sqrt(v2_mean) * (fpL + fmR - 1.0)
                * 0.5 * (rhoL + rhoR) * cbar)

    # upwinded (1, u, v, H) carried by the mass flux, plus pressure
    up = np.maximum(mdot, 0.0)
    um = np.minimum(mdot, 0.0)
    f = np.empty((4,) + mdot.shape)
    f[0] = mdot
    f[1] = up * uL + um * uR + ptilde * nx
    f[2] = up * vL + um * vR + ptilde * ny
    f[3] = up * HL + um * HR
    return f


FLUXES = {"lax_friedrichs": lax_friedrichs, "slau2": slau2}


def get_flux(name):
    try:
        return FLUXES[name]
    except KeyError:
        raise ValueError(
            f"unknown flux {name!r}; available: {sorted(FLUXES)}") from None
