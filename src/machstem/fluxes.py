"""Interface numerical fluxes for the compressible Euler equations.

Both fluxes share the signature ``flux(qL, qR, nx, ny, gas) -> (4, ...)``
where ``qL``/``qR`` are conserved-state traces of shape ``(4, ...)`` and
``nx``/``ny`` broadcast against the trailing axes: scalars, normals
``(..., 1)`` broadcast over the face points, or face-shaped normals with
the traces' trailing shape. The residual passes face-shaped ones: a
product with a normal broadcast over 3 to 6 face points runs numpy inner
loops of that length and costs 2.5 to 3 times one with a face-shaped
normal. The normal points from the L side toward the R side, and
antisymmetry ``flux(qL, qR, n) == -flux(qR, qL, -n)`` guarantees
discrete conservation when the same face value is added to one element
and subtracted from its neighbor.

``lax_friedrichs`` is the robust globally dissipative baseline used on
grids whose limiter is armed everywhere; ``slau2`` is the low-dissipation
pressure-flux-blended scheme used where shear layers and the wall jet
behind a strong reflection must stay crisp.

Each kernel evaluates once every sub-expression its formula repeats
(u*u + v*v, |v_n|, the mean speed, rhoL + rhoR, (1 - g) times the mean
|v_n|) and computes in place in arrays of its own, in the operation
order of the formula, so its bits are those of the formula written out.
It never writes into its arguments: ``qL[0]`` and ``qR[0]`` enter as
views and are only read, and every array it writes into is one it
allocated with ``out=``, in the broadcast shape of its arguments: for a
single state a plain operation would return a scalar, which cannot be
written into.
"""

from __future__ import annotations

import numpy as np

from .gas import primitive_fields


def _states(qL, qR, nx, ny, gas):
    """Both sides' ``gas.primitive_fields``, on the broadcast shape of the
    traces' trailing axes and the normals."""
    shape = np.broadcast_shapes(np.shape(qL)[1:], np.shape(qR)[1:],
                                np.shape(nx), np.shape(ny))
    return (primitive_fields(qL, gas, shape),
            primitive_fields(qR, gas, shape))


def _normal_velocity(u, v, nx, ny, out, scratch):
    """u * nx + v * ny into ``out``, with v * ny in ``scratch``."""
    np.multiply(u, nx, out=out)
    out += np.multiply(v, ny, out=scratch)
    return out


def lax_friedrichs(qL, qR, nx, ny, gas):
    """Local Lax-Friedrichs (Rusanov) flux.

    Each side's physical normal flux is q * u_n plus the pressure terms
    (0, p nx, p ny, p u_n); the wave speed |u| + c takes |u|^2 from the
    primitives.
    """
    (rhoL, unL, tL, pL, lam), (rhoR, unR, tR, pR, lamR) = _states(
        qL, qR, nx, ny, gas)
    g = gas.gamma
    for rho, u, t, p, speed in ((rhoL, unL, tL, pL, lam),
                                (rhoR, unR, tR, pR, lamR)):
        _normal_velocity(u, t, nx, ny, out=u, scratch=t)
        # sqrt(u*u + v*v) + sqrt(g p / rho)
        np.multiply(p, g, out=t)
        t /= rho
        np.sqrt(t, out=t)
        np.sqrt(speed, out=speed)
        speed += t
    np.maximum(lam, lamR, out=lam)
    f = qL * unL
    d = qR * unR
    f += d
    ps = np.add(pL, pR, out=tL)
    f[1] += np.multiply(ps, nx, out=tR)
    f[2] += np.multiply(ps, ny, out=tR)
    pL *= unL
    pR *= unR
    pL += pR
    f[3] += pL
    np.subtract(qR, qL, out=d)
    d *= lam
    f -= d
    f *= 0.5
    return f


def _pressure_split(m, sign):
    """Polynomial subsonic / pass-through supersonic pressure weight, a
    new array of m's shape.

    sign=+1 gives the left-running weight f+, sign=-1 the right-running f-.
    """
    sup = np.abs(m) >= 1.0
    w = np.add(m, sign, out=np.empty_like(m))
    np.square(w, out=w)
    w *= 0.25
    t = np.multiply(m, sign, out=np.empty_like(m))
    np.subtract(2.0, t, out=t)
    w *= t
    np.sign(m, out=t)
    t *= sign
    t += 1.0
    t *= 0.5
    np.copyto(w, t, where=sup)
    return w


def slau2(qL, qR, nx, ny, gas):
    """Simple low-dissipation upwind flux with shock-stable pressure term.

    Mass flux blends density-weighted normal velocities with a pressure
    difference correction that vanishes at sonic-and-above speeds; the
    interface pressure adds a dissipation term scaled by the mean velocity
    magnitude, which keeps strong shocks clean without carbuncle trouble.
    """
    (rhoL, uL, vL, pL, vbar), (rhoR, uR, vR, pR, t) = _states(
        qL, qR, nx, ny, gas)
    g = gas.gamma
    HL = np.add(qL[3], pL, out=np.empty_like(pL))
    HL /= rhoL
    HR = np.add(qR[3], pR, out=np.empty_like(pR))
    HR /= rhoR
    # cbar = 0.5 (cL + cR), c = sqrt(g p / rho)
    cbar = np.multiply(pL, g, out=np.empty_like(pL))
    cbar /= rhoL
    np.sqrt(cbar, out=cbar)
    np.multiply(pR, g, out=t)
    t /= rhoR
    np.sqrt(t, out=t)
    cbar += t
    cbar *= 0.5

    vnL = _normal_velocity(uL, vL, nx, ny, np.empty_like(t), scratch=t)
    vnR = _normal_velocity(uR, vR, nx, ny, np.empty_like(t), scratch=t)
    mL = np.divide(vnL, cbar, out=np.empty_like(t))
    mR = np.divide(vnR, cbar, out=np.empty_like(t))

    # interface Mach from the full velocity magnitudes, capped at 1:
    # vbar = sqrt(0.5 (uL^2 + vL^2 + uR^2 + vR^2))
    vbar += np.multiply(uR, uR, out=t)
    vbar += np.multiply(vR, vR, out=t)
    vbar *= 0.5
    np.sqrt(vbar, out=vbar)
    chi = np.divide(vbar, cbar, out=t)
    np.minimum(1.0, chi, out=chi)
    np.subtract(1.0, chi, out=chi)
    np.square(chi, out=chi)
    chi /= cbar          # chi / cbar, the pressure-difference weight

    # velocity-difference sensing weight
    gw = np.minimum(mL, 0.0, out=np.empty_like(t))
    np.maximum(gw, -1.0, out=gw)
    np.negative(gw, out=gw)
    s = np.maximum(mR, 0.0, out=np.empty_like(t))
    np.minimum(s, 1.0, out=s)
    gw *= s
    # |vnL|, |vnR|, their density-weighted mean and (1 - g) * mean
    aL = np.abs(vnL, out=np.empty_like(t))
    aR = np.abs(vnR, out=np.empty_like(t))
    avg = np.multiply(rhoL, aL, out=np.empty_like(t))
    avg += np.multiply(rhoR, aR, out=s)
    rho_sum = np.add(rhoL, rhoR, out=np.empty_like(t))
    avg /= rho_sum
    avg *= np.subtract(1.0, gw, out=s)
    # vn_abs_p = (1 - g) avg + g |vnL| into aL, vn_abs_m likewise into aR
    aL *= gw
    aL += avg
    aR *= gw
    aR += avg

    # mdot = 0.5 (rhoL (vnL + vn_abs_p) + rhoR (vnR - vn_abs_m)
    #             - (chi / cbar) (pR - pL)), into aL
    mdot = aL
    mdot += vnL
    mdot *= rhoL
    np.subtract(vnR, aR, out=aR)
    aR *= rhoR
    mdot += aR
    chi *= np.subtract(pR, pL, out=aR)
    mdot -= chi
    mdot *= 0.5

    fpL = _pressure_split(mL, +1.0)
    fmR = _pressure_split(mR, -1.0)
    # ptilde = 0.5 (pL + pR) + 0.5 (fpL - fmR) (pL - pR)
    #          + vbar (fpL + fmR - 1) 0.5 (rhoL + rhoR) cbar
    ptilde = np.add(pL, pR, out=avg)
    ptilde *= 0.5
    d = np.subtract(fpL, fmR, out=s)
    d *= 0.5
    d *= np.subtract(pL, pR, out=mL)
    ptilde += d
    fpL += fmR
    fpL -= 1.0
    fpL *= vbar
    fpL *= 0.5
    fpL *= rho_sum
    fpL *= cbar
    ptilde += fpL

    # upwinded (1, u, v, H) carried by the mass flux, plus pressure
    up = np.maximum(mdot, 0.0, out=vnL)
    um = np.minimum(mdot, 0.0, out=vnR)
    f = np.empty((4,) + mdot.shape)
    f[0] = mdot
    for k, sL, sR, n in ((1, uL, uR, nx), (2, vL, vR, ny), (3, HL, HR, None)):
        fk = np.multiply(up, sL, out=f[k, ...])
        fk += np.multiply(um, sR, out=sR)
        if n is not None:
            fk += np.multiply(ptilde, n, out=sR)
    return f


FLUXES = {"lax_friedrichs": lax_friedrichs, "slau2": slau2}


def get_flux(name):
    try:
        return FLUXES[name]
    except KeyError:
        raise ValueError(
            f"unknown flux {name!r}; available: {sorted(FLUXES)}") from None
