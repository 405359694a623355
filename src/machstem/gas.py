"""Perfect-gas thermodynamics and Euler fluxes for 2D compressible flow.

Conserved states are stored variable-first: ``q[0]`` is density, ``q[1]``
x-momentum, ``q[2]`` y-momentum and ``q[3]`` total energy per unit volume.
Every function broadcasts over trailing axes, so a single state ``(4,)``
and batched quadrature data ``(4, n_elem, n_pts)`` share one code path.

The working scaling puts the free stream at density 1, pressure 1/gamma,
so the free-stream sound speed is 1 and speed equals Mach number.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidStateError

N_VARS = 4


class GasModel:
    """Calorically perfect gas."""

    def __init__(self, gamma=1.4):
        if not gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        self.gamma = float(gamma)

    def __repr__(self):
        return f"GasModel(gamma={self.gamma})"


def conserved(rho, u, v, p, gas):
    """Conserved state array from primitive fields (broadcasting)."""
    rho, u, v, p = np.broadcast_arrays(
        np.asarray(rho, float), np.asarray(u, float),
        np.asarray(v, float), np.asarray(p, float))
    q = np.empty((N_VARS,) + rho.shape)
    q[0] = rho
    q[1] = rho * u
    q[2] = rho * v
    q[3] = p / (gas.gamma - 1.0) + 0.5 * rho * (u * u + v * v)
    return q


def primitive_fields(q, gas, shape=None):
    """(rho, u, v, p, u*u + v*v) from a conserved state array, each
    sub-expression formed once and in place: rho is ``q[0]``, the others
    new arrays of ``shape`` (default: q's trailing shape, 0-d for a
    single state), with the bits of the formulas written out, p =
    (gamma - 1) (E - 0.5 rho (u u + v v))."""
    if shape is None:
        shape = np.shape(q)[1:]
    rho = q[0]
    u = np.divide(q[1], rho, out=np.empty(shape))
    v = np.divide(q[2], rho, out=np.empty(shape))
    vv = np.multiply(u, u, out=np.empty(shape))
    p = np.multiply(v, v, out=np.empty(shape))
    vv += p
    np.multiply(rho, 0.5, out=p)
    p *= vv
    np.subtract(q[3], p, out=p)
    p *= gas.gamma - 1.0
    return rho, u, v, p, vv


def primitives(q, gas):
    """Return (rho, u, v, p) from a conserved state array
    (``primitive_fields``)."""
    return primitive_fields(q, gas)[:4]


def pressure(q, gas):
    return (gas.gamma - 1.0) * (q[3] - 0.5 * (q[1] ** 2 + q[2] ** 2) / q[0])


def sound_speed(q, gas):
    return np.sqrt(gas.gamma * pressure(q, gas) / q[0])


def total_enthalpy(q, gas):
    """Specific total enthalpy H = (E + p) / rho."""
    return (q[3] + pressure(q, gas)) / q[0]


def flux(q, gas):
    """Physical flux pair (F, G) of the 2D Euler equations."""
    rho, u, v, p = primitives(q, gas)
    F = np.empty_like(q)
    G = np.empty_like(q)
    F[0] = q[1]
    F[1] = q[1] * u + p
    F[2] = q[1] * v
    F[3] = u * (q[3] + p)
    G[0] = q[2]
    G[1] = q[2] * u
    G[2] = q[2] * v + p
    G[3] = v * (q[3] + p)
    return F, G


def normal_flux(q, nx, ny, gas):
    """Directional physical flux F*nx + G*ny."""
    rho, u, v, p = primitives(q, gas)
    un = u * nx + v * ny
    out = np.empty_like(q)
    out[0] = rho * un
    out[1] = q[1] * un + p * nx
    out[2] = q[2] * un + p * ny
    out[3] = (q[3] + p) * un
    return out


def max_wave_speed(q, gas):
    """Fastest signal speed |u| + a, sqrt(u*u + v*v) + sqrt(gamma p /
    rho), in the arrays of ``primitive_fields``."""
    rho, _, _, p, speed = primitive_fields(q, gas)
    p *= gas.gamma
    p /= rho
    np.sqrt(p, out=p)
    np.sqrt(speed, out=speed)
    speed += p
    return speed


def validate(q, gas, where=None):
    """Raise InvalidStateError on non-positive density or pressure.

    Returns the pressure array so callers can reuse it.
    """
    rho = np.asarray(q[0])
    p = np.asarray(pressure(q, gas))
    bad = ~(np.isfinite(rho) & np.isfinite(p) & (rho > 0.0) & (p > 0.0))
    if np.any(bad):
        idx = np.argwhere(bad)
        first = tuple(idx[0]) if idx.size else ()
        loc = f"{where} index {first}" if where else f"index {first}"
        raise InvalidStateError(
            f"invalid gas state (rho={np.ravel(rho[bad])[0]:.6g}, "
            f"p={np.ravel(p[bad])[0]:.6g})", location=loc)
    return p


def free_stream(mach, gas):
    """Free-stream conserved state under the package scaling.

    Density 1 and pressure 1/gamma make the sound speed exactly 1, so
    the velocity, along +x, equals ``mach``.
    """
    return conserved(1.0, mach, 0.0, 1.0 / gas.gamma, gas)
