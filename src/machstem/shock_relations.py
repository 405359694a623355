"""Inviscid oblique-shock theory for steady shock reflection.

Plane-shock jump relations, the theta-beta-M relation and the two
classical transition criteria for reflection off a wall:

* detachment: the largest wedge angle for which the reflected shock of a
  regular reflection can still turn the flow back parallel to the wall;
* mechanical equilibrium (von Neumann): the wedge angle at which the
  pressure behind the incident+reflected shock pair matches the pressure
  behind a normal shock at the free-stream Mach number, with zero net
  deflection across the pair.

Angles are radians unless a name says otherwise. Root finding is
bracketed bisection throughout, driven to bracket widths far below the
1e-4 degree reporting resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BRACKET_TOL = 1e-13


def _bisect(f, lo, hi, tol=_BRACKET_TOL):
    """Bisection root of f on [lo, hi]; requires a sign change."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"root not bracketed on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _golden_max(f, lo, hi, tol=1e-13):
    """Golden-section maximizer of a unimodal f on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def normal_shock_pressure_ratio(m1, gamma=1.4):
    """p2/p1 across a normal shock at upstream Mach m1 > 1."""
    return 1.0 + 2.0 * gamma / (gamma + 1.0) * (m1 * m1 - 1.0)


def normal_shock_density_ratio(m1, gamma=1.4):
    """rho2/rho1 across a normal shock."""
    return (gamma + 1.0) * m1 * m1 / ((gamma - 1.0) * m1 * m1 + 2.0)


def normal_shock_mach(m1, gamma=1.4):
    """Downstream Mach number of a normal shock."""
    num = 1.0 + 0.5 * (gamma - 1.0) * m1 * m1
    den = gamma * m1 * m1 - 0.5 * (gamma - 1.0)
    return np.sqrt(num / den)


def mach_angle(m1):
    """Mach wave angle asin(1/M)."""
    if m1 < 1.0:
        raise ValueError("Mach angle requires supersonic flow")
    return np.arcsin(1.0 / m1)


def theta_from_beta(m1, beta, gamma=1.4):
    """Flow deflection produced by an oblique shock of angle beta."""
    msb = m1 * m1 * np.sin(beta) ** 2
    num = 2.0 / np.tan(beta) * (msb - 1.0)
    den = m1 * m1 * (gamma + np.cos(2.0 * beta)) + 2.0
    return np.arctan(num / den)


def max_deflection(m1, gamma=1.4):
    """(theta_max, beta_at_max) for upstream Mach m1 > 1."""
    if m1 <= 1.0:
        raise ValueError("oblique shock requires m1 > 1")
    lo = mach_angle(m1) + 1e-12
    hi = 0.5 * np.pi - 1e-12
    beta_star = _golden_max(lambda b: theta_from_beta(m1, b, gamma), lo, hi)
    return theta_from_beta(m1, beta_star, gamma), beta_star


def beta_from_theta(m1, theta, gamma=1.4, branch="weak"):
    """Shock angle for deflection theta; branch is 'weak' or 'strong'.

    Raises ValueError when theta exceeds the maximum deflection (no
    attached oblique shock), naming that maximum.
    """
    if branch not in ("weak", "strong"):
        raise ValueError(f"unknown branch {branch!r}")
    if m1 <= 1.0:
        raise ValueError("oblique shock requires m1 > 1")
    if theta <= 0.0:
        raise ValueError("deflection must be positive")
    theta_max, beta_star = max_deflection(m1, gamma)
    if theta > theta_max:
        raise ValueError(
            f"deflection {np.degrees(theta):.4f} deg exceeds maximum "
            f"{np.degrees(theta_max):.4f} deg at M={m1}: no attached solution")
    f = lambda b: theta_from_beta(m1, b, gamma) - theta
    if branch == "weak":
        return _bisect(f, mach_angle(m1) + 1e-12, beta_star)
    return _bisect(f, beta_star, 0.5 * np.pi - 1e-12)


@dataclass
class ObliqueShock:
    """One oblique-shock solution of the theta-beta-M relation."""

    m1: float
    theta: float
    beta: float
    branch: str
    m2: float
    pressure_ratio: float
    density_ratio: float


def oblique_shock(m1, theta, gamma=1.4, branch="weak"):
    """Solve the theta-beta-M relation and package the jump state."""
    beta = beta_from_theta(m1, theta, gamma, branch)
    mn1 = m1 * np.sin(beta)
    mn2 = normal_shock_mach(mn1, gamma)
    m2 = mn2 / np.sin(beta - theta)
    return ObliqueShock(
        m1=float(m1), theta=float(theta), beta=float(beta), branch=branch,
        m2=float(m2),
        pressure_ratio=float(normal_shock_pressure_ratio(mn1, gamma)),
        density_ratio=float(normal_shock_density_ratio(mn1, gamma)))


def detachment_angle(m0, gamma=1.4):
    """Detachment-criterion wedge angle for reflection at Mach m0.

    The incident shock (weak branch, deflection theta_w) leaves flow at
    Mach m1; regular reflection requires the reflected shock to deflect
    that flow back by theta_w, possible only while theta_w does not
    exceed the maximum deflection at m1.
    """

    def downstream_mach(theta_w):
        return oblique_shock(m0, theta_w, gamma).m2

    # Largest wedge angle keeping the downstream flow supersonic; the
    # reflected-shock existence margin changes sign below it.
    theta_sonic = _bisect(
        lambda t: downstream_mach(t) - 1.0 - 1e-9,
        1e-8, max_deflection(m0, gamma)[0] - 1e-10)

    def margin(theta_w):
        return max_deflection(downstream_mach(theta_w), gamma)[0] - theta_w

    return _bisect(margin, 1e-8, theta_sonic - 1e-10)


def von_neumann_angle(m0, gamma=1.4):
    """Mechanical-equilibrium wedge angle for reflection at Mach m0.

    Pressure behind the incident+reflected pair (net deflection zero,
    weak branches) balances the pressure behind a normal shock at m0,
    the vanishing-stem limit of the three-shock configuration.
    """
    p_stem = normal_shock_pressure_ratio(m0, gamma)

    def imbalance(theta_w):
        incident = oblique_shock(m0, theta_w, gamma)
        reflected = oblique_shock(incident.m2, theta_w, gamma)
        return incident.pressure_ratio * reflected.pressure_ratio - p_stem

    hi = detachment_angle(m0, gamma) - 1e-9
    return _bisect(imbalance, 1e-8, hi)
