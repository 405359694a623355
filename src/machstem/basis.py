"""Modal tensor-product Legendre basis on the reference square [-1,1]^2.

Modes are products of 1D Legendre polynomials normalized to unit L2 norm
on [-1,1], so mode (0,0) is the constant 1/2 and the 2D modes are
orthonormal on the square. Mode p = dr*(N+1) + ds pairs r-degree dr with
s-degree ds.

Quadrature is tensor Gauss-Legendre with N+2 points per direction in the
volume and N+2 points per face, which integrates products of two basis
modes against a bilinear-map Jacobian exactly.

The basis also carries the (N+1)^2 tensor Gauss points, their weights
and the square matrix V_g of the modes there, at which the inverse mass
matrix of a straight-sided element is applied (see ``dg``).

Face numbering: 0 = W (r=-1), 1 = E (r=+1), 2 = S (s=-1), 3 = N (s=+1).
W/E faces are parametrized by s ascending, S/N by r ascending, so the two
sides of a conforming interior face visit identical physical points.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as leg

FACE_W, FACE_E, FACE_S, FACE_N = 0, 1, 2, 3


def _legendre_1d(order, x):
    """Values and derivatives of normalized Legendre polys at points x.

    Returns arrays (len(x), order+1).
    """
    x = np.asarray(x, float)
    V = leg.legvander(x, order)
    D = np.zeros_like(V)
    for m in range(order + 1):
        c = np.zeros(m + 1)
        c[m] = 1.0
        if m > 0:
            D[:, m] = leg.legval(x, leg.legder(c))
    scale = np.sqrt((2.0 * np.arange(order + 1) + 1.0) / 2.0)
    return V * scale, D * scale


class Basis:
    """Orthonormal modal basis of tensor degree N with its quadrature."""

    def __init__(self, order):
        if order < 0:
            raise ValueError("polynomial order must be non-negative")
        self.order = int(order)
        n1 = self.order + 1
        self.n_modes = n1 * n1
        self.degrees = np.array([(dr, ds) for dr in range(n1) for ds in range(n1)])
        self.mode_const = 0
        self.mode_lin_r = 1 * n1 + 0
        self.mode_lin_s = 0 * n1 + 1
        # modes with any quadratic-or-higher content, cross term included
        self.modes_high = np.array(
            [p for p, (dr, ds) in enumerate(self.degrees) if dr + ds >= 2], int)

        nq1 = self.order + 2
        x1, w1 = leg.leggauss(nq1)
        self.nq_1d = nq1
        self.q1d_nodes = x1
        self.q1d_weights = w1

        r = np.repeat(x1, nq1)
        s = np.tile(x1, nq1)
        self.vol_nodes = np.column_stack([r, s])
        self.vol_weights = np.repeat(w1, nq1) * np.tile(w1, nq1)
        self.vol_V, self.vol_Dr, self.vol_Ds = self.eval_modes(r, s, gradients=True)

        xg, wg = leg.leggauss(n1)
        self.gauss_nodes = np.column_stack([np.repeat(xg, n1),
                                            np.tile(xg, n1)])
        self.gauss_weights = np.repeat(wg, n1) * np.tile(wg, n1)
        self.gauss_V = self.eval_modes(*self.gauss_nodes.T)

        # faces: W/E along s, S/N along r
        ones = np.ones_like(x1)
        coords = {
            FACE_W: (-ones, x1),
            FACE_E: (ones, x1),
            FACE_S: (x1, -ones),
            FACE_N: (x1, ones),
        }
        self.face_V = {}
        for f, (fr, fs) in coords.items():
            self.face_V[f] = self.eval_modes(fr, fs)
        # modes at every volume and face quadrature node
        self.node_V = np.vstack([self.vol_V] +
                                [self.face_V[f] for f in coords])

    def eval_modes(self, r, s, gradients=False):
        """Basis (and optionally gradient) evaluation matrices at (r, s).

        Returns V of shape (npts, n_modes); with gradients also Dr, Ds.
        """
        r = np.atleast_1d(np.asarray(r, float))
        s = np.atleast_1d(np.asarray(s, float))
        Vr, Dr1 = _legendre_1d(self.order, r)
        Vs, Ds1 = _legendre_1d(self.order, s)
        dr = self.degrees[:, 0]
        ds = self.degrees[:, 1]
        V = Vr[:, dr] * Vs[:, ds]
        if not gradients:
            return V
        DrM = Dr1[:, dr] * Vs[:, ds]
        DsM = Vr[:, dr] * Ds1[:, ds]
        return V, DrM, DsM

    def __repr__(self):
        return f"Basis(order={self.order}, n_modes={self.n_modes})"
