"""Finite-difference reference for generator Hessians, which every family
computes analytically; tests compare the two."""

import numpy as np


def fd_hessian(G, p):
    """Central differences of the 0-homogeneous gradient map, taken in ambient
    coordinates (legitimate off the simplex), then projected so that p spans
    the null space as it does analytically."""
    p = np.asarray(p, dtype=float)
    n = len(p)
    h = 1e-5 * max(1.0, float(np.linalg.norm(p)))
    H = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        H[:, j] = (G.grad(p + e) - G.grad(p - e)) / (2.0 * h)
    H = 0.5 * (H + H.T)
    P = np.eye(n) - np.outer(p, p) / float(p @ p)
    return P @ H @ P
