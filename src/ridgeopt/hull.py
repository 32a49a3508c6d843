"""Minimum-norm point of a convex hull and Caratheodory reduction.

Implements Wolfe's minimum-norm-point method with the standard major/minor
cycle over a finite atom set, used both to certify 0-membership in the
parametric-optimality hull and to zero out y-blocks of subgradient
combinations.  Atom selection ties break by lowest index, so runs replay
deterministically for a fixed atom ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AtomSet:
    """Finite, dimension-consistent, nonempty set of vectors in R^p."""

    def __init__(self, atoms):
        arr = np.asarray(atoms, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("atoms must be a nonempty (n, p) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("atoms must be finite")
        self.atoms = arr

    @property
    def n(self) -> int:
        return self.atoms.shape[0]

    @property
    def p(self) -> int:
        return self.atoms.shape[1]

    def dedup(self) -> "AtomSet":
        """Remove exact duplicates, keeping first occurrences in order."""
        _, idx = np.unique(self.atoms, axis=0, return_index=True)
        return AtomSet(self.atoms[np.sort(idx)])


@dataclass
class MinNormCertificate:
    """Simplex weights over ``atoms`` whose combination is ``point``.

    ``gap`` is the Wolfe duality gap ||point||^2 - min_j <point, atom_j>
    (clipped at 0); ``converged`` is False when the iteration cap was hit
    and the best certificate so far is returned.
    """

    atoms: np.ndarray
    weights: np.ndarray
    point: np.ndarray
    norm: float
    gap: float
    converged: bool = True


def _as_atoms(atoms) -> np.ndarray:
    if isinstance(atoms, AtomSet):
        return atoms.atoms
    return AtomSet(atoms).atoms


def _affine_min_weights(A: np.ndarray) -> np.ndarray:
    """Weights (summing to 1, sign-free) of the min-norm point of aff(A).

    Solves the KKT system [[G, 1], [1', 0]] (a, mu) = (0, 1).  The weights
    are invariant under scaling of the Gram matrix, which is normalized so
    the system stays balanced against the affine constraint for atom sets
    far from unit scale.
    """
    m = A.shape[0]
    G = A @ A.T
    s = float(np.max(np.abs(G)))
    if s > 0:
        G = G / s
    K = np.zeros((m + 1, m + 1))
    K[:m, :m] = G
    K[:m, m] = 1.0
    K[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol[:m]


def min_norm_point(atoms, tol: float = 1e-9, max_iter: int | None = None) -> MinNormCertificate:
    """Nearest point of conv(atoms) to the origin, by Wolfe's method.

    Duplicate atoms are removed (exact equality) before solving.  The
    returned weights live on the deduplicated atom array stored in the
    certificate.  Terminates when the Wolfe gap falls below
    max(tol^2, fp noise floor), when the selected atom yields no progress,
    or at the iteration cap 10*(n+p)^2 (flagged via ``converged=False``).
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    P = AtomSet(_as_atoms(atoms)).dedup().atoms
    n, p = P.shape
    if max_iter is None:
        max_iter = 10 * (n + p) ** 2

    # gap <= tol^2 certifies ||x - x*|| <= sqrt(2)*tol; the relative floor
    # keeps the threshold reachable above the fp noise of gap evaluation
    scale2 = float(np.max(np.sum(P * P, axis=1)))
    stop_gap = max(tol * tol, 1e-13 * scale2)

    norms2 = np.sum(P * P, axis=1)
    i0 = int(np.argmin(norms2))
    S = [i0]
    lam = np.array([1.0])
    x = P[i0].copy()
    converged = True

    for _ in range(max_iter):
        dots = P @ x
        j = int(np.argmin(dots))
        gap = float(x @ x - dots[j])
        if gap <= stop_gap:
            break
        if j in S:
            # numerically optimal over the current corral; no progress possible
            break
        S.append(j)
        lam = np.append(lam, 0.0)

        # each pass drops at least one atom, so |S| bounds the minor cycle
        for _ in range(len(S) + 1):
            A = P[S]
            alpha = _affine_min_weights(A)
            if np.all(alpha > 1e-12):
                lam = alpha
                x = alpha @ A
                break
            # move toward the affine minimizer until a weight hits zero
            denom = lam - alpha
            blocking = (alpha <= 1e-12) & (denom > 0)
            if np.any(blocking):
                with np.errstate(divide="ignore"):
                    ratios = np.where(blocking, lam / denom, np.inf)
                k = int(np.argmin(ratios))
                theta = min(max(float(ratios[k]), 0.0), 1.0)
            else:  # nonpositive weights already at zero; adopt the minimizer
                k = int(np.argmin(alpha))
                theta = 1.0
            lam = (1.0 - theta) * lam + theta * alpha
            lam[k] = 0.0
            lam[lam <= 1e-12] = 0.0
            keep = lam > 0.0
            if not np.any(keep):  # degenerate; keep the best single atom
                keep[int(np.argmax(alpha))] = True
                lam[keep] = 1.0
            S = [s for s, kp in zip(S, keep) if kp]
            lam = lam[keep]
            lam = lam / lam.sum()
        else:
            x = lam @ P[S]
    else:
        converged = False

    weights = np.zeros(n)
    weights[S] = lam
    point = weights @ P
    dots = P @ point
    gap = max(0.0, float(point @ point - np.min(dots)))
    return MinNormCertificate(atoms=P, weights=weights, point=point,
                              norm=float(np.linalg.norm(point)), gap=gap,
                              converged=converged)


def caratheodory_reduce(cert: MinNormCertificate, p: int | None = None) -> MinNormCertificate:
    """Reduce a certificate to at most p+1 nonzero weights, same point.

    Repeatedly finds a null direction of the homogeneous atom matrix over
    the current support and moves the weights along it until one vanishes.
    The hull point is preserved up to floating-point error (~1e-15 per
    elimination step); the norm never increases beyond that noise.
    """
    atoms = cert.atoms
    if p is None:
        p = atoms.shape[1]
    w = cert.weights.copy()
    while True:
        support = np.flatnonzero(w > 0)
        m = support.size
        if m <= p + 1:
            break
        A = atoms[support]
        M = np.vstack([A.T, np.ones(m)])  # (p+1, m), m > p+1 -> null space exists
        _, _, Vt = np.linalg.svd(M)
        d = Vt[-1]
        if np.max(d) <= 0:
            d = -d
        pos = d > 1e-14
        ratios = np.full(m, np.inf)
        ratios[pos] = w[support[pos]] / d[pos]
        k = int(np.argmin(ratios))
        t = ratios[k]
        w[support] = w[support] - t * d
        w[support[k]] = 0.0
        np.clip(w, 0.0, None, out=w)
    total = w.sum()
    if total > 0:
        w = w / total
    point = w @ atoms
    dots = atoms @ point
    gap = max(0.0, float(point @ point - np.min(dots)))
    return MinNormCertificate(atoms=atoms, weights=w, point=point,
                              norm=float(np.linalg.norm(point)), gap=gap,
                              converged=cert.converged)
