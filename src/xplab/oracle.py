"""Dense-grid brute force for small dimensions.

Deliberately a different algorithm from the seeded estimators in
:mod:`xplab.operators`: directions come from an exhaustive grid on the cube
surface (every direction in R^d meets it projectively) with a few rounds of
local refinement. Usable up to dimension 6; meant as the ground truth the
estimators are compared against, never as the production path. They search
the unit columns of a span, as the estimators do, and data that a search is
homogeneous in as :func:`xplab._dense.into_range` scales them.
"""

from __future__ import annotations

import numpy as np

from ._dense import col_norm, dense_window, into_range, unit_columns

__all__ = ["brute_opnorm", "brute_ratio_extremum", "brute_min_distance"]

MAX_ORACLE_DIM = 6


def _cube_grid(d: int, m: int) -> np.ndarray:
    lin = np.linspace(-1.0, 1.0, m)
    mesh = np.meshgrid(*([lin] * d), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=0)


def _face_grid(d: int, m: int) -> np.ndarray:
    """All points of an m-per-axis grid on the surface of [-1, 1]^d, as columns."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rest = _cube_grid(d - 1, m) if d > 1 else np.empty((0, 1))
    return np.concatenate([np.insert(rest, k, s, axis=0) for k in range(d) for s in (1.0, -1.0)],
                          axis=1)


def _in_range(D: np.ndarray, X: np.ndarray, r: float, rounds: int, p: float):
    """D brought into range for a grid search from X, and the power of two that undoes it."""
    (S,) = into_range([D], X, r, rounds, p)
    return S, (1.0 if S is D else float(np.max(np.abs(D)) / np.max(np.abs(S))))


def _extremize(objective, X: np.ndarray, r: float, refine_rounds: int, keep_zero=False) -> float:
    """Largest objective value found on the grid X, then around its best point.

    Each refinement round scores a 5-per-axis cube of half-width r around the
    best point so far, and r shrinks by 0.35 a round. The cube loses its zero
    vector, where a ratio has no value, unless keep_zero is set.
    """
    vals = objective(X)
    b = int(np.argmax(vals))
    x, fbest = X[:, b].copy(), float(vals[b])
    local = _cube_grid(len(X), 5)
    for _ in range(refine_rounds):
        C = x[:, None] + r * local
        if not keep_zero:
            C = C[:, np.any(C != 0.0, axis=0)]
        vals = objective(C)
        b = int(np.argmax(vals))
        if vals[b] > fbest:
            fbest = float(vals[b])
            x = C[:, b].copy()
        r *= 0.35
    return fbest


def brute_opnorm(A: np.ndarray, w: np.ndarray, p: float, mode: str = "xp",
                 m: int = 7, refine_rounds: int = 4) -> float:
    """Grid-search the operator norm of a window matrix."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    if d > MAX_ORACLE_DIM:
        raise ValueError(f"oracle limited to dimension {MAX_ORACLE_DIM}")
    grid, r = _face_grid(d, m), 2.0 / max(m - 1, 1)
    A, back = _in_range(A, grid, r, refine_rounds, p)  # the norm is homogeneous in A

    def objective(X):
        den = col_norm(X, w, p, mode)
        num = col_norm(A @ X, w, p, mode)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den > 0, num / np.maximum(den, 1e-300), -np.inf)

    return back * _extremize(objective, grid, r, refine_rounds)


def brute_ratio_extremum(V, sense: int, m: int = 13, refine_rounds: int = 4) -> float:
    """Grid-search the 2-vs-p ratio extremum over span(V); sense +1 sup, -1 inf."""
    space, _, B, w = dense_window(V)
    p = space.p
    k = B.shape[1]
    if k > MAX_ORACLE_DIM:
        raise ValueError(f"oracle limited to span dimension {MAX_ORACLE_DIM}")
    grid, r = _face_grid(k, m), 2.0 / max(m - 1, 1)
    B = unit_columns(B)  # the same span

    def objective(Ac):
        Y = B @ Ac
        num = col_norm(Y, w, p, "2w")
        den = col_norm(Y, w, p, "p")
        with np.errstate(divide="ignore", invalid="ignore"):
            return sense * np.where(den > 0, num / np.maximum(den, 1e-300), -np.inf)

    return sense * _extremize(objective, grid, r, refine_rounds)


def brute_min_distance(x, Y, m: int = 9, refine_rounds: int = 5) -> float:
    """Grid-search min over coefficients a of xp_norm(x - sum a_j y_j).

    The search runs on the unit columns of Y and on x times 2^-e, which brings
    its peak to [1/2, 1), and the distance is scaled back. Its box comes from a
    data-independent bound: any minimizer satisfies |a|_2 <= R = 2 xp_norm(x)
    / sigma_min(W B), and the box of radius R is searched on data in range for it.
    """
    space, _, D, w = dense_window((*Y, x))
    p = space.p
    k = D.shape[1] - 1
    if k > MAX_ORACLE_DIM:
        raise ValueError(f"oracle limited to span dimension {MAX_ORACLE_DIM}")
    e = int(np.frexp(np.max(np.abs(D[:, -1])))[1])
    D = np.column_stack([unit_columns(D[:, :-1]), np.ldexp(D[:, -1], -e)])
    xnorm = float(col_norm(D[:, -1:], w, p, "xp")[0])
    smin = float(np.linalg.svd(D[:, :-1] * w[:, None], compute_uv=False)[-1])
    if smin <= 0:
        raise ValueError("distance oracle needs independent span vectors")
    R = 2.0 * xnorm / smin
    grid, r = _cube_grid(k, m) * R, 2.0 / max(m - 1, 1) * R
    S, back = _in_range(D, grid, r, refine_rounds, p)

    def negated_cost(Ac):
        return -col_norm(S[:, -1:] - S[:, :-1] @ Ac, w, p, "xp")

    dist = -back * _extremize(negated_cost, grid, r, refine_rounds, keep_zero=True)
    return float(np.ldexp(dist, e))
