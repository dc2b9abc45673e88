"""Vectorized norm kernels over a fixed coordinate window.

The sparse ops in :mod:`xplab.space` are the reference semantics; these
column-wise kernels exist so estimators and batch experiments can evaluate
thousands of vectors without per-vector Python overhead. Tests cross-check
them against the sparse reference. A window is a sorted array of 1-based
indices; the operators of :mod:`xplab.operators` carry one as ``window``
next to their ``matrix``, and the weights and columns here are laid out
over it. The coordinate search every estimator polishes its columns with
lives here too.
"""

from __future__ import annotations

import numpy as np

from .space import WeightedSpace


def window_weights(space: WeightedSpace, idx: np.ndarray) -> np.ndarray:
    """Weight vector for a window of 1-based indices."""
    return space.warray[np.asarray(idx, dtype=int) - 1]


def col_norm_p(X: np.ndarray, p: float) -> np.ndarray:
    return np.sum(np.abs(X) ** p, axis=0) ** (1.0 / p)


def col_norm_2w(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum((X * w[:, None]) ** 2, axis=0))


def col_xp(X: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    return np.maximum(col_norm_p(X, p), col_norm_2w(X, w))


def col_norm(X: np.ndarray, w: np.ndarray, p: float, mode: str) -> np.ndarray:
    """Column norms in mode "xp", "2w" or "p"."""
    if mode == "xp":
        return col_xp(X, w, p)
    if mode == "2w":
        return col_norm_2w(X, w)
    if mode == "p":
        return col_norm_p(X, p)
    raise ValueError(f"unknown norm mode {mode!r}")


def vectors_to_cols(vectors, idx: np.ndarray) -> np.ndarray:
    """Stack sparse vectors as dense columns over a window of 1-based indices."""
    idx = np.asarray(idx, dtype=int)
    pos = {int(i): k for k, i in enumerate(idx)}
    X = np.zeros((len(idx), len(vectors)))
    for j, v in enumerate(vectors):
        for i, c in v.entries.items():
            if i not in pos:
                raise ValueError(f"vector entry at index {i} outside the window")
            X[pos[i], j] = c
    return X


def union_window(vectors) -> np.ndarray:
    """Sorted union of the supports of the given sparse vectors."""
    s: set[int] = set()
    for v in vectors:
        s.update(v.entries)
    return np.array(sorted(s), dtype=int)


def _coordinate_search(
    objective, X: np.ndarray, h: np.ndarray, stop, rounds: int, better=np.greater
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column coordinate search of objective(X) -> per-column values.

    Each round tries +h and -h on every coordinate and keeps a step wherever
    ``better(new, old)`` holds; a column's step halves after a round without
    gain, and the search ends once every step is below ``stop``. Columns are
    independent, so results match a sequential per-column run. Maximizes by
    default; pass ``better=np.less`` to minimize. X is not modified.
    """
    d, n = X.shape
    X = X.copy()
    f = objective(X)
    h = h.copy()
    for _ in range(rounds):
        improved = np.zeros(n, dtype=bool)
        for i in range(d):
            for s in (1.0, -1.0):
                Xc = X.copy()
                Xc[i, :] += s * h
                fc = objective(Xc)
                gain = better(fc, f)
                if np.any(gain):
                    X[i, gain] = Xc[i, gain]
                    f[gain] = fc[gain]
                    improved |= gain
        h[~improved] *= 0.5
        if np.all(h < stop):
            break
    return X, f
