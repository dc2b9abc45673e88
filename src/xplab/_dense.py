"""Vectorized norm kernels over a fixed coordinate window.

The sparse ops in :mod:`xplab.space` are the reference semantics; these
column-wise kernels exist so estimators and batch experiments can evaluate
thousands of vectors without per-vector Python overhead. Tests cross-check
them against the sparse reference. A window is a sorted array of 1-based
indices; the operators of :mod:`xplab.operators` carry one as ``window``
next to their ``matrix``, and the weights and columns here are laid out
over it. ``dense_window`` lays a family of sparse vectors out as columns over
the union of their supports, ``vector_to_col`` and ``col_to_vector`` move one
vector between the forms. A search over a span runs on the span's
``unit_columns``, since scaling a column keeps the span, and one homogeneous
in its data, an operator norm, on the data ``into_range`` keeps in range.
Every seeded stream of the package is built here, by ``_child``, and the
seeded start columns of the estimators by ``_sample_columns``. So is the
coordinate search that polishes them: it searches over affine images c + M X
of the columns and carries them with their power sums, so a step on one
coordinate recomputes only the image rows that the step touches.
"""

from __future__ import annotations

import numpy as np

from .space import SpVector, WeightedSpace


def _child(seed: int, *branch: int) -> np.random.Generator:
    """The generator of the stream (seed, *branch): PCG64 seeded by SeedSequence([seed, *branch])."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, branch)]))


def _sample_columns(d: int, n: int, *branch: int) -> np.ndarray:
    """n standard-normal columns of length d; column k comes from _child(*branch, k)."""
    cols = np.empty((d, n))
    for k in range(n):
        cols[:, k] = _child(*branch, k).standard_normal(d)
    return cols


def window_weights(space: WeightedSpace, idx: np.ndarray) -> np.ndarray:
    """Weight vector for a window of 1-based indices."""
    return space.warray[np.asarray(idx, dtype=int) - 1]


def into_range(data, X: np.ndarray, h, rounds: int, p: float) -> list:
    """A homogeneous search's data (c and M) times 2^-k, so that its power sums stay in range.

    From start columns X of d rows, in ``rounds`` rounds of steps at most h,
    the search forms images c + M x whose entries are at most top growth,
    with top the data's largest |entry| and growth = 1 + d (max|X| + rounds
    max h). Sums over the data's rows stay normal when tiny < top^p and rows
    (top growth)^p < inf. k is 0 when they do, so ordinary data come back as
    they are; otherwise it is the binary exponent of top, which brings the
    data's peak to [1/2, 1). The caller's value must be homogeneous in the data.
    """
    top = max(np.max(np.abs(D)) for D in data)
    growth = 1 + len(X) * (np.max(np.abs(X)) + rounds * np.max(h))
    with np.errstate(over="ignore", under="ignore"):
        if top > 0 and not (np.finfo(float).tiny < top**p
                            and (top * growth) ** p * len(data[0]) < np.inf):
            k = int(np.frexp(top)[1])
            return [np.ldexp(D, -k) for D in data]
    return list(data)


def unit_columns(X: np.ndarray) -> np.ndarray:
    """X with each column scaled by a power of two, so that its norm is in range, then to norm 1.

    A zero column stays zero; a column times 2^k gives the same unit column, bit for bit."""
    X = np.ldexp(X, -np.frexp(np.max(np.abs(X), axis=0))[1])
    return X / np.maximum(np.linalg.norm(X, axis=0), 0.5)  # a nonzero column's norm is now >= 1/2


def col_norm_p(X: np.ndarray, p: float) -> np.ndarray:
    """Column p-norms, unscaled: they overflow or underflow on their own once
    |x|^p leaves the double range (|x| beyond about 1e77 or 1e-77 at p = 4), so
    every search runs them on :func:`unit_columns` or on :func:`into_range` data."""
    return np.sum(np.abs(X) ** p, axis=0) ** (1.0 / p)


def col_norm_2w(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Column weighted 2-norms, with the same range precondition as :func:`col_norm_p`."""
    return np.sqrt(np.sum((X * w[:, None]) ** 2, axis=0))


def col_norm(X: np.ndarray, w: np.ndarray, p: float, mode: str) -> np.ndarray:
    """Column norms in mode "xp", "2w" or "p"."""
    if mode == "xp":
        return np.maximum(col_norm_p(X, p), col_norm_2w(X, w))
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
    return np.array(sorted(set().union(*(v.entries for v in vectors))), dtype=int)


def dense_window(vectors, empty: str = "a dense window needs at least one vector",
                 mixed: str = "vectors live in different spaces"):
    """(space, window, columns, weights) of a family of sparse vectors of one space.

    The window is the union of the supports, the columns are the vectors laid
    out over it, in order, and the weights are the space's over it. An empty
    family raises ValueError(empty), one over several spaces ValueError(mixed).
    """
    vectors = tuple(vectors)
    if not vectors:
        raise ValueError(empty)
    space = vectors[0].space
    if any(v.space != space for v in vectors):
        raise ValueError(mixed)
    idx = union_window(vectors)
    return space, idx, vectors_to_cols(vectors, idx), window_weights(space, idx)


def vector_to_col(x: SpVector, idx: np.ndarray) -> np.ndarray:
    """The entries of x over the window idx; entries outside it are dropped."""
    return np.array([x.entries.get(i, 0.0) for i in idx.tolist()])


def col_to_vector(space: WeightedSpace, idx: np.ndarray, col: np.ndarray) -> SpVector:
    """The sparse vector with entries col over the window idx; exact zeros drop out."""
    return SpVector(space, dict(zip(idx.tolist(), col.tolist())))


def _coordinate_search(
    score, images, w: np.ndarray, p: float, X: np.ndarray, h: np.ndarray, stop, rounds: int,
    better=np.greater,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column coordinate search over affine images of X.

    Each image is a pair (M, c) standing for Y = c + M @ X on the window whose
    weights are w, with M None for the identity; ``score(Sp, S2)`` maps the
    column sums of |Y|^p and of (w Y)^2, one row per image, to per-column
    values. Each round visits every coordinate i once and scores X[i],
    X[i] + h and X[i] - h together: it keeps +h where ``better(new, current)``
    holds, else -h where that holds. A column's step halves after a round
    without gain, and the search ends once every step is below ``stop``.
    Columns are independent. Maximizes by default; pass ``better=np.less`` to
    minimize. X is not modified.

    The search carries every Y and its sums, and a step on coordinate i
    recomputes only the rows where M[:, i] != 0 (row i of the identity): their
    p-th powers at the three points, and the change of the (w Y)^2 sums in
    closed form. Y and the sums are recomputed from scratch at the start of
    every round and on return, so roundoff cannot build up and the returned
    values are exact evaluations at the returned X.
    """
    d, n = X.shape
    w2 = w**2

    def rows(M, i):
        # the rows R a step t on X[i] moves, M[R, i] (None for the identity,
        # whose row i moves by t itself), and lin and quad with which the
        # (w Y)^2 sums change by t lin.Y[R] + t^2 quad. A column that is mostly
        # nonzero is read whole through a view, so what is kept for all
        # coordinates is at most 1.5 times the size of M.
        if M is None:
            return i, None, 2 * w2[i], w2[i]
        R = np.flatnonzero(M[:, i])
        R, col = (slice(None), M[:, i]) if 2 * len(R) > len(M) else (R, M[R, i])
        return R, col[:, None], 2 * w2[R] * col, np.sum(w2[R] * col**2)

    def sums(X):
        # per image, the column sums of |Y|^p and of (w Y)^2 at X
        Ys = [c + (X if M is None else M @ X) for M, c in images]
        return Ys, np.array([[np.sum(np.abs(Y) ** p, axis=0), np.sum((w[:, None] * Y) ** 2, axis=0)]
                             for Y in Ys])

    images = [(M if M is None else np.asarray(M, dtype=float), np.reshape(c, (-1, 1)))
              for M, c in images]
    touched = [[rows(M, i) for M, _ in images] for i in range(d)]
    X = X.copy()
    h = h.copy()
    H = np.zeros((3, n))  # the steps 0, +h and -h
    St = np.empty((len(images), 2, 3, n))  # per image: the sums of |Y|^p and of (w Y)^2 at the steps
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(rounds):
            Ys, S = sums(X)
            H[1] = h
            np.negative(h, out=H[2])
            improved = np.zeros(n, dtype=bool)
            for i, steps in enumerate(touched):
                Yrs = []
                for j, (Y, (R, col, lin, quad)) in enumerate(zip(Ys, steps)):
                    Yr = Y[R]
                    if col is None:
                        Sr, g = np.abs(Yr + H) ** p, lin * Yr
                    else:
                        Z = col[:, None] * H
                        Z += Yr[:, None, :]
                        np.abs(Z, out=Z)
                        Sr, g = (Z**p).sum(0), lin @ Yr
                    np.add(S[j, 0], Sr - Sr[0], out=St[j, 0])
                    np.add(S[j, 1], H * (g + quad * H), out=St[j, 1])
                    Yrs.append(Yr)
                f = score(St[:, 0], St[:, 1])
                gain = better(f[1:], f[0])
                if not gain.any():
                    continue
                up, down = gain
                step = np.where(up, h, np.where(down, -h, 0.0))
                X[i] += step
                for Y, Yr, (R, col, *_) in zip(Ys, Yrs, steps):
                    Y[R] = Yr + (step if col is None else col * step)
                S = np.where(up, St[:, :, 1], np.where(down, St[:, :, 2], S))
                improved |= up | down
            h *= np.where(improved, 1.0, 0.5)
            if (h < stop).all():
                break
        S = sums(X)[1]
        return X, score(S[:, 0], S[:, 1])
