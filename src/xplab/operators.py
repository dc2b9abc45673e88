"""Block projections, Gram projections and seeded norm estimators.

A block system is a disjointly supported family of blocks sharing global
constants (delta, c); its projection sends x to the sum of functional values
times block vectors and is bounded by max(1/delta, c) in the space norm for
systems of unit blocks. A Gram projector is the orthogonal projection onto a
finite span in the weighted inner product. An operator norm comes as a
certified bracket [lower, upper]: closed in the 2w norm (an SVD), and in the
xp norm a sampled witness under a computed bound, since exact p->p norms are
NP-hard to approximate. That witness and the ratio extrema over spans come
from seeded sphere sampling plus a coordinate ascent that carries the images
(x and A x, or B a) and updates only the rows each step touches; a dense-grid
oracle for small dimensions lives in :mod:`xplab.oracle`.

Every operator here shares one protocol: ``space``, ``window`` (the sorted
1-based indices it reads and writes), ``matrix`` (its dense action on the
window) and ``apply(x)``. The projections build ``matrix`` on first use,
after the ``DENSE_WINDOW_CAP`` check; ``apply`` stays sparse and works on
windows of any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import _dense
from ._dense import col_norm, union_window, vectors_to_cols, window_weights
from .blocks import Block, block_conditions, functional_apply
from .space import (
    NORM_TOL,
    SpVector,
    WeightedSpace,
    holds,
    norm_2w,
    norm_p,  # unused here; bench/tests/test_bench_tracing.py asserts operators.norm_p
    ratio,
    xp_norm,
)

__all__ = [
    "BlockSystem",
    "BlockProjection",
    "GramProjector",
    "DenseOperator",
    "OpNormEstimate",
    "prop12_bound",
    "ratio_bounds_check",
    "estimate_opnorm",
    "opnorm_upper",
    "estimate_r_sup",
    "estimate_h_inf",
    "prop26_chain",
]

# Windows larger than this refuse dense materialization; estimators are
# desk-scale tools, not production solvers.
DENSE_WINDOW_CAP = 4096

GRAM_COND_GUARD = 1e6


def _check_cap(d: int) -> None:
    if d > DENSE_WINDOW_CAP:
        raise ValueError(f"window of {d} exceeds dense cap {DENSE_WINDOW_CAP}")


@dataclass(frozen=True)
class BlockSystem:
    """Disjointly supported blocks with global constants (delta, c).

    Every block must satisfy condition a with the global delta and condition
    b with the global c. When delta or c is omitted the tightest valid value
    is derived from the blocks themselves. ``induced`` records, per block,
    the weight the block would carry in the coefficient space: the largest
    ratio achievable on its E-set. ``normalized`` records whether every block
    vector has unit space norm; the projection norm guarantee is stated for
    normalized systems.
    """

    blocks: tuple[Block, ...]
    delta: float | None = None
    c: float | None = None
    induced: tuple[float, ...] = field(init=False)
    normalized: bool = field(init=False)

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("block system needs at least one block")
        space = blocks[0].space
        if any(b.space != space for b in blocks):
            raise ValueError("blocks live in different spaces")
        seen: set[int] = set()
        for j, b in enumerate(blocks):
            s = set(b.support.indices)
            if seen & s:
                raise ValueError(f"block {j} overlaps an earlier block's support")
            seen |= s
        parts = [(b.vector, b.Eset) for b in blocks]
        delta, c, conditions = block_conditions(parts, self.delta, self.c)
        for j, (a, b) in enumerate(conditions):
            if not a.ok:
                raise ValueError(f"block {j} violates condition a at delta={delta}")
            if not b.ok:
                raise ValueError(f"block {j} violates condition b at c={c}")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "induced", tuple(b.rhs for _, b in conditions))
        object.__setattr__(
            self,
            "normalized",
            all(abs(xp_norm(b.vector) - 1.0) <= NORM_TOL for b in blocks),
        )

    @property
    def space(self) -> WeightedSpace:
        return self.blocks[0].space


@dataclass(frozen=True)
class BlockProjection:
    """x maps to the sum over blocks of functional(x) times the block vector."""

    system: BlockSystem

    @property
    def space(self) -> WeightedSpace:
        return self.system.space

    @cached_property
    def window(self) -> np.ndarray:
        return union_window([b.vector for b in self.system.blocks])

    @cached_property
    def matrix(self) -> np.ndarray:
        # column j of Z is block j's vector, column j of F its functional: the
        # core times u twice, for u the weights over the core's 2w norm
        idx = self.window
        _check_cap(len(idx))
        blocks = self.system.blocks
        cores = [b.core() for b in blocks]
        Z = vectors_to_cols([b.vector for b in blocks], idx)
        u = window_weights(self.space, idx)[:, None] / np.array([norm_2w(core) for core in cores])
        F = vectors_to_cols(cores, idx) * u * u
        return Z @ F.T

    def apply(self, x: SpVector) -> SpVector:
        """Apply the block projection to x.

        Fixes every block vector and is idempotent: the functionals are
        biorthogonal to the blocks because supports are pairwise disjoint and
        each functional reads only its own E-set.
        """
        if x.space != self.space:
            raise ValueError("x lives in a different space than the projection")
        acc: dict[int, float] = {}
        for b in self.system.blocks:
            t = functional_apply(b, x, form="restricted")
            if t == 0.0:
                continue
            for i, v in b.vector.entries.items():
                acc[i] = acc.get(i, 0.0) + t * v
        return SpVector(self.space, acc)


def prop12_bound(sys: BlockSystem) -> float:
    """Operator norm bound max(1/delta, c) for the system's projection."""
    return max(1.0 / sys.delta, sys.c)


@dataclass(frozen=True)
class RatioWindowRow:
    index: int
    lo: float
    r: float
    hi: float
    ok: bool


def ratio_bounds_check(sys: BlockSystem) -> list[RatioWindowRow]:
    """Per-block window (1/c) * w' <= ratio(z) <= (1/delta) * w'.

    w' is the induced weight of the block. The window is a theorem for unit
    blocks satisfying both conditions; rows report violations rather than
    raising so that counterexample systems can be inspected.
    """
    rows = []
    for j, (b, wprime) in enumerate(zip(sys.blocks, sys.induced)):
        r, lo, hi = ratio(b.vector), wprime / sys.c, wprime / sys.delta
        rows.append(RatioWindowRow(j, lo, r, hi, holds(r, ">=", lo) and holds(r, "<=", hi)))
    return rows


class GramProjector:
    """Orthogonal projection onto span(basis) in the weighted inner product.

    With W the window weights and B the basis columns, it is W^-1 U U^T W
    for U the orthonormal factor of a QR of W B, after the columns of B and
    then of W B are scaled to unit 2-norm. Scaling a column keeps the span, and
    no weight or entry is squared. A basis whose k x k factor R has condition
    number above GRAM_COND_GUARD is too close to dependent and is rejected.
    """

    def __init__(self, basis: Sequence[SpVector]):
        self.basis = tuple(basis)
        self.space, self.window, B, self._w = _dense.dense_window(
            self.basis, "gram projector needs a nonempty basis",
            "basis vectors live in different spaces")
        if not B.any(axis=0).all():
            raise ValueError("basis vectors must be nonzero")
        self._U, R = np.linalg.qr(_dense.unit_columns(_dense.unit_columns(B) * self._w[:, None]))
        cond = float(np.linalg.cond(R)) if len(R) == B.shape[1] else math.inf
        if not math.isfinite(cond) or cond > GRAM_COND_GUARD:
            raise ValueError(
                f"gram basis condition number {cond:.3g} exceeds guard {GRAM_COND_GUARD:.3g}"
            )
        self._opnorm_memo: dict = {}

    @cached_property
    def matrix(self) -> np.ndarray:
        _check_cap(len(self.window))
        return (self._U / self._w[:, None]) @ (self._U.T * self._w[None, :])

    def apply(self, x: SpVector) -> SpVector:
        """Project x onto the span in the weighted inner product."""
        if x.space != self.space:
            raise ValueError("x lives in a different space than the projector")
        col = self._U @ (self._U.T @ (self._w * _dense.vector_to_col(x, self.window))) / self._w
        return _dense.col_to_vector(self.space, self.window, col)

    def opnorm(self, mode: str = "xp", budget: int = 256, seed: int = 0) -> "OpNormEstimate":
        key = (mode, int(budget), int(seed))
        if key not in self._opnorm_memo:
            self._opnorm_memo[key] = estimate_opnorm(self, mode=mode, budget=budget, seed=seed)
        return self._opnorm_memo[key]


class DenseOperator:
    """A linear map that reads and writes only a window of coordinates.

    The matrix acts on the window's coefficient vector; coordinates outside
    the window are ignored on input and zero on output. That is exactly the
    shape of block and Gram projections, and it means the operator norm over
    the whole space is attained on window-supported vectors.
    """

    def __init__(self, space, matrix, window=None):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        _check_cap(len(matrix))
        if window is None:
            window = np.arange(1, matrix.shape[0] + 1)
        window = np.asarray(window, dtype=int)
        if len(window) != matrix.shape[0]:
            raise ValueError("window length must match the matrix size")
        for i in window:
            space.check_index(int(i))
        self.space = space
        self.matrix = matrix
        self.window = window

    def apply(self, x: SpVector) -> SpVector:
        col = self.matrix @ _dense.vector_to_col(x, self.window)
        return _dense.col_to_vector(self.space, self.window, col)


@dataclass(frozen=True)
class OpNormEstimate:
    """Certified bracket lower <= ||A|| <= upper on an operator norm.

    ``lower`` equals the norm ratio of ``witness`` recomputed through the
    operator's own apply path, so an actual vector certifies it. ``upper`` is
    an analytic bound (see :func:`estimate_opnorm`).
    """

    lower: float
    upper: float
    witness: SpVector


def _steps(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First steps and stop of an ascent of a scale-invariant score, relative to each column."""
    scale = np.maximum(np.max(np.abs(X), axis=0), 1e-12)
    return 0.5 * scale, 1e-9 * scale


def _weighted(op, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """The window weights and W A W^-1, whose spectral norm is the 2w norm."""
    if mode not in ("xp", "2w"):
        raise ValueError(f"unknown operator norm mode {mode!r}")
    w = window_weights(op.space, op.window)
    with np.errstate(over="ignore", invalid="ignore"):
        M = op.matrix * w[:, None] / w[None, :]
    if not np.all(np.isfinite(M)):
        raise _out_of_range(mode)
    return w, M


def _out_of_range(mode: str) -> ValueError:
    return ValueError(f"the {mode} operator norm is not finite in double precision")


def opnorm_upper(op, mode: str = "xp") -> float:
    """Certified upper bound on an operator norm in mode "xp" or "2w".

    2w: sigma_max(W A W^-1), the norm itself. xp: max(||A||_1^(1/p)
    ||A||_inf^(1-1/p) (Riesz-Thorin), 2w norm), capped for a normalized block
    projection by max(1/delta, c) (1 + NORM_TOL), the factor covering blocks
    whose xp norm is 1 only to within NORM_TOL. A bound outside the double
    range raises ValueError.
    """
    _, M = _weighted(op, mode)
    upper = float(np.linalg.norm(M, 2))
    if mode == "xp":
        A, p = op.matrix, op.space.p
        with np.errstate(over="ignore"):
            n1, ninf = np.linalg.norm(A, 1), np.linalg.norm(A, np.inf)
        upper = max(float(n1 ** (1 / p) * ninf ** (1 - 1 / p)), upper)  # Riesz-Thorin
        if isinstance(op, BlockProjection) and op.system.normalized:
            upper = min(upper, prop12_bound(op.system) * (1.0 + NORM_TOL))
    if not math.isfinite(upper):
        raise _out_of_range(mode)
    return upper


def estimate_opnorm(
    op,
    mode: str = "xp",
    budget: int = 256,
    seed: int = 0,
    rounds: int = 16,
) -> OpNormEstimate:
    """Certified bracket [lower, upper] on an operator norm in mode "xp" or "2w".

    upper is :func:`opnorm_upper`; lower is the witness's norm ratio
    recomputed through op.apply. 2w: the witness is W^-1 v for the top right
    singular vector v of W A W^-1, so the bracket closes. xp: budget seeded
    sphere directions (reproducible, monotone in budget) are polished by
    coordinate ascent. A nonzero norm outside the double range raises
    ValueError.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    upper = opnorm_upper(op, mode)
    w, M = _weighted(op, mode)
    p = op.space.p
    if mode == "2w":
        col = np.linalg.svd(M)[2][0] / w
    else:
        d = len(op.window)
        X = _dense._sample_columns(d, int(budget), seed)
        h, stop = _steps(X)
        (A,) = _dense.into_range([op.matrix], X, h, rounds, p)  # the ratio is homogeneous in A

        def score(Sp, S2):
            norms = np.maximum(Sp ** (1 / p), np.sqrt(S2))  # of X, then of A X
            return np.where(norms[0] > 0, norms[1] / np.maximum(norms[0], 1e-300), -np.inf)

        X, f = _dense._coordinate_search(score, [(None, 0), (A, 0)], w, p, X, h, stop, rounds)
        col = X[:, int(np.argmax(f))]
        col = col / col_norm(col[:, None], w, p, mode)[0]
    if not np.all(np.isfinite(col)):
        raise _out_of_range(mode)
    norm = xp_norm if mode == "xp" else norm_2w
    witness = _dense.col_to_vector(op.space, op.window, col)
    try:
        num, den = norm(op.apply(witness)), norm(witness)
    except OverflowError:
        raise _out_of_range(mode) from None
    if den == 0.0:
        raise _out_of_range(mode)
    return OpNormEstimate(num / den, upper, witness)


def _extremize_ratio(V, sense: int, budget: int, seed: int) -> float:
    space, _, B, w = _dense.dense_window(V, "span estimate needs at least one vector",
                                         "span vectors live in different spaces")
    if not B.any(axis=0).all():
        raise ValueError("span vectors must be nonzero")
    B = _dense.unit_columns(B)  # the same span, searched through unit columns
    s = np.linalg.svd(B, compute_uv=False)
    if s[-1] < 1e-10 * s[0]:
        raise ValueError("span vectors are linearly dependent")
    p = space.p
    k = B.shape[1]
    starts = [np.eye(k)]
    if budget > 0:
        starts.append(_dense._sample_columns(k, int(budget), seed))
    A0 = np.concatenate(starts, axis=1)
    h, stop = _steps(A0)

    def score(Sp, S2):
        den = Sp[0] ** (1 / p)
        vals = sense * (np.sqrt(S2[0]) / np.maximum(den, 1e-300))
        # dead columns must lose regardless of search direction
        return np.where(den > 0, vals, -np.inf)

    _, fvals = _dense._coordinate_search(score, [(B, 0)], w, p, A0, h, stop, 20)
    best = float(np.max(fvals))
    if not np.isfinite(best):
        raise ValueError("ratio extremum search degenerated")
    return sense * best


def estimate_r_sup(V: Sequence[SpVector], budget: int = 192, seed: int = 0) -> float:
    """Estimated supremum of the 2-vs-p ratio over the unit sphere of span(V)."""
    return _extremize_ratio(V, +1, budget, seed)


def estimate_h_inf(V: Sequence[SpVector], budget: int = 192, seed: int = 0) -> float:
    """Estimated infimum of the 2-vs-p ratio over the unit sphere of span(V)."""
    return _extremize_ratio(V, -1, budget, seed)


@dataclass(frozen=True)
class ChainResult:
    lhs: float
    rhs: float
    ratio_x: float
    opnorm_lower: float
    opnorm_upper_used: float
    ok: bool


def prop26_chain(
    Q: GramProjector,
    bprime: float,
    x: SpVector,
    *,
    budget: int = 192,
    seed: int = 0,
) -> ChainResult:
    """Norm chain for a span whose unit vectors all have ratio >= bprime.

    lhs is xp_norm(Qx); rhs is opnorm(Q)^(1/2) * ratio(x)^(1/2) * xp_norm(x)
    / bprime, with opnorm(Q) the certified xp upper bound (recorded). bprime
    is taken as given and certified by nothing here: a sampled search such as
    estimate_h_inf can only overestimate the infimum of the ratio, so a bprime
    taken below its value (criterion 7 takes 0.9 of it) is a margin, not a proof.
    """
    if x.is_zero():
        raise ValueError("chain undefined at the zero vector")
    bprime = float(bprime)
    if not 0 < bprime <= 1:
        raise ValueError("bprime must lie in (0, 1]")
    est = Q.opnorm(mode="xp", budget=budget, seed=seed)
    upper = est.upper
    r = ratio(x)
    lhs = xp_norm(Q.apply(x))
    rhs = math.sqrt(upper) * math.sqrt(r) * xp_norm(x) / bprime
    return ChainResult(lhs, rhs, r, est.lower, upper, holds(lhs, "<=", rhs))
