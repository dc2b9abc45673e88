"""Finite truncations of weighted sequence spaces with a two-norm geometry.

A space is a pair (p, w): an exponent p > 2 and positive weights w_1..w_D.
Vectors are sparse coefficient maps on 1-based indices. The space norm is the
maximum of the plain p-norm and the weighted 2-norm; everything downstream
(extremal blocks, projections, criteria) is built from the handful of
primitives defined here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "MAX_DIM",
    "holds",
    "Check",
    "check",
    "verdict",
    "SpaceMismatchError",
    "SupportSet",
    "WeightedSpace",
    "SpVector",
    "basis_vector",
    "from_pairs",
    "norm_p",
    "norm_2w",
    "xp_norm",
    "ratio",
    "omega",
    "max_ratio",
    "inner",
    "restrict",
    "head_proj",
    "tail_proj",
]

MAX_DIM = 65536

# The relative slack of every inequality verdict in the lab, through holds():
# it allows float roundoff only.
SLACK = 1e-12

# How far from 1 a vector's space norm may sit and still count as normalized.
NORM_TOL = 1e-9

_SMALLEST_NORMAL = sys.float_info.min


def holds(lhs, op, rhs):
    """The lab's one verdict rule: lhs op rhs, loosened by SLACK * max(|lhs|, |rhs|).

    op is "<", "<=", ">=" or ">". The pad is relative, so a verdict does not
    depend on the scale of its sides, and an infinite side gets none, so it
    never passes a bound through the pad. Two floats take the scalar path;
    anything else, numpy arrays above all, is judged elementwise.
    """
    if type(lhs) is float and type(rhs) is float:
        a, b = abs(lhs), abs(rhs)
        pad = SLACK * (a if a > b else b)
        if pad == math.inf:
            pad = 0.0
    else:
        pad = SLACK * np.maximum(np.abs(lhs), np.abs(rhs))
        pad = np.where(pad < math.inf, pad, 0.0)
    if op == "<=":
        return lhs <= rhs + pad
    if op == ">=":
        return lhs >= rhs - pad
    if op == "<":
        return lhs < rhs + pad
    if op == ">":
        return lhs > rhs - pad
    raise ValueError(f"unknown comparison {op!r}")


@dataclass(frozen=True)
class Check:
    """One named inequality: lhs op rhs, with the verdict and applicability."""

    name: str
    lhs: float
    op: str
    rhs: float
    ok: bool
    applicable: bool = True
    note: str = ""

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in ("name", "lhs", "op", "rhs", "ok", "applicable")}
        if self.note:
            d["note"] = self.note
        return d


def check(name, lhs, op, rhs, *, applicable=True, note="") -> Check:
    """The Check of lhs op rhs as floats, judged by :func:`holds`."""
    lhs, rhs = float(lhs), float(rhs)
    return Check(name, lhs, op, rhs, bool(holds(lhs, op, rhs)), bool(applicable), note)


def verdict(checks) -> bool:
    """Verdict of a set of checks: every applicable one holds."""
    return all(c.ok for c in checks if c.applicable)


class SpaceMismatchError(ValueError):
    """Raised when two operands belong to different weighted spaces."""


@dataclass(frozen=True)
class SupportSet:
    """A finite set of positive 1-based indices, kept sorted and duplicate-free."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted({int(i) for i in self.indices}))
        if any(i < 1 for i in idx):
            raise ValueError("support indices must be positive (1-based)")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, it: Iterable[int]) -> "SupportSet":
        return cls(tuple(it))

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in set(self.indices)

    def union(self, other: "SupportSet") -> "SupportSet":
        return SupportSet.of(set(self.indices) | set(other.indices))

    def intersection(self, other: "SupportSet") -> "SupportSet":
        return SupportSet.of(set(self.indices) & set(other.indices))

    def difference(self, other: "SupportSet") -> "SupportSet":
        return SupportSet.of(set(self.indices) - set(other.indices))

    def issubset(self, other: "SupportSet") -> bool:
        return set(self.indices) <= set(other.indices)

    def isdisjoint(self, other: "SupportSet") -> bool:
        return set(self.indices).isdisjoint(other.indices)


def _as_indices(E) -> tuple[int, ...]:
    if isinstance(E, SupportSet):
        return E.indices
    return SupportSet.of(E).indices


@dataclass(frozen=True)
class WeightedSpace:
    """Exponent p > 2 and positive weights; dimension is len(weights).

    The weights are checked as one float array: they must form a nonempty
    flat sequence of at most ``MAX_DIM`` positive finite numbers. They are
    kept twice, as ``weights``, a tuple of Python floats, and as ``warray``,
    the read-only array that was checked. Two spaces are equal when they are
    the same object, or when their exponents and weight arrays are equal.

    The three derived exponents are cached on first use:

    * ``mass_exp``  = 2p/(p-2), the power in the weight mass of a set,
    * ``coeff_exp`` = 2/(p-2), the power giving extremal block coefficients,
    * ``ratio_exp`` = (p-2)/(2p), the power giving the largest 2-vs-p ratio.

    ``mass_exp * ratio_exp == 1`` is asserted to machine precision.
    """

    p: float
    weights: tuple[float, ...]

    def __post_init__(self):
        p = float(self.p)
        if not (p > 2.0):
            raise ValueError(f"exponent must satisfy p > 2, got {p}")
        if not math.isfinite(p):
            raise ValueError("exponent must be finite")
        try:
            a = np.array(self.weights, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("weights must be a flat sequence of numbers") from None
        if a.ndim != 1:
            raise ValueError("weights must be a flat sequence of numbers")
        if len(a) == 0:
            raise ValueError("weights must be nonempty")
        if len(a) > MAX_DIM:
            raise ValueError(f"{len(a)} weights exceed the dimension cap {MAX_DIM}")
        # a NaN weight makes the minimum NaN, which fails the comparison
        if not (a.min() > 0.0 and a.max() < math.inf):
            raise ValueError("weights must be positive and finite")
        a.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "weights", tuple(a.tolist()))
        object.__setattr__(self, "warray", a)
        if abs(self.mass_exp * self.ratio_exp - 1.0) > 1e-12:
            raise ValueError("derived exponents are inconsistent at this p")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, WeightedSpace):
            return NotImplemented
        return self.p == other.p and bool(np.array_equal(self.warray, other.warray))

    def __hash__(self) -> int:
        return hash((self.p, self.weights))

    @cached_property
    def dim(self) -> int:
        return len(self.weights)

    @cached_property
    def mass_exp(self) -> float:
        return 2.0 * self.p / (self.p - 2.0)

    @cached_property
    def coeff_exp(self) -> float:
        return 2.0 / (self.p - 2.0)

    @cached_property
    def ratio_exp(self) -> float:
        return (self.p - 2.0) / (2.0 * self.p)

    def weight(self, n: int) -> float:
        if not 1 <= n <= self.dim:
            raise ValueError(f"index {n} outside 1..{self.dim}")
        return self.weights[n - 1]

    def check_index(self, n: int) -> int:
        n = int(n)
        if not 1 <= n <= self.dim:
            raise ValueError(f"index {n} outside 1..{self.dim}")
        return n


@dataclass(frozen=True)
class SpVector:
    """Sparse vector: finitely many (index, coefficient) pairs in a space.

    Exact zeros are dropped on construction so the stored support is the
    true support. Instances are treated as immutable values.
    """

    space: WeightedSpace
    entries: Mapping[int, float]

    def __post_init__(self):
        cleaned: dict[int, float] = {}
        for i, v in self.entries.items():
            i = self.space.check_index(i)
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"coefficient at index {i} is not finite")
            if v != 0.0:
                cleaned[i] = v
        object.__setattr__(self, "entries", cleaned)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpVector):
            return NotImplemented
        return self.space == other.space and self.entries == other.entries

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.entries.items()))))

    @property
    def support(self) -> SupportSet:
        return SupportSet.of(self.entries)

    def __getitem__(self, i: int) -> float:
        return self.entries.get(int(i), 0.0)

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "SpVector") -> "SpVector":
        _same_space(self, other)
        out = dict(self.entries)
        for i, v in other.entries.items():
            out[i] = out.get(i, 0.0) + v
        return SpVector(self.space, out)

    def __sub__(self, other: "SpVector") -> "SpVector":
        _same_space(self, other)
        out = dict(self.entries)
        for i, v in other.entries.items():
            out[i] = out.get(i, 0.0) - v
        return SpVector(self.space, out)

    def __mul__(self, t: float) -> "SpVector":
        t = float(t)
        return SpVector(self.space, {i: t * v for i, v in self.entries.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "SpVector":
        return self * -1.0


def _same_space(x: SpVector, y: SpVector) -> None:
    if x.space != y.space:
        raise SpaceMismatchError("operands live in different weighted spaces")


def basis_vector(space: WeightedSpace, n: int) -> SpVector:
    return SpVector(space, {space.check_index(n): 1.0})


def from_pairs(space: WeightedSpace, pairs: Iterable[tuple[int, float]]) -> SpVector:
    out: dict[int, float] = {}
    for i, v in pairs:
        i = space.check_index(i)
        out[i] = out.get(i, 0.0) + float(v)
    return SpVector(space, out)


# Every power sum of the lab goes through _root_sum: the two norms, and
# max_ratio, the l_q norm of the weights on E at q = mass_exp. The plain sum is
# taken whenever it lands in the normal double range. Only a sum that overflows
# or falls below the smallest normal double rescales its terms.


def _root_sum(terms, q: float, root: float) -> float:
    """(sum of |t| ** q) ** root for root = 1/q; OverflowError past the double range.

    Past the normal range the terms, which must be iterable twice, are first
    divided by the largest |t|, which brings the sum into [1, len(terms)].
    """
    m = 1.0
    try:
        s = math.fsum(abs(t) ** q for t in terms)
    except OverflowError:
        s = math.inf
    if not _SMALLEST_NORMAL <= s < math.inf:
        m = max(map(abs, terms), default=0.0)
        if m == 0.0:
            return 0.0
        s = math.fsum((abs(t) / m) ** q for t in terms)
    out = m * (math.sqrt(s) if q == 2.0 else s**root)
    if not math.isfinite(out):
        raise OverflowError("norm exceeds the double range")
    return out


def norm_p(x: SpVector) -> float:
    """Plain p-norm of the coefficients; OverflowError past the double range."""
    p = x.space.p
    return _root_sum(x.entries.values(), p, 1.0 / p)


def norm_2w(x: SpVector) -> float:
    """Weighted 2-norm (coefficients times weights); OverflowError past the double range."""
    w = x.space.weights
    return _root_sum([v * w[i - 1] for i, v in x.entries.items()], 2.0, 0.5)


def xp_norm(x: SpVector) -> float:
    """The space norm: max of the p-norm and the weighted 2-norm."""
    return max(norm_p(x), norm_2w(x))


def ratio(x: SpVector) -> float:
    """2-vs-p ratio norm_2w(x)/norm_p(x); undefined at zero."""
    np_ = norm_p(x)
    if np_ == 0.0:
        raise ValueError("ratio undefined for the zero vector")
    return norm_2w(x) / np_


def omega(space: WeightedSpace, E) -> float:
    """Weight mass of an index set: sum of w_n ** (2p/(p-2)) over E.

    Indices must lie in 1..dim. A mass past the double range is inf; one whose
    terms underflow loses them. Scale-free code uses :func:`max_ratio`, its root.
    """
    q = space.mass_exp
    try:
        return math.fsum(space.weight(n) ** q for n in _as_indices(E))
    except OverflowError:
        return math.inf


def max_ratio(space: WeightedSpace, E) -> float:
    """Largest 2-vs-p ratio achievable by vectors supported on E: omega(E) ** ((p-2)/2p).

    It is the l_q norm of the weights on E at q = mass_exp, computed as the
    norms are, so it stays finite and nonzero wherever the weights are.
    """
    return _root_sum([space.weight(n) for n in _as_indices(E)], space.mass_exp, space.ratio_exp)


def inner(x: SpVector, y: SpVector) -> float:
    """Weighted inner product: sum of (w_n x_n) (w_n y_n)."""
    _same_space(x, y)
    a, b = x.entries, y.entries
    if len(b) < len(a):
        a, b = b, a
    w = x.space.weights
    return math.fsum((v * w[i - 1]) * (b[i] * w[i - 1]) for i, v in a.items() if i in b)


def restrict(x: SpVector, E) -> SpVector:
    """Coordinate restriction of x to the index set E."""
    keep = set(_as_indices(E))
    for n in keep:
        x.space.check_index(n)
    return SpVector(x.space, {i: v for i, v in x.entries.items() if i in keep})


def head_proj(x: SpVector, n: int) -> SpVector:
    """Restriction to indices <= n."""
    n = int(n)
    return SpVector(x.space, {i: v for i, v in x.entries.items() if i <= n})


def tail_proj(x: SpVector, N: int) -> SpVector:
    """Restriction to indices > N."""
    N = int(N)
    return SpVector(x.space, {i: v for i, v in x.entries.items() if i > N})
