"""Extremal blocks, admissible blocks and their evaluation functionals.

On an index set I the coefficient profile w_n ** (2/(p-2)) maximizes the
2-vs-p ratio among vectors supported on I; we call that vector the extremal
(Rosenthal) block of I. A general block carries a support F, a distinguished
subset E, and constants (delta, c) tying the mass of its E-part to the weight
mass of E. Each block induces a scalar functional through the weighted inner
product; the Holder chain bounds what that functional can see.
"""

from __future__ import annotations

from dataclasses import dataclass

from .space import (
    Check,
    SpVector,
    SupportSet,
    WeightedSpace,
    check,
    holds,
    inner,
    max_ratio,
    norm_2w,
    norm_p,
    ratio,
    restrict,
)

__all__ = [
    "RosenthalBlock",
    "Block",
    "make_rosenthal",
    "make_block",
    "block_conditions",
    "functional_apply",
    "HolderBounds",
    "holder_bounds",
    "extremality_check",
]


@dataclass(frozen=True)
class RosenthalBlock:
    """Extremal block of an index set: coefficients w_n ** (2/(p-2)) on I."""

    support: SupportSet
    vector: SpVector

    @property
    def space(self) -> WeightedSpace:
        return self.vector.space


@dataclass(frozen=True)
class Block:
    """General block: vector z on support F, subset E, constants (delta, c).

    Condition a: norm_2w(z restricted to E) >= delta * norm_2w(z).
    Condition b: c * norm_2w(z restricted to E) >= omega(E) ** ((p-2)/2p).

    ``conditions`` records the Checks of a and b made at construction time.
    Use make_block(..., require=False) to build failing blocks on purpose.
    """

    support: SupportSet
    Eset: SupportSet
    vector: SpVector
    delta: float
    c: float
    conditions: tuple[Check, Check]

    @property
    def space(self) -> WeightedSpace:
        return self.vector.space

    def core(self) -> SpVector:
        """The E-part of the block vector."""
        return restrict(self.vector, self.Eset)


def make_rosenthal(space: WeightedSpace, I) -> RosenthalBlock:
    """Extremal block of I; its norm identities are verified at build time.

    With r = max_ratio(I), norm_2w equals r ** (mass_exp/2), norm_p equals
    r ** coeff_exp and the ratio equals r, all to 1e-10 relative.
    """
    sup = I if isinstance(I, SupportSet) else SupportSet.of(I)
    if len(sup) == 0:
        raise ValueError("extremal block needs a nonempty index set")
    e = space.coeff_exp
    vec = SpVector(space, {n: space.weight(n) ** e for n in sup})
    r = max_ratio(space, sup)
    checks = (
        (norm_2w(vec), r ** (space.mass_exp / 2.0)),
        (norm_p(vec), r**e),
        (ratio(vec), r),
    )
    for got, want in checks:
        if not holds(abs(got - want), "<=", 1e-10 * abs(want)):
            raise ValueError(
                f"extremal block identities broke down numerically: {got} vs {want}"
            )
    return RosenthalBlock(sup, vec)


def block_conditions(parts, delta=None, c=None) -> tuple[float, float, list]:
    """Conditions a and b of blocks (z, E) under shared constants (delta, c).

    Each block's masses norm_2w(z_E), norm_2w(z) and omega(E) ** ((p-2)/2p)
    are computed once. An omitted constant is the tightest one valid for every
    block: delta = min norm_2w(z_E) / norm_2w(z), c = max omega(E) **
    ((p-2)/2p) / norm_2w(z_E); deriving one needs mass on every E-set.
    Returns delta, c and each block's (condition_a, condition_b) Checks.
    """
    masses = [(norm_2w(restrict(z, E)), norm_2w(z), max_ratio(z.space, E)) for z, E in parts]
    if (delta is None or c is None) and any(core2 == 0.0 for core2, _, _ in masses):
        raise ValueError("block has zero mass on its E-set")
    delta = min(core2 / full2 for core2, full2, _ in masses) if delta is None else float(delta)
    c = max(cap / core2 for core2, _, cap in masses) if c is None else float(c)
    if delta <= 0 or c <= 0:
        raise ValueError("delta and c must be positive")
    return delta, c, [
        (check("condition_a", core2, ">=", delta * full2),
         check("condition_b", c * core2, ">=", cap))
        for core2, full2, cap in masses
    ]


def make_block(
    vector: SpVector,
    E,
    delta: float | None = None,
    c: float | None = None,
    *,
    require: bool = True,
) -> Block:
    """Build a block from a vector, a subset of its support and (delta, c).

    An omitted constant is the tightest valid one (see :func:`block_conditions`),
    which turns its condition into an equality; deriving one needs mass on E.
    With require=True (default) a violated condition raises, naming it.
    With require=False the block is built anyway and records both Checks;
    this is how counterexample inputs are constructed.
    """
    if vector.is_zero():
        raise ValueError("block vector must be nonzero")
    sup = vector.support
    Eset = E if isinstance(E, SupportSet) else SupportSet.of(E)
    if not Eset.issubset(sup):
        raise ValueError("E must be a subset of the block support")
    delta, c, [(a, b)] = block_conditions([(vector, Eset)], delta, c)
    if require and not a.ok:
        raise ValueError(
            f"condition a fails: E-part mass {a.lhs:.6g} < delta * {norm_2w(vector):.6g}"
        )
    if require and not b.ok:
        raise ValueError(f"condition b fails: c * {a.lhs:.6g} < omega(E)^ratio_exp = {b.rhs:.6g}")
    return Block(sup, Eset, vector, delta, c, (a, b))


def functional_apply(b: Block | RosenthalBlock, x: SpVector, *, form: str = "restricted") -> float:
    """Value of the block's functional at x.

    For a general block the default form reads only the E coordinates:
    inner(z restricted to E, x) / norm_2w(z restricted to E) ** 2. The
    "full" form uses the whole block vector instead. An extremal block has
    one form: inner(y, x) / norm_2w(y) ** 2.

    Biorthogonality: the functional sends its own block vector to 1.
    """
    if form not in ("restricted", "full"):
        raise ValueError(f"unknown functional form {form!r}")
    if isinstance(b, RosenthalBlock):
        core = b.vector
    else:
        core = b.core() if form == "restricted" else b.vector
    denom = norm_2w(core)
    if denom == 0.0:
        raise ValueError("functional undefined: the normalizing part has zero mass")
    return inner(core, x) / denom / denom


@dataclass(frozen=True)
class HolderBounds:
    """The four quantities of the Holder chain plus verdicts.

    lhs2 = |f(x)| * norm_2w(z), rhs2 = norm_2w(x restricted to supp z),
    lhsp = |f(x)| * norm_p(z), rhsp = norm_p(x restricted to supp z),
    where f is the full-support functional of the block. The chain gives
    lhs2 <= rhs2 unconditionally and lhsp <= c * rhsp whenever c covers the
    block's p-vs-2 shape on its support (c_admissible records that; it is
    always true for extremal blocks, whose c is 1).
    """

    lhs2: float
    rhs2: float
    lhsp: float
    rhsp: float
    c: float
    c_admissible: bool
    ok2: bool
    okp: bool


def holder_bounds(b: Block | RosenthalBlock, x: SpVector) -> HolderBounds:
    """Evaluate the Holder chain of the block's full-support functional at x."""
    f = abs(functional_apply(b, x, form="full"))
    xs = restrict(x, b.support)
    z2, zp = norm_2w(b.vector), norm_p(b.vector)
    lhs2, rhs2, lhsp, rhsp = f * z2, norm_2w(xs), f * zp, norm_p(xs)
    c = 1.0 if isinstance(b, RosenthalBlock) else b.c
    admissible = holds(c * z2, ">=", max_ratio(b.space, b.support) * zp)
    ok2, okp = holds(lhs2, "<=", rhs2), holds(lhsp, "<=", c * rhsp)
    return HolderBounds(lhs2, rhs2, lhsp, rhsp, c, admissible, ok2, okp)


def extremality_check(space: WeightedSpace, I, x: SpVector) -> bool:
    """True iff ratio(x) <= the extremal ratio of I, judged by :func:`holds`.

    x must be nonzero and supported inside I. The extremal ratio is
    omega(I) ** ((p-2)/2p), attained exactly by the extremal block profile.
    """
    sup = I if isinstance(I, SupportSet) else SupportSet.of(I)
    if x.is_zero():
        raise ValueError("extremality undefined for the zero vector")
    if not x.support.issubset(sup):
        raise ValueError("x has support outside I")
    return holds(ratio(x), "<=", max_ratio(space, sup))
