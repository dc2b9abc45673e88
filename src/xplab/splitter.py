"""Constant solving and the ratio split of a unit vector.

Given a projection with measured norms, pick constants (eps_prime, rho,
alpha, beta) satisfying a coupled inequality system, then split a unit
vector fixed by the projection into a small-ratio part (through the
large-coefficient set) and a large-ratio remainder.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .criteria import extract_Ei
from .space import (
    NORM_TOL,
    Check,
    SpVector,
    SupportSet,
    check,
    head_proj,
    norm_2w,
    norm_p,
    ratio,
    restrict,
    verdict,
    xp_norm,
)

__all__ = [
    "InfeasibleConstantsError",
    "SplitConstants",
    "solve_constants",
    "SplitResult",
    "split",
]

_MAX_HALVINGS = 60

# The split claims assume the witness criterion fails past N for these
# constants at every unit vector; finite truncations cannot check a
# universally quantified failure, so results carry it as text.
UNVERIFIED_HYPOTHESIS = (
    "assumes the witness criterion fails for (delta, c, eps) on every "
    "normalized vector supported past N; not verifiable at a finite truncation"
)


class InfeasibleConstantsError(ValueError):
    """The constant system has no solution for these inputs."""


def _positive(name: str, v) -> float:
    try:
        v = float(v)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {v!r}") from None
    if not (math.isfinite(v) and v > 0):
        raise InfeasibleConstantsError(f"{name} must be positive and finite")
    return v


# One home per formula of the constant system; the solver and the
# re-check in SplitConstants both read these.


def _check_premises(delta: float, normP2: float, p: float) -> None:
    if not p > 2:
        raise InfeasibleConstantsError("p must exceed 2")
    if not delta * normP2 < 1.0:
        raise InfeasibleConstantsError(
            f"premise violated: delta = {delta} is not below 1/normP2 = {1.0 / normP2}"
        )


def _beta_cap(delta: float, c: float, eps: float, normP: float, normP2: float) -> float:
    return min((1.0 - delta * normP2) / normP, eps / c)


def _alpha_floor(beta: float, delta: float, normP: float, normP2: float) -> float:
    # both denominators are positive once beta is below its cap
    return max(
        beta * delta * normP2 / (1.0 - beta * normP),
        beta**2 * normP / (1.0 - delta * normP2),
    )


def _rho_cap(beta: float, delta: float, c: float, p: float) -> float:
    e = p / (p - 2.0)
    return min(c**-e * delta ** (2.0 / (p - 2.0)), beta**e)


@dataclass(frozen=True)
class SplitConstants:
    """Solved constants plus the inputs they answer to.

    Construction re-checks the whole inequality system with exact float
    comparisons and raises naming the violated constraint.
    """

    delta: float
    c: float
    eps: float
    normP: float
    normP2: float
    p: float
    alpha: float
    beta: float
    rho: float
    eps_prime: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _positive(f.name, getattr(self, f.name)))
        _check_premises(self.delta, self.normP2, self.p)
        if not self.eps_prime < min(self.eps, self.delta * self.alpha):
            raise InfeasibleConstantsError(
                "eps_prime must be strictly below min(eps, delta*alpha)"
            )
        beta_cap = _beta_cap(self.delta, self.c, self.eps, self.normP, self.normP2)
        if not self.beta < beta_cap:
            raise InfeasibleConstantsError(
                f"beta = {self.beta} must be strictly below {beta_cap}"
            )
        if not self.rho <= self.rho_cap():
            raise InfeasibleConstantsError(
                f"rho = {self.rho} exceeds its cap {self.rho_cap()}"
            )
        if not self.alpha >= self.alpha_floor():
            raise InfeasibleConstantsError(
                f"alpha = {self.alpha} is below its floor {self.alpha_floor()}"
            )
        if not self.beta > self.alpha:
            raise InfeasibleConstantsError("beta must exceed alpha")

    def alpha_floor(self) -> float:
        return _alpha_floor(self.beta, self.delta, self.normP, self.normP2)

    def rho_cap(self) -> float:
        return _rho_cap(self.beta, self.delta, self.c, self.p)

    def to_dict(self) -> dict:
        return asdict(self)


def solve_constants(
    delta: float, c: float, eps: float, normP: float, normP2: float, p: float
) -> SplitConstants:
    """Deterministic schedule for the constant system.

    beta is half its cap; alpha the midpoint of [floor, beta), with beta
    halved (at most 60 times) should that interval ever come up empty;
    rho sits exactly at its cap and eps_prime at half its own. The result
    is re-validated by construction.
    """
    delta, c, eps = _positive("delta", delta), _positive("c", c), _positive("eps", eps)
    normP, normP2 = _positive("normP", normP), _positive("normP2", normP2)
    p = float(p)
    _check_premises(delta, normP2, p)
    beta = 0.5 * _beta_cap(delta, c, eps, normP, normP2)
    for _ in range(_MAX_HALVINGS):
        floor = _alpha_floor(beta, delta, normP, normP2)
        if floor < beta:
            alpha = 0.5 * (floor + beta)
            rho = _rho_cap(beta, delta, c, p)
            eps_prime = 0.5 * min(eps, delta * alpha)
            return SplitConstants(
                delta, c, eps, normP, normP2, p, alpha, beta, rho, eps_prime
            )
        beta *= 0.5
    raise InfeasibleConstantsError(
        "no alpha interval after 60 beta halvings; inputs leave no room"
    )


@dataclass(frozen=True)
class SplitResult:
    """The split of x: large-coefficient set, its image y, remainder z.

    ratios holds (r(x), r(y), r(z)); a degenerate part reports None.
    checks carries the two claims and the two intermediate bounds with
    numbers; claims are evaluated regardless of the premise, whose status
    is recorded separately. assumed restates the unverifiable hypothesis.
    """

    E_x: SupportSet
    y: SpVector
    z: SpVector
    ratios: tuple[float, float | None, float | None]
    checks: tuple[Check, ...]
    premise_met: bool
    degenerate_y: bool
    degenerate_z: bool
    N: int
    constants: SplitConstants
    assumed: str = UNVERIFIED_HYPOTHESIS

    @property
    def claims_ok(self) -> bool:
        return verdict(self.checks)

    def to_dict(self) -> dict:
        return {
            "E_x": self.E_x,
            "y": self.y,
            "z": self.z,
            "ratios": {
                "x": self.ratios[0],
                "y": self.ratios[1],
                "z": self.ratios[2],
            },
            "checks": [c.to_dict() for c in self.checks],
            "premise_met": self.premise_met,
            "degenerate_y": self.degenerate_y,
            "degenerate_z": self.degenerate_z,
            "N": self.N,
            "constants": self.constants.to_dict(),
            "assumed": self.assumed,
            "claims_ok": self.claims_ok,
        }


def split(x: SpVector, N: int, consts: SplitConstants, P) -> SplitResult:
    """Split a unit vector fixed by P along its large-coefficient set.

    Preconditions, each raising by name: xp_norm(x) = 1 to NORM_TOL; no support
    at or below N; alpha < ratio(x) < beta; x within NORM_TOL of its own image
    under P. The result reports r(y) <= alpha and r(z) >= beta plus the
    dropped-part p-norm and total 2w-norm bounds, with the premise
    |x on E_x|_2w < delta |x|_2w recorded but never enforced.
    """
    N = int(N)
    if N < 0:
        raise ValueError("N must be nonnegative")
    nx = xp_norm(x)
    if abs(nx - 1.0) > NORM_TOL:
        raise ValueError(f"precondition 'norm' violated: xp_norm(x) = {nx}")
    if not head_proj(x, N).is_zero():
        raise ValueError(f"precondition 'support' violated: x has entries at or below {N}")
    rx = ratio(x)
    if not (consts.alpha < rx < consts.beta):
        raise ValueError(
            f"precondition 'ratio window' violated: ratio(x) = {rx} is outside "
            f"({consts.alpha}, {consts.beta})"
        )
    img = P.apply(x)
    drift = xp_norm(x - img)
    if drift > NORM_TOL:
        raise ValueError(
            f"precondition 'range membership' violated: xp_norm(x - Px) = {drift}"
        )

    E_x = extract_Ei(x, x.support, consts.rho)
    y = P.apply(restrict(x, E_x))
    z = x - y
    p = x.space.p

    r_y = None if y.is_zero() else ratio(y)
    r_z = None if z.is_zero() else ratio(z)
    dropped_p = norm_p(restrict(x, x.support.difference(E_x)))
    x2 = norm_2w(x)
    xE2 = norm_2w(restrict(x, E_x))

    checks = (
        check(
            "small_part_ratio",
            r_y if r_y is not None else 0.0,
            "<=",
            consts.alpha,
            applicable=r_y is not None,
            note="" if r_y is not None else "y = 0; nothing to bound",
        ),
        check(
            "large_part_ratio",
            r_z if r_z is not None else 0.0,
            ">=",
            consts.beta,
            applicable=r_z is not None,
            note="" if r_z is not None else "z = 0; remainder is degenerate",
        ),
        check("dropped_p_norm", dropped_p, "<=", consts.rho ** ((p - 2.0) / p)),
        check("total_2w_norm", x2, "<=", consts.beta),
    )
    return SplitResult(
        E_x=E_x,
        y=y,
        z=z,
        ratios=(rx, r_y, r_z),
        checks=checks,
        premise_met=bool(xE2 < consts.delta * x2),
        degenerate_y=y.is_zero(),
        degenerate_z=z.is_zero(),
        N=N,
        constants=consts,
    )
