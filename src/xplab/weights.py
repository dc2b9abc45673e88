"""Weight family generators and the small-weight divergence diagnostic.

A weight family is a deterministic rule producing w_1..w_D. The diagnostic
reports partial sums S(eps, D) of the weight mass restricted to weights below
eps; unbounded growth of those sums across every eps is the regime where the
space carries genuinely new structure, and the growth-ratio heuristic flags
it on a finite window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .space import MAX_DIM

__all__ = [
    "WeightFamily",
    "constant_family",
    "power_law_family",
    "geometric_family",
    "doubly_indexed_family",
    "explicit_family",
    "equal_mass_family",
    "generate",
    "rosenthal_diagnostic",
]

KINDS = ("constant", "power-law", "geometric", "doubly-indexed", "explicit")

# S(eps, 2D)/S(eps, D) at or above this across a doubling reads as divergent.
DIVERGENCE_RATIO = 1.5


@dataclass(frozen=True)
class WeightFamily:
    """A named rule for producing the first D weights.

    kinds and their params:

    * "constant": {"value": c}, w_n = c
    * "power-law": {"a": a}, w_n = n ** -a
    * "geometric": {"ratio": q, "scale": s}, w_n = s * q ** n
    * "doubly-indexed": {"level_exp": a, "mult_exp": b}, level weight
      k ** -a repeated ceil(k ** b) times, flattened and cut at D
    * "explicit": {"values": [...]}
    """

    kind: str
    D: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown weight family kind {self.kind!r}")
        object.__setattr__(self, "D", _length(self.D))
        object.__setattr__(self, "params", dict(self.params))
        _validate_params(self.kind, self.params, self.D)


def _length(D) -> int:
    try:
        D = int(D)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"family length D must be an integer, got {D!r}") from None
    if not 1 <= D <= MAX_DIM:
        raise ValueError(f"family length D = {D} must lie in [1, {MAX_DIM}]")
    return D


def _scalar(name: str, v) -> float:
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"weight family parameter {name!r} must be a number, got {v!r}") from None


def _validate_params(kind: str, params: dict, D: int) -> None:
    if kind == "constant":
        v = _scalar("value", params.get("value", 1.0))
        if not (v > 0 and math.isfinite(v)):
            raise ValueError("constant family needs value > 0")
    elif kind == "power-law":
        a = _scalar("a", params.get("a", 0.0))
        if a < 0 or not math.isfinite(a):
            raise ValueError("power-law family needs a >= 0")
    elif kind == "geometric":
        q = _scalar("ratio", params.get("ratio", 0.5))
        s = _scalar("scale", params.get("scale", 1.0))
        if not (0 < q < 1):
            raise ValueError("geometric family needs ratio in (0, 1)")
        if not (s > 0 and math.isfinite(s)):
            raise ValueError("geometric family needs scale > 0")
    elif kind == "doubly-indexed":
        a = _scalar("level_exp", params.get("level_exp", 0.25))
        b = _scalar("mult_exp", params.get("mult_exp", 1.0))
        if a < 0 or b < 0:
            raise ValueError("doubly-indexed family needs nonnegative exponents")
    elif kind == "explicit":
        vals = params.get("values")
        if not isinstance(vals, (list, tuple)) or not vals:
            raise ValueError("explicit family needs a nonempty list of values")
        if len(vals) < D:
            raise ValueError(f"explicit family has {len(vals)} values, needs {D}")
        if any(not (v > 0 and math.isfinite(v)) for v in [_scalar("values", v) for v in vals]):
            raise ValueError("explicit family values must be positive and finite")


def constant_family(value: float, D: int) -> WeightFamily:
    return WeightFamily("constant", D, {"value": float(value)})


def power_law_family(a: float, D: int) -> WeightFamily:
    return WeightFamily("power-law", D, {"a": float(a)})


def geometric_family(ratio: float, D: int, scale: float = 1.0) -> WeightFamily:
    return WeightFamily("geometric", D, {"ratio": float(ratio), "scale": float(scale)})


def doubly_indexed_family(level_exp: float, mult_exp: float, D: int) -> WeightFamily:
    return WeightFamily(
        "doubly-indexed", D, {"level_exp": float(level_exp), "mult_exp": float(mult_exp)}
    )


def explicit_family(values) -> WeightFamily:
    vals = [float(v) for v in values]
    return WeightFamily("explicit", len(vals), {"values": vals})


def equal_mass_family(p: float, D: int, level_exp: float = 0.25) -> WeightFamily:
    """Doubly-indexed family whose levels contribute equal weight mass.

    Level k has weight k ** -a; its mass per copy is k ** (-a * 2p/(p-2)),
    so ceil(k ** (a * 2p/(p-2))) copies put every level at mass ~1.
    """
    if not p > 2:
        raise ValueError("equal-mass multiplicities need p > 2")
    mult_exp = level_exp * 2.0 * p / (p - 2.0)
    return doubly_indexed_family(level_exp, mult_exp, D)


def generate(f: WeightFamily, D: int | None = None) -> list[float]:
    """Materialize the first D weights of the family (default: f.D)."""
    D = f.D if D is None else _length(D)
    _validate_params(f.kind, f.params, D)
    if f.kind == "constant":
        return [float(f.params.get("value", 1.0))] * D
    if f.kind == "power-law":
        a = float(f.params.get("a", 0.0))
        return [n ** (-a) for n in range(1, D + 1)]
    if f.kind == "geometric":
        q = float(f.params.get("ratio", 0.5))
        s = float(f.params.get("scale", 1.0))
        return [s * q**n for n in range(1, D + 1)]
    if f.kind == "doubly-indexed":
        a = float(f.params.get("level_exp", 0.25))
        b = float(f.params.get("mult_exp", 1.0))
        out: list[float] = []
        k = 1
        while len(out) < D:
            copies = int(math.ceil(k**b)) if b > 0 else 1
            out.extend([k ** (-a)] * copies)
            k += 1
        return out[:D]
    if f.kind == "explicit":
        return [float(v) for v in f.params["values"][:D]]
    raise AssertionError(f.kind)


def rosenthal_diagnostic(f: WeightFamily, eps: float, D_list, p: float) -> dict:
    """Partial sums of small-weight mass and a finite divergence heuristic.

    For each D in D_list reports S(eps, D) = sum over n <= D, w_n < eps of
    w_n ** (2p/(p-2)). For each D whose double is also listed, reports the
    growth ratio S(eps, 2D)/S(eps, D). All reported ratios >= 1.5 flags
    "diverging", otherwise "saturating". Additive over disjoint ranges by
    construction.
    """
    if not p > 2:
        raise ValueError("diagnostic needs p > 2")
    if not eps > 0:
        raise ValueError("eps must be positive")
    Ds = sorted({int(D) for D in D_list})
    if not Ds or Ds[0] < 1:
        raise ValueError("D_list must contain positive counts")
    q = 2.0 * p / (p - 2.0)
    w = generate(f, Ds[-1])
    sums = {}
    running = 0.0
    k = 0
    for D in Ds:
        while k < D:
            if w[k] < eps:
                running += w[k] ** q
            k += 1
        sums[D] = running
    rows = [{"D": D, "S": sums[D]} for D in Ds]
    ratios = []
    for D in Ds:
        if 2 * D in sums and sums[D] > 0:
            ratios.append({"D": D, "ratio": sums[2 * D] / sums[D]})
    diverging = bool(ratios) and all(r["ratio"] >= DIVERGENCE_RATIO for r in ratios)
    return {
        "eps": float(eps),
        "p": float(p),
        "rows": rows,
        "doubling_ratios": ratios,
        "flag": "diverging" if diverging else "saturating",
    }
