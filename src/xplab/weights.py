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

_POSITIVE = (lambda v: 0 < v < math.inf, "> 0")
_NONNEGATIVE = (lambda v: 0 <= v < math.inf, ">= 0")

# kind -> parameter -> (default, the range it must lie in, as a test and as
# text). An explicit family's one parameter, its list of values, has no default.
PARAMS = {
    "constant": {"value": (1.0, _POSITIVE)},
    "power-law": {"a": (0.0, _NONNEGATIVE)},
    "geometric": {"ratio": (0.5, (lambda v: 0 < v < 1, "in (0, 1)")), "scale": (1.0, _POSITIVE)},
    "doubly-indexed": {"level_exp": (0.25, _NONNEGATIVE), "mult_exp": (1.0, _NONNEGATIVE)},
    "explicit": {"values": None},
}
KINDS = tuple(PARAMS)

# S(eps, 2D)/S(eps, D) at or above this across a doubling reads as divergent.
DIVERGENCE_RATIO = 1.5


@dataclass(frozen=True)
class WeightFamily:
    """A named rule for producing the first D weights.

    kinds and their params (defaults and ranges in PARAMS):

    * "constant": {"value": c}, w_n = c
    * "power-law": {"a": a}, w_n = n ** -a
    * "geometric": {"ratio": q, "scale": s}, w_n = s * q ** n
    * "doubly-indexed": {"level_exp": a, "mult_exp": b}, level weight
      k ** -a repeated ceil(k ** b) times, flattened and cut at D
    * "explicit": {"values": [...]}

    Construction fills in the defaults, converts every parameter to float and
    refuses a parameter the kind does not take.
    """

    kind: str
    D: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown weight family kind {self.kind!r}")
        object.__setattr__(self, "D", _length(self.D))
        object.__setattr__(self, "params", _params(self.kind, dict(self.params), self.D))


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


def _covers(values: list, D: int) -> None:
    if len(values) < D:
        raise ValueError(f"explicit family has {len(values)} values, needs {D}")


def _params(kind: str, raw: dict, D: int) -> dict:
    """The parameters of a family of this kind and length D, checked, with defaults filled in."""
    table = PARAMS[kind]
    for name in raw:
        if name not in table:
            raise ValueError(f"a {kind} family has no parameter {name!r}; it takes {', '.join(table)}")
    if kind == "explicit":
        vals = raw.get("values")
        if not isinstance(vals, (list, tuple)) or not vals:
            raise ValueError("explicit family needs a nonempty list of values")
        vals = [_scalar("values", v) for v in vals]
        _covers(vals, D)
        if not all(0 < v < math.inf for v in vals):
            raise ValueError("explicit family values must be positive and finite")
        return {"values": vals}
    out = {}
    for name, (default, (inside, text)) in table.items():
        out[name] = _scalar(name, raw.get(name, default))
        if not inside(out[name]):
            raise ValueError(f"{kind} family needs {name} {text}")
    return out


def constant_family(value: float, D: int) -> WeightFamily:
    return WeightFamily("constant", D, {"value": value})


def power_law_family(a: float, D: int) -> WeightFamily:
    return WeightFamily("power-law", D, {"a": a})


def geometric_family(ratio: float, D: int, scale: float = 1.0) -> WeightFamily:
    return WeightFamily("geometric", D, {"ratio": ratio, "scale": scale})


def doubly_indexed_family(level_exp: float, mult_exp: float, D: int) -> WeightFamily:
    return WeightFamily("doubly-indexed", D, {"level_exp": level_exp, "mult_exp": mult_exp})


def explicit_family(values) -> WeightFamily:
    vals = list(values)
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
    """Materialize the first D weights of the family (default: f.D).

    A weight that is not positive and finite, as when a family underflows,
    raises ValueError naming the kind and the first such index.
    """
    D = f.D if D is None else _length(D)
    w = _formula(f, D)
    if not 0 < min(w) <= max(w) < math.inf:
        n = next(n for n, v in enumerate(w, 1) if not 0 < v < math.inf)
        raise ValueError(f"{f.kind} family weight w_{n} = {w[n - 1]!r} is not positive and finite")
    return w


def _formula(f: WeightFamily, D: int) -> list[float]:
    P = f.params
    if f.kind == "constant":
        return [P["value"]] * D
    if f.kind == "power-law":
        a = P["a"]
        return [n ** (-a) for n in range(1, D + 1)]
    if f.kind == "geometric":
        q, s = P["ratio"], P["scale"]
        return [s * q**n for n in range(1, D + 1)]
    if f.kind == "doubly-indexed":
        a, b = P["level_exp"], P["mult_exp"]
        out: list[float] = []
        k = 1
        while len(out) < D:
            try:
                copies = math.ceil(k**b)
            except OverflowError:  # k ** b beyond the double range is more than D copies
                copies = D
            out.extend([k ** (-a)] * min(copies, D - len(out)))
            k += 1
        return out
    _covers(P["values"], D)
    return P["values"][:D]


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
