"""Criterion checkers, witness generators and report-only diagnostics.

Everything here evaluates finite, inspectable inequalities and returns the
numbers alongside the verdicts. Checkers never repair their inputs: a failed
precondition raises, a failed inequality is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _dense
from ._dense import col_norm, dense_window
from .blocks import Block, functional_apply, make_rosenthal
from .operators import (
    BlockProjection,
    GramProjector,
    estimate_h_inf,
    estimate_opnorm,
    estimate_r_sup,
)
from .space import (
    NORM_TOL,
    Check,
    SpVector,
    SupportSet,
    WeightedSpace,
    check,
    head_proj,
    max_ratio,
    norm_2w,
    norm_p,
    omega,
    ratio,
    restrict,
    tail_proj,
    verdict,
    xp_norm,
)

__all__ = [
    "CriterionReport",
    "Thm13Witness",
    "WitnessInfeasibleError",
    "check_thm13",
    "gen_thm13_witnesses",
    "extract_Ei",
    "check_proof_bounds",
    "mk_family",
    "kp_classify",
    "check_prop24",
    "prop21_diagnostic",
    "defect_of",
    "defect_experiment",
]

class WitnessInfeasibleError(ValueError):
    """The requested witness family cannot exist on this weight window."""


@dataclass(frozen=True)
class CriterionReport:
    """Named checks plus free-form reported numbers; verdict is their conjunction."""

    name: str
    checks: tuple[Check, ...]
    data: dict = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return verdict(self.checks)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "checks": [c.to_dict() for c in self.checks],
            "data": self.data,
            "verdict": self.verdict,
        }

    def __getitem__(self, key: str):
        """A field of the serialized form, for callers that read reports as dicts."""
        return self.to_dict()[key]


@dataclass(frozen=True)
class Thm13Witness:
    """A normalized vector, a tail set E past N, and the constants it answers to.

    Invariants: N >= 1, E inside {N+1, ..., dim}, 0 < eps_prime < eps.
    """

    x: SpVector
    E: SupportSet
    N: int
    c: float
    delta: float
    eps: float
    eps_prime: float

    def __post_init__(self):
        try:
            E = self.E if isinstance(self.E, SupportSet) else SupportSet.of(self.E)
        except TypeError:
            raise ValueError(f"E must be a list of indices, got {self.E!r}") from None
        object.__setattr__(self, "E", E)
        try:
            N = int(self.N)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"N must be an integer, got {self.N!r}") from None
        object.__setattr__(self, "N", N)
        if N < 1:
            raise ValueError("N must be >= 1")
        dim = self.x.space.dim
        if any(not (N + 1 <= j <= dim) for j in E):
            raise ValueError(f"E must lie in {{{N + 1}, ..., {dim}}}")
        for nm in ("c", "delta", "eps", "eps_prime"):
            try:
                v = float(getattr(self, nm))
            except (TypeError, ValueError):
                raise ValueError(f"{nm} must be a number, got {getattr(self, nm)!r}") from None
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{nm} must be positive and finite")
            object.__setattr__(self, nm, v)
        if not self.eps_prime < self.eps:
            raise ValueError("eps_prime must be strictly below eps")

    @property
    def space(self) -> WeightedSpace:
        return self.x.space


def check_thm13(w: Thm13Witness) -> CriterionReport:
    """Evaluate the five witness inequalities and report all sides.

    a) the head of x below 1/N, b) the E-part carries a delta share of the
    2-mass, c) the three-way window eps >= c|x_E|_2 >= omega(E)^ratio_exp
    >= eps_prime. The witness must be normalized to NORM_TOL.
    """
    nx = xp_norm(w.x)
    if abs(nx - 1.0) > NORM_TOL:
        raise ValueError(f"witness is not normalized: xp_norm = {nx}")
    head = xp_norm(head_proj(w.x, w.N))
    xE2 = norm_2w(restrict(w.x, w.E))
    x2 = norm_2w(w.x)
    mass = max_ratio(w.space, w.E)
    checks = (
        check("head_small", head, "<", 1.0 / w.N),
        check("E_mass_share", xE2, ">=", w.delta * x2),
        check("window_upper", w.eps, ">=", w.c * xE2),
        check("mass_vs_window", w.c * xE2, ">=", mass),
        check("window_lower", mass, ">=", w.eps_prime),
    )
    data = {
        "head_norm": head,
        "one_over_N": 1.0 / w.N,
        "xE_2w": xE2,
        "x_2w": x2,
        "c_xE_2w": w.c * xE2,
        "set_ratio_cap": mass,
        "eps": w.eps,
        "eps_prime": w.eps_prime,
    }
    return CriterionReport("thm13", checks, data)


def gen_thm13_witnesses(
    space: WeightedSpace,
    c: float,
    delta: float,
    eps: float,
    count: int,
    start: int = 0,
) -> list[Thm13Witness]:
    """Greedy tail witnesses: normalized extremal blocks on disjoint sets.

    Sets are accumulated from the tail past ``start`` until their ratio cap
    enters [eps/2, min(eps/c, 1)]; indices that would overshoot are skipped.
    eps_prime is fixed at eps/2. Witnesses pass check_thm13 by construction
    (requires delta <= 1 and 1 <= c, with a nonempty cap window). The scan
    is deterministic.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    c = float(c)
    delta = float(delta)
    eps = float(eps)
    if not (0 < delta <= 1.0):
        raise WitnessInfeasibleError(
            "extremal witnesses carry all 2-mass on E; delta must lie in (0, 1]"
        )
    if c < 1.0:
        raise WitnessInfeasibleError(
            "extremal witnesses need c >= 1 (the middle window inequality is tight)"
        )
    lo = eps / 2.0
    hi = min(eps / c, 1.0)
    if lo > hi:
        raise WitnessInfeasibleError(
            f"cap window [{lo:.6g}, {hi:.6g}] is empty; need eps/2 <= min(eps/c, 1)"
        )
    rexp = space.ratio_exp
    out: list[Thm13Witness] = []
    n = max(int(start), 1)
    for _ in range(count):
        E: list[int] = []
        mass = 0.0
        while mass**rexp < lo:
            n += 1
            if n > space.dim:
                reach = mass**rexp
                raise WitnessInfeasibleError(
                    f"weight tail too thin: achievable cap range [0, {reach:.6g}] "
                    f"is below eps_prime = {lo:.6g}"
                )
            step = omega(space, [n])
            if (mass + step) ** rexp > hi:
                continue
            E.append(n)
            mass += step
        y = make_rosenthal(space, E).vector
        x = y * (1.0 / xp_norm(y))
        out.append(Thm13Witness(x, SupportSet.of(E), E[0] - 1, c, delta, eps, eps / 2.0))
    return out


def extract_Ei(y: SpVector, F, rho: float) -> SupportSet:
    """Indices of F where |y(j)| clears rho * w_j**coeff_exp * norm_2w(y)**-coeff_exp.

    The comparison is an exact >= on doubles; ties belong to the set. y must
    be nonzero and supported inside F.
    """
    if y.is_zero():
        raise ValueError("cannot extract the large-coefficient set of zero")
    rho = float(rho)
    if not rho > 0:
        raise ValueError("rho must be positive")
    F = F if isinstance(F, SupportSet) else SupportSet.of(F)
    if not y.support.issubset(F):
        raise ValueError("y has support outside F")
    space = y.space
    e = space.coeff_exp
    scale = norm_2w(y) ** (-e)
    keep = [j for j in F if abs(y[j]) >= rho * space.weight(j) ** e * scale]
    return SupportSet.of(keep)


def check_proof_bounds(
    y: SpVector, F, rho: float, delta: float
) -> CriterionReport:
    """The four finite bounds tying the large-coefficient set to its thresholds.

    i) weight mass of E against rho**-2 * delta**(-4/(p-2)) * |y_E|^(2p/(p-2)),
    applicable only when |y_E|_2w >= delta |y|_2w; ii) the dropped p-mass
    against rho**(p-2); iii) the kept part's space norm against
    (1 - rho**(p-2))**(1/p), applicable when the p-norm attains the unit max;
    iv) the dropped part's p-norm against rho**(1-2/p). y must be normalized
    to NORM_TOL.
    """
    ny = xp_norm(y)
    if abs(ny - 1.0) > NORM_TOL:
        raise ValueError(f"y is not normalized: xp_norm = {ny}")
    delta = float(delta)
    if not 0 < delta:
        raise ValueError("delta must be positive")
    space = y.space
    p = space.p
    E = extract_Ei(y, F, rho)
    Fset = F if isinstance(F, SupportSet) else SupportSet.of(F)
    mass = omega(space, E)
    if mass == math.inf:
        raise ValueError(f"the weight mass of E = {list(E.indices)} is past the double range")
    yE = restrict(y, E)
    yE2 = norm_2w(yE)
    y2 = norm_2w(y)
    b_holds = yE2 >= delta * y2
    dropped = restrict(y, Fset.difference(E))
    dropped_p = norm_p(dropped)
    tail_mass = dropped_p**p
    base = 1.0 - rho ** (p - 2.0)
    kept_floor = base ** (1.0 / p) if base > 0 else 0.0
    p_attains = norm_p(y) >= y2
    checks = (
        check(
            "E_mass_ceiling",
            mass,
            "<=",
            rho**-2.0 * delta ** (-4.0 / (p - 2.0)) * yE2 ** (2.0 * p / (p - 2.0)),
            applicable=b_holds,
            note="" if b_holds else "E-part below delta share; ceiling not applicable",
        ),
        check("dropped_p_mass", tail_mass, "<=", rho ** (p - 2.0)),
        check(
            "kept_norm_floor",
            xp_norm(yE),
            ">=",
            kept_floor,
            applicable=p_attains,
            note="" if p_attains else "2w-norm attains the max; floor not applicable",
        ),
        check("dropped_p_norm", dropped_p, "<=", rho ** (1.0 - 2.0 / p)),
    )
    data = {
        "E": list(E.indices),
        "omega_E": mass,
        "yE_2w": yE2,
        "y_2w": y2,
        "delta_share_holds": bool(b_holds),
        "p_norm_attains_max": bool(p_attains),
    }
    return CriterionReport("proof_bounds", checks, data)


def mk_family(K: float, blocks: Sequence[Block], P: BlockProjection) -> dict:
    """Partition blocks by whether the functional sees a K-share of the E-mass.

    Membership: |f_i(y restricted to E_i)| <= K * |y_E|_2w / |y|_2w. The
    guard-and-implication rows verify that members whose functional value is
    at least 1/2 land in the (1/2K)-share family. Functionals are evaluated
    in full-support form; the restricted form sends every block to exactly 1
    and is only useful for the trivial configuration.
    """
    K = float(K)
    if K < 0:
        raise ValueError("K must be nonnegative")
    sys_blocks = set(P.system.blocks)
    rows = []
    members = []
    for i, b in enumerate(blocks):
        if b not in sys_blocks:
            raise ValueError(f"block {i} does not belong to the projection's system")
        yE = restrict(b.vector, b.Eset)
        f = abs(functional_apply(b, yE, form="full"))
        y2 = norm_2w(b.vector)
        yE2 = norm_2w(yE)
        rhs = K * yE2 / y2
        in_family = f <= rhs
        guard = f >= 0.5
        if K > 0:
            in_share = yE2 >= y2 / (2.0 * K)
            implication_ok = (not (in_family and guard)) or in_share
        else:
            in_share = None
            implication_ok = True
        if in_family:
            members.append(i)
        rows.append(
            {
                "index": i,
                "functional_on_E": f,
                "threshold": rhs,
                "in_family": bool(in_family),
                "guard_half": bool(guard),
                "in_half_K_share": in_share,
                "implication_ok": bool(implication_ok),
            }
        )
    return {
        "K": K,
        "members": members,
        "rows": rows,
        "implication_ok": all(r["implication_ok"] for r in rows),
    }


def kp_classify(
    V: Sequence[SpVector],
    C: float,
    *,
    tail_start: int | None = None,
    budget: int = 192,
    seed: int = 0,
) -> dict:
    """Classify a span: "ell2-like", "ellp-like" or "mixed" against threshold C.

    ell2-like when the estimated ratio infimum over span(V) reaches C;
    otherwise ellp-like when the estimated ratio supremum over the caller's
    tail portion (vectors supported past tail_start) stays below C; mixed
    otherwise. Scale-invariant in V.
    """
    C = float(C)
    if not C > 0:
        raise ValueError("threshold C must be positive")
    V = list(V)
    h = estimate_h_inf(V, budget=budget, seed=seed)
    out = {"C": C, "h_inf": h, "r_sup_tail": None, "tail_start": tail_start}
    if h >= C:
        out["label"] = "ell2-like"
        return out
    if tail_start is None:
        tail = V
    else:
        tail = [v for v in V if min(v.entries) > int(tail_start)]
    if tail:
        r = estimate_r_sup(tail, budget=budget, seed=seed)
        out["r_sup_tail"] = r
        out["label"] = "ellp-like" if r < C else "mixed"
    else:
        out["label"] = "mixed"
    return out


def check_prop24(
    Z: Sequence[SpVector],
    X_sample: Sequence[SpVector],
    eps: float,
    beta: float,
    bprime: float,
    *,
    variant: str = "b",
    seed: int = 0,
) -> CriterionReport:
    """Span floor plus 2w-approximation of every high-ratio sample.

    a) the estimated ratio infimum over span(Z) reaches bprime; b) every
    sample with ratio above beta sits within eps * |x|_2w of span(Z) in the
    weighted norm (variant "bprime" uses eps * xp_norm(x) instead). The
    orthogonal residues with ratio above beta are reported as contradiction
    pairs (their 2w-norm equals their distance to the span).
    """
    if variant not in ("b", "bprime"):
        raise ValueError(f"unknown variant {variant!r}")
    eps = float(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    beta = float(beta)
    bprime = float(bprime)
    Q = GramProjector(Z)
    h = estimate_h_inf(Z, seed=seed)
    checks = [check("span_ratio_floor", h, ">=", bprime)]
    contradictions = []
    rows = []
    for k, x in enumerate(X_sample):
        if x.is_zero():
            raise ValueError(f"sample {k} is zero")
        if x.space != Q.space:
            raise ValueError(f"sample {k} lives in a different space")
        qx = Q.apply(x)
        res = x - qx
        d2 = norm_2w(res)
        rx = ratio(x)
        qualifies = rx > beta
        row = {
            "index": k,
            "ratio": rx,
            "dist_2w": d2,
            "bound_b": eps * norm_2w(x),
            "bound_bprime": eps * xp_norm(x),
            "qualifies": bool(qualifies),
        }
        rows.append(row)
        if qualifies:
            bound = row["bound_b"] if variant == "b" else row["bound_bprime"]
            checks.append(check(f"approx[{k}]", d2, "<", bound))
        if not res.is_zero() and ratio(res) > beta:
            qres = Q.apply(res)
            contradictions.append(
                {
                    "index": k,
                    "residue_2w": norm_2w(res),
                    "residue_dist_2w": norm_2w(res - qres),
                }
            )
    data = {
        "variant": variant,
        "eps": eps,
        "beta": beta,
        "bprime": bprime,
        "rows": rows,
        "contradiction_pairs": contradictions,
    }
    return CriterionReport("prop24", tuple(checks), data)


def prop21_diagnostic(
    u_list: Sequence[SpVector],
    w_list: Sequence[SpVector],
    P,
    K: float,
    window: int,
    *,
    head_cut: int = 0,
    c: float | None = None,
    delta: float | None = None,
    eps: float | None = None,
    budget: int = 192,
    seed: int = 0,
) -> dict:
    """Finite surrogates for the limit quantities of the lower-bound test.

    beta_hat is the largest ratio of z_n = u_n + w_n over the window;
    beta_prime_hat is the estimated ratio infimum over the span of the u
    parts past head_cut; the reported bound is beta_prime_hat / (K * beta_hat)
    and the sampled operator norm of P sits next to it. When (c, delta) are
    supplied, the no-eps-prime threshold beta_prime_hat * c * delta /
    max(c, 1/delta) is reported, and compared against eps when given.
    Report-only: nothing here asserts.
    """
    window = int(window)
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(u_list) < window or len(w_list) < window:
        raise ValueError("window exceeds the provided sequences")
    K = float(K)
    if not K > 0:
        raise ValueError("K must be positive")
    ratios = []
    for n in range(window):
        z = u_list[n] + w_list[n]
        nz = xp_norm(z)
        if abs(nz - 1.0) > NORM_TOL:
            raise ValueError(f"z_{n} is not normalized: xp_norm = {nz}")
        ratios.append(ratio(z))
    beta_hat = max(ratios)
    u_span = [tail_proj(u, head_cut) for u in u_list[:window]]
    u_span = [u for u in u_span if not u.is_zero()]
    if not u_span:
        raise ValueError("no usable u-part past the head cut")
    beta_prime_hat = estimate_h_inf(u_span, budget=budget, seed=seed)
    est = estimate_opnorm(P, mode="xp", budget=budget, seed=seed)
    out = {
        "beta_hat": beta_hat,
        "beta_prime_hat": beta_prime_hat,
        "bound": beta_prime_hat / (K * beta_hat),
        "opnorm_lower": est.lower,
        "K": K,
        "window": window,
        "head_cut": head_cut,
    }
    if c is not None and delta is not None:
        c = float(c)
        delta = float(delta)
        if c <= 0 or delta <= 0:
            raise ValueError("c and delta must be positive")
        threshold = beta_prime_hat * c * delta / max(c, 1.0 / delta)
        out["no_eps_prime_threshold"] = threshold
        if eps is not None:
            out["eps"] = float(eps)
            out["eps_below_threshold"] = bool(float(eps) < threshold)
    return out


def defect_of(
    x: SpVector,
    Y: Sequence[SpVector],
    *,
    seed: int = 0,
) -> float:
    """Relative xp-distance from x to span(Y), estimated by multi-start descent.

    Starts always include the zero coefficients and the weighted least-squares
    solution, so the result never exceeds 1 and is exact (1.0) when x is
    disjointly supported from every y in Y.
    """
    if x.is_zero():
        raise ValueError("defect undefined for the zero vector")
    Y = tuple(Y)
    if not Y:
        raise ValueError("defect needs a nonempty span")
    space, _, B, w = dense_window((*Y, x), mixed="span vectors live in a different space")
    # the relative distance is homogeneous in x and sees Y only through its span
    B, xcol = _dense.unit_columns(B[:, :-1]), _dense.unit_columns(B[:, -1:])[:, 0]
    p = space.p
    k = B.shape[1]

    starts = [np.zeros((k, 1))]
    lsq, *_ = np.linalg.lstsq(B * w[:, None], xcol * w, rcond=None)
    starts.append(lsq[:, None])
    starts.append(_dense._sample_columns(k, 3, seed, 7919))
    A0 = np.concatenate(starts, axis=1)

    def cost(Sp, S2):
        return np.maximum(Sp[0] ** (1 / p), np.sqrt(S2[0]))  # xp norm of x - B a

    scale = max(float(np.max(np.abs(lsq))), 1.0)
    h0 = 0.25 * scale
    step = np.full(A0.shape[1], h0)
    denom = float(col_norm(xcol[:, None], w, p, "xp")[0])
    _, f = _dense._coordinate_search(
        cost, [(-B, xcol)], w, p, A0, step, 1e-12 * max(h0, 1.0), 40, np.less
    )
    return float(np.min(f)) / denom


def defect_experiment(Y: Sequence[SpVector], alpha: float, samples: int, seed: int = 0) -> dict:
    """Sample low-ratio vectors of span(Y) and report how far they sit from it.

    Draws ``samples`` seeded random combinations of Y, keeps those with ratio
    below alpha, and reports the worst relative defect together with its
    witness. The zero-coefficient start caps every defect at 1.
    """
    Y = tuple(Y)
    if not Y:
        raise ValueError("experiment needs a nonempty span")
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    space = Y[0].space
    rows = []
    worst = None
    skipped = 0
    for s in range(int(samples)):
        x = SpVector(space, {})
        for t, v in zip(_dense._child(seed, s).standard_normal(len(Y)), Y):
            x = x + float(t) * v
        if x.is_zero():
            skipped += 1
            continue
        x = x * (1.0 / xp_norm(x))
        rx = ratio(x)
        if rx >= alpha:
            skipped += 1
            continue
        d = defect_of(x, Y, seed=seed)
        rows.append({"sample": s, "ratio": rx, "defect": d})
        if worst is None or d > worst["defect"]:
            worst = {"sample": s, "ratio": rx, "defect": d, "x": x}
    return {
        "alpha": alpha,
        "samples": int(samples),
        "qualified": len(rows),
        "skipped": skipped,
        "rows": rows,
        "worst_defect": None if worst is None else worst["defect"],
        "worst_sample": None if worst is None else worst["sample"],
        "worst_x": None if worst is None else worst["x"],
    }
