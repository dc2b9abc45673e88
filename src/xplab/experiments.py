"""Seeded experiment drivers shared by the test suite and the CLI.

Each driver runs one property campaign at a given scale and returns a
CriterionReport: headline checks with both numeric sides, counts, and a
verdict. The defaults are the full campaign sizes; scale them down for quick
runs. Randomness flows through child seeds, so results are reproducible and
independent of execution order. Most drivers take one child seed per trial;
criterion 2 draws its trials in chunks, one child seed per chunk, so its
results depend only on (trials, seed) and the chunk size HOLDER_CHUNK.
"""

from __future__ import annotations

import inspect
import math
from typing import NamedTuple

import numpy as np

from ._dense import col_norm, window_weights
from .blocks import HolderBounds, holder_bounds, make_block, make_rosenthal
from .criteria import (
    CriterionReport,
    check,
    check_proof_bounds,
    check_prop24,
    check_thm13,
    defect_experiment,
    defect_of,
    extract_Ei,
    gen_thm13_witnesses,
    mk_family,
)
from .operators import (
    BlockProjection,
    BlockSystem,
    DenseOperator,
    GramProjector,
    estimate_h_inf,
    estimate_opnorm,
    prop12_bound,
    prop26_chain,
    ratio_bounds_check,
)
from .oracle import brute_opnorm
from .space import (
    SLACK,
    SpVector,
    WeightedSpace,
    basis_vector,
    max_ratio,
    norm_2w,
    norm_p,
    ratio,
    restrict,
    xp_norm,
)
from .splitter import solve_constants, split

__all__ = ["DRIVERS", "run_experiment"]


def _child(seed: int, *branch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, branch)]))


# -- criterion 1 --------------------------------------------------------------

def run_rosenthal_identities(trials: int = 1000, seed: int = 0) -> CriterionReport:
    """Closed forms for extremal blocks across random spaces."""
    worst = 0.0
    for k in range(int(trials)):
        rng = _child(seed, 1, k)
        p = float(rng.uniform(2.1, 8.0))
        dim = 48
        w = rng.uniform(1e-3, 2.0, size=dim)
        sp = WeightedSpace(p, tuple(w))
        size = int(rng.integers(1, 33))
        I = sorted(int(i) for i in rng.choice(np.arange(1, dim + 1), size=size, replace=False))
        blk = make_rosenthal(sp, I)
        y = blk.vector
        om = math.fsum(sp.weight(n) ** sp.mass_exp for n in I)
        for got, expect in (
            (norm_2w(y), om**0.5),
            (norm_p(y), om ** (1.0 / p)),
            (ratio(y), om**sp.ratio_exp),
        ):
            worst = max(worst, abs(got - expect) / expect)
    checks = (check("identity_rel_error", worst, "<=", 1e-10),)
    return CriterionReport("rosenthal-identities", checks, {"trials": int(trials), "worst": worst})


# -- criterion 2 --------------------------------------------------------------

# Criterion 2 draws its trials HOLDER_CHUNK at a time, one generator per
# (seed, 2, chunk), and evaluates each chunk as arrays: x over the 64-wide
# window, each block on up to 8 slots gathered from it. Every HOLDER_STRIDE-th
# trial is rebuilt through the sparse blocks, whose five numbers must agree
# within HOLDER_AGREE relative and whose three verdicts must be equal.
HOLDER_DIM = 64
HOLDER_CHUNK = 1024
HOLDER_STRIDE = 101
HOLDER_AGREE = 1e-12
_HOLDER_MAX_I = 8
_HOLDER_MAX_X = 12


class _HolderDraw(NamedTuple):
    """Trials k0, k0 + 1, ... of criterion 2, one row each.

    The block support I is the first ``size`` slots of ``I`` (0-based window
    positions in random order) and E is the first ``esize`` of those. ``vals``
    and ``u`` are the general blocks' values on those slots and their c
    factor; ``x`` is each trial's vector over the window.
    """

    k0: int
    p: np.ndarray
    w: np.ndarray
    I: np.ndarray
    size: np.ndarray
    esize: np.ndarray
    vals: np.ndarray
    u: np.ndarray
    x: np.ndarray


class _HolderSides(NamedTuple):
    """Per-trial values of :class:`~xplab.blocks.HolderBounds` for one chunk; skip marks x = 0."""

    skip: np.ndarray
    lhs2: np.ndarray
    rhs2: np.ndarray
    lhsp: np.ndarray
    rhsp: np.ndarray
    c: np.ndarray
    c_admissible: np.ndarray
    ok2: np.ndarray
    okp: np.ndarray


def _draw_holder_chunk(seed: int, chunk: int, n: int = HOLDER_CHUNK) -> _HolderDraw:
    """The first n trials of a chunk; a full chunk is drawn, so they never depend on n."""
    rng = _child(seed, 2, chunk)
    m, dim = HOLDER_CHUNK, HOLDER_DIM
    p = rng.uniform(2.1, 8.0, size=m)
    w = rng.uniform(1e-3, 2.0, size=(m, dim))
    # the first s positions of a uniform random permutation are a uniform
    # s-subset in random order, so any prefix of them is a uniform subset too
    I = np.argsort(rng.random((m, dim)), axis=1)[:, :_HOLDER_MAX_I]
    size = rng.integers(1, _HOLDER_MAX_I + 1, size=m)
    esize = rng.integers(1, size + 1)
    vals = rng.uniform(0.1, 2.0, size=(m, _HOLDER_MAX_I))
    vals *= rng.choice([-1.0, 1.0], size=vals.shape)
    u = rng.uniform(1.0, 1.3, size=m)
    xpos = np.argsort(rng.random((m, dim)), axis=1)[:, :_HOLDER_MAX_X]
    xsize = rng.integers(1, _HOLDER_MAX_X + 1, size=m)
    xvals = rng.standard_normal((m, _HOLDER_MAX_X)) * (np.arange(_HOLDER_MAX_X) < xsize[:, None])
    x = np.zeros((m, dim))
    np.put_along_axis(x, xpos, xvals, axis=1)
    rows = slice(0, n)
    return _HolderDraw(
        chunk * m, p[rows], w[rows], I[rows], size[rows], esize[rows], vals[rows], u[rows], x[rows]
    )


def _sum2(t: np.ndarray) -> np.ndarray:
    """Row sums as if accumulated in twice the working precision (Ogita, Rump and Oishi's Sum2).

    The functional's numerator is a signed sum that can cancel. The error of
    Sum2 over eight terms is at most u|s| + (7u)^2 sum|t| with u = 2^-53, so it
    stays within HOLDER_AGREE of the sparse path's correctly rounded
    ``math.fsum`` unless the terms cancel to below about 1e-18 of sum|t|.
    """
    s = t[:, 0].copy()
    err = np.zeros_like(s)
    for a in t.T[1:]:
        new = s + a
        b = new - s
        err += (s - (new - b)) + (a - b)
        s = new
    return s + err


def _first_row(bad: np.ndarray) -> int | None:
    return int(np.argmax(bad)) if bad.any() else None


def _holder_columns(d: _HolderDraw) -> _HolderSides:
    """The Hölder chain of every trial of a chunk by columns.

    Raises where make_rosenthal or make_block would: on a broken extremal
    identity, or on a general block failing condition a or b.
    """
    n = len(d.p)
    p = d.p[:, None]
    inI = np.arange(_HOLDER_MAX_I) < d.size[:, None]
    inE = np.arange(_HOLDER_MAX_I) < d.esize[:, None]
    extremal = (d.k0 + np.arange(n)) % 2 == 0
    wI = np.take_along_axis(d.w, d.I, axis=1)
    xI = np.take_along_axis(d.x, d.I, axis=1) * inI
    z = np.where(extremal[:, None], wI ** (2.0 / (p - 2.0)), d.vals) * inI
    zw2 = (z * wI) ** 2
    z2 = np.sqrt(np.sum(zw2, axis=1))
    zp = np.sum(np.abs(z) ** p, axis=1) ** (1.0 / d.p)
    mass = wI ** (2.0 * p / (p - 2.0))
    ratio_exp = (d.p - 2.0) / (2.0 * d.p)
    omI = np.sum(mass * inI, axis=1)
    rI = omI**ratio_exp

    for got, want in ((z2, omI**0.5), (zp, omI ** (1.0 / d.p)), (z2 / zp, rI)):
        off = np.abs(got - want) > 1e-10 * np.maximum(np.abs(want), 1e-300)
        k = _first_row(extremal & off)
        if k is not None:
            raise ValueError(
                f"extremal block identities broke down numerically at trial {d.k0 + k}: "
                f"{got[k]} vs {want[k]}"
            )

    # the general blocks: delta and c as the sparse driver chooses them, then
    # make_block's conditions a and b
    zE2 = np.sqrt(np.sum(zw2 * inE, axis=1))
    rE = np.sum(mass * inE, axis=1) ** ratio_exp
    c = np.where(extremal, 1.0, np.maximum(rE / zE2, rI * zp / z2) * d.u)
    delta = zE2 / z2
    k = _first_row(~extremal & ~(zE2 >= delta * z2 * (1.0 - SLACK)))
    if k is not None:
        raise ValueError(
            f"condition a fails at trial {d.k0 + k}: E-part mass {zE2[k]:.6g} < delta * {z2[k]:.6g}"
        )
    k = _first_row(~extremal & ~(c * zE2 >= rE * (1.0 - SLACK)))
    if k is not None:
        raise ValueError(
            f"condition b fails at trial {d.k0 + k}: c * {zE2[k]:.6g} < omega(E)^ratio_exp "
            f"= {rE[k]:.6g}"
        )

    # The functional's numerator is a signed sum that can cancel, so its terms
    # are formed with Python's float power, as the sparse blocks form them:
    # numpy's vectorized power can differ from it by an ulp (in about one case
    # in twenty on an AVX-512 machine), and under cancellation one ulp in one
    # term can exceed HOLDER_AGREE.
    hit = np.nonzero(xI)
    wh = wI[hit].tolist()
    coeff = (2.0 / (d.p - 2.0))[hit[0]].tolist()
    zh = np.where(extremal[hit[0]], np.array([a**b for a, b in zip(wh, coeff)]), d.vals[hit])
    terms = np.zeros_like(xI)
    terms[hit] = zh * xI[hit] * np.array([a**2 for a in wh])
    f = _sum2(terms) / z2**2
    lhs2 = np.abs(f) * z2
    rhs2 = np.sqrt(np.sum((xI * wI) ** 2, axis=1))
    lhsp = np.abs(f) * zp
    rhsp = np.sum(np.abs(xI) ** p, axis=1) ** (1.0 / d.p)
    return _HolderSides(
        skip=~np.any(d.x, axis=1),
        lhs2=lhs2,
        rhs2=rhs2,
        lhsp=lhsp,
        rhsp=rhsp,
        c=c,
        c_admissible=c * z2 >= rI * zp * (1.0 - SLACK),
        ok2=lhs2 <= rhs2 * (1.0 + SLACK) + 1e-300,
        okp=lhsp <= c * rhsp * (1.0 + SLACK) + 1e-300,
    )


def _holder_block(d: _HolderDraw, j: int):
    """Row j's block, built as the sparse path builds it: make_rosenthal or make_block."""
    sp = WeightedSpace(float(d.p[j]), tuple(d.w[j]))
    size = int(d.size[j])
    I = [int(i) + 1 for i in d.I[j, :size]]
    if (d.k0 + j) % 2 == 0:
        return make_rosenthal(sp, I)
    z = SpVector(sp, dict(zip(I, (float(v) for v in d.vals[j, :size]))))
    E = I[: int(d.esize[j])]
    core = restrict(z, E)
    c_cond = max_ratio(sp, E) / norm_2w(core)
    c_adm = max_ratio(sp, I) * norm_p(z) / norm_2w(z)
    c = max(c_cond, c_adm) * float(d.u[j])
    return make_block(z, E, norm_2w(core) / norm_2w(z), c)


def _holder_trial(d: _HolderDraw, j: int) -> HolderBounds | None:
    """holder_bounds of row j through the sparse blocks; None when x = 0."""
    blk = _holder_block(d, j)
    x = SpVector(blk.space, {int(i) + 1: float(d.x[j, i]) for i in np.flatnonzero(d.x[j])})
    return None if x.is_zero() else holder_bounds(blk, x)


def _holder_crosscheck(d: _HolderDraw, h: _HolderSides, j: int) -> None:
    """Raise unless row j of the column kernel matches holder_bounds."""
    hb = _holder_trial(d, j)
    where = f"criterion 2 column kernel disagrees with holder_bounds at trial {d.k0 + j}"
    if (hb is None) != bool(h.skip[j]):
        raise ValueError(f"{where}: x = 0 in one path only")
    if hb is None:
        return
    for name in ("lhs2", "rhs2", "lhsp", "rhsp", "c"):
        got, want = float(getattr(h, name)[j]), getattr(hb, name)
        if abs(got - want) > HOLDER_AGREE * max(abs(got), abs(want)):
            raise ValueError(f"{where}: {name} {got!r} vs {want!r}")
    for name in ("c_admissible", "ok2", "okp"):
        if bool(getattr(h, name)[j]) != getattr(hb, name):
            raise ValueError(f"{where}: {name} {bool(getattr(h, name)[j])} vs {getattr(hb, name)}")


def run_holder_pairs(trials: int = 100_000, seed: int = 0) -> CriterionReport:
    """Functional-value norm bounds, extremal and general blocks alike.

    Each trial draws p, 64 weights, a support I of 1..8 indices, and x with
    1..12 standard-normal entries. Even trials take the extremal block of I;
    odd ones take signed uniform values on I, a subset E of I, and c a
    U(1, 1.3) factor above the least admissible value. Trials with x = 0 are
    skipped.
    """
    trials = int(trials)
    viol = 0
    worst2 = 0.0
    worstp = 0.0
    for chunk, k0 in enumerate(range(0, trials, HOLDER_CHUNK)):
        d = _draw_holder_chunk(seed, chunk, min(HOLDER_CHUNK, trials - k0))
        h = _holder_columns(d)
        for j in range(-k0 % HOLDER_STRIDE, len(d.p), HOLDER_STRIDE):
            _holder_crosscheck(d, h, j)
        keep = ~h.skip
        on2 = keep & (h.rhs2 > 0)
        if on2.any():
            worst2 = max(worst2, float(np.max(h.lhs2[on2] / h.rhs2[on2])))
        onp = keep & (h.rhsp > 0)
        if onp.any():
            worstp = max(worstp, float(np.max(h.lhsp[onp] / (h.c[onp] * h.rhsp[onp]))))
        viol += int(np.count_nonzero(keep & ~(h.ok2 & h.okp & h.c_admissible)))
    checks = (
        check("violations", viol, "<=", 0),
        check("worst_2w_quotient", worst2, "<=", 1.0, slack=SLACK),
        check("worst_p_quotient", worstp, "<=", 1.0, slack=SLACK),
    )
    return CriterionReport("holder-pairs", checks, {"trials": trials, "violations": viol})


# -- criterion 3 --------------------------------------------------------------

def _random_system(seed: int, branch: int):
    """A valid normalized block system with tight derived constants."""
    rng = _child(seed, 3, branch)
    p = float(rng.uniform(2.2, 7.0))
    dim = 160
    w = rng.uniform(0.05, 2.0, size=dim)
    sp = WeightedSpace(p, tuple(w))
    pool = rng.permutation(np.arange(1, dim + 1))
    pos = 0
    blocks = []
    for _ in range(int(rng.integers(2, 9))):
        size = int(rng.integers(1, 7))
        I = sorted(int(i) for i in pool[pos : pos + size])
        pos += size
        vals = rng.uniform(0.2, 1.5, size=size) * rng.choice([-1.0, 1.0], size=size)
        vec = SpVector(sp, dict(zip(I, (float(v) for v in vals))))
        vec = vec * (1.0 / xp_norm(vec))
        esize = int(rng.integers(1, size + 1))
        E = sorted(int(i) for i in rng.choice(np.asarray(I), size=esize, replace=False))
        core = restrict(vec, E)
        dj = norm_2w(core) / norm_2w(vec)
        cj = max_ratio(sp, E) / norm_2w(core)
        blocks.append(make_block(vec, E, dj, cj))
    return BlockSystem(tuple(blocks)), rng


def run_projection_bound(
    systems: int = 200, samples: int = 10_000, seed: int = 0
) -> CriterionReport:
    """Sampled operator bound, idempotence, and ratio windows per system."""
    worst_quot = 0.0
    worst_idem = 0.0
    windows_bad = 0
    for k in range(int(systems)):
        sysm, rng = _random_system(seed, k)
        P = BlockProjection(sysm)
        M, idx = P.matrix, P.window
        sp = sysm.space
        w = window_weights(sp, idx)
        bound = prop12_bound(sysm)
        X = rng.standard_normal((len(idx), int(samples)))
        X *= rng.random(X.shape) < rng.uniform(0.2, 1.0)
        keep = col_norm(X, w, sp.p, "xp") > 1e-12
        X = X[:, keep]
        PX = M @ X
        nx = col_norm(X, w, sp.p, "xp")
        npx = col_norm(PX, w, sp.p, "xp")
        worst_quot = max(worst_quot, float(np.max(npx / nx)) / bound)
        resid = col_norm(M @ PX - PX, w, sp.p, "xp") / np.maximum(npx, 1e-12)
        worst_idem = max(worst_idem, float(np.max(resid)))
        windows_bad += sum(1 for r in ratio_bounds_check(sysm) if not r.ok)
    checks = (
        check("norm_quotient_vs_bound", worst_quot, "<=", 1.0 + 1e-9),
        check("idempotence_rel", worst_idem, "<=", 1e-9),
        check("ratio_window_failures", windows_bad, "<=", 0),
    )
    return CriterionReport(
        "projection-bound", checks, {"systems": int(systems), "samples": int(samples)}
    )


# -- criterion 4 --------------------------------------------------------------

def run_opnorm_oracle(count: int = 50, seed: int = 0) -> CriterionReport:
    """Operator-norm estimator (sampled xp, SVD 2w) against the dense-grid oracle at d <= 6."""
    worst = 0.0
    for k in range(int(count)):
        rng = _child(seed, 4, k)
        d = int(rng.integers(2, 7))
        p = float(rng.uniform(2.1, 8.0))
        w = rng.uniform(0.05, 2.0, size=d)
        A = rng.standard_normal((d, d))
        sp = WeightedSpace(p, tuple(w))
        op = DenseOperator(sp, A, tuple(range(1, d + 1)))
        for mode in ("xp", "2w"):
            est = estimate_opnorm(op, mode=mode, budget=256, seed=k, rounds=24)
            ref = brute_opnorm(A, w, p, mode=mode)
            worst = max(worst, abs(est.lower - ref) / ref)
    checks = (check("oracle_rel_disagreement", worst, "<=", 0.02),)
    return CriterionReport("opnorm-oracle", checks, {"count": int(count), "worst": worst})


# -- criterion 5 --------------------------------------------------------------

def run_thm13_machinery(
    gen_configs: int = 60,
    extract_cases: int = 10_000,
    bound_cases: int = 10_000,
    mk_setups: int = 60,
    seed: int = 0,
) -> CriterionReport:
    """Witness generator, extraction monotonicity, proof bounds, index families."""
    gen_total = 0
    gen_pass = 0
    for k in range(int(gen_configs)):
        rng = _child(seed, 51, k)
        p = float(rng.uniform(2.1, 6.0))
        dim = 256
        w = rng.uniform(0.02, 0.3, size=dim)
        sp = WeightedSpace(p, tuple(w))
        c = float(rng.uniform(1.0, 2.0))
        delta = float(rng.uniform(0.1, 1.0))
        start = int(rng.integers(1, 8))
        reach = max_ratio(sp, range(start + 1, dim + 1))
        eps = min(1.0, c * reach * float(rng.uniform(0.3, 0.5)))
        for wit in gen_thm13_witnesses(sp, c, delta, eps, count=2, start=start):
            gen_total += 1
            if check_thm13(wit).verdict:
                gen_pass += 1

    mono_bad = 0
    for k in range(int(extract_cases)):
        rng = _child(seed, 52, k)
        p = float(rng.uniform(2.1, 8.0))
        dim = 48
        w = rng.uniform(0.05, 2.0, size=dim)
        sp = WeightedSpace(p, tuple(w))
        size = int(rng.integers(1, 17))
        F = sorted(int(i) for i in rng.choice(np.arange(1, dim + 1), size=size, replace=False))
        y = SpVector(sp, {i: float(v) for i, v in zip(F, rng.standard_normal(size))})
        if y.is_zero():
            continue
        r1, r2 = sorted(rng.uniform(0.01, 2.0, size=2))
        E1 = extract_Ei(y, F, float(r1))
        E2 = extract_Ei(y, F, float(r2))
        if not (E2.issubset(E1) and E1.issubset(y.support)):
            mono_bad += 1

    bound_viol = 0
    for k in range(int(bound_cases)):
        rng = _child(seed, 53, k)
        p = float(rng.uniform(2.1, 8.0))
        dim = 48
        w = rng.uniform(0.05, 2.0, size=dim)
        sp = WeightedSpace(p, tuple(w))
        size = int(rng.integers(1, 17))
        F = sorted(int(i) for i in rng.choice(np.arange(1, dim + 1), size=size, replace=False))
        y = SpVector(sp, {i: float(v) for i, v in zip(F, rng.standard_normal(size))})
        if y.is_zero():
            continue
        y = y * (1.0 / xp_norm(y))
        rep = check_proof_bounds(y, F, float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.05, 1.0)))
        if not rep.verdict:
            bound_viol += 1

    mk_bad = 0
    for k in range(int(mk_setups)):
        sysm, rng = _random_system(seed, 54_000 + k)
        P = BlockProjection(sysm)
        K = float(rng.uniform(0.1, 5.0))
        fam = mk_family(K, sysm.blocks, P)
        if not fam["implication_ok"]:
            mk_bad += 1
    checks = (
        check("generator_pass_rate", gen_pass, ">=", gen_total),
        check("extract_monotonicity_failures", mono_bad, "<=", 0),
        check("proof_bound_violations", bound_viol, "<=", 0),
        check("index_family_implication_failures", mk_bad, "<=", 0),
    )
    return CriterionReport(
        "thm13-machinery",
        checks,
        {
            "witnesses": gen_total,
            "extract_cases": int(extract_cases),
            "bound_cases": int(bound_cases),
            "mk_setups": int(mk_setups),
        },
    )


# -- criterion 6 --------------------------------------------------------------

def _mask_projection(sp: WeightedSpace, indices) -> BlockProjection:
    blocks = []
    for n in indices:
        e = basis_vector(sp, n)
        e = e * (1.0 / xp_norm(e))
        blocks.append(make_block(e, [n], 1.0, 1.0, require=False))
    return BlockProjection(BlockSystem(tuple(blocks)))


def _split_instance(seed: int, branch: int):
    """A unit vector, mask projection, and solved constants meeting every
    precondition plus the low-concentration premise.

    One heavy coordinate with a tiny weight carries the p-norm and lands in
    the extraction set; k light coordinates with weight near 1 sit strictly
    below the extraction threshold and carry the 2w-mass, placing ratio(x)
    inside (alpha, beta).
    """
    rng = _child(seed, 6, branch)
    p = float(rng.uniform(3.5, 7.5))
    delta = float(rng.uniform(0.1, 0.4))
    eps = float(rng.uniform(0.05, 0.3))
    c = 1.0
    # the mask of unit basis blocks below has norm exactly 1 in both norms
    normP = normP2 = 1.0
    consts = solve_constants(delta, c, eps, normP, normP2, p)
    alpha, beta, rho = consts.alpha, consts.beta, consts.rho
    w_small = float(rng.uniform(0.7, 1.0))
    ce = 2.0 / (p - 2.0)
    tau0 = rho * w_small**ce * beta**-ce
    t_max = math.sqrt(max((0.98 * beta) ** 2 - (1.02 * alpha) ** 2, 0.0))
    t = min(float(rng.uniform(0.4, 0.8)) * tau0, 0.9 * t_max)
    target_r = 0.5 * (alpha + beta)
    k = max(1, int(round((target_r / (t * w_small)) ** 2)))
    k_lo = int(math.ceil((1.02 * alpha / (t * w_small)) ** 2))
    k_hi = int(math.floor((0.98 * beta / (t * w_small)) ** 2))
    k = min(max(k, k_lo), max(k_hi, k_lo))
    N = int(rng.integers(2, 7))
    big = N + 1
    smalls = list(range(big + 1, big + 1 + k))
    dim = smalls[-1] + 4
    w = np.full(dim, w_small)
    w_big = float(rng.uniform(0.2, 0.99)) * 0.5 * delta * alpha
    w[big - 1] = w_big
    sp = WeightedSpace(p, tuple(w))
    a = (1.0 - k * t**p) ** (1.0 / p)
    entries = {big: a}
    for n in smalls:
        entries[n] = t
    x = SpVector(sp, entries)
    x = x * (1.0 / xp_norm(x))
    P = _mask_projection(sp, [big] + smalls)
    return x, N, consts, P, sp


def run_splitter(
    fuzz: int = 10_000, instances: int = 200, seed: int = 0, repro_path: str | None = None
) -> CriterionReport:
    """Constant-system fuzz against direct substitution, then split claims."""
    fuzz_bad = 0
    for k in range(int(fuzz)):
        rng = _child(seed, 61, k)
        p = float(rng.uniform(2.05, 9.0))
        normP2 = float(rng.uniform(0.5, 3.0))
        normP = float(rng.uniform(0.5, 4.0))
        delta = float(rng.uniform(0.01, 0.99)) / normP2
        c = float(rng.uniform(0.3, 3.0))
        eps = float(rng.uniform(0.01, 2.0))
        s = solve_constants(delta, c, eps, normP, normP2, p)
        # independent direct substitution of the published system
        e = p / (p - 2.0)
        ok = (
            s.eps_prime < min(eps, delta * s.alpha)
            and s.beta < min((1.0 - delta * normP2) / normP, eps / c)
            and s.rho <= min(c**-e * delta ** (2.0 / (p - 2.0)), s.beta**e)
            and s.beta > s.alpha
            and s.alpha >= max(
                s.beta * delta * normP2 / (1.0 - s.beta * normP),
                s.beta**2 * normP / (1.0 - delta * normP2),
            )
            and delta < 1.0 / normP2
        )
        if not ok:
            fuzz_bad += 1

    split_bad = 0
    premise_count = 0
    repro = None
    for k in range(int(instances)):
        x, N, consts, P, sp = _split_instance(seed, k)
        res = split(x, N, consts, P)
        if res.premise_met:
            premise_count += 1
        if res.premise_met and not res.claims_ok:
            split_bad += 1
            if repro is None:
                repro = {
                    "p": sp.p,
                    "weights": list(sp.weights),
                    "x": x,
                    "N": N,
                    "constants": consts.to_dict(),
                    "result": res.to_dict(),
                }
    if repro is not None and repro_path is not None:
        from .serialize import dump_json

        dump_json(repro, repro_path)
    checks = (
        check("constant_fuzz_failures", fuzz_bad, "<=", 0),
        check("split_claim_counterexamples", split_bad, "<=", 0),
        check("instances_with_premise", premise_count, ">=", int(instances)),
    )
    return CriterionReport(
        "splitter",
        checks,
        {
            "fuzz": int(fuzz),
            "instances": int(instances),
            "repro_written": repro is not None and repro_path is not None,
        },
    )


# -- criterion 7 --------------------------------------------------------------

def run_gram_chains(spans: int = 100, per_span: int = 100, seed: int = 0) -> CriterionReport:
    """Pythagoras identity, the ratio-floor norm chain, forced approximation failure."""
    pyth_worst = 0.0
    chain_bad = 0
    pairs = 0
    for s in range(int(spans)):
        rng = _child(seed, 7, s)
        p = float(rng.uniform(2.2, 7.0))
        dim = 40
        w = rng.uniform(0.1, 1.5, size=dim)
        sp = WeightedSpace(p, tuple(w))
        kk = int(rng.integers(1, 5))
        win = sorted(int(i) for i in rng.choice(np.arange(1, dim + 1), size=10, replace=False))
        Z = []
        for _ in range(kk):
            vals = rng.standard_normal(10) * (rng.random(10) < 0.7)
            if not np.any(vals):
                vals[0] = 1.0
            Z.append(SpVector(sp, {i: float(v) for i, v in zip(win, vals) if v != 0.0}))
        try:
            Q = GramProjector(Z)
            h = estimate_h_inf(Z, budget=128, seed=s)
        except ValueError:
            continue
        bprime = min(0.9 * h, 1.0)
        for t in range(int(per_span)):
            xi = rng.choice(np.arange(1, dim + 1), size=6, replace=False)
            x = SpVector(sp, {int(i): float(v) for i, v in zip(xi, rng.standard_normal(6))})
            if x.is_zero():
                continue
            qx = Q.apply(x)
            lhs = norm_2w(x) ** 2
            rhs = norm_2w(qx) ** 2 + norm_2w(x - qx) ** 2
            pyth_worst = max(pyth_worst, abs(lhs - rhs) / max(lhs, 1.0))
            pairs += 1
            if not prop26_chain(Q, bprime, x, budget=96, seed=s).ok:
                chain_bad += 1

    # an orthogonal witness must defeat the 2w-approximation claim
    sp0 = WeightedSpace(4.0, (1.0, 0.9, 0.8, 0.7))
    Z0 = [basis_vector(sp0, 1)]
    x0 = basis_vector(sp0, 2)
    rep = check_prop24(Z0, [x0], eps=0.5, beta=0.45, bprime=0.9, seed=seed)
    approx = next(c for c in rep.checks if c.name.startswith("approx"))
    forced_dist_exact = abs(approx.lhs - norm_2w(x0)) <= 1e-12
    checks = (
        check("pythagoras_rel", pyth_worst, "<=", 1e-9),
        check("chain_failures", chain_bad, "<=", 0),
        check("forced_failure_detected", 0.0 if not rep.verdict else 1.0, "<=", 0.0),
        check("forced_distance_is_2w_norm", 0.0 if forced_dist_exact else 1.0, "<=", 0.0),
    )
    return CriterionReport(
        "gram-chains",
        checks,
        {"spans": int(spans), "pairs": pairs, "forced_report": rep.to_dict()},
    )


# -- criterion 8 --------------------------------------------------------------

def run_defect(samples: int = 60, seed: int = 0) -> CriterionReport:
    """Forced disjoint-support defect plus a report-only span-sampling run."""
    sp = WeightedSpace(4.0, tuple(0.8 for _ in range(16)))
    Y = [
        make_rosenthal(sp, [1, 2, 3]).vector,
        make_rosenthal(sp, [4, 5]).vector,
    ]
    x = SpVector(sp, {10: 1.0, 11: -0.5})
    x = x * (1.0 / xp_norm(x))
    forced = defect_of(x, Y, seed=seed)

    alpha = max(ratio(v) for v in Y) * 2.0
    survey = defect_experiment(
        Y, alpha=alpha, samples=int(samples), seed=seed, from_span=True
    )
    worst = survey["worst_defect"] if survey["worst_defect"] is not None else 0.0
    checks = (
        check("forced_disjoint_defect", abs(forced - 1.0), "<=", 1e-9),
        check("span_survey_cap", worst, "<=", 1.0, slack=SLACK),
    )
    data = {
        "forced_defect": forced,
        "span_survey": {
            "alpha": survey["alpha"],
            "qualified": survey["qualified"],
            "worst_defect": survey["worst_defect"],
        },
    }
    return CriterionReport("defect", checks, data)


DRIVERS = {
    "rosenthal-identities": (run_rosenthal_identities, ("trials",)),
    "holder-pairs": (run_holder_pairs, ("trials",)),
    "projection-bound": (run_projection_bound, ("systems", "samples")),
    "opnorm-oracle": (run_opnorm_oracle, ("count",)),
    "thm13-machinery": (
        run_thm13_machinery,
        ("gen_configs", "extract_cases", "bound_cases", "mk_setups"),
    ),
    "splitter": (run_splitter, ("fuzz", "instances")),
    "gram-chains": (run_gram_chains, ("spans", "per_span")),
    "defect": (run_defect, ("samples",)),
}


def run_experiment(name: str, seed: int = 0, scale: float = 1.0, **overrides) -> CriterionReport:
    """Run a named driver, scaling its default campaign sizes by ``scale``."""
    if name not in DRIVERS:
        raise ValueError(f"unknown experiment {name!r}; choose from {sorted(DRIVERS)}")
    fn, scalable = DRIVERS[name]
    kwargs = dict(overrides)
    kwargs["seed"] = int(seed)
    if scale != 1.0:
        if not scale > 0:
            raise ValueError("scale must be positive")
        base = inspect.signature(fn).parameters
        for field in scalable:
            if field not in kwargs:
                kwargs[field] = max(1, int(round(base[field].default * scale)))
    return fn(**kwargs)
