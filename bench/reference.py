"""Independent reference computations and output checks for the benchmark.

Only numpy and the standard library are used here. Nothing is imported from
xplab, so a fault in the program cannot hide in its own reference. Vectors
are dense numpy arrays over a window of 1-based indices; documents are the
plain dicts of the JSON wire format.

Every ``check_*`` function returns a list of problems, empty when the answer
passes. Values the program recomputes are compared at ``REL`` (float64
summation order only); inequalities the program reports are re-evaluated
with its documented relative slack ``SLACK``.
"""

from __future__ import annotations

import math

import numpy as np

REL = 1e-9
SLACK = 1e-12
ORACLE_TOL = 0.02


# -- plain numerics ---------------------------------------------------------

def close(a, b, rel=REL) -> bool:
    a = float(a)
    b = float(b)
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300) or a == b


def compare(lhs, op, rhs, slack=SLACK) -> bool:
    lhs = float(lhs)
    rhs = float(rhs)
    pad = slack * max(abs(lhs), abs(rhs), 1.0)
    if op == "<":
        return lhs < rhs + pad
    if op == "<=":
        return lhs <= rhs + pad
    if op == ">=":
        return lhs >= rhs - pad
    if op == ">":
        return lhs > rhs - pad
    raise ValueError(f"unknown comparison {op!r}")


def family_weights(doc: dict, D: int | None = None) -> np.ndarray:
    """Closed forms of the weight families of the wire format."""
    kind = doc["kind"]
    if D is None:
        D = len(doc["values"]) if kind == "explicit" and "D" not in doc else int(doc["D"])
    n = np.arange(1, D + 1, dtype=float)
    if kind == "constant":
        return np.full(D, float(doc.get("value", 1.0)))
    if kind == "power-law":
        return n ** -float(doc.get("a", 0.0))
    if kind == "geometric":
        return float(doc.get("scale", 1.0)) * float(doc.get("ratio", 0.5)) ** n
    if kind == "doubly-indexed":
        a = float(doc.get("level_exp", 0.25))
        b = float(doc.get("mult_exp", 1.0))
        parts, total, k = [], 0, 1
        while total < D:
            copies = int(math.ceil(k**b)) if b > 0 else 1
            parts.append(np.full(copies, float(k) ** -a))
            total += copies
            k += 1
        return np.concatenate(parts)[:D]
    if kind == "explicit":
        return np.asarray(doc["values"][:D], dtype=float)
    raise ValueError(f"unknown family kind {kind!r}")


def space_weights(doc: dict) -> np.ndarray:
    w = doc["weights"]
    return family_weights(w) if isinstance(w, dict) else np.asarray(w, dtype=float)


def dense(entries, dim: int) -> np.ndarray:
    x = np.zeros(dim)
    for i, v in entries:
        x[int(i) - 1] += float(v)
    return x


def norm_p(x, p) -> float:
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def norm_2w(x, w) -> float:
    return float(np.sqrt(np.sum((x * w) ** 2)))


def xp_norm(x, w, p) -> float:
    return max(norm_p(x, p), norm_2w(x, w))


def mode_norm(x, w, p, mode) -> float:
    return xp_norm(x, w, p) if mode == "xp" else norm_2w(x, w)


def ratio_cap(wE, p) -> float:
    """Largest 2-vs-p ratio on a set: omega(E) ** ((p-2)/2p)."""
    return float(np.sum(np.asarray(wE) ** (2.0 * p / (p - 2.0)))) ** ((p - 2.0) / (2.0 * p))


def block_constants(blocks, w, p) -> tuple[float, float]:
    """Tightest (delta, c) of a list of (z, E) blocks; z dense, E 1-based."""
    delta, c = math.inf, 0.0
    for z, E in blocks:
        idx = np.asarray(E) - 1
        core2 = norm_2w(z[idx], w[idx])
        delta = min(delta, core2 / norm_2w(z, w))
        c = max(c, ratio_cap(w[idx], p) / core2)
    return delta, c


def block_matrix(blocks, w) -> np.ndarray:
    """Dense block projection: sum over blocks of z times its E-functional."""
    M = np.zeros((len(w), len(w)))
    for z, E in blocks:
        idx = np.asarray(E) - 1
        f = np.zeros(len(w))
        f[idx] = z[idx] * w[idx] ** 2 / np.sum((z[idx] * w[idx]) ** 2)
        M += np.outer(z, f)
    return M


def apply_blocks(blocks, x, w) -> np.ndarray:
    """Block projection of a dense x without forming the matrix."""
    out = np.zeros_like(x)
    for z, E in blocks:
        idx = np.asarray(E) - 1
        zE = z[idx] * w[idx] ** 2
        out += (zE @ x[idx]) / (zE @ z[idx]) * z
    return out


def gram_matrix(B, w) -> np.ndarray:
    """Orthogonal projection onto span(columns of B) in the weighted product."""
    W2 = w**2
    return B @ np.linalg.solve((B * W2[:, None]).T @ B, B.T * W2[None, :])


def opnorm_2w_exact(A, w) -> float:
    return float(np.linalg.norm((w[:, None] * A) / w[None, :], 2))


def opnorm_xp_upper(A, w, p, prop12=None) -> float:
    """Certified upper bound max(||A||_{p->p} bound, ||W A W^-1||_2).

    ||A||_{p->p} <= ||A||_1^(1/p) ||A||_inf^(1-1/p) (Riesz-Thorin). A
    normalized block system also obeys max(1/delta, c); the smaller wins.
    """
    col = float(np.max(np.sum(np.abs(A), axis=0)))
    row = float(np.max(np.sum(np.abs(A), axis=1)))
    upper = max(col ** (1.0 / p) * row ** (1.0 - 1.0 / p), opnorm_2w_exact(A, w))
    return upper if prop12 is None else min(upper, float(prop12))


def window_of(vectors) -> list[int]:
    return sorted({int(i) for v in vectors for i, _ in v})


def columns(vectors, window) -> np.ndarray:
    pos = {i: k for k, i in enumerate(window)}
    B = np.zeros((len(window), len(vectors)))
    for j, v in enumerate(vectors):
        for i, c in v:
            B[pos[int(i)], j] += float(c)
    return B


# -- report-level checks ----------------------------------------------------

def check_report_checks(report: dict) -> list[str]:
    """Re-evaluate every applicable lhs op rhs and the verdict they imply."""
    out = []
    verdict = True
    for c in report.get("checks", []):
        if not c.get("applicable", True):
            continue
        holds = compare(c["lhs"], c["op"], c["rhs"])
        verdict = verdict and bool(c.get("ok"))
        if not holds:
            out.append(f"check {c['name']}: {c['lhs']} {c['op']} {c['rhs']} does not hold")
        elif not c.get("ok"):
            out.append(f"check {c['name']}: reported failing though its sides hold")
    if "verdict" in report and bool(report["verdict"]) != verdict:
        out.append(f"verdict {report['verdict']} disagrees with its checks")
    return out


def _sides(report: dict, name: str, lhs, rhs) -> list[str]:
    for c in report.get("checks", []):
        if c["name"] == name:
            out = []
            if not close(c["lhs"], lhs):
                out.append(f"check {name}: lhs {c['lhs']} != recomputed {lhs}")
            if not close(c["rhs"], rhs):
                out.append(f"check {name}: rhs {c['rhs']} != recomputed {rhs}")
            return out
    return [f"check {name} missing from the report"]


def _entries_close(label, entries, want, scale=None) -> list[str]:
    """Sparse [index, value] entries against a dense vector.

    Entries the recomputation makes exactly zero may carry roundoff of order
    1e-16 * scale in the program's sparse arithmetic; scale defaults to
    max|want| and is max|x| for parts split off x.
    """
    got = dense(entries, len(want))
    if scale is None:
        scale = float(np.max(np.abs(want), initial=0.0))
    tol = REL * np.maximum(np.abs(want), 1e-6 * scale)
    bad = np.abs(got - want) > tol
    if np.any(bad):
        k = int(np.argmax(bad))
        return [f"{label}[{k + 1}]: {got[k]!r} != recomputed {want[k]!r}"]
    return []


def _values(label, got, want, rel=REL) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    bad = np.abs(got - want) > rel * np.maximum(np.abs(want), 1e-300)
    if np.any(bad):
        k = int(np.argmax(bad))
        return [f"{label}[{k}]: {got.flat[k]!r} != {want.flat[k]!r}"]
    return []


# -- docs workload ----------------------------------------------------------

def check_norm(xdoc: dict, data: dict) -> list[str]:
    w = space_weights(xdoc)
    p = float(xdoc["p"])
    x = dense(xdoc["entries"], len(w))
    n_p, n_2 = norm_p(x, p), norm_2w(x, w)
    out = []
    for key, want in (("norm_p", n_p), ("norm_2w", n_2), ("xp_norm", max(n_p, n_2)),
                      ("ratio", n_2 / n_p)):
        if data.get(key) is None or not close(data[key], want):
            out.append(f"{key}: {data.get(key)} != recomputed {want}")
    return out


def check_project(xdoc: dict, opdoc: dict, data: dict) -> list[str]:
    w = space_weights(opdoc)
    p = float(opdoc["p"])
    x = dense(xdoc["entries"], len(w))
    blocks = [(dense(b["entries"], len(w)), b["E"]) for b in opdoc["blocks"]]
    px = apply_blocks(blocks, x, w)
    out = _entries_close("Px", data["Px"], px)
    out += _values("xp_norm_x", [data["xp_norm_x"]], [xp_norm(x, w, p)])
    out += _values("xp_norm_Px", [data["xp_norm_Px"]], [xp_norm(px, w, p)])
    delta, c = block_constants(blocks, w, p)
    out += _values("analytic_bound", [data["analytic_bound"]], [max(1.0 / delta, c)])
    return out


def check_rosenthal(spdoc: dict, I, data: dict) -> list[str]:
    w = space_weights(spdoc)
    p = float(spdoc["p"])
    idx = np.asarray(sorted(I)) - 1
    blk = data["block"]
    out = []
    if blk["support"] != sorted(I) or blk["E"] != sorted(I):
        out.append("extremal block support or E differs from I")
    if [int(i) for i, _ in blk["entries"]] != sorted(I):
        return out + ["extremal block entries are not indexed by I"]
    out += _values("entries", [v for _, v in blk["entries"]], w[idx] ** (2.0 / (p - 2.0)))
    omega = float(np.sum(w[idx] ** (2.0 * p / (p - 2.0))))
    out += _values("c", [blk["c"]], [omega ** (-1.0 / p)])
    if blk["delta"] != 1.0:
        out.append(f"delta {blk['delta']} != 1")
    return out


def check_block_conditions(bdoc: dict, spdoc: dict, report: dict) -> list[str]:
    w = space_weights(spdoc)
    p = float(spdoc["p"])
    z = dense(bdoc["entries"], len(w))
    idx = np.asarray(bdoc["E"]) - 1
    core2 = norm_2w(z[idx], w[idx])
    out = _sides(report, "condition_a", core2, bdoc["delta"] * norm_2w(z, w))
    out += _sides(report, "condition_b", bdoc["c"] * core2, ratio_cap(w[idx], p))
    return out + check_report_checks(report)


def check_thm13_report(wdoc: dict, report: dict) -> list[str]:
    w = space_weights(wdoc)
    p = float(wdoc["p"])
    x = dense(wdoc["entries"], len(w))
    N = int(wdoc["N"])
    idx = np.asarray(wdoc["E"]) - 1
    head = xp_norm(x[:N], w[:N], p)
    xE2 = norm_2w(x[idx], w[idx])
    x2 = norm_2w(x, w)
    cap = ratio_cap(w[idx], p)
    c = float(wdoc["c"])
    out = _sides(report, "head_small", head, 1.0 / N)
    out += _sides(report, "E_mass_share", xE2, float(wdoc["delta"]) * x2)
    out += _sides(report, "window_upper", float(wdoc["eps"]), c * xE2)
    out += _sides(report, "mass_vs_window", c * xE2, cap)
    out += _sides(report, "window_lower", cap, float(wdoc["eps_prime"]))
    return out + check_report_checks(report)


def large_set(y, w, p, F, rho) -> list[int]:
    """Indices j of F with |y_j| >= rho * w_j^(2/(p-2)) * |y|_2w^(-2/(p-2))."""
    e = 2.0 / (p - 2.0)
    scale = norm_2w(y, w) ** (-e)
    return [j for j in sorted(F) if abs(y[j - 1]) >= rho * w[j - 1] ** e * scale]


def check_proof_bounds_report(ydoc: dict, F, rho, delta, report: dict) -> list[str]:
    w = space_weights(ydoc)
    p = float(ydoc["p"])
    y = dense(ydoc["entries"], len(w))
    E = large_set(y, w, p, F, rho)
    data = report["data"]
    if data["E"] != E:
        return [f"extracted set {data['E']} != recomputed {E}"]
    idx = np.asarray(E, dtype=int) - 1
    yE = np.zeros_like(y)
    yE[idx] = y[idx]
    drop = np.zeros_like(y)
    rest = np.asarray(sorted(set(F) - set(E)), dtype=int) - 1
    drop[rest] = y[rest]
    yE2 = norm_2w(yE, w)
    dp = norm_p(drop, p)
    base = 1.0 - rho ** (p - 2.0)
    out = _sides(report, "E_mass_ceiling", float(np.sum(w[idx] ** (2 * p / (p - 2)))),
                 rho**-2.0 * delta ** (-4.0 / (p - 2.0)) * yE2 ** (2.0 * p / (p - 2.0)))
    out += _sides(report, "dropped_p_mass", dp**p, rho ** (p - 2.0))
    out += _sides(report, "kept_norm_floor", xp_norm(yE, w, p),
                  base ** (1.0 / p) if base > 0 else 0.0)
    out += _sides(report, "dropped_p_norm", dp, rho ** (1.0 - 2.0 / p))
    out += _values("yE_2w/y_2w", [data["yE_2w"], data["y_2w"]], [yE2, norm_2w(y, w)])
    return out + check_report_checks(report)


def check_gen_thm13(spdoc: dict, eps, delta, c, count, report: dict) -> list[str]:
    w = space_weights(spdoc)
    p = float(spdoc["p"])
    wits = report["data"]["witnesses"]
    out = [] if len(wits) == count else [f"{len(wits)} witnesses, asked for {count}"]
    seen: set[int] = set()
    for k, wd in enumerate(wits):
        E = list(wd["E"])
        idx = np.asarray(E) - 1
        x = dense(wd["entries"], len(w))
        if seen & set(E) or wd["N"] != E[0] - 1:
            out.append(f"witness {k}: E overlaps an earlier set or N != min(E) - 1")
        seen |= set(E)
        if [int(i) for i, _ in wd["entries"]] != E:
            out.append(f"witness {k}: entries are not supported on E")
            continue
        prof = w[idx] ** (2.0 / (p - 2.0))
        out += _values(f"witness {k} profile", x[idx], prof / xp_norm(prof, w[idx], p))
        cap = ratio_cap(w[idx], p)
        if not (eps / 2.0 * (1 - REL) <= cap <= min(eps / c, 1.0) * (1 + REL)):
            out.append(f"witness {k}: ratio cap {cap} outside [eps/2, min(eps/c, 1)]")
        if not (wd["c"], wd["delta"], wd["eps"], wd["eps_prime"]) == (c, delta, eps, eps / 2.0):
            out.append(f"witness {k}: constants differ from the request")
    return out + check_report_checks(report)


def split_schedule(delta, c, eps, normP, normP2, p) -> dict:
    """The published constant schedule: beta half its cap, alpha mid-interval."""
    beta = 0.5 * min((1.0 - delta * normP2) / normP, eps / c)
    while True:
        floor = max(beta * delta * normP2 / (1.0 - beta * normP),
                    beta**2 * normP / (1.0 - delta * normP2))
        if floor < beta:
            break
        beta *= 0.5
    alpha = 0.5 * (floor + beta)
    e = p / (p - 2.0)
    rho = min(c**-e * delta ** (2.0 / (p - 2.0)), beta**e)
    return {"delta": delta, "c": c, "eps": eps, "normP": normP, "normP2": normP2, "p": p,
            "alpha": alpha, "beta": beta, "rho": rho, "eps_prime": 0.5 * min(eps, delta * alpha)}


def check_split_mask(xdoc: dict, consts: dict, report: dict) -> list[str]:
    """Split through a coordinate-mask projection: y is x on its large set."""
    w = space_weights(xdoc)
    p = float(xdoc["p"])
    x = dense(xdoc["entries"], len(w))
    support = [int(i) for i, _ in xdoc["entries"]]
    E = large_set(x, w, p, support, consts["rho"])
    data = report["data"]
    out = [] if data["E_x"] == E else [f"E_x {data['E_x']} != recomputed {E}"]
    y = np.zeros_like(x)
    y[np.asarray(E, dtype=int) - 1] = x[np.asarray(E, dtype=int) - 1]
    scale = float(np.max(np.abs(x)))
    out += _entries_close("y", data["y"], y, scale) + _entries_close("z", data["z"], x - y, scale)
    rx = norm_2w(x, w) / norm_p(x, p)
    out += _values("ratio x", [data["ratios"]["x"]], [rx])
    if not consts["alpha"] < rx < consts["beta"]:
        out.append("generated x lies outside the ratio window")
    return out + check_report_checks(report)


def check_weights_gen(famdoc: dict, data: dict) -> list[str]:
    return _values("weights", data["weights"], family_weights(famdoc))


def check_weights_diag(famdoc: dict, eps, D_list, p, data: dict) -> list[str]:
    Ds = sorted(set(D_list))
    w = family_weights(famdoc, Ds[-1])
    q = 2.0 * p / (p - 2.0)
    S = {D: float(np.sum(np.where(w[:D] < eps, w[:D], 0.0) ** q)) for D in Ds}
    out = _values("S", [r["S"] for r in data["rows"]], [S[D] for D in Ds])
    ratios = [S[2 * D] / S[D] for D in Ds if 2 * D in S and S[D] > 0]
    out += _values("doubling_ratios", [r["ratio"] for r in data["doubling_ratios"]], ratios)
    flag = "diverging" if ratios and all(r >= 1.5 for r in ratios) else "saturating"
    if data["flag"] != flag:
        out.append(f"flag {data['flag']} != {flag}")
    return out


def operator_of_doc(opdoc: dict):
    """(window, dense matrix, window weights, p, prop12) of an operator doc.

    prop12 is max(1/delta, c) for a block projection whose blocks all have
    unit norm, else None.
    """
    w_all = space_weights(opdoc)
    p = float(opdoc["p"])
    if opdoc["kind"] == "block-projection":
        vecs = [b["entries"] for b in opdoc["blocks"]]
        window = window_of(vecs)
        w = w_all[np.asarray(window) - 1]
        pos = {i: k for k, i in enumerate(window)}
        blocks = [(columns([b["entries"]], window)[:, 0], [pos[i] + 1 for i in b["E"]])
                  for b in opdoc["blocks"]]
        delta, c = block_constants(blocks, w, p)
        unit = all(close(xp_norm(z, w, p), 1.0) for z, _ in blocks)
        return window, block_matrix(blocks, w), w, p, max(1.0 / delta, c) if unit else None
    window = window_of(opdoc["vectors"])
    w = w_all[np.asarray(window) - 1]
    return window, gram_matrix(columns(opdoc["vectors"], window), w), w, p, None


def check_opnorm_report(opdoc: dict, mode: str, data: dict) -> tuple[list[str], float | None]:
    """Problems of an ``xplab opnorm`` report, and its attained share."""
    window, A, w, p, prop12 = operator_of_doc(opdoc)
    if data.get("degenerate") or not set(i for i, _ in data["witness"]) <= set(window):
        return ["degenerate estimate or witness outside the window"], None
    bound = prop12 if mode == "xp" else None
    out = check_opnorm(A, w, p, mode, data["lower"], columns([data["witness"]], window)[:, 0],
                       bound)
    got = data.get("analytic_upper")
    if (got is None) != (bound is None) or (bound is not None and not close(got, bound)):
        out.append(f"analytic_upper {got} != max(1/delta, c) = {bound}")
    return out, attained(A, w, p, mode, data["lower"], bound)


# -- estimate workload ------------------------------------------------------

def check_opnorm(A, w, p, mode, lower, witness, prop12=None) -> list[str]:
    """lower is certified by its witness and stays under a certified upper bound.

    witness is a dense array over the operator's window. prop12 is
    max(1/delta, c) for a normalized block system, else None.
    """
    out = []
    exact2 = opnorm_2w_exact(A, w)
    upper = exact2 if mode == "2w" else opnorm_xp_upper(A, w, p, prop12)
    if not lower <= upper * (1.0 + REL):
        out.append(f"{mode} lower {lower} exceeds certified upper {upper}")
    den = mode_norm(witness, w, p, mode)
    if not den > 0:
        return out + ["witness is zero"]
    got = mode_norm(A @ witness, w, p, mode) / den
    if not close(got, lower):
        out.append(f"witness ratio {got} != reported lower {lower}")
    return out


def attained(A, w, p, mode, lower, prop12=None) -> float:
    """lower over the exact 2w norm, or over the certified xp upper bound."""
    upper = opnorm_2w_exact(A, w) if mode == "2w" else opnorm_xp_upper(A, w, p, prop12)
    return float(lower) / upper


def check_oracle(estimate, oracle, tol=ORACLE_TOL) -> list[str]:
    gap = abs(estimate - oracle) / oracle
    return [] if gap <= tol else [f"estimator {estimate} and oracle {oracle} differ by {gap:.3%}"]


def check_span_ratios(B, w, p, h_inf=None, r_sup=None) -> list[str]:
    """min w <= h_inf <= ratio(v) <= r_sup <= omega(window)^((p-2)/2p) for all v."""
    ratios = [norm_2w(B[:, j], w) / norm_p(B[:, j], p) for j in range(B.shape[1])]
    out = []
    for name, val, lo, hi in (("h_inf", h_inf, float(np.min(w)), min(ratios)),
                              ("r_sup", r_sup, max(ratios), ratio_cap(w, p))):
        if val is not None and not lo * (1.0 - REL) <= val <= hi * (1.0 + REL):
            out.append(f"{name} {val} outside its certified bracket [{lo}, {hi}]")
    return out


def defect_bracket(x, B, w, p) -> tuple[float, float]:
    """[2w least-squares residual, min(1, xp of that residual)] over ||x||."""
    a, *_ = np.linalg.lstsq(B * w[:, None], x * w, rcond=None)
    res = x - B @ a
    nx = xp_norm(x, w, p)
    return norm_2w(res, w) / nx, min(1.0, xp_norm(res, w, p) / nx)


def check_defect(x, B, w, p, defect, disjoint=False) -> list[str]:
    lo, hi = defect_bracket(x, B, w, p)
    out = []
    if not lo * (1.0 - REL) <= defect <= hi * (1.0 + REL):
        out.append(f"defect {defect} outside the certified bracket [{lo}, {hi}]")
    if disjoint and abs(defect - 1.0) > REL:
        out.append(f"disjoint-support defect {defect} != 1")
    return out


def check_chain(Qmat, w, p, x, bprime, chain: dict, opnorm_upper) -> list[str]:
    """prop-26 chain: both sides recomputed, and the estimate under its bound."""
    qx = Qmat @ x
    rx = norm_2w(x, w) / norm_p(x, p)
    lhs = xp_norm(qx, w, p)
    rhs = math.sqrt(chain["opnorm_upper_used"]) * math.sqrt(rx) * xp_norm(x, w, p) / bprime
    out = _values("chain lhs/rhs/ratio", [chain["lhs"], chain["rhs"], chain["ratio_x"]],
                  [lhs, rhs, rx])
    if not compare(lhs, "<=", rhs):
        out.append(f"chain {lhs} <= {rhs} does not hold")
    if not chain["ok"]:
        out.append("chain reported as failing")
    if not chain["opnorm_lower"] <= opnorm_upper * (1.0 + REL):
        out.append(f"chain opnorm {chain['opnorm_lower']} exceeds upper {opnorm_upper}")
    return out


# -- campaign workload ------------------------------------------------------

def check_campaign_report(report: dict, sizes: dict) -> list[str]:
    """Verdict holds, checks re-evaluate, and reported sizes equal those asked."""
    out = [] if report.get("verdict") else ["verdict is false"]
    out += check_report_checks(report)
    data = report.get("data", {})
    for key, want in sizes.items():
        if data.get(key) != want:
            out.append(f"size {key}: reported {data.get(key)} != asked {want}")
    if "forced_defect" in data and abs(data["forced_defect"] - 1.0) > REL:
        out.append(f"forced disjoint defect {data['forced_defect']} != 1")
    return out
