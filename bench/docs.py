"""docs: a stream of in-process ``xplab.cli.run`` commands over generated documents.

Documents range from the two-entry pair space of the fixtures to 4096-entry
vectors in D = 65536 spaces whose weights are family documents, so every
command that reads such a space regenerates and validates 65536 weights. One
pass runs 38 commands: norm, project, blocks rosenthal/check, split with the
full constant set, check thm13/proof-bounds, gen thm13, weights gen/diag and
opnorm at a small budget, then repeats three of them, whose reports must be
byte-identical to the first run's.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

import reference as ref
from common import (Op, block_system, cli_call, normalized, projection_doc, read_report, rng,
                    sparse_vectors, write_json)

OPNORM_BUDGET = 32


def _spaces(seed: int) -> dict:
    g = rng(seed, 100)

    def p():
        return float(g.uniform(3.0, 6.0))

    return {
        "pair": {"p": 4.0, "weights": [1.0, 0.5]},
        "small": {"p": p(), "weights": g.uniform(0.05, 2.0, size=16).tolist()},
        "medium": {"p": p(), "weights": {"kind": "power-law", "a": float(g.uniform(0.3, 0.5)),
                                         "D": 1024}},
        "large_pl": {"p": p(), "weights": {"kind": "power-law", "a": float(g.uniform(0.3, 0.5)),
                                           "D": 65536}},
        "large_di": {"p": p(), "weights": {"kind": "doubly-indexed",
                                           "level_exp": float(g.uniform(0.1, 0.3)),
                                           "mult_exp": float(g.uniform(0.5, 1.2)), "D": 65536}},
    }


def _split_instance(g):
    """Unit vector x, mask projection and full constants meeting split's preconditions.

    One heavy coordinate with a tiny weight carries the p-norm; k light
    coordinates with weight near 1 sit below the extraction threshold and
    put ratio(x) inside (alpha, beta).
    """
    p = float(g.uniform(3.5, 7.5))
    consts = ref.split_schedule(float(g.uniform(0.1, 0.4)), 1.0, float(g.uniform(0.05, 0.3)),
                                1.05, 1.05, p)
    alpha, beta, rho = consts["alpha"], consts["beta"], consts["rho"]
    w_small = float(g.uniform(0.7, 1.0))
    ce = 2.0 / (p - 2.0)
    t_max = math.sqrt(max((0.98 * beta) ** 2 - (1.02 * alpha) ** 2, 0.0))
    t = min(float(g.uniform(0.4, 0.8)) * rho * w_small**ce * beta**-ce, 0.9 * t_max)
    k = max(1, int(round((0.5 * (alpha + beta) / (t * w_small)) ** 2)))
    k_lo = int(math.ceil((1.02 * alpha / (t * w_small)) ** 2))
    k_hi = int(math.floor((0.98 * beta / (t * w_small)) ** 2))
    k = min(max(k, k_lo), max(k_hi, k_lo))
    N = int(g.integers(2, 7))
    support = list(range(N + 1, N + 2 + k))
    w = np.full(support[-1] + 4, w_small)
    w[N] = float(g.uniform(0.2, 0.99)) * 0.5 * consts["delta"] * alpha
    vals = np.full(len(support), t)
    vals[0] = (1.0 - k * t**p) ** (1.0 / p)
    vals = normalized(vals, w[np.asarray(support) - 1], p)
    space = {"p": p, "weights": w.tolist()}
    xdoc = dict(space, entries=[[i, v] for i, v in zip(support, vals.tolist())])
    mask = dict(space, kind="block-projection", blocks=[
        {"support": [n], "E": [n], "entries": [[n, 1.0 / max(1.0, w[n - 1])]], "delta": 1.0,
         "c": 1.0} for n in support])
    return xdoc, mask, consts, N


def _thm13_witness(g, space, w):
    """Normalized extremal block on a tail set E past N with omega(E) <= 0.9."""
    p = space["p"]
    q = 2.0 * p / (p - 2.0)
    N = int(g.integers(8, 65))
    E, mass = [], 0.0
    for n in g.permutation(np.arange(N + 1, min(N + 4097, len(w) + 1))):
        if mass + w[n - 1] ** q <= 0.9:
            E.append(int(n))
            mass += w[n - 1] ** q
        if len(E) == 16:
            break
    E.sort()
    idx = np.asarray(E) - 1
    y = normalized(w[idx] ** (2.0 / (p - 2.0)), w[idx], p)
    c = 1.5
    xE2 = ref.norm_2w(y, w[idx])
    return dict(space, entries=[[i, v] for i, v in zip(E, y.tolist())], E=E, N=N, c=c,
                delta=0.5, eps=1.1 * c * xE2, eps_prime=0.5 * ref.ratio_cap(w[idx], p))


def generate(seed: int, outdir: Path) -> dict:
    spaces = _spaces(seed)
    W = {name: ref.space_weights(sp) for name, sp in spaces.items()}
    cmds: list = []
    counter = itertools.count()

    def doc(obj) -> str:
        return write_json(outdir / f"doc-{next(counter)}.json", obj)

    def add(name, argv, check):
        out = outdir / f"out-{len(cmds)}.json"
        cmds.append((name, argv + ["--out", str(out)], out, check))
        return len(cmds) - 1

    # norm
    xdocs = {"pair": dict(spaces["pair"], entries=[[1, 1.0], [2, 1.0]])}
    for k, (name, size) in enumerate((("small", 8), ("medium", 256), ("large_pl", 4096),
                                      ("large_di", 4096))):
        g = rng(seed, 110, k)
        (entries,) = sparse_vectors(g, 1, range(1, len(W[name]) + 1), size)
        xdocs[name] = dict(spaces[name], entries=entries)
    xpaths = {name: doc(x) for name, x in xdocs.items()}
    norm_large = None
    for name, x in xdocs.items():
        i = add(f"norm {name}", ["norm", "--x", xpaths[name]],
                lambda rep, x=x: (ref.check_norm(x, rep["data"]), None))
        norm_large = i if name == "large_pl" else norm_large

    # project
    for k, (name, window, max_size) in enumerate((("pair", 2, 2), ("small", 8, 6),
                                                   ("medium", 256, 32), ("large_pl", 4096, 128))):
        if name == "pair":
            blocks = [([1, 2], [1.0, 0.5], [1, 2])]
        else:
            blocks = block_system(rng(seed, 120, k), window, W[name], spaces[name]["p"], max_size)
        opdoc = projection_doc(spaces[name]["p"], spaces[name]["weights"], blocks)
        add(f"project {name}", ["project", "--x", xpaths[name], "--projection", doc(opdoc)],
            lambda rep, x=xdocs[name], op=opdoc: (ref.check_project(x, op, rep["data"]), None))

    # blocks rosenthal and blocks check
    for k, (name, size) in enumerate((("small", 4), ("medium", 64), ("large_di", 1024))):
        g = rng(seed, 130, k)
        I = sorted(int(i) for i in g.choice(np.arange(1, len(W[name]) + 1), size, replace=False))
        add(f"rosenthal {name}", ["blocks", "rosenthal", "--space", doc(spaces[name]),
                                  "--I", ",".join(map(str, I))],
            lambda rep, sp=spaces[name], I=I: (ref.check_rosenthal(sp, I, rep["data"]), None))
    for k, (name, size) in enumerate((("small", 4), ("medium", 64), ("large_pl", 1024))):
        g = rng(seed, 140, k)
        w = W[name]
        (entries,) = sparse_vectors(g, 1, range(1, len(w) + 1), size)
        support = [i for i, _ in entries]
        E = sorted(int(i) for i in g.choice(support, size // 2, replace=False))
        z = ref.dense(entries, len(w))
        idx = np.asarray(E) - 1
        core2 = ref.norm_2w(z[idx], w[idx])
        bdoc = {"support": support, "E": E, "entries": entries,
                "delta": 0.9 * core2 / ref.norm_2w(z, w),
                "c": 1.1 * ref.ratio_cap(w[idx], spaces[name]["p"]) / core2}
        add(f"blocks check {name}", ["blocks", "check", "--block", doc(bdoc),
                                     "--space", doc(spaces[name])],
            lambda rep, b=bdoc, sp=spaces[name]: (ref.check_block_conditions(b, sp, rep), None))

    # split with the full constant set
    for k in range(2):
        xdoc, mask, consts, N = _split_instance(rng(seed, 150, k))
        add(f"split {k}", ["split", "--x", doc(xdoc), "--constants", doc(consts),
                           "--projection", doc(mask), "--N", str(N)],
            lambda rep, x=xdoc, c=consts: (ref.check_split_mask(x, c, rep), None))

    # check thm13 and proof-bounds
    for k, name in enumerate(("medium", "large_di")):
        wdoc = _thm13_witness(rng(seed, 160, k), spaces[name], W[name])
        add(f"thm13 {name}", ["check", "thm13", "--witness", doc(wdoc)],
            lambda rep, wd=wdoc: (ref.check_thm13_report(wd, rep), None))
    for k, (name, size) in enumerate((("small", 8), ("medium", 128))):
        g = rng(seed, 170, k)
        w, p = W[name], spaces[name]["p"]
        (entries,) = sparse_vectors(g, 1, range(1, len(w) + 1), size)
        y = ref.dense(entries, len(w))
        ydoc = dict(spaces[name], entries=[[i, v / ref.xp_norm(y, w, p)] for i, v in entries])
        extra = [int(i) for i in g.choice(np.arange(1, len(w) + 1), 2, replace=False)]
        F = sorted({i for i, _ in entries} | set(extra))
        rho, delta = float(g.uniform(0.05, 0.9)), float(g.uniform(0.1, 1.0))
        add(f"proof-bounds {name}", ["check", "proof-bounds", "--y", doc(ydoc), "--F",
                                     ",".join(map(str, F)), "--rho", repr(rho),
                                     "--delta", repr(delta)],
            lambda rep, yd=ydoc, F=F, r=rho, d=delta:
                (ref.check_proof_bounds_report(yd, F, r, d, rep), None))

    # gen thm13: eps puts the cap window at [2 w, min(4 w / c, 1)] past start
    for k, (name, lo, hi) in enumerate((("medium", 64, 256), ("large_pl", 1024, 8192))):
        g = rng(seed, 180, k)
        start = int(g.integers(lo, hi))
        eps = 4.0 * float(W[name][start])
        c, delta = float(g.uniform(1.1, 1.5)), float(g.uniform(0.2, 1.0))
        add(f"gen thm13 {name}", ["gen", "thm13", "--space", doc(spaces[name]), "--eps", repr(eps),
                                  "--delta", repr(delta), "--c", repr(c), "--count", "2",
                                  "--start", str(start), "--seed", str(seed)],
            lambda rep, sp=spaces[name], e=eps, d=delta, c=c:
                (ref.check_gen_thm13(sp, e, d, c, 2, rep), None))

    # weights gen and diag
    g = rng(seed, 190)
    families = [
        {"kind": "constant", "value": float(g.uniform(0.1, 2.0)), "D": 16},
        {"kind": "power-law", "a": float(g.uniform(0.05, 0.5)), "D": 1024},
        {"kind": "geometric", "ratio": float(g.uniform(0.99, 0.999)),
         "scale": float(g.uniform(0.5, 2.0)), "D": 4096},
        spaces["large_di"]["weights"],
        {"kind": "explicit", "values": g.uniform(0.05, 2.0, size=256).tolist()},
    ]
    weights_large = None
    for fam in families:
        i = add(f"weights gen {fam['kind']}", ["weights", "gen", "--family", doc(fam)],
                lambda rep, f=fam: (ref.check_weights_gen(f, rep["data"]), None))
        weights_large = i if fam is families[3] else weights_large
    p = float(g.uniform(3.0, 6.0))
    a = float(g.uniform(0.1, 0.3))
    a_pl = float(g.uniform(0.1, 0.5))
    doublings = [1024 * 2**j for j in range(7)]
    for fam, eps, D_list in (
        # eps falls between the 512th and 513th weights: every partial sum is
        # positive and no weight ties with eps
        ({"kind": "power-law", "a": a_pl, "D": 65536}, 512.5**-a_pl, doublings),
        ({"kind": "doubly-indexed", "level_exp": a, "mult_exp": a * 2 * p / (p - 2), "D": 65536},
         0.5, doublings),
        ({"kind": "geometric", "ratio": float(g.uniform(0.99, 0.999)), "D": 4096},
         float(g.uniform(0.2, 0.6)), [256 * 2**j for j in range(5)]),
    ):
        add(f"weights diag {fam['kind']}", ["weights", "diag", "--family", doc(fam),
                                            "--eps", repr(eps), "--D-list",
                                            ",".join(map(str, D_list)), "--p", repr(p)],
            lambda rep, f=fam, e=eps, Ds=D_list, p=p:
                (ref.check_weights_diag(f, e, Ds, p, rep["data"]), None))

    # opnorm at a small budget, on operators from a fixed seed, as in campaign
    g = rng(0, 200)
    sp = {"p": float(g.uniform(3.0, 6.0)), "weights": g.uniform(0.05, 2.0, size=16).tolist()}
    w = np.asarray(sp["weights"])
    window = np.sort(g.choice(np.arange(1, 17), 12, replace=False))
    opdocs = {"block": projection_doc(sp["p"], sp["weights"], block_system(g, 16, w, sp["p"])),
              "gram": dict(sp, kind="gram", vectors=sparse_vectors(g, 3, window, 8))}
    opnorm_first = None
    for kind, opdoc in opdocs.items():
        path = doc(opdoc)
        for mode in ("xp", "2w"):
            i = add(f"opnorm {kind} {mode}", ["opnorm", "--op", path, "--mode", mode,
                                              "--budget", str(OPNORM_BUDGET), "--seed", str(seed)],
                    lambda rep, op=opdoc, m=mode: _opnorm_check(op, m, rep))
            opnorm_first = i if opnorm_first is None else opnorm_first

    # repeats: same argv, byte-identical report
    for i in (norm_large, weights_large, opnorm_first):
        name, argv, _, _ = cmds[i]
        out = outdir / f"out-{len(cmds)}.json"
        cmds.append((f"repeat {name}", argv[:-1] + [str(out)], out, i))
    return {"cmds": cmds}


def _opnorm_check(opdoc, mode, rep):
    problems, share = ref.check_opnorm_report(opdoc, mode, rep["data"])
    return problems, (mode, share)


def run_pass(inp: dict) -> tuple[float, list[Op]]:
    ops: list[Op] = []
    raw_of: dict = {}
    for name, argv, out, check in inp["cmds"]:
        out.unlink(missing_ok=True)
        seconds, code, err = cli_call(argv)
        raw, rep = read_report(out)
        raw_of[out] = raw
        problems = [] if code == 0 else [f"exit code {code}: {err.strip()[-200:]}"]
        attained = None
        if rep is None:
            problems.append("no report written")
        elif isinstance(check, int):
            if raw != raw_of[inp["cmds"][check][2]]:
                problems.append("repeated command gave different report bytes")
        else:
            try:
                more, attained = check(rep)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                more = [f"report does not have the expected shape: {exc!r}"]
            problems += more
            if not rep.get("verdict", False):
                problems.append("report verdict is false")
        ops.append(Op(name, seconds, problems, attained))
    return sum(op.seconds for op in ops), ops
