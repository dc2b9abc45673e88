"""Command-line surface: JSON in, canonical JSON report out.

Exit codes: 0 all asserted checks passed; 2 some check failed (the report is
still written); 1 usage or I/O error. Reports are byte-identical for the same
(config, seed); wall time goes to stderr only. A report's command is the
command and subcommand joined by a space; its config is every parsed argument
except cmd, sub, seed, out and csv. Commands with a --seed flag record their
seed, which XPLAB_SEED supplies by default, read afresh on every run.

The argument parser is built once per process, on first use, and every run
and every command of a batch parse with it; parsing keeps no state between
runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time

from .blocks import make_block, make_rosenthal
from .criteria import (
    check_proof_bounds,
    check_prop24,
    check_thm13,
    gen_thm13_witnesses,
    kp_classify,
    prop21_diagnostic,
)
from .experiments import DRIVERS, run_experiment
from .operators import BlockProjection, estimate_opnorm, opnorm_upper, prop12_bound
from .report import Report, csv_rows
from .serialize import (
    SerializationError,
    block_to_doc,
    doc_to_block,
    doc_to_constants,
    doc_to_family,
    doc_to_operator,
    doc_to_space,
    doc_to_vector,
    doc_to_witness,
    load_json,
    witness_to_doc,
)
from .space import check, norm_2w, norm_p, ratio, xp_norm
from .splitter import solve_constants, split
from .weights import generate, rosenthal_diagnostic

__all__ = ["run", "main"]

# parsed arguments that select the command or its outputs rather than configure it
_NOT_CONFIG = ("cmd", "sub", "seed", "out", "csv")


def _seed_of(args) -> int | None:
    """--seed, else XPLAB_SEED, else 0; None for commands without a --seed flag."""
    if not hasattr(args, "seed"):
        return None
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("XPLAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise SerializationError(f"XPLAB_SEED must be an integer, got {raw!r}")


def _indices(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise SerializationError(f"expected comma-separated integers, got {text!r}")


def _inline_or_file(text: str):
    if text.lstrip().startswith("{") or text.lstrip().startswith("["):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"malformed inline JSON: {exc}") from exc
    return load_json(text)


def _vector_list(doc: dict, what: str) -> list:
    space = doc_to_space(doc)
    raw = doc.get("vectors")
    if not isinstance(raw, list) or not raw:
        raise SerializationError(f"{what} must carry a nonempty 'vectors' list")
    return [doc_to_vector({"entries": entries}, space) for entries in raw]


def _emit(report: Report, args) -> int:
    text = report.canonical()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_rows(report))
    return 0 if report.verdict else 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="xplab", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, seed=False):
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--csv", help="also write checks as CSV rows")
        if seed:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("norm", help="norms and ratio of one vector")
    p.add_argument("--x", required=True)
    common(p)

    p = sub.add_parser("blocks", help="build or validate blocks")
    bsub = p.add_subparsers(dest="sub", required=True)
    b = bsub.add_parser("rosenthal", help="extremal block on an index set")
    b.add_argument("--space", required=True)
    b.add_argument("--I", required=True, help="comma-separated indices")
    common(b)
    b = bsub.add_parser("check", help="evaluate the two block conditions")
    b.add_argument("--block", required=True)
    b.add_argument("--space", required=True)
    common(b)

    p = sub.add_parser("project", help="apply a block projection")
    p.add_argument("--x", required=True)
    p.add_argument("--projection", required=True)
    common(p)

    p = sub.add_parser("opnorm", help="operator-norm bracket")
    p.add_argument("--op", required=True)
    p.add_argument("--mode", choices=("xp", "2w"), default="xp")
    p.add_argument("--budget", type=int, default=256)
    common(p, seed=True)

    p = sub.add_parser("split", help="ratio split of a unit vector")
    p.add_argument("--x", required=True)
    p.add_argument("--constants", required=True, help="inline JSON or a path")
    p.add_argument("--projection", required=True)
    p.add_argument("--N", type=int, required=True)
    common(p)

    p = sub.add_parser("check", help="criterion checkers")
    csub = p.add_subparsers(dest="sub", required=True)
    c = csub.add_parser("thm13")
    c.add_argument("--witness", required=True)
    common(c)
    c = csub.add_parser("proof-bounds")
    c.add_argument("--y", required=True)
    c.add_argument("--F", required=True, help="comma-separated indices")
    c.add_argument("--rho", type=float, required=True)
    c.add_argument("--delta", type=float, required=True)
    common(c)
    c = csub.add_parser("prop24")
    c.add_argument("--z", required=True, help="vector-list document for the span")
    c.add_argument("--x-sample", required=True, help="vector-list document")
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--beta", type=float, required=True)
    c.add_argument("--bprime", type=float, required=True)
    c.add_argument("--variant", choices=("b", "bprime"), default="b")
    common(c, seed=True)

    p = sub.add_parser("gen", help="witness generators")
    gsub = p.add_subparsers(dest="sub", required=True)
    g = gsub.add_parser("thm13")
    g.add_argument("--space", required=True)
    g.add_argument("--eps", type=float, required=True)
    g.add_argument("--delta", type=float, required=True)
    g.add_argument("--c", type=float, required=True)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--start", type=int, default=0)
    common(g, seed=True)

    p = sub.add_parser("classify", help="span classification")
    ksub = p.add_subparsers(dest="sub", required=True)
    k = ksub.add_parser("kp")
    k.add_argument("--v", required=True, help="vector-list document")
    k.add_argument("--C", type=float, required=True)
    k.add_argument("--tail-start", type=int, default=None)
    k.add_argument("--budget", type=int, default=192)
    common(k, seed=True)

    p = sub.add_parser("diag", help="report-only diagnostics")
    dsub = p.add_subparsers(dest="sub", required=True)
    d = dsub.add_parser("prop21")
    d.add_argument("--u", required=True, help="vector-list document")
    d.add_argument("--w", required=True, help="vector-list document")
    d.add_argument("--projection", required=True)
    d.add_argument("--K", type=float, required=True)
    d.add_argument("--window", type=int, required=True)
    d.add_argument("--head-cut", type=int, default=0)
    d.add_argument("--c", type=float, default=None)
    d.add_argument("--delta", type=float, default=None)
    d.add_argument("--eps", type=float, default=None)
    d.add_argument("--budget", type=int, default=192)
    common(d, seed=True)

    p = sub.add_parser("experiment", help="seeded property campaigns")
    p.add_argument("name", choices=sorted(DRIVERS))
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--repro", help="where the splitter campaign writes a counterexample")
    common(p, seed=True)

    p = sub.add_parser("weights", help="weight families")
    wsub = p.add_subparsers(dest="sub", required=True)
    ww = wsub.add_parser("gen")
    ww.add_argument("--family", required=True, help="inline JSON or a path")
    ww.add_argument("--D", type=int, default=None)
    common(ww)
    ww = wsub.add_parser("diag")
    ww.add_argument("--family", required=True, help="inline JSON or a path")
    ww.add_argument("--eps", type=float, required=True)
    ww.add_argument("--D-list", required=True, help="comma-separated truncations")
    ww.add_argument("--p", type=float, required=True)
    common(ww)

    p = sub.add_parser("batch", help="run a list of commands, aggregate verdicts")
    p.add_argument("--config", required=True)
    common(p)
    return ap


# Each handler takes the parsed arguments and the seed (None for commands
# without --seed) and returns the report's checks and data.


def _cmd_norm(args, seed):
    x = doc_to_vector(load_json(args.x))
    return [], {
        "norm_p": norm_p(x),
        "norm_2w": norm_2w(x),
        "xp_norm": xp_norm(x),
        "ratio": None if x.is_zero() else ratio(x),
    }


def _cmd_blocks(args, seed):
    space = doc_to_space(load_json(args.space))
    if args.sub == "rosenthal":
        blk = make_rosenthal(space, _indices(args.I))
        return [], {"block": block_to_doc(make_block(blk.vector, blk.support))}
    blk = doc_to_block(load_json(args.block), space, require=False)
    return list(blk.conditions), {"delta": blk.delta, "c": blk.c}


def _cmd_project(args, seed):
    op = doc_to_operator(load_json(args.projection))
    x = doc_to_vector(load_json(args.x), getattr(op, "space", None))
    px = op.apply(x)
    data = {"Px": px, "xp_norm_x": xp_norm(x), "xp_norm_Px": xp_norm(px)}
    if isinstance(op, BlockProjection):
        data["analytic_bound"] = prop12_bound(op.system)
        data["normalized_system"] = op.system.normalized
    return [], data


def _cmd_opnorm(args, seed):
    op = doc_to_operator(load_json(args.op))
    est = estimate_opnorm(op, mode=args.mode, budget=args.budget, seed=seed)
    analytic = None
    if isinstance(op, BlockProjection) and args.mode == "xp" and op.system.normalized:
        analytic = prop12_bound(op.system)
    return [], {
        "lower": est.lower,
        "upper": est.upper,
        "witness": est.witness,
        "analytic_upper": analytic,
    }


def _cmd_split(args, seed):
    op = doc_to_operator(load_json(args.projection))
    x = doc_to_vector(load_json(args.x), getattr(op, "space", None))
    cdoc = _inline_or_file(args.constants)
    if not isinstance(cdoc, dict):
        raise SerializationError("constants document must be a JSON object")
    if all(k in cdoc for k in ("alpha", "beta", "rho", "eps_prime")):
        consts = doc_to_constants(cdoc)
    else:
        for k in ("delta", "c", "eps"):
            if k not in cdoc:
                raise SerializationError(f"constants document is missing field {k!r}")
        normP = cdoc.get("normP")
        normP2 = cdoc.get("normP2")
        if normP is None:
            normP = opnorm_upper(op, "xp")
        if normP2 is None:
            normP2 = opnorm_upper(op, "2w")
        consts = solve_constants(cdoc["delta"], cdoc["c"], cdoc["eps"], normP, normP2, x.space.p)
    res = split(x, args.N, consts, op)
    return res.checks, res.to_dict()


def _cmd_check(args, seed):
    if args.sub == "thm13":
        out = check_thm13(doc_to_witness(load_json(args.witness)))
    elif args.sub == "proof-bounds":
        y = doc_to_vector(load_json(args.y))
        out = check_proof_bounds(y, _indices(args.F), args.rho, args.delta)
    else:
        Z = _vector_list(load_json(args.z), "--z")
        X = _vector_list(load_json(args.x_sample), "--x-sample")
        out = check_prop24(
            Z, X, args.eps, args.beta, args.bprime, variant=args.variant, seed=seed
        )
    return out.checks, out.data


def _cmd_gen(args, seed):
    space = doc_to_space(load_json(args.space))
    wits = gen_thm13_witnesses(
        space, args.c, args.delta, args.eps, args.count, start=args.start
    )
    checks = [
        dataclasses.replace(c, name=f"w{k}.{c.name}")
        for k, w in enumerate(wits)
        for c in check_thm13(w).checks
    ]
    return checks, {"witnesses": [witness_to_doc(w) for w in wits]}


def _cmd_classify(args, seed):
    V = _vector_list(load_json(args.v), "--v")
    return [], kp_classify(V, args.C, tail_start=args.tail_start, budget=args.budget, seed=seed)


def _cmd_diag(args, seed):
    U = _vector_list(load_json(args.u), "--u")
    W = _vector_list(load_json(args.w), "--w")
    op = doc_to_operator(load_json(args.projection))
    return [], prop21_diagnostic(
        U,
        W,
        op,
        args.K,
        args.window,
        head_cut=args.head_cut,
        c=args.c,
        delta=args.delta,
        eps=args.eps,
        budget=args.budget,
        seed=seed,
    )


def _cmd_experiment(args, seed):
    kwargs = {}
    if args.name == "splitter" and args.repro:
        kwargs["repro_path"] = args.repro
    out = run_experiment(args.name, seed=seed, scale=args.scale, **kwargs)
    return out.checks, out.data


def _cmd_weights(args, seed):
    fam = doc_to_family(_inline_or_file(args.family))
    if args.sub == "gen":
        return [], {"weights": generate(fam, D=args.D)}
    return [], rosenthal_diagnostic(fam, args.eps, _indices(args.D_list), args.p)


def _cmd_batch(args, seed):
    doc = load_json(args.config)
    runs = doc.get("runs") if isinstance(doc, dict) else doc
    if runs is None or not isinstance(runs, list):
        raise SerializationError("batch config must be a list or carry a 'runs' list")
    parsed = []
    for k, argv in enumerate(runs):
        if not (isinstance(argv, list) and all(isinstance(t, str) for t in argv)):
            raise SerializationError(f"runs[{k}] must be a list of strings")
        if argv and argv[0] == "batch":
            raise SerializationError(f"runs[{k}]: batch cannot nest")
        try:
            _build_parser().parse_args(argv)
        except SystemExit:
            raise SerializationError(f"runs[{k}] failed to parse: {argv!r}")
        parsed.append(argv)
    cfg_dir = os.path.dirname(os.path.abspath(args.config)) or "."
    rows = []
    counts = {"pass": 0, "fail": 0}
    prev = os.getcwd()
    os.chdir(cfg_dir)
    try:
        for argv in parsed:
            code = run(argv)
            ok = code == 0
            counts["pass" if ok else "fail"] += 1
            rows.append({"argv": argv, "exit": code})
    finally:
        os.chdir(prev)
    checks = [check("runs_failed", counts["fail"], "<=", 0)]
    return checks, {"runs": rows, "counts": counts}


_HANDLERS = {
    "norm": _cmd_norm,
    "blocks": _cmd_blocks,
    "project": _cmd_project,
    "opnorm": _cmd_opnorm,
    "split": _cmd_split,
    "check": _cmd_check,
    "gen": _cmd_gen,
    "classify": _cmd_classify,
    "diag": _cmd_diag,
    "experiment": _cmd_experiment,
    "weights": _cmd_weights,
    "batch": _cmd_batch,
}


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    t0 = time.perf_counter()
    try:
        seed = _seed_of(args)
        checks, data = _HANDLERS[args.cmd](args, seed)
        report = Report(
            command=" ".join(filter(None, (args.cmd, getattr(args, "sub", None)))),
            config={k: v for k, v in vars(args).items() if k not in _NOT_CONFIG},
            seed=seed,
            checks=list(checks),
            data=data,
        )
        # wall time is measured around the handler but only reported to stderr
        code = _emit(report, args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wall_time_s={time.perf_counter() - t0:.3f}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
