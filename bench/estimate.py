"""estimate: direct estimator queries on generated operators and spans.

One pass builds every operator and span from the generated documents through
the xplab API and queries it:

* ``estimate_opnorm`` in xp and 2w mode on normalized block projections with
  windows of 16, 64 and 128 indices, and on two Gram projectors;
* ``estimate_h_inf`` and ``estimate_r_sup`` on spans of 2 to 12 vectors;
* ``defect_of`` on six spans and one disjointly supported vector;
* ``estimate_opnorm`` next to ``brute_opnorm`` on dense operators at d <= 6;
* ``estimate_h_inf`` and four ``prop26_chain`` queries on one Gram projector,
  which repeat its operator-norm estimate the way prop-26 chains do.

Budgets shrink as windows grow so that a pass stays near three seconds.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np

import reference as ref
from common import Op, block_system, projection_doc, rng, sparse_vectors

# (name, window, budget) of the block-projection queries
BLOCK_QUERIES = (("P16a", 16, 256), ("P16b", 16, 256), ("P64", 64, 64), ("P128", 128, 16))
GRAM_BUDGET = 64
SPAN_SIZES = (2, 4, 6, 8, 10, 12)
DEFECT_SPANS = (1, 2, 3, 4, 2, 3)
ORACLE_DIMS = (2, 3, 4, 5, 6)
CHAIN_SAMPLES = 4

# The operators behind the opnorm_*_attained shares come from this fixed seed;
# the run's seed drives the estimators' own sampling. Over random operators,
# one query's share of its certified bound ranges from 0.1 to 1.0, and their
# geometric mean would move more from seed to seed than any estimator change.
OPERATOR_SEED = 0


def _space_doc(g, dim, lo=0.05, hi=2.0, p_range=(2.2, 7.0)) -> dict:
    return {"p": float(g.uniform(*p_range)), "weights": g.uniform(lo, hi, size=dim).tolist()}


def generate(seed: int, outdir: Path) -> dict:
    inp = {"seed": int(seed), "blocks": [], "grams": [], "spans": [], "defects": [],
           "oracle": [], "refs": {}}
    for k, (name, window, budget) in enumerate(BLOCK_QUERIES):
        g = rng(OPERATOR_SEED, 10, k)
        sp = _space_doc(g, 2 * window)
        w = np.asarray(sp["weights"])
        inp["blocks"].append((name, budget, projection_doc(sp["p"], sp["weights"],
                                                           block_system(g, window, w, sp["p"]))))
    for k in range(2):
        g = rng(OPERATOR_SEED, 20, k)
        sp = _space_doc(g, 48)
        window = np.sort(g.choice(np.arange(1, 49), size=24, replace=False))
        inp["grams"].append(dict(sp, kind="gram", vectors=sparse_vectors(g, 4, window, 10)))
    for k in SPAN_SIZES:
        g = rng(seed, 30, k)
        sp = _space_doc(g, 32)
        window = np.sort(g.choice(np.arange(1, 33), size=24, replace=False))
        inp["spans"].append(dict(sp, vectors=sparse_vectors(g, k, window, 8)))
    for j, k in enumerate(DEFECT_SPANS):
        g = rng(seed, 40, j)
        sp = _space_doc(g, 24)
        inp["defects"].append(dict(sp, Y=sparse_vectors(g, k, range(1, 17), 6),
                                   x=sparse_vectors(g, 1, range(1, 17), 6)[0], disjoint=False))
    g = rng(seed, 41)
    sp = _space_doc(g, 24)
    inp["defects"].append(dict(sp, Y=sparse_vectors(g, 2, range(1, 9), 4),
                               x=sparse_vectors(g, 1, range(9, 17), 5)[0], disjoint=True))
    for d in ORACLE_DIMS:
        g = rng(OPERATOR_SEED, 50, d)
        inp["oracle"].append({"p": float(g.uniform(2.1, 8.0)), "w": g.uniform(0.05, 2.0, size=d),
                              "A": g.standard_normal((d, d))})
    g = rng(seed, 60)
    sp = _space_doc(g, 40, 0.1, 1.5)
    window = np.sort(g.choice(np.arange(1, 41), size=10, replace=False))
    inp["chain"] = dict(sp, Z=sparse_vectors(g, 3, window, 7),
                        xs=sparse_vectors(g, CHAIN_SAMPLES, range(1, 41), 6))
    return inp


# -- building program objects from the documents ------------------------------

def _space(doc):
    from xplab import WeightedSpace

    return WeightedSpace(doc["p"], tuple(doc["weights"]))


def _vectors(space, vecs):
    from xplab import SpVector

    return [SpVector(space, {i: v for i, v in entries}) for entries in vecs]


def _block_projection(doc):
    from xplab import BlockProjection, BlockSystem, make_block, max_ratio, norm_2w, restrict

    sp = _space(doc)
    blocks = []
    for b in doc["blocks"]:
        (vec,) = _vectors(sp, [b["entries"]])
        core = restrict(vec, b["E"])
        blocks.append(make_block(vec, b["E"], norm_2w(core) / norm_2w(vec),
                                 max_ratio(sp, b["E"]) / norm_2w(core)))
    return BlockProjection(BlockSystem(tuple(blocks)))


def _gram(doc):
    from xplab import GramProjector

    return GramProjector(_vectors(_space(doc), doc["vectors"]))


def _cached(inp, key, build):
    refs = inp["refs"]
    if key not in refs:
        refs[key] = build()
    return refs[key]


def _witness(est, window) -> np.ndarray:
    return ref.columns([list(est.witness.entries.items())], window)[:, 0]


# -- one pass -------------------------------------------------------------------

def _opnorm_queries(inp, label, doc, build, budget):
    """xp then 2w estimate on one operator built once per pass."""
    from xplab import estimate_opnorm

    ops = []
    op = None
    for mode in ("xp", "2w"):
        t0 = time.perf_counter()
        if op is None:
            op = build(doc)
        est = estimate_opnorm(op, mode=mode, budget=budget, seed=inp["seed"])
        seconds = time.perf_counter() - t0
        window, A, w, p, prop12 = _cached(inp, label, lambda: ref.operator_of_doc(doc))
        bound = prop12 if mode == "xp" else None
        problems = ref.check_opnorm(A, w, p, mode, est.lower, _witness(est, window), bound)
        ops.append(Op(f"opnorm {label} {mode}", seconds, problems,
                      (mode, ref.attained(A, w, p, mode, est.lower, bound))))
    return ops


def _span_queries(inp, k, doc):
    from xplab import estimate_h_inf, estimate_r_sup

    ops = []
    V = None
    window = ref.window_of(doc["vectors"])
    B = ref.columns(doc["vectors"], window)
    w = np.asarray(doc["weights"])[np.asarray(window) - 1]
    for name, fn in (("h_inf", estimate_h_inf), ("r_sup", estimate_r_sup)):
        t0 = time.perf_counter()
        if V is None:
            V = _vectors(_space(doc), doc["vectors"])
        val = fn(V, seed=inp["seed"])
        seconds = time.perf_counter() - t0
        ops.append(Op(f"{name} k={k}", seconds,
                      ref.check_span_ratios(B, w, doc["p"], **{name: val})))
    return ops


def _defect_query(inp, j, doc):
    from xplab import defect_of

    t0 = time.perf_counter()
    sp = _space(doc)
    Y = _vectors(sp, doc["Y"])
    (x,) = _vectors(sp, [doc["x"]])
    d = defect_of(x, Y, seed=inp["seed"])
    seconds = time.perf_counter() - t0
    window = ref.window_of(doc["Y"] + [doc["x"]])
    w = np.asarray(doc["weights"])[np.asarray(window) - 1]
    xv = ref.columns([doc["x"]], window)[:, 0]
    problems = ref.check_defect(xv, ref.columns(doc["Y"], window), w, doc["p"], d,
                                disjoint=doc["disjoint"])
    return Op(f"defect {j}", seconds, problems)


def _oracle_queries(inp, d, item):
    from xplab import DenseOperator, WeightedSpace, estimate_opnorm
    from xplab.oracle import brute_opnorm

    A, w, p = item["A"], item["w"], item["p"]
    ops = []
    op = None
    for mode in ("xp", "2w"):
        t0 = time.perf_counter()
        if op is None:
            op = DenseOperator(WeightedSpace(p, tuple(w.tolist())), A, tuple(range(1, d + 1)))
        est = estimate_opnorm(op, mode=mode, budget=256, seed=inp["seed"], rounds=24)
        seconds = time.perf_counter() - t0
        problems = ref.check_opnorm(A, w, p, mode, est.lower, _witness(est, range(1, d + 1)))
        ops.append(Op(f"opnorm d={d} {mode}", seconds, problems,
                      (mode, ref.attained(A, w, p, mode, est.lower))))
        t0 = time.perf_counter()
        val = brute_opnorm(A, w, p, mode=mode)
        seconds = time.perf_counter() - t0
        upper = ref.opnorm_2w_exact(A, w) if mode == "2w" else ref.opnorm_xp_upper(A, w, p)
        problems = ref.check_oracle(est.lower, val)
        if not val <= upper * (1.0 + ref.REL):
            problems.append(f"oracle {val} exceeds certified upper {upper}")
        ops.append(Op(f"oracle d={d} {mode}", seconds, problems))
    return ops


def _chain_queries(inp, doc):
    from xplab import estimate_h_inf, prop26_chain

    def build_ref():
        w = np.asarray(doc["weights"])
        B = ref.columns(doc["Z"], list(range(1, len(w) + 1)))
        Q = ref.gram_matrix(B, w)
        return w, Q, ref.opnorm_xp_upper(Q, w, doc["p"])

    t0 = time.perf_counter()
    Q = _gram(dict(doc, vectors=doc["Z"]))
    h = estimate_h_inf(Q.basis, budget=128, seed=inp["seed"])
    seconds = time.perf_counter() - t0
    window = ref.window_of(doc["Z"])
    wz = np.asarray(doc["weights"])[np.asarray(window) - 1]
    ops = [Op("chain h_inf", seconds,
              ref.check_span_ratios(ref.columns(doc["Z"], window), wz, doc["p"], h_inf=h))]
    bprime = min(0.9 * h, 1.0)
    w, Qm, upper = _cached(inp, "chain", build_ref)
    for k, x in enumerate(_vectors(Q.space, doc["xs"])):
        t0 = time.perf_counter()
        res = prop26_chain(Q, bprime, x, budget=96, seed=inp["seed"])
        seconds = time.perf_counter() - t0
        xv = ref.dense(doc["xs"][k], len(w))
        problems = ref.check_chain(Qm, w, doc["p"], xv, bprime, dataclasses.asdict(res), upper)
        ops.append(Op(f"chain {k}", seconds, problems))
    return ops


def _guard(name, count, fn, *args) -> list[Op]:
    """Run one group of count queries; an exception fails all of them."""
    try:
        out = fn(*args)
    except Exception as exc:  # the pass goes on and counts the failure
        return [Op(name, None, [f"{type(exc).__name__}: {exc}"]) for _ in range(count)]
    return out if isinstance(out, list) else [out]


def run_pass(inp: dict) -> tuple[float, list[Op]]:
    ops: list[Op] = []
    for name, budget, doc in inp["blocks"]:
        ops += _guard(name, 2, _opnorm_queries, inp, name, doc, _block_projection, budget)
    for k, doc in enumerate(inp["grams"]):
        ops += _guard(f"G{k}", 2, _opnorm_queries, inp, f"G{k}", doc, _gram, GRAM_BUDGET)
    for k, doc in zip(SPAN_SIZES, inp["spans"]):
        ops += _guard(f"span k={k}", 2, _span_queries, inp, k, doc)
    for j, doc in enumerate(inp["defects"]):
        ops += _guard(f"defect {j}", 1, _defect_query, inp, j, doc)
    for d, item in zip(ORACLE_DIMS, inp["oracle"]):
        ops += _guard(f"oracle d={d}", 4, _oracle_queries, inp, d, item)
    ops += _guard("chain", 1 + CHAIN_SAMPLES, _chain_queries, inp, inp["chain"])
    return sum(op.seconds or 0.0 for op in ops), ops
