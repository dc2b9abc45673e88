"""Regenerate tests/fixtures/*.json deterministically.

Run from the repository root:  python3 scripts/make_fixtures.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from xplab import (  # noqa: E402
    SpVector,
    WeightedSpace,
    block_to_doc,
    dump_json,
    make_block,
    make_rosenthal,
    norm_2w,
    vector_to_doc,
    witness_to_doc,
    xp_norm,
)
from xplab.criteria import gen_thm13_witnesses  # noqa: E402
from xplab.experiments import _split_instance  # noqa: E402

OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures")


def main() -> None:
    os.makedirs(OUT, exist_ok=True)

    def put(name: str, doc) -> None:
        dump_json(doc, os.path.join(OUT, name))

    # the two-coordinate worked example: p = 4, w = (1, 1/2)
    pair = WeightedSpace(4.0, (1.0, 0.5))
    put("space_pair.json", {"p": 4.0, "weights": [1.0, 0.5]})
    xp_pair = SpVector(pair, {1: 1.0, 2: 1.0})
    put("x_pair.json", vector_to_doc(xp_pair))
    put("y_unit.json", vector_to_doc(xp_pair * (1.0 / xp_norm(xp_pair))))
    put(
        "projection_pair.json",
        {
            "kind": "block-projection",
            "p": 4.0,
            "weights": [1.0, 0.5],
            "blocks": [
                {
                    "support": [1, 2],
                    "E": [1, 2],
                    "entries": [[1, 1.0], [2, 0.5]],
                    "delta": 1.0,
                    "c": 1.0,
                }
            ],
        },
    )

    # a 12-dim space with two normalized disjoint blocks
    wts = [1.0, 0.5, 0.8, 0.7, 0.9, 0.6, 1.0, 0.3, 0.4, 0.55, 0.65, 0.75]
    sp = WeightedSpace(4.0, tuple(wts))
    put("space_small.json", {"p": 4.0, "weights": wts})
    blocks = []
    for I in ([1, 2, 3], [5, 6, 8]):
        z = make_rosenthal(sp, I).vector
        z = z * (1.0 / xp_norm(z))
        blocks.append(
            {
                "support": list(I),
                "E": list(I),
                "entries": z,
                "delta": None,
                "c": None,
            }
        )
    # leave delta and c to be derived from the blocks
    for b in blocks:
        del b["delta"], b["c"]
    put(
        "projection_small.json",
        {"kind": "block-projection", "p": 4.0, "weights": wts, "blocks": blocks},
    )
    x = SpVector(sp, {1: 0.4, 2: -0.3, 3: 0.2, 5: 0.5, 6: 0.1, 9: 0.7})
    put("x_small.json", vector_to_doc(x))
    put(
        "block_good.json",
        {
            "support": [1, 2, 3],
            "E": [1, 2],
            "entries": blocks[0]["entries"],
            "delta": 0.5,
            "c": 2.0,
        },
    )
    # the same block with delta and c left out, to be derived as the tightest valid ones
    put(
        "block_tight.json",
        {"support": [1, 2, 3], "E": [1, 2], "entries": blocks[0]["entries"]},
    )

    put(
        "gram_op.json",
        {
            "kind": "gram",
            "p": 4.0,
            "weights": wts,
            "vectors": [[[1, 1.0]], [[2, 1.0], [3, 0.5]]],
        },
    )
    # the same span times 2^660, where B^T W^2 B overflows unless it is formed from a scaled copy
    put(
        "gram_op_huge.json",
        {
            "kind": "gram",
            "p": 4.0,
            "weights": wts,
            "vectors": [[[1, 2.0**660]], [[2, 2.0**660], [3, 0.5 * 2.0**660]]],
        },
    )
    # the same span over weights whose first is 1e200, where w^2 overflows
    put(
        "gram_op_heavy.json",
        {
            "kind": "gram",
            "p": 4.0,
            "weights": [1e200, *wts[1:]],
            "vectors": [[[1, 1.0]], [[2, 1.0], [3, 0.5]]],
        },
    )
    put(
        "matrix_identity.json",
        {
            "kind": "matrix",
            "p": 4.0,
            "weights": wts,
            "window": [1, 2],
            "matrix": [[1.0, 0.0], [0.0, 1.0]],
        },
    )
    # entries whose p-th powers overflow: the xp search must run on a rescaled copy
    put(
        "matrix_huge.json",
        {
            "kind": "matrix",
            "p": 4.0,
            "weights": wts,
            "window": [1, 2],
            "matrix": [[1e100, -3e100], [2e100, 5e99]],
        },
    )

    # a first weight of 1e150, whose mass w^(2p/(p-2)) = 1e600 at p = 4 is past the double range
    put("space_heavy.json", {"p": 4.0, "weights": [1e150, 1.0, 0.5]})

    # generator target: flat tiny weights make single-index tail sets feasible
    tail = WeightedSpace(4.0, tuple([0.1] * 64))
    put("space_tail.json", {"p": 4.0, "weights": [0.1] * 64})
    wits = gen_thm13_witnesses(tail, c=1.2, delta=0.5, eps=0.2, count=2)
    put("witness_good.json", witness_to_doc(wits[0]))
    # a Rosenthal block whose condition b holds with equality only up to roundoff
    tie_weights = [1.533, 1.538, 2.262, 0.452, 2.461]
    tie = WeightedSpace(7.12, tuple(tie_weights))
    put("space_tie.json", {"p": 7.12, "weights": tie_weights})
    put("block_tie.json", block_to_doc(make_block(make_rosenthal(tie, [1, 2, 3, 4, 5]).vector,
                                                  [1, 2, 3, 4, 5])))
    put("gen_args.json", {"eps": 0.2, "delta": 0.5, "c": 1.2, "count": 2})

    # span documents for classify / prop24 / prop21
    put(
        "vlist_span.json",
        {
            "p": 4.0,
            "weights": wts,
            "vectors": [[[1, 1.0]], [[2, 1.0], [3, -0.5]]],
        },
    )
    # the same span at 1e200, where every power sum at p = 4 overflows
    put(
        "vlist_span_huge.json",
        {
            "p": 4.0,
            "weights": wts,
            "vectors": [[[1, 1e200]], [[2, 1e200], [3, -0.5e200]]],
        },
    )
    # the same span with its vectors times 2^-600 and 2^600: a search over the raw
    # coefficients sees the first vector's power sums underflow and the second's overflow
    put(
        "vlist_span_mixed.json",
        {
            "p": 4.0,
            "weights": wts,
            "vectors": [[[1, 2.0**-600]], [[2, 2.0**600], [3, -0.5 * 2.0**600]]],
        },
    )
    put(
        "xsample.json",
        {
            "p": 4.0,
            "weights": wts,
            "vectors": [[[1, 0.6], [2, 0.4]], [[9, 1.0]], [[1, 1.0], [3, 1.0]]],
        },
    )
    # z_n = u_n + w_n must be unit vectors: scale each pair by the sum's norm
    us, ws = [], []
    for I, extra in (([1, 2, 3], {9: 0.05}), ([5, 6, 8], {10: 0.04})):
        u = make_rosenthal(sp, I).vector
        u = u * (0.9 / xp_norm(u))
        wv = SpVector(sp, extra)
        s = 1.0 / xp_norm(u + wv)
        us.append(u * s)
        ws.append(wv * s)
    put(
        "ulist.json",
        {"p": 4.0, "weights": wts, "vectors": us},
    )
    put(
        "wlist.json",
        {"p": 4.0, "weights": wts, "vectors": ws},
    )

    # a validated splitter instance: unit vector, mask projection, constants
    x, N, consts, P, sp2 = _split_instance(0, 0)
    put("split_x.json", vector_to_doc(x))
    blocks2 = [
        {
            "support": list(b.support.indices),
            "E": list(b.Eset.indices),
            "entries": b.vector,
        }
        for b in P.system.blocks
    ]
    put(
        "split_projection.json",
        {
            "kind": "block-projection",
            "p": sp2.p,
            "weights": list(sp2.weights),
            "blocks": blocks2,
            "delta": P.system.delta,
            "c": P.system.c,
        },
    )
    put("split_constants.json", consts.to_dict())
    put("split_args.json", {"N": N})

    put("family_powerlaw.json", {"kind": "power-law", "a": 0.1, "D": 64})
    put("family_doubly.json", {"kind": "doubly-indexed", "level_exp": 0.25, "mult_exp": 2.0, "D": 32})

    print(f"fixtures written to {os.path.abspath(OUT)}")


if __name__ == "__main__":
    main()
