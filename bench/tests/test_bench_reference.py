"""The benchmark's reference checks: they pass on known answers and fail on perturbed ones.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import campaign  # noqa: E402
import docs  # noqa: E402
import reference as ref  # noqa: E402
from common import cli_call, read_report  # noqa: E402

PAIR = {"p": 4.0, "weights": [1.0, 0.5]}


def bumped(x):
    return x * (1.0 + 1e-6)


def test_pair_space_projection():
    # the extremal block of {1, 2} is (1, 0.5); P(1, 1) = (18/17) (1, 0.5)
    x = dict(PAIR, entries=[[1, 1.0], [2, 1.0]])
    op = {"kind": "block-projection", **PAIR,
          "blocks": [{"support": [1, 2], "E": [1, 2], "entries": [[1, 1.0], [2, 0.5]]}]}
    data = {"Px": [[1, 18 / 17], [2, 9 / 17]], "xp_norm_x": 2**0.25,
            "xp_norm_Px": 18 / 17 * math.sqrt(17 / 16), "analytic_bound": 1.0}
    assert ref.check_project(x, op, data) == []
    bad = copy.deepcopy(data)
    bad["Px"][0][1] = bumped(18 / 17)
    assert ref.check_project(x, op, bad)
    bad = dict(data, analytic_bound=bumped(1.0))
    assert ref.check_project(x, op, bad)


def test_pair_space_norms_and_extremal_block():
    x = dict(PAIR, entries=[[1, 1.0], [2, 1.0]])
    data = {"norm_p": 2**0.25, "norm_2w": math.sqrt(1.25), "xp_norm": 2**0.25,
            "ratio": math.sqrt(1.25) / 2**0.25}
    assert ref.check_norm(x, data) == []
    assert ref.check_norm(x, dict(data, ratio=bumped(data["ratio"])))
    block = {"support": [1, 2], "E": [1, 2], "entries": [[1, 1.0], [2, 0.5]], "delta": 1.0,
             "c": (17 / 16) ** -0.25}
    assert ref.check_rosenthal(PAIR, [1, 2], {"block": block}) == []
    assert ref.check_rosenthal(PAIR, [1, 2], {"block": dict(block, c=bumped(block["c"]))})


def test_weight_families_closed_forms():
    fam = {"kind": "doubly-indexed", "level_exp": 1.0, "mult_exp": 1.0, "D": 6}
    want = [1.0, 1 / 2, 1 / 2, 1 / 3, 1 / 3, 1 / 3]
    assert ref.check_weights_gen(fam, {"weights": want}) == []
    assert ref.check_weights_gen(fam, {"weights": want[:5] + [bumped(1 / 3)]})
    fam = {"kind": "explicit", "values": [0.1, 0.2, 0.9, 0.05]}
    S = [1e-4, 1e-4 + 0.2**4, 1e-4 + 0.2**4 + 0.05**4]
    data = {"rows": [{"D": D, "S": s} for D, s in zip((1, 2, 4), S)],
            "doubling_ratios": [{"D": 1, "ratio": S[1] / S[0]}, {"D": 2, "ratio": S[2] / S[1]}],
            "flag": "saturating"}
    assert ref.check_weights_diag(fam, 0.5, [1, 2, 4], 4.0, data) == []
    assert ref.check_weights_diag(fam, 0.5, [1, 2, 4], 4.0, dict(data, flag="diverging"))


def test_report_checks_are_reevaluated():
    rep = {"checks": [{"name": "a", "lhs": 1.0, "op": "<=", "rhs": 2.0, "ok": True}],
           "verdict": True}
    assert ref.check_report_checks(rep) == []
    bad = copy.deepcopy(rep)
    bad["checks"][0]["lhs"] = 3.0
    assert ref.check_report_checks(bad)
    bad = copy.deepcopy(rep)
    bad["checks"][0]["ok"] = False
    assert ref.check_report_checks(bad)


def test_opnorm_bounds_and_witness():
    A = np.diag([2.0, 1.0])
    w = np.ones(2)
    e1 = np.array([1.0, 0.0])
    for mode in ("xp", "2w"):
        assert ref.check_opnorm(A, w, 4.0, mode, 2.0, e1) == []
        assert ref.check_opnorm(A, w, 4.0, mode, bumped(2.0), e1)
        assert ref.attained(A, w, 4.0, mode, 2.0) == pytest.approx(1.0)
    assert ref.check_oracle(1.0, 1.01) == []
    assert ref.check_oracle(1.0, 1.05)


def test_span_ratios_and_defect():
    w = np.array([1.0, 0.5, 0.25])
    B = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    ratios = [ref.norm_2w(B[:, j], w) / ref.norm_p(B[:, j], 4.0) for j in range(2)]
    assert ref.check_span_ratios(B, w, 4.0, h_inf=min(ratios), r_sup=max(ratios)) == []
    assert ref.check_span_ratios(B, w, 4.0, h_inf=bumped(min(ratios)))
    assert ref.check_span_ratios(B, w, 4.0, r_sup=min(ratios))
    x = np.array([0.0, 0.0, 1.0])
    Y = np.array([[1.0], [0.0], [0.0]])
    assert ref.check_defect(x, Y, w, 4.0, 1.0, disjoint=True) == []
    assert ref.check_defect(x, Y, w, 4.0, 0.999, disjoint=True)


def test_campaign_report_check_on_a_real_report(tmp_path):
    out = tmp_path / "defect.json"
    _, code, _ = cli_call(["experiment", "defect", "--seed", "0", "--scale", "0.05",
                           "--out", str(out)])
    _, rep = read_report(out)
    assert code == 0
    sizes = campaign.asked_sizes("defect")
    assert ref.check_campaign_report(rep, sizes) == []
    bad = copy.deepcopy(rep)
    bad["data"]["forced_defect"] = bumped(1.0)
    assert ref.check_campaign_report(bad, sizes)
    assert ref.check_campaign_report(rep, {"samples": 3})


# A value of each docs report that its check recomputes, as a path into the report.
PERTURB = {
    "norm": ("data", "norm_p"),
    "project": ("data", "Px", 0, 1),
    "rosenthal": ("data", "block", "c"),
    "blocks check": ("checks", 0, "lhs"),
    "split": ("data", "ratios", "x"),
    "thm13": ("checks", 1, "lhs"),
    "proof-bounds": ("data", "y_2w"),
    "gen thm13": ("data", "witnesses", 0, "entries", 0, 1),
    "weights gen": ("data", "weights", 5),
    "weights diag": ("data", "rows", -1, "S"),
    "opnorm": ("data", "lower"),
}


def test_docs_checks_pass_on_the_program_and_fail_when_perturbed(tmp_path):
    inp = docs.generate(0, tmp_path)
    seen = set()
    for name, argv, out, check in inp["cmds"]:
        if isinstance(check, int):
            continue
        kind = next(k for k in sorted(PERTURB, key=len, reverse=True) if name.startswith(k))
        seen.add(kind)
        _, code, err = cli_call(argv)
        assert code == 0, (name, err)
        rep = json.loads(out.read_text())
        assert check(rep)[0] == [], name
        *path, last = PERTURB[kind]
        bad = copy.deepcopy(rep)
        node = bad
        for key in path:
            node = node[key]
        node[last] = bumped(node[last])
        assert check(bad)[0], f"{name}: perturbed report still passes"
    assert seen == set(PERTURB)
