"""Write the canonical reports of a fixed list of CLI commands.

Run from anywhere:  python3 scripts/report_digest.py OUTDIR

Every CLI subcommand runs once over the documents in tests/fixtures (opnorm
on a block, a matrix and a Gram operator in both modes; split with full and
with {delta, c, eps} constants; blocks check with given and with derived
constants; weights gen with a D that cuts through a level), plus an xp
opnorm on a matrix at 1e100, whose search runs on rescaled data, classify
kp on a span at 1e200 and on one whose vectors are times 2^-600 and 2^600,
whose searches run on the span's unit columns, blocks rosenthal on a space
whose first weight is 1e150, an xp opnorm on a Gram operator at 2^660
and a 2w opnorm on one whose first weight is 1e200, whose projectors are
built from column-scaled bases without squaring a weight, and blocks check and
gen thm13 at c = 1 on inputs whose checks hold with equality up to
roundoff, then ``batch`` on batch_small.json and the
eight experiments at seed 0 and scale 0.05. Each report goes to
OUTDIR/<name>.json and the exit codes to OUTDIR/exit_codes.json. Commands
run in-process from the repository root with XPLAB_SEED unset, so two trees
wrote the same reports exactly when ``diff -r`` of their OUTDIRs is empty.
Like make_fixtures.py, it imports xplab from its own tree.

The whole list then runs a second time in the same process, into a scratch
directory. The script exits 1, naming each file, if any report or exit code
of the second run differs from the first: state carried from one run to the
next would show there.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

from xplab.cli import run  # noqa: E402
from xplab.experiments import DRIVERS  # noqa: E402

FIX = "tests/fixtures"


def _fix(name: str) -> str:
    return f"{FIX}/{name}"


def _read(name: str) -> dict:
    with open(os.path.join(ROOT, FIX, name), encoding="utf-8") as fh:
        return json.load(fh)


def commands() -> dict[str, list[str]]:
    """Report name -> argv, in run order."""
    N = str(_read("split_args.json")["N"])
    sc = _read("split_constants.json")
    ga = _read("gen_args.json")
    split = ["--x", _fix("split_x.json"), "--projection", _fix("split_projection.json"), "--N", N]
    cmds = {
        "norm": ["norm", "--x", _fix("x_pair.json")],
        "blocks-rosenthal": ["blocks", "rosenthal", "--space", _fix("space_pair.json"), "--I", "1,2"],
        "blocks-rosenthal-heavy": ["blocks", "rosenthal", "--space", _fix("space_heavy.json"),
                                   "--I", "1,2,3"],
        "blocks-check": ["blocks", "check", "--block", _fix("block_good.json"),
                         "--space", _fix("space_small.json")],
        "blocks-check-tight": ["blocks", "check", "--block", _fix("block_tight.json"),
                               "--space", _fix("space_small.json")],
        "blocks-check-tie": ["blocks", "check", "--block", _fix("block_tie.json"),
                             "--space", _fix("space_tie.json")],
        "project": ["project", "--x", _fix("x_pair.json"),
                    "--projection", _fix("projection_pair.json")],
    }
    ops = {"block": "projection_small.json", "matrix": "matrix_identity.json", "gram": "gram_op.json"}
    for kind, doc in ops.items():
        for mode in ("xp", "2w"):
            cmds[f"opnorm-{kind}-{mode}"] = ["opnorm", "--op", _fix(doc), "--mode", mode]
    cmds["opnorm-huge-matrix-xp"] = ["opnorm", "--op", _fix("matrix_huge.json"), "--mode", "xp"]
    cmds["opnorm-huge-gram-xp"] = ["opnorm", "--op", _fix("gram_op_huge.json"), "--mode", "xp"]
    cmds["opnorm-heavy-gram-2w"] = ["opnorm", "--op", _fix("gram_op_heavy.json"), "--mode", "2w"]
    cmds["split-full"] = ["split", "--constants", _fix("split_constants.json"), *split]
    partial = json.dumps({k: sc[k] for k in ("delta", "c", "eps")}, sort_keys=True)
    cmds["split-partial"] = ["split", "--constants", partial, *split]
    cmds.update({
        "check-thm13": ["check", "thm13", "--witness", _fix("witness_good.json")],
        "check-proof-bounds": ["check", "proof-bounds", "--y", _fix("y_unit.json"), "--F", "1,2",
                               "--rho", "0.5", "--delta", "0.5"],
        "check-prop24": ["check", "prop24", "--z", _fix("vlist_span.json"),
                         "--x-sample", _fix("xsample.json"),
                         "--eps", "0.9", "--beta", "0.5", "--bprime", "0.1"],
        "gen-thm13": ["gen", "thm13", "--space", _fix("space_tail.json"), "--eps", str(ga["eps"]),
                      "--delta", str(ga["delta"]), "--c", str(ga["c"]),
                      "--count", str(ga["count"])],
        # at c = 1 the middle window inequality of every witness is an equality
        "gen-thm13-c1": ["gen", "thm13", "--space", _fix("space_tail.json"), "--eps", "0.3",
                         "--delta", "0.5", "--c", "1", "--count", "2"],
        "classify-kp": ["classify", "kp", "--v", _fix("vlist_span.json"), "--C", "2.0"],
        "classify-kp-huge": ["classify", "kp", "--v", _fix("vlist_span_huge.json"), "--C", "2.0"],
        "classify-kp-mixed": ["classify", "kp", "--v", _fix("vlist_span_mixed.json"), "--C", "2.0"],
        "diag-prop21": ["diag", "prop21", "--u", _fix("ulist.json"), "--w", _fix("wlist.json"),
                        "--projection", _fix("projection_small.json"), "--K", "1.2",
                        "--window", "2"],
        "weights-gen": ["weights", "gen", "--family", _fix("family_powerlaw.json"), "--D", "3"],
        # levels of 1, 4, 9, ... copies: D = 10 cuts through the third level
        "weights-gen-cut": ["weights", "gen", "--family", _fix("family_doubly.json"), "--D", "10"],
        "weights-diag": ["weights", "diag", "--family", _fix("family_doubly.json"), "--eps", "0.9",
                         "--D-list", "8,16,32", "--p", "4.0"],
        "batch": ["batch", "--config", _fix("batch_small.json")],
    })
    for name in sorted(DRIVERS):
        cmds[f"experiment-{name}"] = ["experiment", name, "--seed", "0", "--scale", "0.05"]
    return cmds


def _run_all(out: str) -> None:
    """Run every command once, writing its report and all exit codes into out."""
    codes = {name: run(cmd + ["--out", os.path.join(out, f"{name}.json")])
             for name, cmd in commands().items()}
    with open(os.path.join(out, "exit_codes.json"), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/report_digest.py OUTDIR", file=sys.stderr)
        return 1
    out = os.path.abspath(argv[0])
    os.makedirs(out, exist_ok=True)
    os.environ.pop("XPLAB_SEED", None)
    os.chdir(ROOT)
    _run_all(out)
    differ = []
    with tempfile.TemporaryDirectory() as again:
        _run_all(again)
        for name in sorted(os.listdir(again)):
            if _read_bytes(os.path.join(out, name)) != _read_bytes(os.path.join(again, name)):
                differ.append(name)
    for name in differ:
        print(f"report_digest: {name} differs between the first and the second run",
              file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
