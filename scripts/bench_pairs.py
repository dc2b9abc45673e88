"""Paired benchmark runs of two checkouts, written to one JSON file.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_N.json \\
        [--workloads estimate,campaign] [--seeds 1-10] [--seconds 30] [--trace 0|1]

For every workload and seed, runs ``python3 bench/run.py --workload W --seed S
--seconds T --trace X`` once in each checkout, from its root, as a separate
process, and alternates which side runs first from one pair to the next. It
imports nothing from xplab: it reads the JSON object that bench/run.py prints
as its last line. When the output file exists, the new runs are added to
its runs and the summary is recomputed over all of them.

The output records every run (its metrics and its failed and attempted
operation counts) and, per workload and metric, both sides' median and
quartiles, the number of pairs the change won (ties count for neither side),
whether the change meets the gain rule (it wins at least nine tenths of the
pairs and its median is better than the parent's by more than the parent's
interquartile range), and, for metrics with a bound in the change's
BENCHMARK.json, whether its median is within that bound of the parent's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _revision(root: Path) -> dict:
    """The checkout's commit and whether its tree differs from it, when it is a git tree."""

    def git(*args):
        res = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        return res.stdout.strip() if res.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": commit, "modified": None if status is None else bool(status)}


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"exit_code": res.returncode, "error": (res.stderr or res.stdout)[-2000:]}
    return {
        "exit_code": res.returncode,
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: m["value"] for name, m in out["metrics"].items()},
    }


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else None
        return {"median": v, "q1": v, "q3": v}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per workload and metric: both sides' spread, wins, the gain rule and the bound."""
    sense = {m["name"]: (m["better"], m.get("bound"), m["unit"])
             for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    out: dict = {}
    for wl, trace, seconds in sorted({(r["workload"], r["trace"], r["seconds"]) for r in runs}):
        pairs: dict[int, dict] = {}
        for r in runs:
            if (r["workload"], r["trace"], r["seconds"]) == (wl, trace, seconds) and "metrics" in r:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
        pairs = {s: p for s, p in pairs.items() if len(p) == 2}
        names = sorted(set.intersection(*(set(p[side]) for p in pairs.values()
                                          for side in ("parent", "change")))) if pairs else []
        table = {}
        for name in names:
            better, bound, unit = sense.get(name, ("lower", None, None))
            sign = 1.0 if better == "lower" else -1.0
            par = [p["parent"][name] for p in pairs.values()]
            chg = [p["change"][name] for p in pairs.values()]
            a, b = _spread(par), _spread(chg)
            wins = sum(1 for x, y in zip(par, chg) if sign * (x - y) > 0)
            row = {
                "unit": unit,
                "better": better,
                "pairs": len(par),
                "parent": a,
                "change": b,
                "change_wins": wins,
                "gain_rule_met": wins >= 0.9 * len(par)
                and sign * (a["median"] - b["median"]) > a["q3"] - a["q1"],
            }
            if bound is not None:
                limit = a["median"] * (1.0 + sign * bound)
                row["within_bound"] = sign * (b["median"] - limit) <= 0
            table[name] = row
        out[f"{wl} --seconds {seconds:g} --trace {trace}"] = table
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workloads", default="estimate")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: list[dict] = []
    if args.out.exists():
        runs = json.loads(args.out.read_text(encoding="utf-8"))["runs"]
    k = 0
    for wl in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            k += 1
            for pos, side in enumerate(order):
                rec = run_once(roots[side], wl, seed, args.seconds, args.trace)
                runs.append({"workload": wl, "seed": seed, "seconds": args.seconds,
                             "trace": args.trace, "side": side, "order": pos, **rec})
                print(f"{wl} seed={seed} {side}: failed={rec.get('failed')} "
                      f"wall_s={rec.get('metrics', {}).get('wall_s')}", flush=True)
    doc = {
        "command": "python3 bench/run.py --workload W --seed S --seconds T --trace X",
        "revisions": {side: _revision(root) for side, root in roots.items()},
        "runs": runs,
        "summary": summarize(runs, spec),
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
