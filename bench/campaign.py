"""campaign: the acceptance batch of the eight drivers through ``xplab batch``.

One pass is one in-process ``xplab batch`` over a generated config: all eight
campaign drivers at SCALE and at the benchmark's seed, plus one ``opnorm``
command per mode on a generated normalized block projection, so that the
estimator-quality metrics exist on this workload too. That operator does not
depend on the seed: one random operator per run would swing the attained
shares from seed to seed far more than any change to the estimator. Each
sub-run is one operation; its latency is the ``wall_time_s`` line the CLI
writes to stderr.
"""

from __future__ import annotations

from pathlib import Path

from common import Op, block_system, cli_call, projection_doc, read_report, rng, write_json
from reference import check_campaign_report, check_opnorm_report

SCALE = 0.05
OPNORM_BUDGET = 128

# The eight drivers, with their full campaign sizes as each reports them in
# its data. Each thm13 generator configuration yields two witnesses.
FULL_SIZES = {
    "rosenthal-identities": {"trials": 1000},
    "holder-pairs": {"trials": 100_000},
    "projection-bound": {"systems": 200, "samples": 10_000},
    "opnorm-oracle": {"count": 50},
    "thm13-machinery": {"witnesses": 60, "extract_cases": 10_000, "bound_cases": 10_000,
                        "mk_setups": 60},
    "splitter": {"fuzz": 10_000, "instances": 200},
    "gram-chains": {"spans": 100},
    "defect": {},
}


def asked_sizes(name: str, scale: float = SCALE) -> dict:
    sizes = {k: max(1, int(round(v * scale))) for k, v in FULL_SIZES[name].items()}
    if "witnesses" in sizes:
        sizes["witnesses"] *= 2
    return sizes


def generate(seed: int, outdir: Path) -> dict:
    g = rng(0, 1)
    p = float(g.uniform(2.2, 7.0))
    w = g.uniform(0.05, 2.0, size=32)
    opdoc = projection_doc(p, w.tolist(), block_system(g, 16, w, p))
    write_json(outdir / "op.json", opdoc)
    runs = [["experiment", name, "--seed", str(seed), "--scale", str(SCALE),
             "--out", f"{name}.json"] for name in FULL_SIZES]
    runs += [["opnorm", "--op", "op.json", "--mode", mode, "--budget", str(OPNORM_BUDGET),
              "--seed", str(seed), "--out", f"opnorm-{mode}.json"] for mode in ("xp", "2w")]
    config = write_json(outdir / "campaign.json", {"runs": runs})
    return {"dir": outdir, "config": config, "runs": runs, "opdoc": opdoc}


def run_pass(inp: dict) -> tuple[float, list[Op]]:
    out = inp["dir"]
    for argv in inp["runs"]:
        (out / argv[-1]).unlink(missing_ok=True)
    batch_path = out / "batch.json"
    wall, code, err = cli_call(["batch", "--config", inp["config"], "--out", str(batch_path)])
    _, batch = read_report(batch_path)
    rows = batch["data"]["runs"] if batch else []
    if len(rows) != len(inp["runs"]):
        why = f"batch exited {code} without a row for this run: {err.strip()[-200:]}"
        return wall, [Op(" ".join(argv[:2]), None, [why]) for argv in inp["runs"]]
    # the CLI writes one wall_time_s line per sub-run that got past its handler
    times = iter(float(line.split("=", 1)[1]) for line in err.splitlines()
                 if line.startswith("wall_time_s="))
    ops = []
    for argv, row in zip(inp["runs"], rows):
        seconds = next(times, None) if row["exit"] in (0, 2) else None
        problems = [] if row["exit"] == 0 else [f"exit code {row['exit']}"]
        attained = None
        _, rep = read_report(out / argv[-1])
        if rep is None:
            problems.append("no report written")
        elif argv[0] == "experiment":
            problems += check_campaign_report(rep, asked_sizes(argv[1]))
        else:
            more, share = check_opnorm_report(inp["opdoc"], argv[4], rep["data"])
            problems += more
            attained = (argv[4], share)
        ops.append(Op(" ".join(argv[:2]), seconds, problems, attained))
    return wall, ops
