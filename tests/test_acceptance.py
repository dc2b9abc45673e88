"""Acceptance gate: the nine shipped criteria at full campaign scale.

Each criterion is one test, so a verbose run prints exactly one pass/fail
line per criterion. The campaign drivers are deterministic at seed 0.
"""

import json
import os

import pytest

from xplab.cli import run
from xplab.experiments import run_experiment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _assert_verdict(name: str, label: str, **kwargs):
    out = run_experiment(name, seed=0, **kwargs)
    failing = [c.to_dict() for c in out.checks if not c.ok and c.applicable]
    assert out.verdict, f"{label}: failing checks {json.dumps(failing, indent=2)}"
    print(f"{label}: PASS")
    return out


def test_criterion_1_rosenthal_identities():
    _assert_verdict("rosenthal-identities", "CRITERION 1 (block identity sweep)")


def test_criterion_2_holder_pairs():
    _assert_verdict("holder-pairs", "CRITERION 2 (functional bound sweep)")


def test_criterion_3_projection_bound():
    _assert_verdict("projection-bound", "CRITERION 3 (projection norm bound)")


def test_criterion_4_opnorm_oracle():
    _assert_verdict("opnorm-oracle", "CRITERION 4 (operator norm vs oracle)")


def test_criterion_5_witness_machinery():
    _assert_verdict("thm13-machinery", "CRITERION 5 (witness machinery)")


def test_criterion_6_splitter(tmp_path):
    repro = str(tmp_path / "split_counterexample.json")
    out = _assert_verdict("splitter", "CRITERION 6 (constants and splits)", repro_path=repro)
    if not out.verdict:
        assert os.path.exists(repro), "a counterexample must leave a JSON repro"


def test_criterion_7_gram_chains():
    _assert_verdict("gram-chains", "CRITERION 7 (gram projection chains)")


def test_criterion_8_defect():
    _assert_verdict("defect", "CRITERION 8 (span defect)")


def test_criterion_9_reproducible_cli_batch(tmp_path, capsys):
    # same config and seed must give byte-identical reports
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert run(["experiment", "defect", "--seed", "0", "--out", a]) == 0
    assert run(["experiment", "defect", "--seed", "0", "--out", b]) == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read(), "reports for the same (config, seed) must match byte for byte"
    # and the shipped batch config must rerun criteria 1-8 cleanly
    cfg = os.path.join(ROOT, "configs", "acceptance.json")
    code = run(["batch", "--config", cfg, "--out", str(tmp_path / "batch.json")])
    capsys.readouterr()
    assert code == 0, "shipped acceptance batch must exit 0"
    with open(str(tmp_path / "batch.json")) as fh:
        rep = json.load(fh)
    assert rep["data"]["counts"]["fail"] == 0
    print("CRITERION 9 (reproducible CLI batch): PASS")
