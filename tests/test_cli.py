"""End-to-end runs of every CLI path against the shipped fixtures."""

import json
import os

import pytest

from xplab.cli import _build_parser, run
from xplab.space import MAX_DIM, SLACK

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run_in_fixtures(argv, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    return run(argv)


@pytest.fixture
def out(tmp_path):
    return str(tmp_path / "report.json")


def test_norm(fix, out):
    assert run(["norm", "--x", fix("x_pair.json"), "--out", out]) == 0
    rep = _read(out)
    assert rep["command"] == "norm"
    assert rep["data"]["norm_p"] == pytest.approx(2.0 ** 0.25, rel=1e-14)
    assert rep["verdict"] is True


def test_norm_stdout(fix, capsys):
    assert run(["norm", "--x", fix("x_pair.json")]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["data"]["norm_2w"] == pytest.approx(1.25 ** 0.5, rel=1e-14)


def _norm_report(entries, tmp_path, out):
    path = str(tmp_path / "x.json")
    with open(path, "w") as fh:
        json.dump({"p": 4, "weights": [1, 1], "entries": entries}, fh)
    code = run(["norm", "--x", path, "--out", out])
    return code, (_read(out)["data"] if code == 0 else None)


def test_norm_of_a_huge_entry(tmp_path, out):
    code, data = _norm_report([[1, 1e100]], tmp_path, out)
    assert code == 0
    assert (data["norm_p"], data["norm_2w"], data["xp_norm"]) == (1e100, 1e100, 1e100)
    assert data["ratio"] == 1.0


def test_norm_of_two_huge_entries(tmp_path, out):
    code, data = _norm_report([[1, 1e200], [2, 1e200]], tmp_path, out)
    assert code == 0
    assert data["norm_p"] == 1e200 * 2.0 ** 0.25
    assert data["norm_2w"] == data["xp_norm"] == 1e200 * 2.0 ** 0.5


def test_norm_of_a_tiny_entry(tmp_path, out):
    code, data = _norm_report([[1, 1e-90]], tmp_path, out)
    assert code == 0
    assert (data["norm_p"], data["norm_2w"], data["ratio"]) == (1e-90, 1e-90, 1.0)


def test_norm_past_the_double_range_is_error(tmp_path, out, capsys):
    code, _ = _norm_report([[1, 1.7e308], [2, 1.7e308]], tmp_path, out)
    assert code == 1
    assert "double range" in _single_error(capsys)


def test_blocks_rosenthal(fix, out):
    assert run(["blocks", "rosenthal", "--space", fix("space_pair.json"), "--I", "1,2", "--out", out]) == 0
    blk = _read(out)["data"]["block"]
    assert blk["entries"] == [[1, 1.0], [2, 0.5]]
    assert blk["delta"] == 1.0


def test_blocks_check_pass_and_fail(fix, out, tmp_path):
    assert run(["blocks", "check", "--block", fix("block_good.json"), "--space", fix("space_small.json"), "--out", out]) == 0
    bad = _read(fix("block_good.json"))
    bad["delta"] = 0.999
    bad["c"] = 1e-6
    bad_path = str(tmp_path / "bad_block.json")
    with open(bad_path, "w") as fh:
        json.dump(bad, fh)
    code = run(["blocks", "check", "--block", bad_path, "--space", fix("space_small.json"), "--out", out])
    assert code == 2
    rep = _read(out)  # the failing report is still written
    assert rep["verdict"] is False
    assert any(not c["ok"] for c in rep["checks"])


def test_project(fix, out):
    assert run(["project", "--x", fix("x_pair.json"), "--projection", fix("projection_pair.json"), "--out", out]) == 0
    rep = _read(out)
    px = dict((i, v) for i, v in rep["data"]["Px"])
    assert px[1] == pytest.approx(18.0 / 17.0, rel=1e-14)
    assert px[2] == pytest.approx(9.0 / 17.0, rel=1e-14)
    assert rep["data"]["analytic_bound"] >= 1.0


def test_opnorm_fields_and_determinism(fix, out, tmp_path):
    out2 = str(tmp_path / "r2.json")
    assert run(["opnorm", "--op", fix("projection_small.json"), "--seed", "7", "--out", out]) == 0
    assert run(["opnorm", "--op", fix("projection_small.json"), "--seed", "7", "--out", out2]) == 0
    with open(out, "rb") as a, open(out2, "rb") as b:
        assert a.read() == b.read()
    rep = _read(out)
    assert set(rep["data"]) >= {"lower", "witness", "analytic_upper"}
    assert rep["data"]["analytic_upper"] is not None
    assert rep["data"]["lower"] <= rep["data"]["analytic_upper"] * (1 + 1e-9)


@pytest.mark.parametrize("mode", ["xp", "2w"])
def test_opnorm_out_of_range_is_error_and_zero_is_closed(fix, mode, tmp_path, out, capsys):
    doc = _read(fix("matrix_identity.json"))
    doc["matrix"] = [[1e308, 1e308], [1e308, 1e308]]  # norm at least 2e308
    path = str(tmp_path / "op.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert run(["opnorm", "--op", path, "--mode", mode]) == 1
    assert "not finite" in _single_error(capsys)
    # a norm of 1e308 is in range: the scale-safe norms bracket it
    doc["matrix"] = [[1e308, 0.0], [0.0, 1.0]]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert run(["opnorm", "--op", path, "--mode", mode, "--out", out]) == 0
    data = _read(out)["data"]
    assert 0.0 < data["lower"] <= data["upper"] == 1e308
    doc["matrix"] = [[0.0, 0.0], [0.0, 0.0]]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert run(["opnorm", "--op", path, "--mode", mode, "--out", out]) == 0
    data = _read(out)["data"]
    assert (data["lower"], data["upper"]) == (0.0, 0.0)
    assert "degenerate" not in data


@pytest.mark.parametrize("diagonal", [(1e308, 1.0), (1e-300, 3e-301)])
def test_opnorm_xp_search_finds_e1_at_any_scale(fix, diagonal, tmp_path, out):
    # every power sum of these matrices' images overflows or underflows, so
    # the sampled search must run on a rescaled copy to see that e1 wins
    doc = _read(fix("matrix_identity.json"))
    doc["matrix"] = [[diagonal[0], 0.0], [0.0, diagonal[1]]]
    path = str(tmp_path / "op.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert run(["opnorm", "--op", path, "--mode", "xp", "--out", out]) == 0
    data = _read(out)["data"]
    assert data["lower"] >= data["upper"] * (1 - SLACK)
    assert "degenerate" not in data


def test_opnorm_xp_search_is_scale_free(fix, tmp_path, out):
    # entries of 1e50 keep max|A|^p d in range, but a column of 64 such entries
    # images to 64e50, whose 6th power overflows: the search must still see
    # the same ratios as on the all-ones matrix
    doc = _read(fix("matrix_identity.json"))
    d = 64
    doc.update(p=6.0, weights=[1.0] * d, window=list(range(1, d + 1)))
    path = str(tmp_path / "op.json")
    lowers = []
    for entry in (1.0, 1e50):
        doc["matrix"] = [[entry] * d for _ in range(d)]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert run(["opnorm", "--op", path, "--mode", "xp", "--out", out]) == 0
        lowers.append(_read(out)["data"]["lower"] / entry)
    assert lowers[1] == pytest.approx(lowers[0], rel=1e-12)


def test_opnorm_seed_from_env(fix, out, tmp_path, monkeypatch):
    out2 = str(tmp_path / "r2.json")
    monkeypatch.setenv("XPLAB_SEED", "41")
    assert run(["opnorm", "--op", fix("gram_op.json"), "--out", out]) == 0
    assert _read(out)["seed"] == 41
    monkeypatch.delenv("XPLAB_SEED")
    assert run(["opnorm", "--op", fix("gram_op.json"), "--out", out2]) == 0
    assert _read(out2)["seed"] == 0


def test_split_with_full_constants(fix, out):
    N = _read(fix("split_args.json"))["N"]
    assert run([
        "split", "--x", fix("split_x.json"), "--constants", fix("split_constants.json"),
        "--projection", fix("split_projection.json"), "--N", str(N), "--out", out,
    ]) == 0
    rep = _read(out)
    assert rep["data"]["premise_met"] is True
    assert rep["verdict"] is True


def test_split_with_partial_constants_solves(fix, out):
    N = _read(fix("split_args.json"))["N"]
    sc = _read(fix("split_constants.json"))
    # same inputs as the shipped full constants; norms are measured instead
    partial = json.dumps({"delta": sc["delta"], "c": sc["c"], "eps": sc["eps"]})
    assert run([
        "split", "--x", fix("split_x.json"), "--constants", partial,
        "--projection", fix("split_projection.json"), "--N", str(N), "--out", out,
    ]) == 0
    rep = _read(out)
    assert rep["data"]["premise_met"] is True
    solved = rep["data"]["constants"]
    assert solved["beta"] == pytest.approx(sc["beta"], rel=0.05)
    # the fixture projection masks unit basis blocks, so its exact 2w norm is 1
    assert solved["normP2"] == pytest.approx(1.0, rel=1e-12)


def test_check_thm13(fix, out):
    assert run(["check", "thm13", "--witness", fix("witness_good.json"), "--out", out]) == 0
    rep = _read(out)
    names = {c["name"] for c in rep["checks"]}
    assert {"head_small", "E_mass_share", "window_upper", "mass_vs_window", "window_lower"} <= names


def test_check_proof_bounds(fix, out):
    assert run([
        "check", "proof-bounds", "--y", fix("y_unit.json"), "--F", "1,2",
        "--rho", "0.5", "--delta", "0.5", "--out", out,
    ]) == 0
    assert _read(out)["verdict"] is True


def test_check_prop24(fix, out):
    assert run([
        "check", "prop24", "--z", fix("vlist_span.json"), "--x-sample", fix("xsample.json"),
        "--eps", "0.9", "--beta", "0.5", "--bprime", "0.1", "--out", out,
    ]) == 0


def test_gen_thm13(fix, out):
    ga = _read(fix("gen_args.json"))
    assert run([
        "gen", "thm13", "--space", fix("space_tail.json"), "--eps", str(ga["eps"]),
        "--delta", str(ga["delta"]), "--c", str(ga["c"]), "--count", str(ga["count"]),
        "--seed", "0", "--out", out,
    ]) == 0
    rep = _read(out)
    assert len(rep["data"]["witnesses"]) == ga["count"]
    assert rep["verdict"] is True


def test_gen_thm13_infeasible_is_usage_error(fix, out):
    code = run([
        "gen", "thm13", "--space", fix("space_tail.json"), "--eps", "1.0",
        "--delta", "0.5", "--c", "3.0", "--count", "1", "--out", out,
    ])
    assert code == 1


def test_a_weight_mass_past_the_double_range(tmp_path, out, capsys):
    # at p = 4 the mass of index 3 is (1e150)^4: the greedy witness scan skips
    # it as it skips any index that overshoots, and proof-bounds refuses an
    # E-set that holds it, naming that mass
    weights = [0.3, 0.2, 1e150, 0.1]
    space, y = str(tmp_path / "space.json"), str(tmp_path / "y.json")
    with open(space, "w") as fh:
        json.dump({"p": 4.0, "weights": weights}, fh)
    with open(y, "w") as fh:
        json.dump({"p": 4.0, "weights": weights, "entries": [[3, 1e-150]]}, fh)
    assert run(["gen", "thm13", "--space", space, "--eps", "0.2", "--delta", "0.5", "--c", "1",
                "--count", "2", "--out", out]) == 0
    witnesses = _read(out)["data"]["witnesses"]
    assert [w["E"] for w in witnesses] == [[2], [4]]
    for k, wit in enumerate(witnesses):
        path = str(tmp_path / f"w{k}.json")
        with open(path, "w") as fh:
            json.dump(wit, fh)
        assert run(["check", "thm13", "--witness", path, "--out", out]) == 0
    capsys.readouterr()
    argv = ["check", "proof-bounds", "--y", y, "--F", "3", "--rho", "1e-300", "--delta", "0.5"]
    assert run(argv) == 1
    assert "weight mass of E = [3]" in _single_error(capsys)


def test_classify(fix, out):
    assert run(["classify", "kp", "--v", fix("vlist_span.json"), "--C", "2.0", "--out", out]) == 0
    assert _read(out)["data"]["label"] in ("ell2-like", "ellp-like", "mixed")


def test_diag_prop21(fix, out):
    assert run([
        "diag", "prop21", "--u", fix("ulist.json"), "--w", fix("wlist.json"),
        "--projection", fix("projection_small.json"), "--K", "1.2", "--window", "2", "--out", out,
    ]) == 0
    data = _read(out)["data"]
    assert "beta_hat" in data and "bound" in data


def test_experiment_runs_and_is_deterministic(out, tmp_path):
    out2 = str(tmp_path / "r2.json")
    argv = ["experiment", "splitter", "--seed", "5", "--scale", "0.01"]
    assert run(argv + ["--out", out]) == 0
    assert run(argv + ["--out", out2]) == 0
    with open(out, "rb") as a, open(out2, "rb") as b:
        assert a.read() == b.read()
    assert _read(out)["verdict"] is True


def test_experiment_unknown_name_is_usage_error():
    assert run(["experiment", "not-a-driver"]) == 1


def test_weights_gen_and_diag(fix, out):
    assert run(["weights", "gen", "--family", fix("family_powerlaw.json"), "--D", "3", "--out", out]) == 0
    vals = _read(out)["data"]["weights"]
    assert vals == pytest.approx([1.0, 2.0 ** -0.1, 3.0 ** -0.1], rel=1e-14)
    assert run([
        "weights", "diag", "--family", fix("family_doubly.json"), "--eps", "0.9",
        "--D-list", "8,16,32", "--p", "4.0", "--out", out,
    ]) == 0
    assert _read(out)["data"]["flag"] in ("diverging", "saturating")


def test_weights_inline_family(out):
    fam = json.dumps({"kind": "constant", "value": 0.5, "D": 4})
    assert run(["weights", "gen", "--family", fam, "--out", out]) == 0
    assert _read(out)["data"]["weights"] == [0.5, 0.5, 0.5, 0.5]


def test_csv_export(fix, out, tmp_path):
    csv = str(tmp_path / "rows.csv")
    assert run([
        "check", "thm13", "--witness", fix("witness_good.json"), "--out", out, "--csv", csv,
    ]) == 0
    lines = open(csv).read().splitlines()
    assert lines[0] == "name,lhs,op,rhs,ok"
    assert len(lines) == len(_read(out)["checks"]) + 1


def test_batch_aggregates(out, monkeypatch, tmp_path):
    monkeypatch.chdir(FIXTURES)
    assert run(["batch", "--config", "batch_small.json", "--out", out]) == 0
    rep = _read(out)
    assert rep["data"]["counts"] == {"pass": 3, "fail": 0}


def test_batch_counts_a_failing_check(fix, out, tmp_path, capsys):
    bad = _read(fix("block_good.json"))
    bad["delta"] = 0.999
    bad["c"] = 1e-6
    bad_path = str(tmp_path / "bad_block.json")
    with open(bad_path, "w") as fh:
        json.dump(bad, fh)
    cfg = {"runs": [
        ["norm", "--x", fix("x_pair.json")],
        ["blocks", "check", "--block", bad_path, "--space", fix("space_small.json")],
    ]}
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert run(["batch", "--config", cfg_path, "--out", out]) == 2
    rep = _read(out)
    assert rep["data"]["counts"] == {"pass": 1, "fail": 1}
    assert rep["data"]["runs"][1]["exit"] == 2
    assert rep["verdict"] is False


def test_batch_validates_before_running(monkeypatch, tmp_path):
    # one malformed argv aborts the whole batch before anything executes
    probe = str(tmp_path / "probe.json")
    cfg = {"runs": [
        ["norm", "--x", "x_pair.json", "--out", probe],
        ["norm", "--no-such-flag"],
    ]}
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    monkeypatch.chdir(FIXTURES)
    assert run(["batch", "--config", cfg_path]) == 1
    assert not os.path.exists(probe)


def test_batch_empty_is_success(tmp_path, out):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"runs": []}, fh)
    assert run(["batch", "--config", cfg_path, "--out", out]) == 0


def test_batch_rejects_nesting(tmp_path):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"runs": [["batch", "--config", "x.json"]]}, fh)
    assert run(["batch", "--config", cfg_path]) == 1


def test_malformed_json_is_usage_error(tmp_path):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    assert run(["norm", "--x", path]) == 1


def test_missing_field_is_usage_error(tmp_path, capsys):
    path = str(tmp_path / "vec.json")
    with open(path, "w") as fh:
        json.dump({"p": 4.0, "weights": [1.0]}, fh)
    assert run(["norm", "--x", path]) == 1
    assert "entries" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("fam, field", [
    ({"kind": "power-law", "a": [0.1], "D": 4}, "'a'"),
    ({"kind": "constant", "value": 1.0, "D": [4]}, "length D"),
    ({"kind": "explicit", "values": 3}, "'values'"),
    ({"kind": "explicit", "values": [1.0, [2.0]]}, "'values'"),
    ({"kind": "power-law", "alpha": 0.3, "D": 4}, "'alpha'"),
])
def test_weights_non_scalar_field_is_usage_error(fam, field, capsys):
    assert run(["weights", "gen", "--family", json.dumps(fam)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and field in errors[0]


@pytest.mark.parametrize("mult_exp", [61.5, 1e300])
def test_weights_doubly_indexed_level_longer_than_D(mult_exp, out):
    # level 2 asks for ceil(2^b) copies: at b = 61.5 more than a list can hold,
    # and at b = 1e300 more than a double can count; D = 4 takes three of them
    fam = {"kind": "doubly-indexed", "level_exp": 0.25, "mult_exp": mult_exp, "D": 4}
    assert run(["weights", "gen", "--family", json.dumps(fam), "--out", out]) == 0
    assert _read(out)["data"]["weights"] == [1.0] + [2.0 ** -0.25] * 3


def test_weights_length_beyond_cap_is_usage_error(fix, capsys):
    fam = json.dumps({"kind": "constant", "value": 1.0, "D": 10**12})
    assert run(["weights", "gen", "--family", fam]) == 1
    assert run(["weights", "gen", "--family", fix("family_powerlaw.json"), "--D", str(10**12)]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("fam, first_bad", [
    ({"kind": "power-law", "a": 1e300, "D": 3}, "w_2"),
    # 0.5^n is subnormal up to n = 1074 and 0 from n = 1075 on
    ({"kind": "geometric", "ratio": 0.5, "D": 1100}, "w_1075"),
])
def test_underflowing_family_is_usage_error(fam, first_bad, tmp_path, capsys):
    want = f"{fam['kind']} family weight {first_bad} = 0.0 is not positive and finite"
    assert run(["weights", "gen", "--family", json.dumps(fam)]) == 1
    assert want in _single_error(capsys)
    path = str(tmp_path / "x.json")
    with open(path, "w") as fh:
        json.dump({"p": 4.0, "weights": fam, "entries": [[1, 1.0]]}, fh)
    assert run(["norm", "--x", path]) == 1
    assert want in _single_error(capsys)


def _single_error(capsys) -> str:
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    return errors[0]


@pytest.mark.parametrize("partial", [False, True])
def test_split_non_number_constant_is_usage_error(fix, partial, tmp_path, capsys):
    consts = _read(fix("split_constants.json"))
    if partial:
        consts = {k: consts[k] for k in ("delta", "c", "eps")}
    consts["delta"] = [0.1]
    assert run([
        "split", "--x", fix("split_x.json"), "--constants", json.dumps(consts),
        "--projection", fix("split_projection.json"), "--N", "5",
    ]) == 1
    assert "delta" in _single_error(capsys)


def test_check_thm13_non_integer_N_is_usage_error(fix, tmp_path, capsys):
    wit = _read(fix("witness_good.json"))
    wit["N"] = [1]
    path = str(tmp_path / "witness.json")
    with open(path, "w") as fh:
        json.dump(wit, fh)
    assert run(["check", "thm13", "--witness", path]) == 1
    assert "N" in _single_error(capsys)


@pytest.mark.parametrize("argv, fixture, field, value", [
    (["check", "thm13", "--witness"], "witness_good.json", "E", 3),
    (["check", "thm13", "--witness"], "witness_good.json", "E", None),
    (["check", "thm13", "--witness"], "witness_good.json", "E", [[1]]),
    (["blocks", "check", "--space", "space_small.json", "--block"], "block_good.json", "E", 3),
    (["blocks", "check", "--space", "space_small.json", "--block"], "block_good.json", "E", None),
    (["blocks", "check", "--space", "space_small.json", "--block"], "block_good.json", "support", 3),
    (["blocks", "check", "--space", "space_small.json", "--block"], "block_good.json", "support", None),
    (["blocks", "check", "--space", "space_small.json", "--block"], "block_good.json", "delta", [1]),
    (["norm", "--x"], "x_pair.json", "entries", [2]),
    (["opnorm", "--op"], "matrix_identity.json", "window", 3),
    (["opnorm", "--op"], "matrix_identity.json", "matrix", [[None, 0.0], [0.0, 1.0]]),
])
def test_malformed_field_is_usage_error(argv, fixture, field, value, tmp_path, monkeypatch, capsys):
    doc = _read(os.path.join(FIXTURES, fixture))
    if field == "entries":
        doc["entries"][0][1] = value
    else:
        doc[field] = value
    path = str(tmp_path / fixture)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert _run_in_fixtures(argv + [path], monkeypatch) == 1
    assert field in _single_error(capsys)


def test_report_config_records_every_argument(fix, out):
    assert run([
        "split", "--x", fix("split_x.json"), "--constants", fix("split_constants.json"),
        "--projection", fix("split_projection.json"), "--N", "5", "--out", out,
    ]) == 0
    rep = _read(out)
    assert rep["command"] == "split"
    assert rep["config"]["constants"] == fix("split_constants.json")
    assert not {"budget", "safety"} & set(rep["config"])
    assert rep["seed"] is None
    assert not {"cmd", "sub", "seed", "out", "csv"} & set(rep["config"])
    assert run([
        "diag", "prop21", "--u", fix("ulist.json"), "--w", fix("wlist.json"),
        "--projection", fix("projection_small.json"), "--K", "1.2", "--window", "2",
        "--head-cut", "1", "--budget", "64", "--out", out,
    ]) == 0
    rep = _read(out)
    assert rep["command"] == "diag prop21"
    assert rep["config"]["head_cut"] == 1
    assert rep["config"]["budget"] == 64


# The parser is built once per process and shared by every run; these runs
# check that nothing of one run reaches the next.


def test_the_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_a_command_run_twice_writes_identical_reports(fix, tmp_path):
    # another command, with a subcommand and a seed, runs in between
    argv = ["project", "--x", fix("x_pair.json"), "--projection", fix("projection_pair.json")]
    other = ["classify", "kp", "--v", fix("vlist_span.json"), "--C", "2.0", "--budget", "32",
             "--seed", "4", "--out", str(tmp_path / "other.json")]
    texts = []
    for k in range(2):
        path = str(tmp_path / f"r{k}.json")
        assert run(argv + ["--out", path]) == 0
        assert run(other) == 0
        with open(path, "rb") as fh:
            texts.append(fh.read())
    assert texts[0] == texts[1]


def test_a_failed_parse_leaves_the_next_report_unchanged(fix, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("XPLAB_SEED", raising=False)
    argv = ["opnorm", "--op", fix("gram_op.json"), "--budget", "16"]
    before, after = str(tmp_path / "before.json"), str(tmp_path / "after.json")
    assert run(argv + ["--out", before]) == 0
    # a bad choice, a bad type and a missing required flag all exit 1 at parse time
    assert run(["opnorm", "--op", fix("gram_op.json"), "--mode", "p"]) == 1
    assert run(["opnorm", "--op", fix("gram_op.json"), "--budget", "many", "--seed", "9"]) == 1
    assert run(["opnorm", "--seed", "5"]) == 1
    assert run(argv + ["--out", after]) == 0
    capsys.readouterr()
    with open(before, "rb") as a, open(after, "rb") as b:
        assert a.read() == b.read()
    assert _read(after)["seed"] == 0


def test_xplab_seed_is_read_on_every_run(fix, out, monkeypatch):
    seeds = []
    for value in ("3", "17"):
        monkeypatch.setenv("XPLAB_SEED", value)
        assert run(["opnorm", "--op", fix("gram_op.json"), "--budget", "8", "--out", out]) == 0
        seeds.append(_read(out)["seed"])
    assert seeds == [3, 17]


@pytest.mark.parametrize("weights", [
    [1.0, 0.0],
    [1.0, -0.5],
    [1.0, float("nan")],
    [1.0, float("inf")],
    [1.0, None],
    [[1.0, 0.5]],
    [1.0, [0.5]],
    [],
    [1.0] * (MAX_DIM + 1),
])
def test_bad_weights_are_usage_errors(weights, tmp_path, capsys):
    path = str(tmp_path / "x.json")
    with open(path, "w") as fh:
        json.dump({"p": 4.0, "weights": weights, "entries": [[1, 1.0]]}, fh)
    assert run(["norm", "--x", path]) == 1
    assert "weights" in _single_error(capsys)


@pytest.mark.parametrize("scale", [
    1e200, 1e-90, pytest.param((2.0**-600, 2.0**600), id="2^-600,2^600"),
])
def test_classify_kp_is_scale_free(fix, scale, tmp_path, out):
    # each vector times its own scale; powers of two leave the searched unit columns as they were
    doc = _read(fix("vlist_span.json"))
    base = str(tmp_path / "base.json")
    assert run(["classify", "kp", "--v", fix("vlist_span.json"), "--C", "2.0", "--out", base]) == 0
    scales = scale if isinstance(scale, tuple) else (scale,) * len(doc["vectors"])
    doc["vectors"] = [[[i, v * s] for i, v in vec] for vec, s in zip(doc["vectors"], scales)]
    path = str(tmp_path / "scaled.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert run(["classify", "kp", "--v", path, "--C", "2.0", "--out", out]) == 0
    want, got = _read(base)["data"], _read(out)["data"]
    assert got["label"] == want["label"]
    for key in ("h_inf", "r_sup_tail"):
        assert got[key] == pytest.approx(want[key], rel=1e-12)
    if isinstance(scale, tuple):
        assert got == want
