"""The CLI's exit contract under generated input: 0, 1 or 2, never a traceback.

Every subcommand reads a fixture document with one field replaced, removed
or cut down to a generated JSON value, or gets a generated argv. All examples
run in this one process, so the argument parser that the CLI builds once
serves hundreds of runs, failed parses among them. The examples are
derandomized, so every run of the suite sees the same inputs.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from xplab.cli import run  # noqa: E402
from xplab.experiments import DRIVERS  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _fix(name: str) -> str:
    return os.path.join(FIXTURES, name)


SETTINGS = dict(
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# Strings hold no '-', '/', '\\' or '.', so no generated batch run can name an
# output flag or a path outside the scratch directory.
_text = st.text(alphabet=st.characters(blacklist_characters="-/\\.", blacklist_categories=("Cs",)),
                max_size=6)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.sampled_from([0, 10**400, 0.0, -0.0, 1e308, -1e308, 1e-320, 1e200, 1e-90,
                       math.nan, math.inf, -math.inf])
    | st.floats(-1e6, 1e6)
    | _text
)
json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=12,
)

# argv with DOC where the generated document's path goes, and the fixture it mutates
DOC = object()
COMMANDS = [
    (["norm", "--x", DOC], "x_pair.json"),
    (["blocks", "rosenthal", "--space", DOC, "--I", "1,2"], "space_pair.json"),
    (["blocks", "check", "--block", DOC, "--space", _fix("space_small.json")], "block_good.json"),
    (["blocks", "check", "--block", _fix("block_good.json"), "--space", DOC], "space_small.json"),
    (["project", "--x", _fix("x_pair.json"), "--projection", DOC], "projection_pair.json"),
    (["project", "--x", DOC, "--projection", _fix("projection_pair.json")], "x_pair.json"),
    (["opnorm", "--op", DOC, "--budget", "4"], "matrix_identity.json"),
    (["opnorm", "--op", DOC, "--budget", "4"], "gram_op.json"),
    (["opnorm", "--op", DOC, "--budget", "4", "--mode", "2w"], "projection_small.json"),
    (["split", "--x", _fix("split_x.json"), "--constants", DOC,
      "--projection", _fix("split_projection.json"), "--N", "5"], "split_constants.json"),
    (["split", "--x", DOC, "--constants", _fix("split_constants.json"),
      "--projection", _fix("split_projection.json"), "--N", "5"], "split_x.json"),
    (["check", "thm13", "--witness", DOC], "witness_good.json"),
    (["check", "proof-bounds", "--y", DOC, "--F", "1,2", "--rho", "0.5", "--delta", "0.5"],
     "y_unit.json"),
    (["check", "prop24", "--z", DOC, "--x-sample", _fix("xsample.json"), "--eps", "0.9",
      "--beta", "0.5", "--bprime", "0.1"], "vlist_span.json"),
    (["gen", "thm13", "--space", DOC, "--eps", "0.2", "--delta", "0.5", "--c", "1.2"],
     "space_tail.json"),
    (["classify", "kp", "--v", DOC, "--C", "2.0", "--budget", "4"], "vlist_span.json"),
    (["diag", "prop21", "--u", DOC, "--w", _fix("wlist.json"),
      "--projection", _fix("projection_small.json"), "--K", "1.2", "--window", "2",
      "--budget", "4"], "ulist.json"),
    (["weights", "gen", "--family", DOC], "family_powerlaw.json"),
    (["weights", "diag", "--family", DOC, "--eps", "0.9", "--D-list", "8,16", "--p", "4.0"],
     "family_doubly.json"),
    (["batch", "--config", DOC], "batch_small.json"),
]


def _read(name: str):
    with open(_fix(name), encoding="utf-8") as fh:
        return json.load(fh)


@st.composite
def mutated(draw, doc):
    """doc with one field replaced, removed or cut down, or all of it replaced."""
    if not isinstance(doc, dict) or draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    doc = dict(doc)
    key = draw(st.sampled_from(sorted(doc)))
    action = draw(st.sampled_from(["replace", "remove", "element", "truncate"]))
    value = doc[key]
    if action == "remove":
        del doc[key]
    elif action in ("element", "truncate") and isinstance(value, list) and value:
        value = list(value)
        k = draw(st.integers(0, len(value) - 1))
        if action == "element":
            value[k] = draw(json_values)
        else:
            del value[k:]
        doc[key] = value
    else:
        doc[key] = draw(json_values)
    return doc


def _run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    return code


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as path:
        yield path


@settings(max_examples=400, **SETTINGS)
@given(data=st.data())
def test_every_subcommand_keeps_the_exit_contract_on_generated_documents(scratch, data):
    argv, fixture = data.draw(st.sampled_from(COMMANDS))
    doc = data.draw(mutated(_read(fixture)))
    path = os.path.join(scratch, "doc.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    report = os.path.join(scratch, "report.json")
    _run([path if a is DOC else a for a in argv] + ["--out", report])


# Tokens for generated argv: every command, subcommand and flag except the
# ones that write files (--out, --csv, --repro) and the experiments, whose
# full-scale runs take seconds; values are small and fixtures are real.
_ARG_TOKENS = sorted({
    "norm", "blocks", "rosenthal", "check", "project", "opnorm", "split", "thm13",
    "proof-bounds", "prop24", "gen", "classify", "kp", "diag", "prop21", "weights", "batch",
    "--x", "--space", "--I", "--block", "--projection", "--op", "--mode", "--budget", "--seed",
    "--constants", "--N", "--witness", "--y", "--F", "--rho", "--delta", "--z", "--x-sample",
    "--eps", "--beta", "--bprime", "--variant", "--c", "--count", "--start", "--v", "--C",
    "--tail-start", "--u", "--w", "--K", "--window", "--head-cut", "--family", "--D",
    "--D-list", "--p", "--config", "--help", "xp", "2w", "b", "bprime",
    "0", "1", "2", "-1", "0.5", "1e308", "nan", "inf", "1,2", "", "x",
})
_FIXTURE_PATHS = sorted(_fix(name) for name in os.listdir(FIXTURES))


@settings(max_examples=300, **SETTINGS)
@given(argv=st.lists(st.sampled_from(_ARG_TOKENS) | st.sampled_from(_FIXTURE_PATHS) | _text,
                     max_size=10))
def test_generated_argv_keeps_the_exit_contract(argv):
    _run(argv)


@settings(max_examples=30, **SETTINGS)
@given(
    name=st.sampled_from(sorted(DRIVERS) + ["nope"]),
    scale=st.sampled_from(["0", "-1", "nan", "inf", "1e-9", "0.001", "x"]),
    seed=st.sampled_from(["0", "1", "-1", "x"]),
)
def test_experiment_keeps_the_exit_contract(name, scale, seed):
    _run(["experiment", name, "--scale", scale, "--seed", seed])


# Closure: a document a command writes is one its reader accepts. Each test
# runs a writer on generated input and, when the writer exits 0, feeds what it
# wrote to the reader, which must exit 0 too.
_magnitudes = st.sampled_from([0.0, 1e-300, 1e-3, 0.1, 0.5, 0.999, 1.0, 2.0, 1e6, 1e300])


def _report_data(scratch, argv):
    """The data of argv's report, or None when argv refuses its input (exit 1).

    A writer that exits 2 has written a document that fails its own checks.
    """
    report = os.path.join(scratch, "written.json")
    code = _run(argv + ["--out", report])
    assert code != 2, argv
    if code == 1:
        return None
    with open(report, encoding="utf-8") as fh:
        return json.load(fh)["data"]


def _dump(scratch, name, doc) -> str:
    path = os.path.join(scratch, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


@settings(max_examples=40, **SETTINGS)
@given(kind=st.sampled_from(["constant", "power-law", "geometric", "doubly-indexed"]),
       values=st.lists(_magnitudes, min_size=2, max_size=2),
       D=st.sampled_from([1, 2, 3, 64, 1100]))
def test_generated_weights_make_a_space(scratch, kind, values, D):
    fam = {"kind": kind, "D": D}
    fam.update(zip({"constant": ["value"], "power-law": ["a"], "geometric": ["ratio", "scale"],
                    "doubly-indexed": ["level_exp", "mult_exp"]}[kind], values))
    data = _report_data(scratch, ["weights", "gen", "--family", json.dumps(fam)])
    if data is not None:
        doc = {"p": 4.0, "weights": data["weights"], "entries": [[1, 1.0]]}
        assert _run(["norm", "--x", _dump(scratch, "x.json", doc)]) == 0, fam


@settings(max_examples=25, **SETTINGS)
@given(p=st.floats(2.1, 8.0),
       weights=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=6),
       picks=st.sets(st.integers(1, 6), min_size=1))
# condition b of this block holds with equality up to roundoff:
# 3.3401430133055023 >= 3.340143013305503
@example(p=7.12, weights=[1.533, 1.538, 2.262, 0.452, 2.461], picks={1, 2, 3, 4, 5})
def test_rosenthal_blocks_pass_blocks_check(scratch, p, weights, picks):
    space = _dump(scratch, "space.json", {"p": p, "weights": weights})
    I = ",".join(map(str, sorted(i for i in picks if i <= len(weights)) or [1]))
    data = _report_data(scratch, ["blocks", "rosenthal", "--space", space, "--I", I])
    if data is not None:
        block = _dump(scratch, "block.json", data["block"])
        assert _run(["blocks", "check", "--block", block, "--space", space]) == 0, (weights, I)


def test_rosenthal_block_on_a_heavy_weight_passes_blocks_check(scratch):
    # at p = 4 the weight mass of the first weight, 1e150, is past the double
    # range, but every coefficient and norm of its extremal block is in range
    space = _fix("space_heavy.json")
    data = _report_data(scratch, ["blocks", "rosenthal", "--space", space, "--I", "1,2,3"])
    assert data is not None
    block = _dump(scratch, "block.json", data["block"])
    assert _run(["blocks", "check", "--block", block, "--space", space]) == 0


@settings(max_examples=20, **SETTINGS)
@given(p=st.sampled_from([3.0, 4.0, 6.0]), w=st.sampled_from([0.05, 0.1]),
       D=st.sampled_from([16, 64]), eps=st.sampled_from([0.2, 0.3, 0.4]),
       delta=st.sampled_from([0.5, 0.9]), c=st.sampled_from([1.0, 1.2, 2.0]),
       count=st.sampled_from(["1", "2"]))
# at c = 1 the middle window inequality of a witness holds with equality up to
# roundoff: mass_vs_window gives 0.1565084580073287 >= 0.15650845800732874
@example(p=4.0, w=0.1, D=64, eps=0.3, delta=0.5, c=1.0, count="2")
def test_generated_witnesses_pass_check_thm13(scratch, p, w, D, eps, delta, c, count):
    space = _dump(scratch, "space.json", {"p": p, "weights": [w] * D})
    data = _report_data(scratch, ["gen", "thm13", "--space", space, "--eps", str(eps),
                                  "--delta", str(delta), "--c", str(c), "--count", count])
    for k, wit in enumerate([] if data is None else data["witnesses"]):
        assert _run(["check", "thm13", "--witness", _dump(scratch, f"w{k}.json", wit)]) == 0, k
