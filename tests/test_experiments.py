"""Driver plumbing: defaults, scaling and the report type drivers return."""

import functools

from xplab import CriterionReport, experiments


def test_scaled_run_reads_defaults_through_a_wrapper(monkeypatch):
    fn, fields = experiments.DRIVERS["rosenthal-identities"]
    calls = []

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        calls.append(kwargs)
        return fn(*args, **kwargs)

    monkeypatch.setitem(experiments.DRIVERS, "rosenthal-identities", (wrapped, fields))
    out = experiments.run_experiment("rosenthal-identities", seed=0, scale=0.01)
    assert calls == [{"seed": 0, "trials": 10}]
    assert isinstance(out, CriterionReport)
    assert out.verdict
    assert out["checks"] == [c.to_dict() for c in out.checks]
