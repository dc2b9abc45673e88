"""Driver plumbing: defaults, scaling and the report type drivers return."""

import functools

import numpy as np
import pytest

from xplab import CriterionReport, RosenthalBlock, experiments


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


# -- criterion 2 by columns ----------------------------------------------------

# fixed before the first run: the column kernel against holder_bounds
AGREE = 1e-12


def _chunk_with_a_zero_x(seed=0, chunk=1):
    """A whole drawn chunk in which one trial's x is set to zero by hand.

    The draw never yields x = 0 (its entries are standard normal), so the
    skip path is exercised on a copy whose row 5 is cleared.
    """
    d = experiments._draw_holder_chunk(seed, chunk)
    x = d.x.copy()
    x[5] = 0.0
    return d._replace(x=x)


def test_holder_column_kernel_matches_holder_bounds_on_every_trial():
    d = _chunk_with_a_zero_x()
    assert d.k0 % 2 == 0 and len(d.p) == experiments.HOLDER_CHUNK
    h = experiments._holder_columns(d)
    kinds = set()
    for j in range(len(d.p)):
        hb = experiments._holder_trial(d, j)
        assert (hb is None) == bool(h.skip[j]) == (j == 5)
        if hb is None:
            continue
        kinds.add((d.k0 + j) % 2)  # 0: extremal block, 1: general block
        for name in ("lhs2", "rhs2", "lhsp", "rhsp", "c"):
            got, want = float(getattr(h, name)[j]), getattr(hb, name)
            assert abs(got - want) <= AGREE * max(abs(got), abs(want)), (j, name, got, want)
        for name in ("c_admissible", "ok2", "okp"):
            assert bool(getattr(h, name)[j]) == getattr(hb, name), (j, name)
    assert kinds == {0, 1}


def _xI(d):
    inI = np.arange(d.I.shape[1]) < d.size[:, None]
    return np.take_along_axis(d.x, d.I, axis=1) * inI


def _drop_w_from_2w_sum(d, h):
    return h._replace(rhs2=np.sqrt(np.sum(_xI(d) ** 2, axis=1)))


def _p_sum_at_p_plus(d, h):
    q = d.p + 0.01
    return h._replace(rhsp=np.sum(np.abs(_xI(d)) ** q[:, None], axis=1) ** (1.0 / q))


def _lhs2_off_by_1e_11(d, h):
    return h._replace(lhs2=h.lhs2 * (1.0 + 1e-11))


@pytest.mark.parametrize("fault", [_drop_w_from_2w_sum, _p_sum_at_p_plus, _lhs2_off_by_1e_11])
def test_holder_cross_check_catches_a_wrong_kernel(monkeypatch, fault):
    real = experiments._holder_columns
    monkeypatch.setattr(experiments, "_holder_columns", lambda d: fault(d, real(d)))
    with pytest.raises(ValueError, match="disagrees with holder_bounds"):
        experiments.run_holder_pairs(trials=2 * experiments.HOLDER_CHUNK, seed=0)


def test_holder_kernel_raises_on_a_failing_block_condition():
    # a c factor of 1e-6 in place of U(1, 1.3) puts c far below omega(E)^ratio_exp / |z_E|
    d = experiments._draw_holder_chunk(0, 0, 8)
    with pytest.raises(ValueError, match="condition b fails at trial 1:"):
        experiments._holder_columns(d._replace(u=np.full(8, 1e-6)))


def test_holder_chunk_draw_invariants():
    d = experiments._draw_holder_chunk(3, 1)
    n = len(d.p)
    assert d.k0 == experiments.HOLDER_CHUNK and n == experiments.HOLDER_CHUNK
    assert np.all((1 <= d.size) & (d.size <= 8))
    assert np.all((1 <= d.esize) & (d.esize <= d.size))  # E: a nonempty prefix of I's slots
    for j in range(n):
        I = d.I[j, : d.size[j]]
        assert len(set(I.tolist())) == len(I)
    assert np.all((0 <= d.I) & (d.I < experiments.HOLDER_DIM))
    xsize = np.count_nonzero(d.x, axis=1)
    assert np.all((1 <= xsize) & (xsize <= 12))
    inI = np.arange(d.I.shape[1]) < d.size[:, None]
    assert set(d.I[inI].tolist()) == set(range(experiments.HOLDER_DIM))
    h = experiments._holder_columns(d)
    even = (d.k0 + np.arange(n)) % 2 == 0
    assert np.all(h.c[even] == 1.0)
    for j in (0, 1, 2, 3):
        blk = experiments._holder_block(d, j)
        assert isinstance(blk, RosenthalBlock) == bool(even[j])
    # a shorter draw is a prefix of the full chunk
    short = experiments._draw_holder_chunk(3, 1, 100)
    for a, b in zip(short[1:], d[1:]):
        assert np.array_equal(a, b[:100])


def test_holder_pairs_is_reproducible_per_trials_and_seed():
    a = experiments.run_holder_pairs(trials=1500, seed=4).to_dict()
    assert a == experiments.run_holder_pairs(trials=1500, seed=4).to_dict()
    assert a["verdict"] and a["data"] == {"trials": 1500, "violations": 0}
