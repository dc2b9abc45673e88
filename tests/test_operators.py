"""Block projections, gram projections, and sampled extremum estimators."""

import math
import tracemalloc

import numpy as np
import pytest

from xplab import (
    BlockProjection,
    BlockSystem,
    DenseOperator,
    GramProjector,
    SpVector,
    WeightedSpace,
    basis_vector,
    estimate_h_inf,
    estimate_opnorm,
    estimate_r_sup,
    inner,
    make_block,
    make_rosenthal,
    norm_2w,
    omega,
    prop12_bound,
    prop26_chain,
    ratio,
    ratio_bounds_check,
    xp_norm,
)
from xplab.operators import DENSE_WINDOW_CAP
from xplab.oracle import brute_opnorm


@pytest.fixture
def pair_projection(pair_space):
    z = SpVector(pair_space, {1: 1.0, 2: 0.5})
    return BlockProjection(BlockSystem((make_block(z, [1, 2], 1.0, 1.0),)))


def test_projection_worked_example(pair_projection, x_pair):
    px = pair_projection.apply(x_pair)
    assert px.entries == pytest.approx({1: 18.0 / 17.0, 2: 9.0 / 17.0}, rel=1e-15)


def test_projection_idempotent_and_fixes_blocks(pair_projection, x_pair):
    px = pair_projection.apply(x_pair)
    ppx = pair_projection.apply(px)
    assert xp_norm(ppx - px) <= 1e-12 * xp_norm(px)
    z = SpVector(pair_projection.space, {1: 1.0, 2: 0.5})
    assert xp_norm(pair_projection.apply(z) - z) <= 1e-12


def test_prop12_bound_is_max(pair_space):
    z = SpVector(pair_space, {1: 1.0, 2: 0.5})
    sys = BlockSystem((make_block(z, [1, 2], 0.25, 3.0),), delta=0.25, c=3.0)
    assert prop12_bound(sys) == pytest.approx(max(1.0 / 0.25, 3.0))
    sys2 = BlockSystem((make_block(z, [1, 2], 0.5, 1.2),), delta=0.5, c=1.2)
    assert prop12_bound(sys2) == pytest.approx(2.0)


def test_ratio_window_rows(pair_space):
    # the window statement is for unit blocks
    z = SpVector(pair_space, {1: 1.0, 2: 0.5})
    z = z * (1.0 / xp_norm(z))
    sys = BlockSystem((make_block(z, [1, 2], 1.0, 1.1),))
    rows = ratio_bounds_check(sys)
    assert len(rows) == 1
    row = rows[0]
    assert row.ok and row.lo <= row.r <= row.hi


def test_normalized_tight_block_has_opnorm_one():
    # omega <= 1 makes the p-norm dominate, so the normalized extremal
    # block satisfies both conditions with delta = c = 1 exactly
    sp = WeightedSpace(4.0, (0.5, 0.5, 0.5))
    z = make_rosenthal(sp, [1, 2, 3]).vector
    z = z * (1.0 / xp_norm(z))
    P = BlockProjection(BlockSystem((make_block(z, [1, 2, 3], 1.0, 1.0),)))
    assert P.system.normalized
    assert prop12_bound(P.system) == pytest.approx(1.0)
    est = estimate_opnorm(P, mode="xp", budget=256, seed=0)
    assert abs(est.lower - 1.0) <= 1e-9


def test_opnorm_identity_and_scaling(fix):
    from xplab import doc_to_operator, load_json

    op = doc_to_operator(load_json(fix("matrix_identity.json")))
    est = estimate_opnorm(op, mode="xp", budget=128, seed=1)
    assert est.lower == pytest.approx(1.0, abs=1e-12)
    doc = load_json(fix("matrix_identity.json"))
    doc["matrix"] = [[2.0, 0.0], [0.0, 2.0]]
    est2 = estimate_opnorm(doc_to_operator(doc), mode="2w", budget=128, seed=1)
    assert est2.lower == pytest.approx(2.0, abs=1e-12)


def test_opnorm_monotone_in_budget(pair_projection):
    lows = [
        estimate_opnorm(pair_projection, mode="xp", budget=b, seed=5).lower
        for b in (16, 64, 256)
    ]
    assert lows[0] <= lows[1] + 1e-15 and lows[1] <= lows[2] + 1e-15


def test_opnorm_seed_reproducible(pair_projection):
    a = estimate_opnorm(pair_projection, mode="2w", budget=64, seed=9)
    b = estimate_opnorm(pair_projection, mode="2w", budget=64, seed=9)
    assert a.lower == b.lower
    assert a.witness.entries == b.witness.entries


def test_opnorm_witness_recomputes(pair_projection):
    est = estimate_opnorm(pair_projection, mode="xp", budget=64, seed=2)
    w = est.witness
    assert xp_norm(pair_projection.apply(w)) / xp_norm(w) == pytest.approx(est.lower, rel=1e-12)


def _bracket_cases():
    """20 seeded dense operators with d <= 5, then 6 normalized one-block projections.

    Each block vector is scaled to an xp norm of 1 + 0.9e-9, inside the tolerance
    of ``normalized``; its c shrinks by that factor while the projection does not.
    """
    for k in range(20):
        rng = np.random.default_rng([26, k])
        d = int(rng.integers(1, 6))
        p = float(rng.uniform(2.1, 8.0))
        w = rng.uniform(0.05, 2.0, size=d)
        yield DenseOperator(WeightedSpace(p, tuple(w)), rng.standard_normal((d, d))), 32
    for k in range(6):
        rng = np.random.default_rng([12, k])
        d = int(rng.integers(2, 5))
        sp = WeightedSpace(float(rng.uniform(2.1, 6.0)), tuple(rng.uniform(0.05, 1.5, d)))
        z = SpVector(sp, {i: float(v) for i, v in enumerate(rng.standard_normal(d), start=1)})
        E = sorted(int(i) for i in rng.choice(np.arange(1, d + 1), int(rng.integers(1, d + 1)), replace=False))
        z = z * ((1.0 + 0.9e-9) / xp_norm(z))
        P = BlockProjection(BlockSystem((make_block(z, E, 1.0, 1.0, require=False),)))
        assert P.system.normalized
        yield P, 256


@pytest.mark.parametrize("mode", ["xp", "2w"])
def test_opnorm_bracket_is_certified(mode):
    for op, budget in _bracket_cases():
        est = estimate_opnorm(op, mode=mode, budget=budget)
        w = np.array([op.space.weight(int(i)) for i in op.window])
        # the 2w bracket closes, so lower may sit an ulp above upper
        assert est.lower <= est.upper * (1 + 1e-12)
        assert brute_opnorm(op.matrix, w, op.space.p, mode=mode) <= est.upper * (1 + 1e-9)
        if mode == "2w":
            assert est.lower == pytest.approx(est.upper, rel=1e-12)


@pytest.mark.parametrize("mode", ["xp", "2w"])
def test_opnorm_keeps_apply_errors(mode):
    # only an out-of-range norm becomes the "not finite" error
    class Refusing(DenseOperator):
        def apply(self, x):
            raise ValueError("apply refused")

    op = Refusing(WeightedSpace(4.0, (1.0, 0.5)), np.eye(2))
    with pytest.raises(ValueError, match="apply refused"):
        estimate_opnorm(op, mode=mode, budget=4)


def test_opnorm_rejects_bad_mode(pair_projection):
    with pytest.raises(ValueError):
        estimate_opnorm(pair_projection, mode="p", budget=16, seed=0)


def test_gram_projects_onto_span():
    sp = WeightedSpace(4.0, (1.0, 0.9, 0.8, 0.7))
    Q = GramProjector([basis_vector(sp, 1)])
    x = SpVector(sp, {1: 3.0, 2: 5.0})
    qx = Q.apply(x)
    assert qx.entries == pytest.approx({1: 3.0}, rel=1e-14)
    # idempotent on its range
    assert xp_norm(Q.apply(qx) - qx) <= 1e-12


def test_gram_pythagoras():
    rng = np.random.default_rng(3)
    sp = WeightedSpace(5.0, tuple(rng.uniform(0.2, 1.5, 10)))
    Z = [
        SpVector(sp, {1: 1.0, 3: -0.4}),
        SpVector(sp, {2: 0.8, 5: 0.3, 7: 1.1}),
    ]
    Q = GramProjector(Z)
    for _ in range(40):
        x = SpVector(sp, {int(n): float(v) for n, v in enumerate(rng.standard_normal(10), start=1)})
        qx = Q.apply(x)
        lhs = norm_2w(x) ** 2
        rhs = norm_2w(qx) ** 2 + norm_2w(x - qx) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-9)
        # residual is 2w-orthogonal to the span
        assert inner(x - qx, Z[0]) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("wk, ks", [
    pytest.param(0, (660, 660), id="660"),
    pytest.param(0, (-660, -660), id="-660"),
    pytest.param(1000, (0, 0), id="weights-1000"),
    pytest.param(-1000, (0, 0), id="weights--1000"),
    pytest.param(0, (600, -600), id="600--600"),
])
def test_gram_matrix_is_scale_free(wk, ks):
    # the weights and the vectors times powers of two: B^T W^2 B would overflow or
    # underflow, and at 600/-600 its condition number would be 2^2400; the projector
    # scales every column of B and of W B to unit norm, so W B and its factor do not change
    w = (1.0, 0.5, 0.8, 0.7)
    sp, spk = WeightedSpace(4.0, w), WeightedSpace(4.0, tuple(math.ldexp(t, wk) for t in w))
    span = [{1: 1.0}, {2: 1.0, 3: 0.5}]
    Q = GramProjector([SpVector(sp, v) for v in span])
    Qk = GramProjector([SpVector(spk, v) * math.ldexp(1.0, j) for v, j in zip(span, ks)])
    assert np.array_equal(Qk.matrix, Q.matrix)
    x = {1: 3.0, 2: -1.0, 4: 2.0}
    assert Qk.apply(SpVector(spk, x)).entries == Q.apply(SpVector(sp, x)).entries


def test_gram_rejects_dependent_basis():
    sp = WeightedSpace(4.0, (1.0, 0.5))
    v = SpVector(sp, {1: 1.0, 2: 1.0})
    with pytest.raises(ValueError):
        GramProjector([v, v * 2.0])
    # three vectors on two coordinates: the factor R is 2 x 3
    with pytest.raises(ValueError, match="condition number inf"):
        GramProjector([v, SpVector(sp, {1: 1.0}), SpVector(sp, {2: 1.0})])


def test_span_extrema_single_vector():
    sp = WeightedSpace(4.0, (1.0, 0.5, 0.8))
    v = SpVector(sp, {1: 1.0, 2: 2.0})
    r = ratio(v)
    assert estimate_r_sup([v], budget=64, seed=0) == pytest.approx(r, rel=1e-12)
    assert estimate_h_inf([v], budget=64, seed=0) == pytest.approx(r, rel=1e-12)


def test_span_sup_of_disjoint_rosenthals_is_joint_profile():
    sp = WeightedSpace(4.0, tuple([0.6] * 8))
    a = make_rosenthal(sp, [1, 2, 3]).vector
    b = make_rosenthal(sp, [4, 5]).vector
    # the sum is the extremal profile of the union, and it lies in the span
    target = omega(sp, [1, 2, 3, 4, 5]) ** sp.ratio_exp
    est = estimate_r_sup([a, b], budget=256, seed=1)
    assert est == pytest.approx(target, rel=1e-9)


def test_prop26_chain_holds_on_samples():
    rng = np.random.default_rng(4)
    sp = WeightedSpace(4.0, tuple(rng.uniform(0.3, 1.2, 8)))
    Z = [SpVector(sp, {1: 1.0, 2: 0.5}), SpVector(sp, {4: 1.0})]
    Q = GramProjector(Z)
    h = estimate_h_inf(Z, budget=128, seed=0)
    bprime = min(0.9 * h, 1.0)
    for t in range(25):
        x = SpVector(sp, {int(n): float(v) for n, v in enumerate(rng.standard_normal(8), start=1)})
        x = x * (1.0 / xp_norm(x))
        res = prop26_chain(Q, bprime, x, budget=96, seed=0)
        assert res.ok, f"chain failed at sample {t}: {res.lhs} > {res.rhs}"


def test_prop26_chain_orthogonal_input_gives_zero_lhs():
    sp = WeightedSpace(4.0, (1.0, 0.5, 0.8, 0.7))
    Q = GramProjector([basis_vector(sp, 1)])
    x = basis_vector(sp, 3)
    res = prop26_chain(Q, 0.5, x, budget=32, seed=0)
    assert res.lhs == pytest.approx(0.0, abs=1e-15)
    assert res.ok


def test_prop26_chain_validates_bprime():
    sp = WeightedSpace(4.0, (1.0, 0.5))
    Q = GramProjector([basis_vector(sp, 1)])
    x = basis_vector(sp, 2)
    with pytest.raises(ValueError, match="bprime"):
        prop26_chain(Q, 1.5, x)
    with pytest.raises(ValueError, match="bprime"):
        prop26_chain(Q, 0.0, x)


def test_block_system_rejects_overlap(pair_space):
    z1 = SpVector(pair_space, {1: 1.0})
    z2 = SpVector(pair_space, {1: 0.5, 2: 0.5})
    with pytest.raises(ValueError, match="overlap"):
        BlockSystem((make_block(z1, [1], 1.0, 1.0), make_block(z2, [1, 2], 0.3, 5.0)))


def _window_operators(pair_space):
    """One operator of each kind: a block projection, a Gram projector, a dense matrix."""
    z = SpVector(pair_space, {1: 1.0, 2: 0.5})
    sp = WeightedSpace(4.0, (1.0, 0.9, 0.8, 0.7))
    return {
        "block": BlockProjection(BlockSystem((make_block(z, [1, 2], 1.0, 1.0),))),
        "gram": GramProjector([SpVector(sp, {1: 1.0, 3: -0.4}), SpVector(sp, {2: 0.8, 3: 0.3})]),
        "dense": DenseOperator(sp, np.arange(9.0).reshape(3, 3) - 4.0, (1, 2, 4)),
    }


@pytest.mark.parametrize("kind", ["block", "gram", "dense"])
def test_matrix_matches_apply(pair_space, kind):
    op = _window_operators(pair_space)[kind]
    for j, i in enumerate(op.window):
        col = op.apply(basis_vector(op.space, int(i)))
        want = np.array([col[int(k)] for k in op.window])
        assert op.matrix[:, j] == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_dense_window_cap_comes_before_the_matrix():
    # 4097 indices: one past the cap; apply stays sparse and still works
    d = DENSE_WINDOW_CAP + 1
    sp = WeightedSpace(4.0, tuple([1.0] * d))
    z = SpVector(sp, {i: 1.0 for i in range(1, d + 1)})
    P = BlockProjection(BlockSystem((make_block(z, list(range(1, d + 1)), 1.0, 1.0, require=False),)))
    Q = GramProjector([z, basis_vector(sp, 1)])
    x = basis_vector(sp, 2)
    for op in (P, Q):
        assert len(op.window) == d
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"exceeds dense cap {DENSE_WINDOW_CAP}"):
                estimate_opnorm(op, mode="xp", budget=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d * d // 16  # nothing near a d x d array of doubles
        assert "matrix" not in vars(op)
        assert not op.apply(x).is_zero()
    with pytest.raises(ValueError, match="exceeds dense cap"):
        DenseOperator(sp, np.zeros((d, d)))


@pytest.mark.parametrize("scale", [
    1e200, 1e-90,
    *(pytest.param((math.ldexp(1.0, k), math.ldexp(1.0, -k)), id=f"2^{k},2^{-k}")
      for k in (-600, -300, 300, 600)),
])
@pytest.mark.parametrize("estimate", [estimate_h_inf, estimate_r_sup])
def test_span_extrema_are_scale_free(estimate, scale):
    # at these scales every power sum of a span vector at p = 4 overflows or
    # underflows. The search runs on the unit columns of the span, and a vector
    # times its own power of two gives the same unit column, bit for bit.
    sp = WeightedSpace(4.0, (1.0, 0.5, 0.8, 0.7))
    span = [{1: 1.0}, {2: 1.0, 3: -0.5}]
    scales = scale if isinstance(scale, tuple) else (scale, scale)
    base = estimate([SpVector(sp, v) for v in span], budget=64, seed=0)
    at = estimate([SpVector(sp, v) * s for v, s in zip(span, scales)], budget=64, seed=0)
    if isinstance(scale, tuple):
        assert at == base
    assert at == pytest.approx(base, rel=1e-12)
