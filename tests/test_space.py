"""Norms, ratios and support handling on the sparse vector type."""

import math

import numpy as np
import pytest

from xplab import (
    MAX_DIM,
    SpaceMismatchError,
    SpVector,
    SupportSet,
    WeightedSpace,
    basis_vector,
    check,
    from_pairs,
    head_proj,
    holds,
    inner,
    max_ratio,
    norm_2w,
    norm_p,
    omega,
    ratio,
    restrict,
    tail_proj,
    xp_norm,
)


def test_two_coordinate_example(pair_space):
    x = SpVector(pair_space, {1: 1.0, 2: 2.0})
    assert norm_p(x) == pytest.approx(17.0 ** 0.25, rel=1e-15)
    assert norm_2w(x) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    # p-norm dominates here
    assert xp_norm(x) == norm_p(x)
    assert ratio(x) == pytest.approx(math.sqrt(2.0) / 17.0 ** 0.25, rel=1e-14)


def test_flat_vector_norms(pair_space, x_pair):
    assert norm_p(x_pair) == pytest.approx(2.0 ** 0.25, rel=1e-15)
    assert norm_2w(x_pair) == pytest.approx(math.sqrt(1.25), rel=1e-15)
    assert xp_norm(x_pair) == max(norm_p(x_pair), norm_2w(x_pair))


def test_omega_and_max_ratio(pair_space):
    # mass exponent is 2p/(p-2) = 4 at p = 4
    assert omega(pair_space, [1, 2]) == pytest.approx(1.0 + 0.5 ** 4, rel=1e-15)
    assert max_ratio(pair_space, [1, 2]) == pytest.approx(1.0625 ** 0.25, rel=1e-15)
    assert max_ratio(pair_space, [1]) == pytest.approx(1.0, rel=1e-15)
    assert max_ratio(pair_space, [2]) == pytest.approx(0.5, rel=1e-15)


def test_exponents():
    sp = WeightedSpace(4.0, (1.0,))
    assert sp.mass_exp == pytest.approx(4.0)
    assert sp.coeff_exp == pytest.approx(1.0)
    assert sp.ratio_exp == pytest.approx(0.25)
    sp6 = WeightedSpace(6.0, (1.0,))
    assert sp6.mass_exp == pytest.approx(3.0)
    assert sp6.coeff_exp == pytest.approx(0.5)
    assert sp6.ratio_exp == pytest.approx(1.0 / 3.0)


def test_inner_uses_squared_weights(pair_space, x_pair):
    assert inner(x_pair, x_pair) == pytest.approx(1.0 + 0.25, rel=1e-15)
    e2 = basis_vector(pair_space, 2)
    assert inner(x_pair, e2) == pytest.approx(0.25, rel=1e-15)


@pytest.mark.parametrize("k", [-1000, 1000])
def test_weighted_values_are_scale_free(k):
    # weights times 2^k and vectors times 2^-k: w^2 and w^4 leave the double
    # range, while every weighted value w x stays as it was, bit for bit
    w, x, y = (1.0, 0.5, 0.8), {1: 1.5, 2: -0.25, 3: 2.0}, {1: 0.5, 3: -1.0}
    sp, spk = WeightedSpace(4.0, w), WeightedSpace(4.0, tuple(math.ldexp(t, k) for t in w))
    s = math.ldexp(1.0, -k)
    xk, yk = SpVector(spk, x) * s, SpVector(spk, y) * s
    assert inner(xk, yk) == inner(SpVector(sp, x), SpVector(sp, y))
    assert norm_2w(xk) == norm_2w(SpVector(sp, x))
    assert max_ratio(spk, [1, 2, 3]) == pytest.approx(math.ldexp(max_ratio(sp, [1, 2, 3]), k),
                                                      rel=1e-15)


def test_weight_mass_past_the_double_range():
    # at p = 4 the mass w^4 of 1e150 overflows and that of 1e-100 underflows;
    # their root, max_ratio, is the l_4 norm of the weights and stays in range
    sp = WeightedSpace(4.0, (1e150, 1.0, 1e-100))
    assert omega(sp, [1, 2]) == math.inf
    assert omega(sp, [3]) == 0.0
    assert max_ratio(sp, [1, 2]) == 1e150
    assert max_ratio(sp, [3]) == pytest.approx(1e-100, rel=1e-15)


def test_restrict_head_tail(pair_space):
    x = SpVector(pair_space, {1: 1.0, 2: 2.0})
    assert head_proj(x, 1).entries == {1: 1.0}
    assert tail_proj(x, 1).entries == {2: 2.0}
    assert restrict(x, [2]).entries == {2: 2.0}
    assert restrict(x, []).is_zero()
    # restriction and its complement split the weighted 2-mass exactly
    a = norm_2w(restrict(x, [1])) ** 2 + norm_2w(restrict(x, [2])) ** 2
    assert a == pytest.approx(norm_2w(x) ** 2, rel=1e-15)


def test_from_pairs_and_zero_drop(pair_space):
    x = from_pairs(pair_space, [(1, 1.0), (2, 0.0)])
    assert x.entries == {1: 1.0}
    z = from_pairs(pair_space, [])
    assert z.is_zero()
    assert norm_p(z) == 0.0 and norm_2w(z) == 0.0 and xp_norm(z) == 0.0


def test_ratio_undefined_for_zero(pair_space):
    with pytest.raises(ValueError, match="zero"):
        ratio(SpVector(pair_space, {}))


def test_space_validation():
    with pytest.raises(ValueError):
        WeightedSpace(2.0, (1.0,))
    with pytest.raises(ValueError):
        WeightedSpace(4.0, (1.0, -0.5))
    with pytest.raises(ValueError):
        WeightedSpace(4.0, (0.0,))


def test_index_validation(pair_space):
    with pytest.raises(ValueError):
        SpVector(pair_space, {0: 1.0})
    with pytest.raises(ValueError):
        SpVector(pair_space, {3: 1.0})
    assert MAX_DIM >= 65536


def test_space_mismatch(pair_space):
    other = WeightedSpace(4.0, (1.0, 0.6))
    x = SpVector(pair_space, {1: 1.0})
    y = SpVector(other, {1: 1.0})
    with pytest.raises(SpaceMismatchError):
        inner(x, y)
    with pytest.raises(SpaceMismatchError):
        _ = x + y


def test_support_set_algebra():
    a = SupportSet.of([1, 2, 3])
    b = SupportSet.of([3, 4])
    assert a.union(b) == SupportSet.of([1, 2, 3, 4])
    assert a.intersection(b) == SupportSet.of([3])
    assert a.difference(b) == SupportSet.of([1, 2])
    assert SupportSet.of([2]).issubset(a)
    assert SupportSet.of([5]).isdisjoint(a)


def test_max_is_exact_and_triangle_holds():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(2, 20))
        sp = WeightedSpace(float(rng.uniform(2.1, 8.0)), tuple(rng.uniform(0.05, 2.0, d)))
        ents = {int(i) + 1: float(v) for i, v in enumerate(rng.standard_normal(d)) if rng.random() < 0.7}
        x = SpVector(sp, ents)
        y = SpVector(sp, {int(rng.integers(1, d + 1)): float(rng.standard_normal())})
        assert xp_norm(x) == max(norm_p(x), norm_2w(x))
        assert xp_norm(x + y) <= xp_norm(x) + xp_norm(y) + 1e-12
        assert xp_norm(x * 2.0) == pytest.approx(2.0 * xp_norm(x), rel=1e-14)


def test_extremal_ratio_is_attained():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(2, 12))
        sp = WeightedSpace(float(rng.uniform(2.2, 7.0)), tuple(rng.uniform(0.1, 1.5, d)))
        I = sorted(rng.choice(np.arange(1, d + 1), size=int(rng.integers(1, d + 1)), replace=False).tolist())
        # the extremal profile w_n^(2/(p-2)) achieves omega(I)^((p-2)/2p)
        prof = SpVector(sp, {int(n): sp.warray[n - 1] ** sp.coeff_exp for n in I})
        assert ratio(prof) == pytest.approx(max_ratio(sp, I), rel=1e-12)
        # and any other vector on I stays at or below it
        y = SpVector(sp, {int(n): float(rng.standard_normal()) for n in I})
        if not y.is_zero():
            assert ratio(y) <= max_ratio(sp, I) * (1 + 1e-12)


@pytest.mark.parametrize("weights", [
    (1.0, 0.0),
    (1.0, -0.5),
    (1.0, math.nan),
    (1.0, math.inf),
    (1.0, None),
    ((1.0, 0.5),),
    (1.0, (0.5,)),
    (),
    1.0,
    (1.0,) * (MAX_DIM + 1),
])
def test_space_rejects_bad_weights(weights):
    with pytest.raises(ValueError, match="weights"):
        WeightedSpace(4.0, weights)


def test_space_keeps_weights_as_floats_and_a_read_only_array():
    sp = WeightedSpace(4.0, [1, np.float32(0.5), True])
    assert sp.weights == (1.0, 0.5, 1.0)
    assert all(type(v) is float for v in sp.weights)
    assert sp.warray.tolist() == list(sp.weights)
    with pytest.raises(ValueError):
        sp.warray[0] = 2.0


def test_spaces_built_apart_from_equal_weights_are_equal():
    w = np.random.default_rng(2).uniform(0.1, 1.5, 4096)
    a = WeightedSpace(4.5, tuple(w))
    b = WeightedSpace(4.5, w.tolist())
    assert a is not b and a.weights is not b.weights
    assert a == b and hash(a) == hash(b)
    x, y = SpVector(a, {1: 1.0, 7: 2.0}), SpVector(b, {7: 1.0})
    assert inner(x, y) == pytest.approx(2.0 * w[6] ** 2, rel=1e-15)
    assert WeightedSpace(5.0, tuple(w)) != a


def test_spaces_one_ulp_apart_are_unequal():
    w = np.random.default_rng(3).uniform(0.1, 1.5, 64)
    a = WeightedSpace(4.0, tuple(w))
    v = w.copy()
    v[37] = np.nextafter(v[37], np.inf)
    b = WeightedSpace(4.0, tuple(v))
    assert a != b
    with pytest.raises(SpaceMismatchError):
        inner(SpVector(a, {1: 1.0}), SpVector(b, {1: 1.0}))


ULP = math.ulp(1.0)


@pytest.mark.parametrize(
    "lhs, op, rhs, ok",
    [
        # one-ulp ties hold in all four operators
        (1.0 + ULP, "<=", 1.0, True),
        (1.0, ">=", 1.0 + ULP, True),
        (1.0 + ULP, "<", 1.0, True),
        (1.0, ">", 1.0 + ULP, True),
        (-1.0 - ULP, ">=", -1.0, True),
        # past the pad
        (1.0 + 1e-11, "<=", 1.0, False),
        (1.0, ">", 1.0 + 1e-11, False),
        # the pad is relative, never absolute
        (1e-20, ">=", 5e-13, False),
        (0.0, "<", 0.0, False),
        # an infinite side gets no pad
        (math.inf, "<=", 1.0, False),
        (math.inf, "<=", math.inf, True),
        (1.0, ">=", math.inf, False),
        (-math.inf, "<", 1.0, True),
    ],
)
def test_one_verdict_rule(lhs, op, rhs, ok):
    assert check("q", lhs, op, rhs).ok is ok
    if math.isfinite(lhs) and math.isfinite(rhs):
        scaled = {holds(math.ldexp(lhs, k), op, math.ldexp(rhs, k)) for k in range(-1000, 1001)}
        assert scaled == {ok}
    L, R = np.array([lhs, 1.0, 2.0, -3.0]), np.array([rhs, 2.0, 1.0, math.inf])
    assert holds(L, op, R).tolist() == [holds(a, op, b) for a, b in zip(L.tolist(), R.tolist())]
    with pytest.raises(ValueError, match="unknown comparison"):
        holds(lhs, "=<", rhs)
