"""Blocks, their functionals, and the two-sided functional bounds."""

import math

import numpy as np
import pytest

from xplab import (
    SpVector,
    WeightedSpace,
    extremality_check,
    functional_apply,
    holder_bounds,
    inner,
    make_block,
    make_rosenthal,
    max_ratio,
    norm_2w,
    norm_p,
    omega,
    ratio,
    xp_norm,
)


def test_rosenthal_profile_coefficients(pair_space):
    y = make_rosenthal(pair_space, [1, 2])
    # coefficient exponent 2/(p-2) = 1 at p = 4
    assert y.vector.entries == pytest.approx({1: 1.0, 2: 0.5})


def test_rosenthal_identities_p4(pair_space):
    y = make_rosenthal(pair_space, [1, 2])
    om = omega(pair_space, [1, 2])
    assert norm_2w(y.vector) == pytest.approx(math.sqrt(om), rel=1e-14)
    assert norm_p(y.vector) == pytest.approx(om ** 0.25, rel=1e-14)
    assert ratio(y.vector) == pytest.approx(om ** pair_space.ratio_exp, rel=1e-14)


def test_rosenthal_identities_p6():
    sp = WeightedSpace(6.0, (1.0, 0.5))
    y = make_rosenthal(sp, [1, 2])
    om = omega(sp, [1, 2])
    assert om == pytest.approx(1.0 + 0.5 ** 3, rel=1e-15)
    assert y.vector.entries[2] == pytest.approx(0.5 ** 0.5, rel=1e-15)
    assert norm_2w(y.vector) == pytest.approx(om ** 0.5, rel=1e-14)
    assert norm_p(y.vector) == pytest.approx(om ** (1.0 / 6.0), rel=1e-14)
    assert ratio(y.vector) == pytest.approx(om ** (4.0 / 12.0), rel=1e-14)


def test_functional_worked_example(pair_space, x_pair):
    y = make_rosenthal(pair_space, [1, 2])
    # inner(z, x) / norm_2w(z)^2 = (9/8) / (17/16)
    assert functional_apply(y, x_pair) == pytest.approx(18.0 / 17.0, rel=1e-15)
    assert functional_apply(y, x_pair, form="full") == pytest.approx(18.0 / 17.0, rel=1e-15)


def test_functional_normalization(pair_space):
    y = make_rosenthal(pair_space, [1, 2])
    assert functional_apply(y, y.vector) == pytest.approx(1.0, rel=1e-14)


def test_biorthogonality():
    sp = WeightedSpace(5.0, tuple([0.4, 1.1, 0.7, 0.9, 0.3, 0.8]))
    a = make_rosenthal(sp, [1, 3])
    b = make_rosenthal(sp, [2, 5, 6])
    assert functional_apply(a, b.vector) == pytest.approx(0.0, abs=1e-15)
    assert functional_apply(b, a.vector) == pytest.approx(0.0, abs=1e-15)
    assert functional_apply(a, a.vector) == pytest.approx(1.0, rel=1e-14)


def test_restricted_form_reads_only_E(pair_space):
    z = SpVector(pair_space, {1: 1.0, 2: 0.5})
    blk = make_block(z, [1], 0.5, 2.0)
    x = SpVector(pair_space, {1: 0.0, 2: 7.0})
    x2 = SpVector(pair_space, {2: 7.0})
    assert functional_apply(blk, x2) == 0.0
    # full form sees the off-E coordinate
    assert functional_apply(blk, x2, form="full") != 0.0
    assert functional_apply(blk, x, form="restricted") == functional_apply(x=x, b=blk)


def test_extremality(pair_space):
    y = make_rosenthal(pair_space, [1, 2])
    assert extremality_check(pair_space, [1, 2], y.vector)
    skew = SpVector(pair_space, {1: 1.0, 2: 0.01})
    assert extremality_check(pair_space, [1, 2], skew)
    with pytest.raises(ValueError):
        extremality_check(pair_space, [1], y.vector)


def test_make_block_validation(pair_space):
    z = SpVector(pair_space, {1: 1.0, 2: 0.5})
    with pytest.raises(ValueError, match="condition a"):
        make_block(z, [2], 0.99, 10.0)
    with pytest.raises(ValueError, match="condition b"):
        make_block(z, [2], 0.05, 0.1)
    with pytest.raises(ValueError, match="subset"):
        make_block(SpVector(pair_space, {1: 1.0}), [1, 2], 0.5, 1.0)
    with pytest.raises(ValueError, match="positive"):
        make_block(z, [1], -0.5, 1.0)
    blk = make_block(z, [2], 0.99, 10.0, require=False)
    a, b = blk.conditions
    assert (a.name, a.ok, b.name, b.ok) == ("condition_a", False, "condition_b", True)


def test_holder_bounds_rosenthal(pair_space, x_pair):
    y = make_rosenthal(pair_space, [1, 2])
    hb = holder_bounds(y, x_pair)
    assert hb.ok2 and hb.okp
    assert hb.c_admissible
    assert hb.lhs2 <= hb.rhs2 * (1 + 1e-12)
    assert hb.lhsp <= hb.c * hb.rhsp * (1 + 1e-12)


def test_holder_bounds_random_blocks():
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = int(rng.integers(3, 24))
        sp = WeightedSpace(float(rng.uniform(2.2, 8.0)), tuple(rng.uniform(0.05, 1.8, d)))
        size = int(rng.integers(1, min(d, 6) + 1))
        I = sorted(rng.choice(np.arange(1, d + 1), size=size, replace=False).tolist())
        y = make_rosenthal(sp, I)
        x = SpVector(sp, {int(n): float(v) for n, v in zip(range(1, d + 1), rng.standard_normal(d))})
        hb = holder_bounds(y, x)
        assert hb.ok2, f"2w bound failed: {hb.lhs2} > {hb.rhs2}"
        assert hb.okp, f"p bound failed: {hb.lhsp} > {hb.c} * {hb.rhsp}"


def test_holder_bounds_general_block_with_admissible_c():
    rng = np.random.default_rng(11)
    sp = WeightedSpace(4.5, tuple(rng.uniform(0.2, 1.2, 12)))
    z = SpVector(sp, {int(n): float(rng.standard_normal()) for n in range(1, 9)})
    E = [2, 4, 7]
    zE2 = norm_2w(SpVector(sp, {n: z.entries[n] for n in E}))
    c = max(
        max_ratio(sp, E) / zE2,
        max_ratio(sp, list(range(1, 9))) * norm_p(z) / norm_2w(z),
    )
    blk = make_block(z, E, 0.5 * zE2 / norm_2w(z), c)
    for _ in range(50):
        x = SpVector(sp, {int(n): float(v) for n, v in enumerate(rng.standard_normal(12), start=1)})
        hb = holder_bounds(blk, x)
        assert hb.ok2 and hb.okp
