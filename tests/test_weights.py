"""Weight family generators and the small-weight mass diagnostic."""

import math

import pytest

from xplab import (
    MAX_DIM,
    BlockSystem,
    SpVector,
    WeightFamily,
    WeightedSpace,
    constant_family,
    doubly_indexed_family,
    equal_mass_family,
    explicit_family,
    generate,
    geometric_family,
    make_block,
    power_law_family,
    ratio,
    rosenthal_diagnostic,
    xp_norm,
)


def test_constant_family():
    assert generate(constant_family(0.5, 4)) == [0.5, 0.5, 0.5, 0.5]


def test_power_law_family():
    vals = generate(power_law_family(0.1, 3))
    assert vals == pytest.approx([1.0, 2.0 ** -0.1, 3.0 ** -0.1], rel=1e-15)


def test_doubly_indexed_family():
    # level k carries weight k^-1 repeated ceil(k^2) times
    vals = generate(doubly_indexed_family(1.0, 2.0, 7))
    assert vals == pytest.approx([1.0, 0.5, 0.5, 0.5, 0.5, 1.0 / 3.0, 1.0 / 3.0], rel=1e-15)


def test_geometric_family():
    vals = generate(geometric_family(0.5, 3, scale=1.0))
    assert vals == pytest.approx([0.5, 0.25, 0.125], rel=1e-15)
    with pytest.raises(ValueError):
        geometric_family(1.0, 4)


def test_explicit_family_roundtrip():
    f = explicit_family([0.3, 0.2, 0.7])
    assert generate(f) == [0.3, 0.2, 0.7]
    assert generate(f, D=2) == [0.3, 0.2]
    with pytest.raises(ValueError):
        generate(f, D=5)


def test_generate_validation():
    with pytest.raises(ValueError):
        generate(constant_family(1.0, 4), D=0)
    with pytest.raises(ValueError):
        constant_family(-1.0, 4)


def test_equal_mass_levels():
    # at p = 4 with level exponent 1/4 every level contributes mass 1
    f = equal_mass_family(4.0, 64, level_exp=0.25)
    vals = generate(f)
    mass = [v ** 4 for v in vals]
    # level k occupies k consecutive slots
    assert sum(mass[0:1]) == pytest.approx(1.0, rel=1e-12)
    assert sum(mass[1:3]) == pytest.approx(1.0, rel=1e-12)
    assert sum(mass[3:6]) == pytest.approx(1.0, rel=1e-12)


def test_diagnostic_eps_below_all_weights():
    out = rosenthal_diagnostic(constant_family(0.5, 64), eps=0.4, D_list=[8, 16], p=4.0)
    assert all(row["S"] == 0.0 for row in out["rows"])
    assert out["flag"] == "saturating"


def test_diagnostic_diverging_flag():
    out = rosenthal_diagnostic(constant_family(0.5, 64), eps=1.0, D_list=[4, 8, 16], p=4.0)
    # S doubles with D, so every doubling ratio is exactly 2
    assert out["rows"][0]["S"] == pytest.approx(4 * 0.5 ** 4, rel=1e-15)
    assert all(r["ratio"] == pytest.approx(2.0, rel=1e-12) for r in out["doubling_ratios"])
    assert out["flag"] == "diverging"


def test_diagnostic_saturating_geometric():
    out = rosenthal_diagnostic(geometric_family(0.5, 4096), eps=1.0, D_list=[64, 128, 256], p=4.0)
    assert out["flag"] == "saturating"


def test_diagnostic_partial_sums_additive():
    f = power_law_family(0.3, 128)
    out = rosenthal_diagnostic(f, eps=0.95, D_list=[32, 64], p=4.0)
    w = generate(f, 64)
    s32 = sum(v ** 4 for v in w[:32] if v < 0.95)
    s64 = sum(v ** 4 for v in w[:64] if v < 0.95)
    assert out["rows"][0]["S"] == pytest.approx(s32, rel=1e-12)
    assert out["rows"][1]["S"] == pytest.approx(s64, rel=1e-12)


def test_diagnostic_validation():
    with pytest.raises(ValueError):
        rosenthal_diagnostic(constant_family(1.0, 4), eps=0.5, D_list=[4], p=2.0)
    with pytest.raises(ValueError):
        rosenthal_diagnostic(constant_family(1.0, 4), eps=-0.5, D_list=[4], p=4.0)
    with pytest.raises(ValueError):
        rosenthal_diagnostic(constant_family(1.0, 4), eps=0.5, D_list=[], p=4.0)


def test_induced_weights_single_block(pair_space):
    z = SpVector(pair_space, {1: 1.0, 2: 0.5})
    sys = BlockSystem((make_block(z, [1, 2], 1.0, 1.0),))
    (wprime,) = list(sys.induced)
    assert wprime == pytest.approx(1.0625 ** 0.25, rel=1e-14)


def test_induced_weight_of_singleton_is_the_weight():
    sp = WeightedSpace(4.0, (1.0, 0.5, 0.8))
    z = SpVector(sp, {2: 1.0})
    sys = BlockSystem((make_block(z, [2], 1.0, 1.0),))
    assert list(sys.induced) == pytest.approx([0.5], rel=1e-15)


def test_unit_block_ratio_equals_induced_weight_at_tight_constants():
    # with delta = c = 1 the window pins ratio(z) to the induced weight
    sp = WeightedSpace(4.0, (0.5, 0.5, 0.5, 0.5))
    z = SpVector(sp, {1: 0.5, 2: 0.5})
    z = z * (1.0 / xp_norm(z))
    sys = BlockSystem((make_block(z, [1, 2], 1.0, 1.0),))
    (wprime,) = list(sys.induced)
    assert ratio(z) == pytest.approx(wprime, rel=1e-12)


def test_non_scalar_param_names_the_field():
    with pytest.raises(ValueError, match="'a'"):
        WeightFamily("power-law", 4, {"a": [0.1]})
    with pytest.raises(ValueError, match="'values'"):
        WeightFamily("explicit", 2, {"values": [1.0, [2.0]]})


def test_unknown_param_names_the_key_and_the_kind():
    with pytest.raises(ValueError, match=r"power-law family has no parameter 'alpha'"):
        WeightFamily("power-law", 4, {"alpha": 0.3})


def test_defaults_are_filled_in_as_floats():
    assert WeightFamily("geometric", 4, {"ratio": 1 / 4}).params == {"ratio": 0.25, "scale": 1.0}
    assert WeightFamily("power-law", 4, {"a": 1}).params == {"a": 1.0}
    assert generate(WeightFamily("doubly-indexed", 6)) == [1.0, 2.0 ** -0.25, 2.0 ** -0.25] + [3.0 ** -0.25] * 3


def test_length_is_capped_at_max_dim():
    assert len(generate(power_law_family(0.1, MAX_DIM))) == MAX_DIM
    with pytest.raises(ValueError, match="D = 1000000000000"):
        WeightFamily("constant", 10**12, {"value": 1.0})
    with pytest.raises(ValueError):
        generate(constant_family(1.0, 4), MAX_DIM + 1)
