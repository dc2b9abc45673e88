"""Span estimators and defect_of against the dense-grid oracles."""

import math

import numpy as np
import pytest

from xplab import SpVector, WeightedSpace, defect_of, estimate_h_inf, estimate_r_sup, xp_norm
from xplab.oracle import brute_min_distance, brute_opnorm, brute_ratio_extremum

DIM = 6


def _spans(count=20):
    """Seeded spans of 1-3 random vectors on 3 of 6 coordinates, plus a full-support x."""
    for k in range(count):
        rng = np.random.default_rng([8, k])
        sp = WeightedSpace(float(rng.uniform(2.5, 8.0)), tuple(rng.uniform(0.1, 1.5, DIM)))
        V = [
            SpVector(sp, {int(i): float(rng.standard_normal())
                          for i in rng.choice(np.arange(1, DIM + 1), size=3, replace=False)})
            for _ in range(int(rng.integers(1, 4)))
        ]
        x = SpVector(sp, {n: float(v) for n, v in enumerate(rng.standard_normal(DIM), start=1)})
        yield V, x


def test_span_ratio_extrema_match_oracle():
    for V, _ in _spans():
        assert estimate_r_sup(V, budget=64) == pytest.approx(brute_ratio_extremum(V, +1), rel=0.02)
        assert estimate_h_inf(V, budget=64) == pytest.approx(brute_ratio_extremum(V, -1), rel=0.02)


def test_defect_never_above_oracle():
    # Both sides are distances attained by some coefficients, so each bounds the
    # minimum from above; a defect_of that stops short reads higher. The grid
    # oracle is the weaker side on ill-conditioned spans (span 17: box radius
    # 19.7, oracle 0.435 against defect_of 0.292), so only this side is gated.
    for V, x in _spans():
        assert defect_of(x, V) <= brute_min_distance(x, V) / xp_norm(x) * 1.02


def _oracle_values(k):
    """Every oracle at scale 2^k, its absolute values scaled back by 2^-k.

    The span vectors are times 2^k and 2^-k, each its own power, the operator
    and the point whose distance is sought times 2^k.
    """
    g = np.random.default_rng(11)
    sp = WeightedSpace(3.3, tuple(g.uniform(0.2, 1.5, 8)))
    u, v = (SpVector(sp, {n: float(t) for n, t in enumerate(g.standard_normal(8), start=1)})
            for _ in range(2))
    A, w = g.standard_normal((4, 4)), sp.warray[:4]
    s, t = math.ldexp(1.0, k), math.ldexp(1.0, -k)
    return [brute_ratio_extremum([u * s, v * t], +1), brute_ratio_extremum([u * s, v * t], -1),
            *(math.ldexp(brute_opnorm(A * s, w, sp.p, mode), -k) for mode in ("xp", "2w")),
            math.ldexp(brute_min_distance(u * s, [v * t]), -k)]


@pytest.mark.parametrize("k", [-600, -300, 300, 600])
def test_oracles_are_scale_free(k):
    # at 2^-600 and 2^600 every power sum at p = 3.3 leaves the double range;
    # the span oracles search the unit columns of the span, which are the same
    # at every scale, bit for bit
    values, base = _oracle_values(k), _oracle_values(0)
    assert values == pytest.approx(base, rel=1e-12)
    assert values[:2] == base[:2] and values[-1] == base[-1]
