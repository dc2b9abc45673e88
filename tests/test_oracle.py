"""Span estimators and defect_of against the dense-grid oracles."""

import numpy as np
import pytest

from xplab import SpVector, WeightedSpace, defect_of, estimate_h_inf, estimate_r_sup, xp_norm
from xplab.oracle import brute_min_distance, brute_ratio_extremum

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
