"""The incremental coordinate search against a plain loop search.

``_reference_search`` is the loop: every trial recomputes the whole
objective from X, and the two signs are tried in sequence. Each case below
poses one problem of a kind the estimators search (an operator-norm ratio, a
span ratio in both senses, a defect distance) both ways: as an objective of X
for the reference, and as images and a score for ``_dense._coordinate_search``.
The helpers that lay out a search's window and bring its data into range
are checked at the end.
"""

import numpy as np
import pytest

from xplab import (
    BlockProjection,
    BlockSystem,
    DenseOperator,
    GramProjector,
    SpVector,
    WeightedSpace,
    make_block,
)
from xplab import _dense
from xplab._dense import col_norm, vectors_to_cols, window_weights

# Fixed before the cases were first run: the two searches differ only in the
# order of floating-point sums and so in how round-off ties break.
BEST_REL_TOL = 1e-12


def _reference_search(objective, X, h, stop, rounds, better=np.greater):
    d, n = X.shape
    X = X.copy()
    f = objective(X)
    h = h.copy()
    for _ in range(rounds):
        improved = np.zeros(n, dtype=bool)
        for i in range(d):
            for s in (1.0, -1.0):
                Xc = X.copy()
                Xc[i, :] += s * h
                fc = objective(Xc)
                gain = better(fc, f)
                if np.any(gain):
                    X[i, gain] = Xc[i, gain]
                    f[gain] = fc[gain]
                    improved |= gain
        h[~improved] *= 0.5
        if np.all(h < stop):
            break
    return X, f


def _from_scratch(score, images, w, p, X):
    Ys = [(X if M is None else M @ X) + np.reshape(c, (-1, 1)) for M, c in images]
    Sp = np.array([np.sum(np.abs(Y) ** p, axis=0) for Y in Ys])
    S2 = np.array([np.sum((w[:, None] * Y) ** 2, axis=0) for Y in Ys])
    return score(Sp, S2)


def _starts(rng, d, n):
    X = rng.standard_normal((d, n))
    scale = np.max(np.abs(X), axis=0)
    return X, 0.5 * scale, 1e-9 * scale


def _opnorm_case(A, w, p, rng, n=24):
    """The xp operator-norm ratio of A, as the xp estimator searches it."""
    d = len(A)

    def objective(X):
        with np.errstate(divide="ignore", invalid="ignore"):
            den = col_norm(X, w, p, "xp")
            return np.where(den > 0, col_norm(A @ X, w, p, "xp") / np.maximum(den, 1e-300), -np.inf)

    def score(Sp, S2):
        norms = np.maximum(Sp ** (1 / p), np.sqrt(S2))
        return np.where(norms[0] > 0, norms[1] / np.maximum(norms[0], 1e-300), -np.inf)

    X, h, stop = _starts(rng, d, n)
    return objective, score, [(None, 0), (A, 0)], w, p, X, h, stop, 16, np.greater


def _operator_of(op):
    return op.matrix, window_weights(op.space, op.window), op.space.p


def _block_projection_case(seed):
    # block 1 reads only its E-set {1, 2}, so coordinate 3 reaches no image row
    rng = np.random.default_rng([7, seed])
    sp = WeightedSpace(float(rng.uniform(2.2, 6.0)), tuple(rng.uniform(0.1, 1.5, 8)))
    z1 = SpVector(sp, {i: float(v) for i, v in zip((1, 2, 3), rng.standard_normal(3))})
    z2 = SpVector(sp, {i: float(v) for i, v in zip((5, 6, 7, 8), rng.standard_normal(4))})
    blocks = (make_block(z1, [1, 2], 1.0, 1.0, require=False),
              make_block(z2, [5, 7, 8], 1.0, 1.0, require=False))
    P = BlockProjection(BlockSystem(blocks))
    assert not P.matrix[:, list(P.window).index(3)].any()
    return _opnorm_case(*_operator_of(P), rng)


def _gram_case(seed):
    rng = np.random.default_rng([8, seed])
    sp = WeightedSpace(float(rng.uniform(2.2, 6.0)), tuple(rng.uniform(0.1, 1.5, 9)))
    basis = [SpVector(sp, {int(i): float(rng.standard_normal())
                           for i in rng.choice(np.arange(1, 10), 5, replace=False)})
             for _ in range(3)]
    return _opnorm_case(*_operator_of(GramProjector(basis)), rng)


def _dense_case(seed):
    rng = np.random.default_rng([9, seed])
    d = int(rng.integers(1, 7))
    sp = WeightedSpace(float(rng.uniform(2.1, 8.0)), tuple(rng.uniform(0.05, 2.0, d)))
    return _opnorm_case(*_operator_of(DenseOperator(sp, rng.standard_normal((d, d)))), rng)


def _span_case(seed, sense):
    """The 2-vs-p ratio over a span, maximized (sense 1) or minimized (sense -1)."""
    rng = np.random.default_rng([10, seed])
    m, k = 10, 3
    B = np.where(rng.random((m, k)) < 0.6, rng.standard_normal((m, k)), 0.0)
    B[rng.integers(0, m, k), np.arange(k)] = 1.0  # no empty column
    w, p = rng.uniform(0.1, 1.5, m), float(rng.uniform(2.2, 6.0))

    def objective(A):
        Y = B @ A
        den = col_norm(Y, w, p, "p")
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = sense * (col_norm(Y, w, p, "2w") / np.maximum(den, 1e-300))
        return np.where(den > 0, vals, -np.inf)

    def score(Sp, S2):
        den = Sp[0] ** (1 / p)
        vals = sense * (np.sqrt(S2[0]) / np.maximum(den, 1e-300))
        return np.where(den > 0, vals, -np.inf)

    X, h, stop = _starts(rng, k, 40)
    X = np.concatenate([np.eye(k), X], axis=1)
    h = np.concatenate([np.full(k, 0.5), h])
    stop = np.concatenate([np.full(k, 1e-9), stop])
    return objective, score, [(B, 0)], w, p, X, h, stop, 20, np.greater


def _defect_case(seed, disjoint):
    """The xp distance from x to span(Y), minimized as defect_of does."""
    rng = np.random.default_rng([11, seed])
    sp = WeightedSpace(float(rng.uniform(2.2, 6.0)), tuple(rng.uniform(0.1, 1.5, 16)))
    Y = [SpVector(sp, {int(i): float(rng.standard_normal())
                       for i in rng.choice(np.arange(1, 9), 4, replace=False)})
         for _ in range(3)]
    support = np.arange(9, 17) if disjoint else np.arange(1, 17)
    x = SpVector(sp, {int(i): float(rng.standard_normal())
                      for i in rng.choice(support, 5, replace=False)})
    idx = np.array(sorted(set().union(x.entries, *(v.entries for v in Y))))
    B, xcol = vectors_to_cols(Y, idx), vectors_to_cols([x], idx)[:, 0]
    w, p = window_weights(sp, idx), sp.p

    def objective(A):
        return col_norm(xcol[:, None] - B @ A, w, p, "xp")

    def score(Sp, S2):
        return np.maximum(Sp[0] ** (1 / p), np.sqrt(S2[0]))

    lsq = np.linalg.lstsq(B * w[:, None], xcol * w, rcond=None)[0]
    X = np.concatenate([np.zeros((3, 1)), lsq[:, None], rng.standard_normal((3, 3))], axis=1)
    h0 = 0.25 * max(float(np.max(np.abs(lsq))), 1.0)
    h = np.full(X.shape[1], h0)
    return objective, score, [(-B, xcol)], w, p, X, h, 1e-12 * max(h0, 1.0), 40, np.less


# In dense-1, column 15 reaches X = (0, -0.032) with step h = 0.289. Then
# -h on the second coordinate only rescales the column, and the ratio is
# scale-invariant: the two searches break that exact tie by round-off in
# opposite ways, and from there they polish to different points. The best
# columns differ by 5e-6 relative.
TIE_BROKEN_APART = pytest.mark.xfail(
    strict=True, reason="a scale-invariant tie breaks by round-off"
)

CASES = (
    [pytest.param(_block_projection_case, (s,), id=f"block-{s}") for s in range(3)]
    + [pytest.param(_gram_case, (s,), id=f"gram-{s}") for s in range(3)]
    + [pytest.param(_dense_case, (s,), id=f"dense-{s}") for s in range(4)]
    + [pytest.param(_span_case, (s, sense), id=f"span-{s}-{sense:+d}")
       for s in range(3) for sense in (1, -1)]
    + [pytest.param(_defect_case, (s, disjoint), id=f"defect-{s}-{kind}")
       for s in range(3) for disjoint, kind in ((False, "overlap"), (True, "disjoint"))]
)


@pytest.mark.parametrize(
    "case, args",
    [pytest.param(*c.values, marks=TIE_BROKEN_APART, id=c.id) if c.id == "dense-1" else c
     for c in CASES],
)
def test_search_matches_the_loop_reference(case, args):
    objective, score, images, w, p, X0, h, stop, rounds, better = case(*args)
    _, f_ref = _reference_search(objective, X0, h, stop, rounds, better)
    _, f = _dense._coordinate_search(score, images, w, p, X0, h, stop, rounds, better)
    pick = np.max if better is np.greater else np.min
    assert pick(f) == pytest.approx(pick(f_ref), rel=BEST_REL_TOL, abs=0.0)


@pytest.mark.parametrize("case, args", CASES)
def test_search_returns_exact_values_at_its_x(case, args):
    _, score, images, w, p, X0, h, stop, rounds, better = case(*args)
    X, f = _dense._coordinate_search(score, images, w, p, X0, h, stop, rounds, better)
    assert np.array_equal(f, _from_scratch(score, images, w, p, X))


def test_search_leaves_its_inputs_alone():
    objective, score, images, w, p, X0, h, stop, rounds, better = _gram_case(0)
    X0c, hc = X0.copy(), h.copy()
    _dense._coordinate_search(score, images, w, p, X0, h, stop, rounds, better)
    assert np.array_equal(X0, X0c) and np.array_equal(h, hc)


def test_identity_image_is_the_eye_matrix():
    # None stands for the identity image without building it: the search
    # must run exactly as it does with an explicit identity matrix
    _, score, images, w, p, X0, h, stop, rounds, better = _dense_case(2)
    (_, c), A = images[0], images[1]
    X, f = _dense._coordinate_search(score, images, w, p, X0, h, stop, rounds, better)
    Xe, fe = _dense._coordinate_search(
        score, [(np.eye(len(X0)), c), A], w, p, X0, h, stop, rounds, better
    )
    assert np.array_equal(X, Xe) and np.array_equal(f, fe)


def test_sample_columns_match_one_stream_per_column():
    # column k of _sample_columns(d, n, *branch) is the stream (*branch, k)
    def reference(d, n, *branch):
        cols = np.empty((d, n))
        for k in range(n):
            rng = np.random.default_rng(np.random.SeedSequence([*branch, k]))
            cols[:, k] = rng.standard_normal(d)
        return cols

    for seed in (0, 5):
        assert np.array_equal(_dense._sample_columns(6, 40, seed), reference(6, 40, seed))
        assert np.array_equal(_dense._sample_columns(3, 3, seed, 7919), reference(3, 3, seed, 7919))


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-90])
def test_into_range_scales_only_data_out_of_range(scale):
    # a search from X in steps h over the data (x, B) at p = 4
    g = np.random.default_rng(3)
    x, B = g.standard_normal(5) * scale, g.standard_normal((5, 2)) * scale
    X, h = g.standard_normal((2, 8)), np.full(8, 0.25)
    xs, Bs = _dense.into_range([x, B], X, h, 40, 4.0)
    if scale == 1.0:
        assert xs is x and Bs is B
    else:
        peak = max(np.max(np.abs(xs)), np.max(np.abs(Bs)))
        assert 0.5 <= peak < 1.0
        # one power of two for all the data
        assert len(set((xs / x).tolist() + (Bs / B).ravel().tolist())) == 1


def test_dense_window_refuses_empty_and_mixed_families_in_the_callers_words():
    a, b = WeightedSpace(4.0, (1.0, 0.5)), WeightedSpace(3.0, (1.0, 0.5))
    with pytest.raises(ValueError, match="^no span$"):
        _dense.dense_window([], "no span", "two spaces")
    with pytest.raises(ValueError, match="^two spaces$"):
        _dense.dense_window([SpVector(a, {1: 1.0}), SpVector(b, {2: 1.0})], "no span", "two spaces")
    space, idx, cols, w = _dense.dense_window([SpVector(a, {2: 3.0}), SpVector(a, {1: 1.0})])
    assert space is a and idx.tolist() == [1, 2] and cols.tolist() == [[0.0, 1.0], [3.0, 0.0]]
    assert w.tolist() == [1.0, 0.5]


def test_col_to_vector_drops_exact_zeros():
    sp = WeightedSpace(4.0, (1.0, 0.5, 0.8, 0.7))
    v = _dense.col_to_vector(sp, np.array([1, 3, 4]), np.array([0.0, -2.5, -0.0]))
    assert v.entries == {3: -2.5}
