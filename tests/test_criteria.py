"""Witness generation, criterion checkers, classification, and defects."""

import math

import numpy as np
import pytest

from xplab import (
    BlockProjection,
    BlockSystem,
    GramProjector,
    SpVector,
    Thm13Witness,
    WeightedSpace,
    WitnessInfeasibleError,
    basis_vector,
    check_proof_bounds,
    check_prop24,
    check_thm13,
    defect_experiment,
    defect_of,
    extract_Ei,
    gen_thm13_witnesses,
    kp_classify,
    make_block,
    make_rosenthal,
    mk_family,
    norm_2w,
    prop21_diagnostic,
    ratio,
    xp_norm,
)

FLAT = WeightedSpace(4.0, tuple([0.1] * 64))


def _unit(sp, entries):
    x = SpVector(sp, entries)
    return x * (1.0 / xp_norm(x))


def test_witness_validation():
    sp = FLAT
    x = _unit(sp, {3: 1.0})
    Thm13Witness(x=x, E=[3], N=2, c=1.0, delta=0.5, eps=0.2, eps_prime=0.05)
    with pytest.raises(ValueError):
        Thm13Witness(x=x, E=[3], N=0, c=1.0, delta=0.5, eps=0.2, eps_prime=0.05)
    with pytest.raises(ValueError):
        # E must live past N
        Thm13Witness(x=x, E=[2, 3], N=2, c=1.0, delta=0.5, eps=0.2, eps_prime=0.05)
    with pytest.raises(ValueError):
        Thm13Witness(x=x, E=[3], N=2, c=1.0, delta=0.5, eps=0.2, eps_prime=0.3)


def test_generator_roundtrip_passes_checker():
    wits = gen_thm13_witnesses(FLAT, c=1.2, delta=0.5, eps=0.2, count=3)
    assert len(wits) == 3
    for w in wits:
        rep = check_thm13(w)
        assert rep.verdict, [c.to_dict() for c in rep.checks if not c.ok]
    # witnesses move down the tail, so supports are disjoint
    s0 = set(wits[0].E.indices)
    s1 = set(wits[1].E.indices)
    assert not (s0 & s1)


def test_generator_deterministic():
    a = gen_thm13_witnesses(FLAT, c=1.2, delta=0.5, eps=0.2, count=2)
    b = gen_thm13_witnesses(FLAT, c=1.2, delta=0.5, eps=0.2, count=2)
    assert [list(w.E.indices) for w in a] == [list(w.E.indices) for w in b]


def test_generator_infeasible_window():
    # eps/2 > min(eps/c, 1) leaves no room for the tail mass
    with pytest.raises(WitnessInfeasibleError, match="range|window|feasible"):
        gen_thm13_witnesses(FLAT, c=3.0, delta=0.5, eps=1.0, count=1)


def test_generator_rejects_bad_constants():
    with pytest.raises(ValueError):
        gen_thm13_witnesses(FLAT, c=0.5, delta=0.5, eps=0.2, count=1)
    with pytest.raises(ValueError):
        gen_thm13_witnesses(FLAT, c=1.0, delta=1.5, eps=0.2, count=1)


def test_checker_flags_tampered_window():
    (w,) = gen_thm13_witnesses(FLAT, c=1.2, delta=0.5, eps=0.2, count=1)
    bad = Thm13Witness(
        x=w.x, E=w.E, N=w.N, c=w.c, delta=w.delta, eps=w.eps, eps_prime=w.eps * 0.999
    )
    rep = check_thm13(bad)
    names = {c.name: c.ok for c in rep.checks}
    assert not names["window_lower"]
    assert not rep.verdict


def test_extract_threshold_boundary():
    # unit weights and norm_2w(y) = 1 exactly make the threshold equal rho
    sp = WeightedSpace(4.0, (1.0, 1.0, 1.0))
    y = SpVector(sp, {1: 0.6, 2: 0.8})
    assert norm_2w(y) == 1.0
    E = extract_Ei(y, [1, 2, 3], 0.8)
    # the tie at 0.8 is kept, 0.6 is dropped
    assert set(E.indices) == {2}
    E2 = extract_Ei(y, [1, 2, 3], float(np.nextafter(0.8, 1.0)))
    assert 2 not in set(E2.indices)
    E3 = extract_Ei(y, [1, 2, 3], 0.6)
    assert set(E3.indices) == {1, 2}


def test_extract_monotone_in_rho():
    rng = np.random.default_rng(12)
    sp = WeightedSpace(5.0, tuple(rng.uniform(0.2, 1.5, 16)))
    y = SpVector(sp, {int(n): float(v) for n, v in enumerate(rng.standard_normal(16), start=1)})
    F = list(range(1, 17))
    rhos = sorted(rng.uniform(0.01, 2.0, 6))
    prev = None
    for r in rhos:
        E = set(extract_Ei(y, F, r).indices)
        if prev is not None:
            assert E.issubset(prev), "extraction must shrink as rho grows"
        prev = E


def test_extract_validation():
    sp = WeightedSpace(4.0, (1.0, 0.5))
    y = SpVector(sp, {1: 1.0})
    with pytest.raises(ValueError):
        extract_Ei(SpVector(sp, {}), [1], 0.5)
    with pytest.raises(ValueError):
        extract_Ei(y, [1], 0.0)
    with pytest.raises(ValueError):
        extract_Ei(y, [2], 0.5)  # support escapes F


def test_proof_bounds_on_normalized_vector():
    sp = WeightedSpace(4.0, (1.0, 0.5))
    y = _unit(sp, {1: 1.0, 2: 1.0})
    rep = check_proof_bounds(y, [1, 2], rho=0.5, delta=0.5)
    assert rep.verdict
    names = {c.name for c in rep.checks}
    assert names == {"E_mass_ceiling", "dropped_p_mass", "kept_norm_floor", "dropped_p_norm"}


def test_proof_bounds_requires_unit_norm(x_pair):
    with pytest.raises(ValueError, match="normalized"):
        check_proof_bounds(x_pair, [1, 2], rho=0.5, delta=0.5)


def test_proof_bounds_gating():
    sp = WeightedSpace(4.0, tuple([1.0] * 17))
    # one extracted coordinate, most 2w-mass spread below the threshold:
    # the delta-share gate disarms the ceiling check
    ents = {1: 0.6}
    ents.update({k: 0.19 for k in range(2, 18)})
    y = _unit(sp, ents)
    rep = check_proof_bounds(y, list(range(1, 18)), rho=0.5, delta=0.9)
    by = {c.name: c for c in rep.checks}
    assert set(rep.data["E"]) == {1}
    assert not by["E_mass_ceiling"].applicable
    assert by["dropped_p_mass"].applicable and by["dropped_p_mass"].ok
    assert rep.verdict  # inapplicable checks do not fail the report


def test_mk_family_membership_and_implication(pair_space):
    z = SpVector(pair_space, {1: 1.0, 2: 0.5})
    P = BlockProjection(BlockSystem((make_block(z, [1, 2], 1.0, 1.0),)))
    out = mk_family(2.0, P.system.blocks, P)
    assert out["K"] == 2.0
    assert isinstance(out["members"], list)
    assert out["implication_ok"]


def test_mk_family_zero_K_is_vacuous(pair_space):
    z = SpVector(pair_space, {1: 1.0, 2: 0.5})
    P = BlockProjection(BlockSystem((make_block(z, [1, 2], 1.0, 1.0),)))
    out = mk_family(0.0, P.system.blocks, P)
    assert out["implication_ok"]
    assert out["members"] == []


def test_mk_family_rejects_foreign_blocks(pair_space):
    z = SpVector(pair_space, {1: 1.0, 2: 0.5})
    P = BlockProjection(BlockSystem((make_block(z, [1, 2], 1.0, 1.0),)))
    other = WeightedSpace(4.0, (1.0, 0.5, 0.8))
    foreign = make_block(SpVector(other, {3: 1.0}), [3], 1.0, 1.0)
    with pytest.raises(ValueError):
        mk_family(1.0, (foreign,), P)


def test_kp_classify_three_labels():
    sp = WeightedSpace(4.0, (2.0, 0.1, 2.0, 0.1, 0.1, 0.1))
    # a basis vector's ratio is its weight
    ell2 = kp_classify([basis_vector(sp, 1)], C=1.5, budget=64, seed=0)
    assert ell2["label"] == "ell2-like"
    ellp = kp_classify([basis_vector(sp, 4), basis_vector(sp, 5)], C=1.5, budget=64, seed=0)
    assert ellp["label"] == "ellp-like"
    # low-ratio direction in the span, high-ratio vector past the tail cut
    mixed = kp_classify(
        [basis_vector(sp, 2), basis_vector(sp, 3)], C=1.5, tail_start=2, budget=64, seed=0
    )
    assert mixed["label"] == "mixed"
    assert mixed["r_sup_tail"] is not None and mixed["r_sup_tail"] >= 1.5


def test_kp_classify_scale_invariant():
    sp = WeightedSpace(4.0, (2.0, 0.1))
    a = kp_classify([basis_vector(sp, 1)], C=1.5, budget=64, seed=0)
    b = kp_classify([basis_vector(sp, 1) * 100.0], C=1.5, budget=64, seed=0)
    assert a["label"] == b["label"]
    assert a["h_inf"] == pytest.approx(b["h_inf"], rel=1e-9)


def test_check_prop24_variants():
    sp = WeightedSpace(4.0, (1.0, 0.9, 0.8, 0.7))
    Z = [basis_vector(sp, 1)]
    near = _unit(sp, {1: 1.0, 2: 0.02})
    rep = check_prop24(Z, [near], eps=0.5, beta=0.9, bprime=0.5, variant="b", seed=0)
    assert rep.verdict
    rep2 = check_prop24(Z, [near], eps=0.5, beta=0.9, bprime=0.5, variant="bprime", seed=0)
    assert rep2.verdict
    with pytest.raises(ValueError):
        check_prop24(Z, [near], eps=1.5, beta=0.9, bprime=0.5)


def test_check_prop24_detects_far_sample():
    sp = WeightedSpace(4.0, (1.0, 0.9, 0.8, 0.7))
    Z = [basis_vector(sp, 1)]
    far = basis_vector(sp, 2)  # ratio 0.9 > beta and distance is its whole norm
    rep = check_prop24(Z, [far], eps=0.5, beta=0.45, bprime=0.9, variant="b", seed=0)
    assert not rep.verdict
    assert rep.data["contradiction_pairs"]


def test_prop21_diagnostic_fields(fix):
    from xplab import doc_to_operator, doc_to_space, doc_to_vector, load_json

    udoc = load_json(fix("ulist.json"))
    wdoc = load_json(fix("wlist.json"))
    sp = doc_to_space(udoc)
    U = [doc_to_vector({"entries": e}, sp) for e in udoc["vectors"]]
    W = [doc_to_vector({"entries": e}, sp) for e in wdoc["vectors"]]
    P = doc_to_operator(load_json(fix("projection_small.json")))
    out = prop21_diagnostic(U, W, P, K=1.2, window=2, budget=64, seed=0)
    for key in ("beta_hat", "beta_prime_hat", "bound", "opnorm_lower", "K", "window"):
        assert key in out
    assert out["bound"] == pytest.approx(
        out["beta_prime_hat"] / (out["K"] * out["beta_hat"]), rel=1e-12
    )
    out2 = prop21_diagnostic(
        U, W, P, K=1.2, window=2, c=1.0, delta=0.5, eps=0.01, budget=64, seed=0
    )
    assert "no_eps_prime_threshold" in out2
    assert out2["eps_below_threshold"] == (0.01 < out2["no_eps_prime_threshold"])


def test_defect_zero_for_span_member():
    sp = WeightedSpace(4.0, tuple([0.8] * 8))
    Y = [make_rosenthal(sp, [1, 2]).vector, make_rosenthal(sp, [3, 4]).vector]
    x = _unit(sp, dict(Y[0].entries))
    assert defect_of(x, Y, seed=0) <= 1e-9


def test_defect_one_for_disjoint_support():
    sp = WeightedSpace(4.0, tuple([0.8] * 12))
    Y = [make_rosenthal(sp, [1, 2, 3]).vector, make_rosenthal(sp, [4, 5]).vector]
    x = _unit(sp, {10: 1.0, 11: 0.5})
    assert defect_of(x, Y, seed=0) == pytest.approx(1.0, abs=1e-9)


def test_defect_never_exceeds_one():
    rng = np.random.default_rng(6)
    sp = WeightedSpace(4.5, tuple(rng.uniform(0.3, 1.2, 10)))
    Y = [SpVector(sp, {1: 1.0, 2: 0.3}), SpVector(sp, {4: 1.0})]
    for _ in range(30):
        x = SpVector(sp, {int(n): float(v) for n, v in enumerate(rng.standard_normal(10), start=1)})
        x = x * (1.0 / xp_norm(x))
        assert defect_of(x, Y, seed=1) <= 1.0 + 1e-12


def test_defect_ignores_a_zero_span_vector():
    # a zero vector adds nothing to the span, and its unit column stays zero
    sp = WeightedSpace(4.0, (1.0, 0.5, 0.8, 0.7, 0.9))
    Y = [SpVector(sp, {1: 1.0, 5: 0.2}), SpVector(sp, {2: 1.0, 3: -0.5})]
    x = SpVector(sp, {1: 0.3, 2: 1.0, 4: 0.7, 5: -0.2})
    assert defect_of(x, [*Y, SpVector(sp, {})], seed=0) == pytest.approx(defect_of(x, Y, seed=0),
                                                                        rel=1e-9)


def test_defect_experiment_shape():
    sp = WeightedSpace(4.0, tuple([0.8] * 10))
    Y = [make_rosenthal(sp, [1, 2]).vector]
    out = defect_experiment(Y, alpha=2.0, samples=10, seed=0)
    assert out["samples"] == 10
    assert out["qualified"] + out["skipped"] == 10
    if out["qualified"]:
        assert 0.0 <= out["worst_defect"] <= 1.0 + 1e-12


@pytest.mark.parametrize("scale", [
    1e200, 1e-90,
    *(pytest.param((2.0**500, math.ldexp(1.0, k), math.ldexp(1.0, -k)), id=f"2^500,2^{k},2^{-k}")
      for k in (-600, -300, 300, 600)),
])
def test_defect_is_scale_free(scale):
    # at 1e200 the power sums of x at p = 4 overflow and at 1e-90 they underflow.
    # The search runs on x scaled to unit norm and on the unit columns of Y, so
    # x and each vector of Y times its own power of two give the same defect, bit for bit.
    sp = WeightedSpace(4.0, (1.0, 0.5, 0.8, 0.7, 0.9))
    Y = [SpVector(sp, {1: 1.0}), SpVector(sp, {2: 1.0, 3: -0.5})]
    x = SpVector(sp, {1: 0.3, 2: 1.0, 4: 0.7, 5: -0.2})
    sx, *sy = scale if isinstance(scale, tuple) else (scale,) * 3
    at = defect_of(x * sx, [y * s for y, s in zip(Y, sy)], seed=0)
    if isinstance(scale, tuple):
        assert at == defect_of(x, Y, seed=0)
    assert at == pytest.approx(defect_of(x, Y, seed=0), rel=1e-12)
