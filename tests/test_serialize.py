"""Wire-format round trips and canonical JSON bytes."""

import json
import math

import pytest

from xplab import (
    SerializationError,
    SpVector,
    WeightedSpace,
    block_to_doc,
    canonical_dumps,
    constant_family,
    doc_to_block,
    doc_to_constants,
    doc_to_family,
    doc_to_operator,
    doc_to_space,
    doc_to_vector,
    doc_to_witness,
    dump_json,
    family_to_doc,
    generate,
    load_json,
    make_block,
    solve_constants,
    space_to_doc,
    vector_to_doc,
    witness_to_doc,
    xp_norm,
)


def test_vector_roundtrip(pair_space, x_pair):
    doc = vector_to_doc(x_pair)
    back = doc_to_vector(doc)
    assert back.space == pair_space
    assert back.entries == x_pair.entries


def test_vector_doc_requires_fields():
    with pytest.raises(SerializationError, match="entries"):
        doc_to_vector({"p": 4.0, "weights": [1.0]})
    with pytest.raises(SerializationError, match="p"):
        doc_to_vector({"weights": [1.0], "entries": [[1, 1.0]]})


def test_space_doc_accepts_family():
    sp = doc_to_space({"p": 4.0, "weights": {"kind": "constant", "value": 0.5, "D": 4}})
    assert sp.weights == (0.5, 0.5, 0.5, 0.5)
    rt = doc_to_space(space_to_doc(sp))
    assert rt == sp


def test_block_roundtrip(pair_space):
    z = SpVector(pair_space, {1: 1.0, 2: 0.5})
    blk = make_block(z, [1, 2], 1.0, 1.0)
    doc = block_to_doc(blk)
    back = doc_to_block(doc, pair_space)
    assert back.vector.entries == blk.vector.entries
    assert back.delta == blk.delta and back.c == blk.c


def test_block_doc_derives_tight_constants(pair_space):
    doc = {"support": [1, 2], "E": [1, 2], "entries": [[1, 1.0], [2, 0.5]]}
    blk = doc_to_block(doc, pair_space)
    # equality in both conditions at the derived values
    from xplab import max_ratio, norm_2w, restrict

    core2 = norm_2w(restrict(blk.vector, [1, 2]))
    assert blk.delta == pytest.approx(core2 / norm_2w(blk.vector), rel=1e-15)
    assert blk.c == pytest.approx(max_ratio(pair_space, [1, 2]) / core2, rel=1e-15)


def test_block_doc_support_disagreement(pair_space):
    doc = {"support": [1], "E": [1], "entries": [[1, 1.0], [2, 0.5]], "delta": 0.5, "c": 2.0}
    with pytest.raises(SerializationError, match="support"):
        doc_to_block(doc, pair_space)


def test_operator_docs(fix):
    P = doc_to_operator(load_json(fix("projection_small.json")))
    assert P.system.delta > 0
    Q = doc_to_operator(load_json(fix("gram_op.json")))
    assert Q.apply is not None
    M = doc_to_operator(load_json(fix("matrix_identity.json")))
    assert M.matrix.shape == (2, 2)
    with pytest.raises(SerializationError, match="kind"):
        doc_to_operator({"p": 4.0, "weights": [1.0]})
    with pytest.raises(SerializationError):
        doc_to_operator({"kind": "gram", "p": 4.0, "weights": [1.0], "vectors": []})


def test_witness_roundtrip(fix):
    doc = load_json(fix("witness_good.json"))
    w = doc_to_witness(doc)
    rt = witness_to_doc(w)
    assert rt["E"] == doc["E"] and rt["N"] == doc["N"]
    w2 = doc_to_witness(rt)
    assert list(w2.E.indices) == list(w.E.indices)
    assert w2.x.entries == w.x.entries


def test_constants_roundtrip_and_missing_field():
    k = solve_constants(0.25, 1.0, 0.1, 2.0, 2.0, 4.0)
    doc = k.to_dict()
    back = doc_to_constants(doc)
    assert back == k
    bad = dict(doc)
    del bad["rho"]
    with pytest.raises(SerializationError, match="rho"):
        doc_to_constants(bad)


def test_family_docs_all_kinds():
    for doc in (
        {"kind": "constant", "value": 0.5, "D": 4},
        {"kind": "power-law", "a": 0.1, "D": 8},
        {"kind": "geometric", "ratio": 0.5, "scale": 2.0, "D": 8},
        {"kind": "doubly-indexed", "level_exp": 0.25, "mult_exp": 1.0, "D": 16},
        {"kind": "explicit", "values": [0.5, 0.25]},
    ):
        fam = doc_to_family(doc)
        vals = generate(fam)
        assert len(vals) == fam.D
        rt = doc_to_family(family_to_doc(fam))
        assert generate(rt) == vals
    with pytest.raises(SerializationError, match="kind"):
        doc_to_family({"D": 4})


def test_canonical_bytes_are_stable(x_pair):
    doc = {"b": 1, "a": [1.5, 2], "nested": {"z": None, "y": True}}
    s1 = canonical_dumps(doc)
    s2 = canonical_dumps({"nested": {"y": True, "z": None}, "a": [1.5, 2], "b": 1})
    assert s1 == s2
    assert s1.endswith("\n")
    # vectors serialize as sorted index pairs
    assert canonical_dumps(x_pair) == canonical_dumps([[1, 1.0], [2, 1.0]])


def test_canonical_rejects_nan():
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("inf")})


def test_dump_and_load_json(tmp_path, x_pair):
    path = tmp_path / "v.json"
    dump_json(vector_to_doc(x_pair), str(path))
    assert doc_to_vector(load_json(str(path))).entries == x_pair.entries
    with pytest.raises(SerializationError, match="no_such"):
        load_json(str(tmp_path / "no_such.json"))


def test_malformed_entries_name_the_field(pair_space):
    with pytest.raises(SerializationError, match="entries"):
        doc_to_vector({"p": 4.0, "weights": [1.0, 0.5], "entries": [[1]]})
    with pytest.raises(SerializationError, match="entries"):
        doc_to_vector({"p": 4.0, "weights": [1.0, 0.5], "entries": "nope"})


def test_make_block_derives_what_doc_to_block_derives():
    sp = WeightedSpace(4.0, (1.0, 0.5, 0.8, 0.7))
    z = SpVector(sp, {1: 0.9, 2: -0.3, 3: 0.6})
    doc = {"E": [1, 3], "entries": [[1, 0.9], [2, -0.3], [3, 0.6]]}
    assert make_block(z, [1, 3]) == doc_to_block(doc, sp)
    blk = make_block(z, [1, 3], c=2.0)
    assert (blk.delta, blk.c) == (make_block(z, [1, 3]).delta, 2.0)
    # the scale-safe norm of a nonzero vector is never 0, so only an empty E has zero mass
    with pytest.raises(ValueError, match="zero mass on its E-set"):
        make_block(z, [], 0.5)
    with pytest.raises(SerializationError, match="zero mass on its E-set"):
        doc_to_block(dict(doc, E=[]), sp)
