"""JSON wire formats: spaces, vectors, blocks, operators, witnesses, constants.

One canonical form: object keys sorted, vector entries sorted by index with
zeros dropped, two-space indent, trailing newline. Everything here raises
SerializationError naming the offending field; nothing guesses.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np

from .blocks import Block, make_block
from .criteria import Thm13Witness
from .operators import BlockProjection, BlockSystem, DenseOperator, GramProjector
from .space import SpVector, SupportSet, WeightedSpace
from .splitter import SplitConstants
from .weights import WeightFamily, generate

__all__ = [
    "SerializationError",
    "canonical_dumps",
    "load_json",
    "dump_json",
    "space_to_doc",
    "doc_to_space",
    "vector_to_doc",
    "doc_to_vector",
    "block_to_doc",
    "doc_to_block",
    "doc_to_operator",
    "witness_to_doc",
    "doc_to_witness",
    "doc_to_constants",
    "family_to_doc",
    "doc_to_family",
]


class SerializationError(ValueError):
    """Malformed document; the message names the field."""


def canonical_dumps(obj: Any) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


# the exact types that JSON encodes as they are; subclasses such as np.float64
# take the branches below
_LEAVES = frozenset((float, int, str, bool, type(None)))


def _plain(obj: Any) -> Any:
    if type(obj) in _LEAVES:
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, SpVector):
        return [[i, v] for i, v in sorted(obj.entries.items())]
    if isinstance(obj, SupportSet):
        return list(obj.indices)
    if hasattr(obj, "to_dict"):
        return _plain(obj.to_dict())
    return obj


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SerializationError(f"malformed JSON in {path}: {exc}") from exc


def dump_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(obj))


def _need(doc: dict, field: str, where: str) -> Any:
    if not isinstance(doc, dict):
        raise SerializationError(f"{where} must be a JSON object")
    if field not in doc:
        raise SerializationError(f"{where} is missing field {field!r}")
    return doc[field]


def _entries(raw: Any, where: str) -> dict[int, float]:
    if not isinstance(raw, list):
        raise SerializationError(f"{where} must be a list of [index, value] pairs")
    out: dict[int, float] = {}
    for k, pair in enumerate(raw):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise SerializationError(f"{where}[{k}] is not an [index, value] pair")
        i, v = pair
        if not isinstance(i, int) or isinstance(i, bool):
            raise SerializationError(f"{where}[{k}] has a non-integer index")
        out[i] = _number(v, f"{where}[{k}] value")
    return out


def _number(raw: Any, field: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise SerializationError(f"{field} must be a number, got {raw!r}") from None


def _index_set(raw: Any, field: str) -> SupportSet:
    try:
        return SupportSet.of(raw)
    except (TypeError, ValueError):
        raise SerializationError(f"{field} must be a list of positive indices, got {raw!r}") from None


# -- weight families ---------------------------------------------------------

def family_to_doc(fam: WeightFamily) -> dict:
    doc = {"kind": fam.kind, "D": fam.D}
    doc.update(fam.params)
    return doc


def doc_to_family(doc: dict) -> WeightFamily:
    kind = _need(doc, "kind", "weight family")
    params = {k: v for k, v in doc.items() if k not in ("kind", "D")}
    if kind == "explicit":
        values = _need(doc, "values", "explicit weight family")
        if not isinstance(values, list):
            raise SerializationError("field 'values' must be a list of numbers")
        D = doc.get("D", len(values))
    else:
        D = _need(doc, "D", "weight family")
    try:
        return WeightFamily(kind=kind, D=D, params=params)
    except ValueError as exc:
        raise SerializationError(f"weight family: {exc}") from exc


# -- spaces and vectors ------------------------------------------------------

def space_to_doc(space: WeightedSpace) -> dict:
    return {"p": space.p, "weights": list(space.weights)}


def doc_to_space(doc: dict) -> WeightedSpace:
    p = _need(doc, "p", "space document")
    weights = _need(doc, "weights", "space document")
    if isinstance(weights, dict):
        weights = generate(doc_to_family(weights))
    if not isinstance(weights, list) or not weights:
        raise SerializationError("field 'weights' must be a nonempty list or a family object")
    p = _number(p, "field 'p'")
    try:
        return WeightedSpace(p, weights)
    except ValueError as exc:
        raise SerializationError(f"space document: {exc}") from exc


def vector_to_doc(x: SpVector) -> dict:
    doc = space_to_doc(x.space)
    doc["entries"] = _plain(x)
    return doc


def doc_to_vector(doc: dict, space: WeightedSpace | None = None) -> SpVector:
    if not isinstance(doc, dict):
        raise SerializationError("vector document must be a JSON object")
    if space is None or "p" in doc or "weights" in doc:
        space = doc_to_space(doc)
    entries = _entries(_need(doc, "entries", "vector document"), "entries")
    try:
        return SpVector(space, entries)
    except ValueError as exc:
        raise SerializationError(f"vector document: {exc}") from exc


# -- blocks and operators ----------------------------------------------------

def block_to_doc(b: Block) -> dict:
    return {
        "support": list(b.support.indices),
        "E": list(b.Eset.indices),
        "entries": _plain(b.vector),
        "delta": b.delta,
        "c": b.c,
    }


def doc_to_block(doc: dict, space: WeightedSpace, *, require: bool = True) -> Block:
    entries = _entries(_need(doc, "entries", "block document"), "block entries")
    E = _index_set(_need(doc, "E", "block document"), "block field 'E'")
    delta, c = (
        None if doc.get(k) is None else _number(doc[k], f"block field {k!r}")
        for k in ("delta", "c")
    )
    try:
        # absent constants mean "tightest valid": equality in both conditions
        blk = make_block(SpVector(space, entries), E, delta, c, require=require)
    except ValueError as exc:
        raise SerializationError(f"block document: {exc}") from exc
    if "support" in doc and _index_set(doc["support"], "block field 'support'") != blk.support:
        raise SerializationError("block document: field 'support' disagrees with the entries")
    return blk


def doc_to_operator(doc: dict):
    """Build a projection or dense operator from an operator spec document."""
    kind = _need(doc, "kind", "operator spec")
    space = doc_to_space(doc)
    if kind == "block-projection":
        raw = _need(doc, "blocks", "operator spec")
        if not isinstance(raw, list) or not raw:
            raise SerializationError("field 'blocks' must be a nonempty list")
        blocks = [doc_to_block(b, space, require=False) for b in raw]
        try:
            system = BlockSystem(
                tuple(blocks), delta=doc.get("delta"), c=doc.get("c")
            )
            return BlockProjection(system)
        except ValueError as exc:
            raise SerializationError(f"operator spec: {exc}") from exc
    if kind == "gram":
        raw = _need(doc, "vectors", "operator spec")
        if not isinstance(raw, list) or not raw:
            raise SerializationError("field 'vectors' must be a nonempty list")
        vecs = [
            SpVector(space, _entries(v, f"vectors[{k}]")) for k, v in enumerate(raw)
        ]
        try:
            return GramProjector(vecs)
        except ValueError as exc:
            raise SerializationError(f"operator spec: {exc}") from exc
    if kind == "matrix":
        window = _need(doc, "window", "operator spec")
        matrix = _need(doc, "matrix", "operator spec")
        bad = SerializationError("field 'matrix' must be rows of finite numbers")
        try:
            matrix = np.asarray(matrix, dtype=float)
        except (TypeError, ValueError):
            raise bad from None
        if not np.all(np.isfinite(matrix)):
            raise bad
        try:
            return DenseOperator(space, matrix, tuple(int(i) for i in window))
        except TypeError:
            raise SerializationError(f"field 'window' must be a list of indices, got {window!r}") from None
        except ValueError as exc:
            raise SerializationError(f"operator spec: {exc}") from exc
    raise SerializationError(f"unknown operator kind {kind!r}")


# -- witnesses and constants -------------------------------------------------

def witness_to_doc(w: Thm13Witness) -> dict:
    doc = vector_to_doc(w.x)
    doc.update(
        {
            "E": list(w.E.indices),
            "N": w.N,
            "c": w.c,
            "delta": w.delta,
            "eps": w.eps,
            "eps_prime": w.eps_prime,
        }
    )
    return doc


def doc_to_witness(doc: dict) -> Thm13Witness:
    x = doc_to_vector(doc)
    fields = ("E", "N", "c", "delta", "eps", "eps_prime")
    vals = {f: _need(doc, f, "witness document") for f in fields}
    try:
        return Thm13Witness(x=x, **vals)
    except ValueError as exc:
        raise SerializationError(f"witness document: {exc}") from exc


def doc_to_constants(doc: dict) -> SplitConstants:
    fields = [f.name for f in dataclasses.fields(SplitConstants)]
    vals = {f: _need(doc, f, "constants document") for f in fields}
    try:
        return SplitConstants(**vals)
    except ValueError as exc:
        raise SerializationError(f"constants document: {exc}") from exc
