"""Pieces shared by the workloads: seeded generators, results, CLI calls."""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import xp_norm


def rng(seed: int, *branch: int) -> np.random.Generator:
    """Independent generator for one input item of one workload."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, branch)]))


@dataclass
class Op:
    """One attempted operation: its latency and what its checks found.

    attained is (mode, lower / reference) for operator-norm queries.
    """

    name: str
    seconds: float | None
    problems: list = field(default_factory=list)
    attained: tuple | None = None


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def cli_call(argv: list[str]) -> tuple[float, int, str]:
    """Run one xplab command in-process; return (seconds, exit code, stderr)."""
    from xplab.cli import run

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = run(argv)
        seconds = time.perf_counter() - t0
    return seconds, code, err.getvalue()


def read_report(path: Path) -> tuple[bytes, dict | None]:
    try:
        raw = path.read_bytes()
    except OSError:
        return b"", None
    return raw, json.loads(raw)


def normalized(vals: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """vals scaled to unit max(p-norm, weighted 2-norm)."""
    return vals / xp_norm(vals, w, p)


def block_system(g: np.random.Generator, window: int, w: np.ndarray, p: float,
                 max_size: int = 6) -> list:
    """Random normalized blocks of 1 to max_size indices covering `window` indices.

    Returns (support, values, E) triples on disjoint supports drawn from
    1..len(w), each block vector of unit space norm.
    """
    pool = g.permutation(np.arange(1, len(w) + 1))[:window]
    blocks, pos = [], 0
    while pos < window:
        size = min(int(g.integers(1, max_size + 1)), window - pos)
        I = np.sort(pool[pos : pos + size])
        pos += size
        vals = g.uniform(0.2, 1.5, size=size) * g.choice([-1.0, 1.0], size=size)
        E = np.sort(g.choice(I, size=int(g.integers(1, size + 1)), replace=False))
        blocks.append((I.tolist(), normalized(vals, w[I - 1], p).tolist(), E.tolist()))
    return blocks


def projection_doc(p: float, weights, blocks) -> dict:
    """Block-projection operator document; delta and c left to the program."""
    return {
        "kind": "block-projection",
        "p": p,
        "weights": weights,
        "blocks": [
            {"support": I, "E": E, "entries": [[i, v] for i, v in zip(I, vals)]}
            for I, vals, E in blocks
        ],
    }


def sparse_vectors(g: np.random.Generator, count: int, window, size: int) -> list:
    """count random [[index, value], ...] vectors with `size` entries in window."""
    out = []
    for _ in range(count):
        idx = np.sort(g.choice(np.asarray(window), size=size, replace=False))
        out.append([[int(i), float(v)] for i, v in zip(idx, g.standard_normal(size))])
    return out
