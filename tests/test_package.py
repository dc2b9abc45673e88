"""The public surface: every exported name exists, once."""

import importlib

import xplab

MODULES = [
    "blocks", "cli", "criteria", "experiments", "operators", "oracle", "report",
    "serialize", "space", "splitter", "weights",
]


def test_exports_resolve_without_duplicates():
    for mod in [xplab] + [importlib.import_module(f"xplab.{m}") for m in MODULES]:
        assert len(mod.__all__) == len(set(mod.__all__)), mod.__name__
        assert [n for n in mod.__all__ if not hasattr(mod, n)] == [], mod.__name__
