"""The shipped fixtures are exactly what scripts/make_fixtures.py writes."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_make_fixtures_reproduces_shipped_fixtures(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", os.path.join(ROOT, "scripts", "make_fixtures.py")
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.OUT = str(tmp_path)
    script.main()
    written = sorted(os.listdir(tmp_path))
    assert written
    for name in written:
        assert _read(tmp_path / name) == _read(os.path.join(FIXTURES, name)), name
