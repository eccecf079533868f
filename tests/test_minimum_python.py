"""The package, its tests and the demos parse at the oldest Python that
``pyproject.toml`` declares (``requires-python``)."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _minimum() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


def test_every_module_parses_at_the_declared_minimum_python():
    version = _minimum()
    assert version >= (3, 10)
    files = [p for d in ("src", "tests", "demos") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
