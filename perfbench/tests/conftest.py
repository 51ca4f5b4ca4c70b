"""Make ``perfbench`` and ``airtwin`` importable and run from the repo root."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture
def repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    return ROOT
