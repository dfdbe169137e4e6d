import os
import sys
from pathlib import Path

import pytest

# Test the checkout, not an installed copy: put its ``src`` first on the path
# of this process and of the child processes some tests start.
SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep every test away from the user's real cache directory."""
    monkeypatch.setenv("CHORDBASIS_CACHE", str(tmp_path / "cache"))
    yield
