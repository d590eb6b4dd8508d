"""The golden outputs: every refactor that keeps the bytes keeps these.

`tools/goldens.py` runs the fifteen golden commands and hashes their
outputs; `tools/goldens.txt` records the hash lines after `#` lines that
name the numpy and OpenBLAS build they came from. Hashes are recorded
per build, so on another build the check skips and names the build.
"""

import importlib.util
import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _load_goldens():
    spec = importlib.util.spec_from_file_location("goldens", os.path.join(TOOLS, "goldens.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_hashes_are_the_recorded_ones(tmp_path):
    goldens = _load_goldens()
    with open(goldens.EXPECTED, encoding="utf-8") as f:
        lines = f.read().splitlines()
    recorded = [ln for ln in lines if ln.startswith("#")]
    expected = [ln for ln in lines if not ln.startswith("#")]
    running = goldens.build()
    if running != recorded:
        pytest.skip(f"hashes recorded on {recorded}, running {running}")
    printed = [f"{name} {digest}" for name, digest in goldens.goldens(str(tmp_path))]
    assert len(expected) == 15
    assert printed == expected
