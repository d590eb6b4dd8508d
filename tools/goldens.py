"""Print the SHA-256 of the golden outputs of the checkout this file is in.

    python3 tools/goldens.py

Runs the fifteen golden commands in one process against this checkout's
`src/`, in a temporary directory, and prints one
`<name> <sha256> body <sha256>` line each, the hash of the whole output
and of its lines that do not start with `# ` (a CSV without its
provenance header): the four presets' CSVs at `--trials 20000 --seed 7`, the four
presets' `validate` stdouts, and for the `--config` document
(CONFIG below) its `validate` stdout, its `outage` and `capacity` CSVs
at `--seed 5`, and the CSV of its static mode alone under
`dist --trials 4000 --seed 5`, then for the same document under the
cylindrical kernel (CYLINDRICAL) its `validate` stdout and its
`capacity` CSV at `--seed 5`, and last its `outage` CSV at `--seed 5`
over SNR_GRID, where each coherent mode has between 1 % and 99 % of its
trials in outage at some point (the screened outage run then falls back
to the exact gains in every block that holds one). Equal hashes at two
commits mean equal
bytes, and equal body hashes alone an output that moved only in its
header.

`tools/goldens.txt` holds the expected lines of the current artifact
version, after `#` lines that name the build they came from: numpy's
version and the runtime configuration of its bundled OpenBLAS, which
names the CPU kernel it picked. The script prints those lines for the
build that runs it first, and compares the hash lines alone: it exits 1,
after naming each printed line that differs from its line there and
whether only its header moved (its body hash still matches), if any
does, and then says whether the running build differs from the recorded
one. A change that moves an artifact on purpose rewrites that file (the
script's stdout is its new content), and CHANGES.md says why each line
moved.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import sys
import tempfile
from itertools import zip_longest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.txt")

import numpy as np  # noqa: E402

from frislink.cli import main  # noqa: E402

CONFIG = {
    "geometry": {"m_x": 6, "m_z": 5, "w_x": 2, "w_z": 1.5},
    "modes": [
        {"type": "static", "select_x": 2, "select_z": 2, "phases": [0, 1.5, 3.0, 6.2]},
        {"type": "adaptive_fris", "m_o": 4},
        {"type": "ris_baseline", "m_rx": 3, "m_rz": 3},
    ],
    "trials": 9000,
}
STATIC_ONLY = {**CONFIG, "modes": CONFIG["modes"][:1]}
CYLINDRICAL = {**CONFIG, "kernel": "cylindrical"}
# fris(Mo=4) 1.6 % in outage at -4 dB, ris(3x3) 1.4 % at -2 dB
SNR_GRID = {**CONFIG, "snr_grid_db": [-4, -2, 0]}

PRESET_RUNS = (("dist", "fig2"), ("outage", "fig3a"), ("capacity", "fig3b"), ("sweep-m", "fig3c"))


def build() -> list:
    """The `#` lines naming the running build: numpy's version, and the
    runtime configuration string of numpy's bundled OpenBLAS ("unknown"
    if it cannot be found)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    blas = "unknown"
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            config = ctypes.CDLL(path).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        config.argtypes, config.restype = [], ctypes.c_char_p
        blas = " ".join(config().decode().split())
        break
    return [f"# numpy {np.__version__}", f"# openblas {blas}"]


def _digest(data: bytes) -> str:
    """`<sha256> body <sha256>`: the whole output's hash, then its body's."""
    body = b"".join(ln for ln in data.splitlines(keepends=True) if not ln.startswith(b"# "))
    return f"{hashlib.sha256(data).hexdigest()} body {hashlib.sha256(body).hexdigest()}"


def _stdout(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"failed: frislink {' '.join(argv)}")
    return _digest(buf.getvalue().encode("utf-8"))


def _csv(argv: list, out: str) -> str:
    _stdout(argv + ["--out", out])  # the command prints the path
    with open(out, "rb") as f:
        return _digest(f.read())


def goldens(tmp: str):
    """(name, hashes) of each golden output, written under tmp."""
    out = os.path.join(tmp, "out.csv")
    for command, preset in PRESET_RUNS:
        argv = [command, "--preset", preset, "--trials", "20000", "--seed", "7"]
        yield f"{command} --preset {preset}", _csv(argv, out)
    for _, preset in PRESET_RUNS:
        yield f"validate --preset {preset}", _stdout(["validate", "--preset", preset])
    config, static = os.path.join(tmp, "config.json"), os.path.join(tmp, "static.json")
    cylindrical = os.path.join(tmp, "cylindrical.json")
    snr_grid = os.path.join(tmp, "snr_grid.json")
    docs = ((config, CONFIG), (static, STATIC_ONLY), (cylindrical, CYLINDRICAL), (snr_grid, SNR_GRID))
    for path, doc in docs:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
    yield "validate --config", _stdout(["validate", "--config", config])
    for command in ("outage", "capacity"):
        yield f"{command} --config --seed 5", _csv([command, "--config", config, "--seed", "5"], out)
    argv = ["dist", "--config", static, "--trials", "4000", "--seed", "5"]
    yield "dist --config (static mode) --trials 4000 --seed 5", _csv(argv, out)
    yield "validate --config (cylindrical)", _stdout(["validate", "--config", cylindrical])
    argv = ["capacity", "--config", cylindrical, "--seed", "5"]
    yield "capacity --config (cylindrical) --seed 5", _csv(argv, out)
    argv = ["outage", "--config", snr_grid, "--seed", "5"]
    yield "outage --config (snr_grid_db [-4, -2, 0]) --seed 5", _csv(argv, out)


if __name__ == "__main__":
    with open(EXPECTED, encoding="utf-8") as f:
        lines = f.read().splitlines()
    recorded = [ln for ln in lines if ln.startswith("#")]
    expected = [ln for ln in lines if not ln.startswith("#")]
    running = build()
    print("\n".join(running), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        printed = []
        for name, digest in goldens(tmp):
            printed.append(f"{name} {digest}")
            print(printed[-1], flush=True)
    differ = False
    for i, (got, want) in enumerate(zip_longest(printed, expected), 1):
        if got != want:
            differ = True
            # the same name and body hash ([::3] of "<name> <hash> body <hash>"):
            # only the provenance header moved
            header_only = got and want and got.rsplit(" ", 3)[::3] == want.rsplit(" ", 3)[::3]
            what = "header only" if header_only else "body moved"
            print(f"hash line {i} differs from tools/goldens.txt ({what}): {got} (expected {want})", file=sys.stderr)
    if differ:
        if running == recorded:
            print("the running build is the one tools/goldens.txt records", file=sys.stderr)
        else:
            print(f"the running build differs from the one tools/goldens.txt records: {running} "
                  f"(recorded {recorded})", file=sys.stderr)
    sys.exit(1 if differ else 0)
