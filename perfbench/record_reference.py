"""Record the reference values the output check compares against.

Usage: python3 perfbench/record_reference.py

Runs every workload once at 262144 trials with seed 20250101 and writes
perfbench/reference.json: per-row outage hits for outage-fig3a, the
sample quantiles and KS distance for dist-fig2, and the capacity means
with their standard errors for sweep-fig3c-2w. Re-record only when the
sampled law changes on purpose; a change of the random stream alone
needs no new reference.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
QUANTILE_LEVELS = 1000
TRIALS = 262144
SEED = 20250101


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import numpy as np

    from frislink import config as fconfig
    from frislink.montecarlo import run_trials

    from check import read_csv
    from workloads import WORKLOADS

    reference = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-ref-", dir=ROOT) as tmp:
        for w in WORKLOADS.values():
            out = os.path.join(tmp, f"{w.name}.csv")
            config = fconfig.parse_config(json.dumps(w.config_doc(SEED, TRIALS, out)))
            code = w.run(SEED, TRIALS, out, w.workers, config)
            if code != 0:
                raise SystemExit(f"{w.name}: command exited with {code}")
            meta, _, rows = read_csv(out)
            entry = {"trials": TRIALS, "seed": SEED}
            if w.command == "outage":
                entry["rows"] = {}
                for r in rows:
                    entry["rows"].setdefault(r[1], []).append([float(r[0]), int(r[6])])
            elif w.command == "dist":
                spec = config.modes[0]
                samples = run_trials(config.geometry, config.kernel, spec.mode, TRIALS, SEED)
                levels = (np.arange(QUANTILE_LEVELS) + 0.5) / QUANTILE_LEVELS
                entry["ks"] = float(meta["ks"])
                entry["quantiles"] = [float(v) for v in np.quantile(samples, levels)]
            else:
                entry["rows"] = [
                    {"grid": [int(r[0]), int(r[1])], "fris": [float(r[3]), float(r[4])]}
                    for r in rows
                ]
                entry["ris"] = [float(rows[0][5]), float(rows[0][6])]
            reference[w.name] = entry
            print(f"{w.name}: recorded at {TRIALS} trials", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as f:
        entries = (f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in reference.items())
        f.write("{\n" + ",\n".join(entries) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
