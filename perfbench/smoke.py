"""Smoke test of the benchmark itself, at tiny trial counts.

Usage (from the root of a checkout): python3 perfbench/smoke.py

Checks that every workload runs, that every metric BENCHMARK.json names
is printed with its unit in both modes, that the harness refuses to run
without the frislink sources, and that the output check rejects CSVs
whose Monte Carlo columns have been perturbed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
TRIALS = 256
SEED = 5

sys.path.insert(0, os.path.join(ROOT, "src"))

from check import CheckError, check_csv, load_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _harness(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


class HarnessSmoke(unittest.TestCase):
    def _last_json(self, proc) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def _check_every_workload(self, trace: int, section: str) -> None:
        proc = _harness(
            "--workload", "all", "--seed", str(SEED), "--seconds", "1",
            "--trials", str(TRIALS), "--trace", str(trace),
        )
        metrics = self._last_json(proc)["metrics"]
        for spec in _benchmark()["workloads"]:
            for m in _benchmark()[section]:
                got = metrics.get(f"{spec['name']}/{m['name']}")
                self.assertIsNotNone(got, f"{spec['name']}: {m['name']} missing")
                self.assertEqual(got["unit"], m["unit"])
                self.assertIsInstance(got["value"], (int, float))

    def test_end_to_end_metrics_on_every_workload(self):
        self._check_every_workload(0, "end_to_end")

    def test_per_layer_metrics_on_every_workload(self):
        self._check_every_workload(1, "per_layer")

    def test_single_workload_prints_exactly_its_metrics(self):
        name = _benchmark()["workloads"][0]["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _harness(
                "--workload", name, "--seed", str(SEED), "--seconds", "1",
                "--trials", str(TRIALS), "--trace", str(trace),
            )
            metrics = self._last_json(proc)["metrics"]
            self.assertEqual(
                {k: v["unit"] for k, v in metrics.items()},
                {m["name"]: m["unit"] for m in _benchmark()[section]},
            )

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in _benchmark()["paths"]:
                shutil.copytree(
                    os.path.join(ROOT, path),
                    os.path.join(bare, path),
                    ignore=shutil.ignore_patterns("__pycache__"),
                )
            # the copy's run.py looks for the sources beside its own directory
            proc = subprocess.run(
                [sys.executable, os.path.join(bare, "perfbench", "run.py"),
                 "--workload", "dist-fig2", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


def _rewrite(path: str, edit) -> None:
    """Apply edit(header, rows) to the data rows of a CSV artifact."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    header, rows = table[0], table[1:]
    edit(header, rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(meta) + "\n" + buf.getvalue())


class OutputCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from frislink import config as fconfig

        cls.tmp = tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT)
        cls.reference = load_reference()
        cls.paths = {}
        for w in WORKLOADS.values():
            out = os.path.join(cls.tmp.name, f"{w.name}.csv")
            doc = w.config_doc(SEED, TRIALS, out)
            with contextlib.redirect_stdout(io.StringIO()):  # the CLI prints the path
                code = w.run(SEED, TRIALS, out, 1, fconfig.parse_config(json.dumps(doc)))
            assert code == 0, f"{w.name} exited {code}"
            cls.paths[w.name] = out

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def _perturbed(self, name: str, edit) -> str:
        path = os.path.join(self.tmp.name, f"perturbed-{name}.csv")
        shutil.copy(self.paths[name], path)
        _rewrite(path, edit)
        return path

    def _check(self, name: str, path: str) -> None:
        check_csv(path, WORKLOADS[name], SEED, TRIALS, self.reference)

    def test_accepts_unperturbed_output(self):
        for name, path in self.paths.items():
            self._check(name, path)

    def test_rejects_outage_hits_off_the_reference_rate(self):
        def edit(header, rows):
            hits = 40
            p = hits / TRIALS
            rows[0][4:7] = [repr(p), repr((p * (1 - p) / TRIALS) ** 0.5), str(hits)]

        with self.assertRaises(CheckError):
            self._check("outage-fig3a", self._perturbed("outage-fig3a", edit))

    def test_rejects_outage_column_inconsistent_with_hits(self):
        def edit(header, rows):
            rows[3][4] = "0.001"

        with self.assertRaises(CheckError):
            self._check("outage-fig3a", self._perturbed("outage-fig3a", edit))

    def test_rejects_empirical_cdf_of_the_surrogate_law(self):
        def edit(header, rows):
            # the Gamma surrogate is not the sampled law (KS distance ~0.46)
            for r in rows:
                r[3] = repr(round(float(r[2]) * TRIALS) / TRIALS)

        with self.assertRaises(CheckError):
            self._check("dist-fig2", self._perturbed("dist-fig2", edit))

    def test_rejects_shifted_capacity(self):
        def edit(header, rows):
            rows[2][3] = repr(float(rows[2][3]) * 1.05)

        with self.assertRaises(CheckError):
            self._check("sweep-fig3c-2w", self._perturbed("sweep-fig3c-2w", edit))

    def test_rejects_missing_row(self):
        with self.assertRaises(CheckError):
            self._check("sweep-fig3c-2w", self._perturbed("sweep-fig3c-2w", lambda h, rows: rows.pop()))


if __name__ == "__main__":
    unittest.main()
