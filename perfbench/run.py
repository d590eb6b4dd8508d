"""frislink benchmark harness.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload outage-fig3a --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each repetition runs one frislink command in a fresh interpreter
(perfbench/child.py) with the workload's BLAS thread setting, closed
loop: the next repetition starts when the previous one has ended.
Repetitions continue while the next one is expected to end within
--seconds (at least one runs). Every output CSV is checked (check.py)
and all repetitions of a run must write identical bytes.

--trace 0 reports the end-to-end metrics, the medians over repetitions.
--trace 1 alternates untraced and traced repetitions (plus, for a
pooled workload, a traced single-worker one) and reports the per-layer
metrics of tracing.py, the tracing overhead and the parallel efficiency.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

from check import CheckError, check_csv, load_reference  # noqa: E402
from workloads import WORKLOADS, blas_env  # noqa: E402

# every run, including its last repetition, ends within this many seconds
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "montecarlo.run_s": "s",
    "montecarlo.self_s": "s",
    "montecarlo.trials": "count",
    "montecarlo.trials_per_s": "1/s",
    "montecarlo.ns_per_trial_elem": "ns",
    "montecarlo.estimate_s": "s",
    "montecarlo.ks_s": "s",
    "montecarlo.outage_hits": "count",
    "montecarlo.parallel_eff": "ratio",
    "correlation.build_s": "s",
    "correlation.build_calls": "count",
    "correlation.sqrt_s": "s",
    "correlation.sqrt_calls": "count",
    "correlation.sqrt_first_s": "s",
    "correlation.clamped": "count",
    "special.inc_gamma_s": "s",
    "special.inc_gamma_calls": "count",
    "special.j0_s": "s",
    "special.j0_calls": "count",
    "analysis.fit_s": "s",
    "analysis.fit_calls": "count",
    "analysis.curve_s": "s",
    "analysis.curve_calls": "count",
    "experiments.self_s": "s",
    "experiments.csv_bytes": "bytes",
    "config.parse_s": "s",
    "trace.overhead_s": "s",
}


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _stop(proc: subprocess.Popen) -> None:
    """Kill the child and its pool workers, and wait for the child."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()


def run_rep(workload, seed, trials, workers, trace, out_path, deadline, reference) -> dict:
    """One repetition in a fresh interpreter; the child's result, with
    `setup_s` added, or {"error": ...}."""
    spec = {
        "root": ROOT,
        "workload": workload.name,
        "seed": seed,
        "trials": trials,
        "workers": workers,
        "trace": trace,
        "out": out_path,
    }
    env = dict(os.environ, **blas_env(workload.blas_threads))
    t0 = _monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # own process group, so _stop reaches pool workers
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    finally:
        _stop(proc)
    if proc.returncode != 0:
        return {"error": f"child exited {proc.returncode}: {stderr.strip()[-2000:]}"}
    result = json.loads(stdout.strip().splitlines()[-1])
    if result["exit_code"] != 0:
        return {"error": f"command exited {result['exit_code']}: {stderr.strip()[-2000:]}"}
    result["setup_s"] = result["ready_at"] - t0
    try:
        check_csv(out_path, workload, seed, trials, reference)
    except (CheckError, OSError, ValueError, KeyError) as e:
        return {"error": f"output check: {e}"}
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)
    return result


def measure(workload, seed: int, seconds: float, trace: bool, trials: int, workdir: str) -> dict:
    """Closed-loop repetitions of one workload; returns the run summary."""
    reference = load_reference()
    start = _monotonic()
    deadline = start + HARD_LIMIT_S
    # (tag, workers, traced) of one round
    plan = [("plain", workload.workers, False)]
    if trace:
        plan.append(("traced", workload.workers, True))
        if workload.workers > 1:
            plan.append(("serial", 1, True))
    reps = {tag: [] for tag, _, _ in plan}
    errors = []
    digest = None
    attempted = 0
    while True:
        round_start = _monotonic()
        for tag, workers, traced in plan:
            attempted += 1
            out_path = os.path.join(workdir, f"{workload.name}-{tag}.csv")
            rep = run_rep(workload, seed, trials, workers, traced, out_path, deadline, reference)
            if "error" not in rep:
                digest = digest or rep["sha256"]
                if rep["sha256"] != digest:
                    rep = {"error": f"{tag}: CSV bytes differ from the first repetition"}
            if "error" in rep:
                errors.append(f"{tag}: {rep['error']}")
            else:
                reps[tag].append(rep)
        now = _monotonic()
        if errors or now + (now - round_start) > start + seconds:
            break
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "reps": reps,
        "digest": digest,
    }


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def end_to_end_metrics(run: dict) -> dict:
    plain = run["reps"]["plain"]
    return {name: _median(plain, name) for name in END_TO_END_UNITS}


def per_layer_metrics(run: dict) -> dict:
    traced = run["reps"]["traced"]
    layers = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    wall_traced = _median(traced, "wall_s")
    serial = run["reps"].get("serial")
    workers = run["workload"].workers
    # single-process workloads run one worker: efficiency 1 by definition
    layers["montecarlo.parallel_eff"] = (
        _median(serial, "wall_s") / (workers * wall_traced) if serial else 1.0
    )
    layers["trace.overhead_s"] = wall_traced - _median(run["reps"]["plain"], "wall_s")
    return {name: layers[name] for name in PER_LAYER_UNITS}


def _complete(run: dict) -> bool:
    return all(run["reps"].values())


def report(run: dict, trace: bool, seed: int, trials: int) -> dict:
    """Print the human-readable lines of one run; return its JSON result."""
    w = run["workload"]
    n_plain = len(run["reps"]["plain"])
    print(
        f"workload {w.name}: {w.command} --preset {w.preset}, seed {seed}, "
        f"trials {trials}, workers {w.workers}, BLAS threads {w.blas_threads}, "
        f"trace {int(trace)}, {n_plain} untraced repetitions"
    )
    for err in run["errors"]:
        print(f"  FAILED {err}")
    metrics = {}
    if _complete(run):
        values = per_layer_metrics(run) if trace else end_to_end_metrics(run)
        units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        for name, m in metrics.items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")
        for tag, reps in run["reps"].items():
            walls = " ".join(f"{r['wall_s']:.4f}" for r in reps)
            print(f"  {tag} repetitions: wall_s {walls}")
        print(f"  env {json.dumps(run['reps']['plain'][0]['env'], sort_keys=True)}")
        print(f"  csv sha256 {run['digest']}")
    print(f"  fail_ratio {run['failed'] / run['attempted']:.6g} ({run['failed']}/{run['attempted']})")
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="frislink benchmark harness")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--trials", type=int, help="override every workload's trial count (smoke test)"
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "frislink", "__init__.py")):
        print(f"no frislink sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for name in names:
            w = WORKLOADS[name]
            trials = args.trials or w.trials
            run = measure(w, args.seed, args.seconds, bool(args.trace), trials, workdir)
            results[name] = report(run, bool(args.trace), args.seed, trials)
            if not _complete(run):
                print(f"{name}: no successful repetition of every kind", file=sys.stderr)
                return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
