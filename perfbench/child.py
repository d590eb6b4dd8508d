"""One repetition of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the workload, seed, trial count, worker count, output
path, whether to trace, and the checkout root. The child imports
frislink from `<root>/src`, parses the config, makes its first
linear-algebra call, runs the command once, and prints one JSON line.
`ready_at` is a CLOCK_MONOTONIC stamp taken when set-up ends, which the
parent compares with its own stamp from before it started this process.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": _cpu_model(),
    }


def _warmup_matrix(np, m: int):
    """Kac-Murdock-Szego matrix rho^|i-j|: positive definite, the size of
    the workload's full grid, and unlike any matrix the command factors,
    so no cache inside frislink can serve the command from set-up."""
    idx = np.arange(m)
    return 0.5 ** np.abs(idx[:, None] - idx[None, :])


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))

    import numpy as np

    from frislink import config as fconfig
    from frislink import correlation

    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer is not None:
        tracing.install(tracer)
        setup_span = tracer.begin("setup")
    doc = workload.config_doc(spec["seed"], spec["trials"], spec["out"])
    config = fconfig.parse_config(json.dumps(doc))
    correlation.psd_sqrt(_warmup_matrix(np, config.geometry.m))
    if tracer is not None:
        tracer.end(setup_span)
    ready_at = _monotonic()

    if tracer is not None:
        cmd_span = tracer.begin("experiments.command")
    t0 = time.perf_counter()
    code = workload.run(spec["seed"], spec["trials"], spec["out"], spec["workers"], config)
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.end(cmd_span)

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "exit_code": code,
        "ready_at": ready_at,
        "wall_s": wall_s,
        # parent's peak plus one largest-worker peak per pool slot
        "peak_rss_mb": (self_kb + spec["workers"] * worker_kb) / 1024.0,
        "env": _environment(np),
    }
    if code == 0:
        with open(spec["out"], "rb") as f:
            data = f.read()
        result["sha256"] = hashlib.sha256(data).hexdigest()
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer, len(data))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
