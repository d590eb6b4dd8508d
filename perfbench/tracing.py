"""In-memory span tracing of frislink's layers, from outside the package.

Public functions are wrapped at the module attributes their callers look
up (for instance `frislink.experiments.run_trials`, which the `cmd_*`
functions call), so nothing under `src/` changes. Each call records a
span (name, parent span, start, end) and, where the layer has one, a
count taken from its arguments or result. Self time is derived from
how the spans nest: a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self):
        # one [name, parent_index, start, end] per span, in start order
        self.spans = []
        self.counts = {}
        self._stack = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, value) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Replace module.attr by a traced version recording span `name`.

        observe(tracer, args, kwargs, result) records the layer's counts.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def summary(self) -> dict:
        """Per-span-name totals: duration, self time, calls, and the root
        span each belongs to (`setup` or `experiments.command`)."""
        n = len(self.spans)
        child_time = [0.0] * n
        root = [0] * n
        for i, (_, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        out = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            key = (self.spans[root[i]][0], name)
            entry = out.setdefault(key, {"dur": 0.0, "self": 0.0, "calls": 0, "first": None})
            dur = end - start
            entry["dur"] += dur
            entry["self"] += dur - child_time[i]
            entry["calls"] += 1
            if entry["first"] is None:
                entry["first"] = dur
        return out


def _observe_run_trials(tracer, args, kwargs, result) -> None:
    from frislink.montecarlo import RisBaselineMode

    bound = dict(zip(("geom", "kernel", "mode", "n", "seed"), args))
    bound.update(kwargs)
    mode = bound["mode"]
    # normals drawn per hop per trial, as the engine resolves each mode
    if isinstance(mode, RisBaselineMode):
        m = mode.m_rx * mode.m_rz
    else:
        m = bound["geom"].m
    tracer.add("montecarlo.trials", bound["n"])
    tracer.add("montecarlo.trial_elems", bound["n"] * m)


def _observe_outage(tracer, args, kwargs, result) -> None:
    tracer.add("montecarlo.outage_hits", result.hits)


def _observe_sqrt(tracer, args, kwargs, result) -> None:
    tracer.add("correlation.clamped", result.clamped_count)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; call after importing frislink."""
    from frislink import analysis, cli, config, correlation, experiments, montecarlo

    w = tracer.wrap
    w(config, "parse_config", "config.parse")
    w(cli, "parse_config", "config.parse")
    w(experiments, "run_trials", "montecarlo.run", _observe_run_trials)
    w(experiments, "estimate_outage", "montecarlo.estimate", _observe_outage)
    w(experiments, "estimate_ergodic_capacity", "montecarlo.estimate")
    w(experiments, "empirical_cdf", "montecarlo.estimate")
    w(experiments, "ks_statistic", "montecarlo.ks")
    w(experiments, "build_correlation_matrix", "correlation.build")
    w(montecarlo, "build_correlation_matrix", "correlation.build")
    w(montecarlo, "psd_sqrt", "correlation.sqrt", _observe_sqrt)
    w(correlation, "psd_sqrt", "correlation.sqrt")
    w(correlation, "bessel_j0_spherical", "special.j0")
    w(correlation, "bessel_j0_cylindrical", "special.j0")
    w(analysis, "reg_lower_inc_gamma", "special.inc_gamma")
    w(experiments, "gamma_fit", "analysis.fit")
    for attr in (
        "gamma_pdf",
        "gamma_cdf",
        "gamma_quantile",
        "outage_probability",
        "outage_asymptotic",
        "ergodic_capacity_bound",
        "ergodic_capacity_asymptotic",
    ):
        w(experiments, attr, "analysis.curve")


def layer_metrics(tracer: Tracer, csv_bytes: int) -> dict:
    """The per-layer figures of one traced repetition.

    Times and calls count the command's spans only, except
    `config.parse_s` (set-up parse plus, for CLI commands, the one inside
    `main`) and `correlation.sqrt_first_s` (the process's first matrix
    root, the set-up warm-up, which pays the BLAS start-up).
    """
    spans = tracer.summary()
    empty = {"dur": 0.0, "self": 0.0, "calls": 0, "first": None}

    def cmd(name):
        return spans.get(("experiments.command", name), empty)

    run = cmd("montecarlo.run")
    trials = tracer.counts.get("montecarlo.trials", 0)
    elems = tracer.counts.get("montecarlo.trial_elems", 0)
    sqrt_first = spans.get(("setup", "correlation.sqrt"), empty)["first"]
    parse_s = sum(
        spans.get((root, "config.parse"), empty)["dur"]
        for root in ("setup", "experiments.command")
    )
    return {
        "montecarlo.run_s": run["dur"],
        "montecarlo.self_s": run["self"],
        "montecarlo.trials": trials,
        "montecarlo.trials_per_s": trials / run["dur"] if run["dur"] > 0 else 0.0,
        "montecarlo.ns_per_trial_elem": 1e9 * run["self"] / elems if elems else 0.0,
        "montecarlo.estimate_s": cmd("montecarlo.estimate")["dur"],
        "montecarlo.ks_s": cmd("montecarlo.ks")["dur"],
        "montecarlo.outage_hits": tracer.counts.get("montecarlo.outage_hits", 0),
        "correlation.build_s": cmd("correlation.build")["dur"],
        "correlation.build_calls": cmd("correlation.build")["calls"],
        "correlation.sqrt_s": cmd("correlation.sqrt")["dur"],
        "correlation.sqrt_calls": cmd("correlation.sqrt")["calls"],
        "correlation.sqrt_first_s": sqrt_first or 0.0,
        "correlation.clamped": tracer.counts.get("correlation.clamped", 0),
        "special.inc_gamma_s": cmd("special.inc_gamma")["dur"],
        "special.inc_gamma_calls": cmd("special.inc_gamma")["calls"],
        "special.j0_s": cmd("special.j0")["dur"],
        "special.j0_calls": cmd("special.j0")["calls"],
        "analysis.fit_s": cmd("analysis.fit")["dur"],
        "analysis.fit_calls": cmd("analysis.fit")["calls"],
        "analysis.curve_s": cmd("analysis.curve")["dur"],
        "analysis.curve_calls": cmd("analysis.curve")["calls"],
        "experiments.self_s": cmd("experiments.command")["self"],
        "experiments.csv_bytes": csv_bytes,
        "config.parse_s": parse_s,
    }
