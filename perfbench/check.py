"""Output checks for the benchmark's CSV artifacts (stdlib only).

A CSV passes when
  1. its header, row count and values are well formed and finite, and
     its deterministic columns are consistent with one another;
  2. its Monte Carlo columns (and the KS distance of `dist`) agree with
     reference values recorded in `reference.json`, within the stated
     sampling error of both the run and the reference.
Byte-identity between repetitions of the same code is checked by the
harness, which compares SHA-256 digests within a run.

Part 2 is statistical, not a golden digest: a deliberate, versioned
change to the random stream moves every value by sampling noise only
and still passes; a change of the sampled law does not.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import os

# two-sample Kolmogorov-Smirnov critical value c(alpha) at alpha = 0.001:
# sup|F_n - G_m| <= c * sqrt(1/n + 1/m) with probability 0.999
KS_CRIT = 1.95
# Monte Carlo means must agree within this many combined standard errors
Z_MEAN = 5.0
# per-trial spread (stderr * sqrt(n)) must be within this factor of the reference
SPREAD_FACTOR = 1.5
# reference CDF is stored at this many quantile levels; interpolation slack
QUANTILE_SLACK = 0.002

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

HEADERS = {
    "outage": [
        "snr_db", "mode", "analytical_po", "asymptotic_po",
        "mc_outage", "mc_stderr", "hits", "reliable",
    ],
    "dist": ["g", "analytical_pdf", "analytical_cdf", "empirical_cdf"],
    "sweep-m": [
        "m_x", "m_z", "m", "fris_capacity", "fris_stderr", "ris_capacity", "ris_stderr",
    ],
}


class CheckError(Exception):
    pass


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


def read_csv(path: str):
    """(meta, header, rows) of a frislink CSV artifact."""
    meta = {}
    with open(path, encoding="utf-8", newline="") as f:
        lines = f.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    table = list(csv.reader(body))
    if not table:
        raise CheckError("no header row")
    return meta, table[0], table[1:]


def _num(text: str, what: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise CheckError(f"{what}: not a number: {text!r}") from None
    if not math.isfinite(v):
        raise CheckError(f"{what}: not finite: {text!r}")
    return v


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_csv(path: str, workload, seed: int, trials: int, reference: dict) -> None:
    """Raise CheckError unless the CSV at `path` is a correct output of
    `workload` at `seed` and `trials`."""
    meta, header, rows = read_csv(path)
    _require(header == HEADERS[workload.command], f"header {header}")
    _require(len(rows) == workload.rows, f"{len(rows)} rows, expected {workload.rows}")
    _require(all(len(r) == len(header) for r in rows), "ragged rows")
    _require(meta.get("command") == workload.command, f"command {meta.get('command')!r}")
    _require(meta.get("seed") == str(seed), f"seed {meta.get('seed')!r}")
    _require(meta.get("trials") == str(trials), f"trials {meta.get('trials')!r}")
    ref = reference[workload.name]
    if workload.command == "outage":
        _check_outage(rows, trials, ref)
    elif workload.command == "dist":
        _check_dist(meta, rows, trials, ref)
    else:
        _check_sweep(rows, trials, ref)


def _check_outage(rows, n: int, ref: dict) -> None:
    by_mode = {}
    for i, r in enumerate(rows):
        snr, mode = _num(r[0], f"row {i} snr_db"), r[1]
        po, asym, p, se = (_num(r[j], f"row {i} {HEADERS['outage'][j]}") for j in (2, 3, 4, 5))
        hits = int(r[6])
        _require(0.0 <= po <= 1.0 and 0.0 <= asym, f"row {i}: analytic outage out of range")
        _require(_close(p, hits / n), f"row {i}: mc_outage {p} != hits/trials")
        _require(_close(se, math.sqrt(p * (1.0 - p) / n)), f"row {i}: mc_stderr inconsistent")
        _require(r[7] == ("true" if hits >= 50 else "false"), f"row {i}: reliable flag")
        by_mode.setdefault(mode, []).append((snr, po, hits))
    _require(sorted(by_mode) == sorted(ref["rows"]), f"modes {sorted(by_mode)}")
    n_ref = ref["trials"]
    for mode, points in by_mode.items():
        expected = ref["rows"][mode]
        _require([s for s, _, _ in points] == [s for s, _ in expected], f"{mode}: SNR grid")
        _require(
            all(a[1] >= b[1] for a, b in zip(points, points[1:])),
            f"{mode}: analytic outage rises with SNR",
        )
        for (snr, _, hits), (_, hits_ref) in zip(points, expected):
            # two-proportion bound with pooled rate, plus one count of slack
            pooled = (hits + hits_ref) / (n + n_ref)
            sigma = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n + 1.0 / n_ref))
            gap = abs(hits / n - hits_ref / n_ref)
            _require(
                gap <= Z_MEAN * sigma + 1.0 / n,
                f"{mode} at {snr} dB: {hits}/{n} outages vs reference {hits_ref}/{n_ref}",
            )


def _reference_cdf(levels_q: list, g: float) -> float:
    """Reference CDF at g, interpolated between stored quantiles."""
    q = levels_q
    k = len(q)
    j = bisect.bisect_right(q, g)
    if j == 0:
        return 0.0
    if j == k:
        return 1.0
    lo, hi = q[j - 1], q[j]
    frac = 0.0 if hi == lo else (g - lo) / (hi - lo)
    return (j - 0.5 + frac) / k


def _check_dist(meta, rows, n: int, ref: dict) -> None:
    g_prev = -math.inf
    cdf_prev = ecdf_prev = 0.0
    bound = KS_CRIT * math.sqrt(1.0 / n + 1.0 / ref["trials"]) + QUANTILE_SLACK
    worst = 0.0
    for i, r in enumerate(rows):
        g, pdf, cdf, ecdf = (_num(r[j], f"row {i} {HEADERS['dist'][j]}") for j in range(4))
        _require(g > g_prev, f"row {i}: g not increasing")
        _require(pdf >= 0.0, f"row {i}: negative pdf")
        _require(cdf_prev <= cdf <= 1.0, f"row {i}: analytical_cdf not a CDF")
        _require(ecdf_prev <= ecdf <= 1.0, f"row {i}: empirical_cdf not a CDF")
        _require(_close(ecdf * n, round(ecdf * n)), f"row {i}: empirical_cdf not k/trials")
        worst = max(worst, abs(ecdf - _reference_cdf(ref["quantiles"], g)))
        g_prev, cdf_prev, ecdf_prev = g, cdf, ecdf
    _require(
        worst <= bound,
        f"empirical_cdf departs from the reference law by {worst:.4g} > {bound:.4g}",
    )
    ks = _num(meta.get("ks", ""), "ks")
    _require(
        abs(ks - ref["ks"]) <= bound,
        f"ks {ks:.6g} vs reference {ref['ks']:.6g} (bound {bound:.4g})",
    )


def _check_mean(label: str, mean: float, se: float, n: int, ref_mean: float, ref_se: float, n_ref: int) -> None:
    _require(se > 0.0, f"{label}: nonpositive stderr")
    spread, ref_spread = se * math.sqrt(n), ref_se * math.sqrt(n_ref)
    _require(
        ref_spread / SPREAD_FACTOR <= spread <= ref_spread * SPREAD_FACTOR,
        f"{label}: per-trial spread {spread:.4g} vs reference {ref_spread:.4g}",
    )
    sigma = math.hypot(se, ref_se)
    _require(
        abs(mean - ref_mean) <= Z_MEAN * sigma,
        f"{label}: {mean:.6g} vs reference {ref_mean:.6g} (> {Z_MEAN} x {sigma:.3g})",
    )


def _check_sweep(rows, n: int, ref: dict) -> None:
    n_ref = ref["trials"]
    ris = set()
    _require(len(rows) == len(ref["rows"]), "grid length")
    for i, (r, expect) in enumerate(zip(rows, ref["rows"])):
        m_x, m_z, m = int(r[0]), int(r[1]), int(r[2])
        _require([m_x, m_z] == expect["grid"] and m == m_x * m_z, f"row {i}: grid {r[:3]}")
        fris, fris_se, ris_c, ris_se = (
            _num(r[j], f"row {i} {HEADERS['sweep-m'][j]}") for j in (3, 4, 5, 6)
        )
        _check_mean(f"{m_x}x{m_z} fris_capacity", fris, fris_se, n, *expect["fris"], n_ref)
        _check_mean(f"{m_x}x{m_z} ris_capacity", ris_c, ris_se, n, *ref["ris"], n_ref)
        ris.add((r[5], r[6]))
    _require(len(ris) == 1, "ris columns differ between rows")
