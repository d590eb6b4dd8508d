"""The benchmark's workloads: which command, preset, trial count and
thread layout each one runs. Shared by the harness, the per-repetition
child and the reference recorder."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # frislink sub-command
    preset: str
    trials: int
    blas_threads: int  # BLAS threads in every process of the workload
    workers: int  # Monte Carlo process-pool size
    rows: int  # data rows the CSV must hold
    via_cli: bool  # True: frislink.cli.main; False: experiments.cmd_sweep_m

    def config_doc(self, seed: int, trials: int, out_path: str) -> dict:
        """The preset document with the benchmark's overrides applied,
        as `frislink <command> --preset ... --seed --trials --out` builds it."""
        from frislink.config import preset_config

        doc = preset_config(self.preset)
        doc["seed"] = seed
        doc["trials"] = trials
        doc["output_path"] = out_path
        return doc

    def cli_argv(self, seed: int, trials: int, out_path: str) -> list:
        return [
            self.command, "--preset", self.preset,
            "--seed", str(seed), "--trials", str(trials), "--out", out_path,
        ]

    def run(self, seed: int, trials: int, out_path: str, workers: int, config=None):
        """Run the workload's command once; return the CLI exit code (0 for
        the direct call). `config` is the parsed document, needed by the
        direct call only."""
        if self.via_cli:
            from frislink import cli

            return cli.main(self.cli_argv(seed, trials, out_path))
        from frislink import experiments

        experiments.cmd_sweep_m(config, out_path, workers=workers)
        return 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="outage-fig3a", command="outage", preset="fig3a", trials=16384,
            blas_threads=2, workers=1, rows=18, via_cli=True,
        ),
        Workload(
            name="dist-fig2", command="dist", preset="fig2", trials=32768,
            blas_threads=2, workers=1, rows=200, via_cli=True,
        ),
        Workload(
            name="sweep-fig3c-2w", command="sweep-m", preset="fig3c", trials=32768,
            blas_threads=1, workers=2, rows=4, via_cli=False,
        ),
    )
}


def blas_env(threads: int) -> dict:
    """Environment variables that pin every BLAS/OpenMP pool to `threads`."""
    value = str(threads)
    return {
        "OPENBLAS_NUM_THREADS": value,
        "OMP_NUM_THREADS": value,
        "MKL_NUM_THREADS": value,
    }
