"""Tests for configuration parsing, experiment commands, and the CLI."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import frislink
import frislink.experiments as experiments_mod
from frislink.cli import main
from frislink.config import (
    ConfigError,
    db_to_linear,
    parse_config,
    preset_config,
    PRESET_NAMES,
)
from frislink.correlation import build_correlation_matrix
from frislink.experiments import cmd_capacity, cmd_dist, cmd_outage, cmd_sweep_m
from frislink.montecarlo import CoherentMode, StaticMode

MINIMAL = {"geometry": {"m_x": 2, "m_z": 2, "w_x": 1.0, "w_z": 1.0}}


def tiny_doc(**overrides):
    doc = {
        "geometry": {
            "m_x": 4,
            "m_z": 4,
            "w_x": 1.5,
            "w_z": 1.5,
            "carrier_frequency_hz": 2.4e9,
        },
        "pathloss": {"rho": 1.0, "alpha": 2.0, "d_f": 1.0, "d_u": 1.0},
        "rate_target": 1.0,
        "snr_grid_db": [0.0, 10.0],
        "modes": [{"type": "static", "select_x": 2, "select_z": 2}],
        "trials": 3000,
        "seed": 9,
    }
    doc.update(overrides)
    return doc


def parse(doc):
    return parse_config(json.dumps(doc))


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse(MINIMAL)
        assert cfg.kernel == "spherical"
        assert cfg.trials == 100_000
        assert cfg.seed == 42
        assert cfg.rate_target == 0.1
        assert cfg.pathloss.rho == 10.0 and cfg.pathloss.alpha == 2.1
        assert cfg.snr_grid_db[0] == 0.0 and cfg.snr_grid_db[-1] == 40.0
        # default mode: full grid, zero phases
        assert len(cfg.modes) == 1
        mode = cfg.modes[0].mode
        assert isinstance(mode, StaticMode)
        assert np.array_equal(mode.selection, np.arange(4))
        assert np.all(mode.phases == 0.0)

    def test_wavelength_from_carrier(self):
        cfg = parse(MINIMAL)
        lam = cfg.geometry.wavelength
        assert lam == pytest.approx(2.99792458e8 / 2.4e9, rel=1e-15)
        assert lam == pytest.approx(0.125, rel=1e-3)  # nominal 2.4 GHz value

    def test_snr_grid_not_increasing(self):
        with pytest.raises(ConfigError, match="snr_grid_db"):
            parse(tiny_doc(snr_grid_db=[10, 10]))
        with pytest.raises(ConfigError, match="snr_grid_db"):
            parse(tiny_doc(snr_grid_db=[20, 10]))
        with pytest.raises(ConfigError, match="snr_grid_db"):
            parse(tiny_doc(snr_grid_db=[]))

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError, match="bogus_key"):
            parse(tiny_doc(bogus_key=1))
        doc = tiny_doc()
        doc["geometry"]["tilt"] = 3
        with pytest.raises(ConfigError, match="tilt"):
            parse(doc)

    def test_parse_error_has_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("{not json")

    def test_geometry_required(self):
        with pytest.raises(ConfigError, match="geometry"):
            parse_config("{}")

    def test_mode_validation(self):
        with pytest.raises(ConfigError, match="m_o"):
            parse(tiny_doc(modes=[{"type": "adaptive_fris", "m_o": 17}]))
        with pytest.raises(ConfigError, match="type"):
            parse(tiny_doc(modes=[{"type": "warp"}]))
        with pytest.raises(ConfigError, match="phases"):
            parse(
                tiny_doc(
                    modes=[
                        {
                            "type": "static",
                            "select_x": 2,
                            "select_z": 2,
                            "phases": [0.0, 1.0, 2.0, 7.0],
                        }
                    ]
                )
            )
        with pytest.raises(ConfigError, match="phases"):
            parse(
                tiny_doc(
                    modes=[
                        {
                            "type": "static",
                            "select_x": 2,
                            "select_z": 2,
                            "phases": [0.0, 1.0],
                        }
                    ]
                )
            )

    def test_seed_and_trials_validation(self):
        with pytest.raises(ConfigError, match="trials"):
            parse(tiny_doc(trials=0))
        with pytest.raises(ConfigError, match="seed"):
            parse(tiny_doc(seed=-1))

    def test_out_of_range_numbers(self):
        # Philox keys are 128 bits; larger seeds failed only inside the engine
        assert parse(tiny_doc(seed=2**128 - 1)).seed == 2**128 - 1
        with pytest.raises(ConfigError, match="seed"):
            parse(tiny_doc(seed=2**128))
        # integers beyond the float range overflowed float conversion
        with pytest.raises(ConfigError, match="rate_target"):
            parse(tiny_doc(rate_target=10**400))
        with pytest.raises(ConfigError, match=r"snr_grid_db\[1\]"):
            parse(tiny_doc(snr_grid_db=[0, 10**400]))
        doc = tiny_doc()
        doc["geometry"]["m_x"] = 2**70
        with pytest.raises(ConfigError, match="geometry"):
            parse(doc)
        # json refuses integer literals of more than 4300 digits
        with pytest.raises(ConfigError, match="parse error"):
            parse_config('{"geometry": {}, "trials": ' + "1" * 5000 + "}")

    def test_hash_stable_and_sensitive(self):
        a = parse(tiny_doc()).config_hash
        b = parse(tiny_doc()).config_hash
        c = parse(tiny_doc(seed=10)).config_hash
        assert a == b
        assert a != c

    def test_presets_all_valid(self):
        for name in PRESET_NAMES:
            cfg = parse(preset_config(name))
            assert cfg.geometry.m == 400
        fig2 = parse(preset_config("fig2"))
        mode = fig2.modes[0].mode
        assert isinstance(mode, StaticMode) and len(mode.selection) == 144
        fig3c = parse(preset_config("fig3c"))
        assert fig3c.m_grid == ((6, 6), (10, 10), (14, 14), (20, 20))
        with pytest.raises(ConfigError):
            preset_config("fig9")

    @pytest.mark.parametrize("m_rx,m_rz", [(3, 3), (4, 4), (6, 6), (2, 5)])
    def test_ris_baseline_is_a_coherent_mode_on_its_own_grid(self, m_rx, m_rz):
        # the parser alone picks each mode's grid: a RIS keeps every
        # element of its own grid over the aperture, the other modes sample
        # the full grid; the RIS's analytic block is its whole matrix
        doc = preset_config("fig3b")
        doc["modes"] = [
            {"type": "static", "select_x": 4, "select_z": 4},
            {"type": "adaptive_fris", "m_o": 16},
            {"type": "ris_baseline", "m_rx": m_rx, "m_rz": m_rz},
        ]
        cfg = parse(doc)
        static, fris, ris = cfg.modes
        assert static.grid == fris.grid == cfg.geometry
        assert fris.mode == CoherentMode(m_o=16)
        assert ris.label == f"ris({m_rx}x{m_rz})"
        assert ris.grid == cfg.geometry.regrid(m_rx, m_rz)
        assert ris.mode == CoherentMode(m_o=m_rx * m_rz)
        j = build_correlation_matrix(ris.grid, cfg.kernel)
        block = experiments_mod._analytic_block(ris, experiments_mod._correlations(cfg))
        assert np.array_equal(block, j)


class TestPublicNames:
    def test_package_reexports_each_module_all_once(self):
        # each public name is declared once, in its module's __all__
        modules = [
            getattr(frislink, m)
            for m in ("special", "correlation", "channel", "analysis", "montecarlo", "config", "experiments")
        ]
        declared = [(m, n) for m in modules for n in m.__all__]
        assert frislink.__all__ == [n for _, n in declared]
        assert len(set(frislink.__all__)) == len(declared)
        for module, name in declared:
            assert getattr(frislink, name) is getattr(module, name)


class TestDbConversion:
    def test_known_points(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-14)


class TestCmdDist:
    def test_single_element_matches_exponential(self, tmp_path):
        doc = tiny_doc(
            geometry={"m_x": 1, "m_z": 1, "w_x": 1.0, "w_z": 1.0},
            modes=[{"type": "static", "select_x": 1, "select_z": 1}],
            trials=2000,
        )
        out = tmp_path / "d.csv"
        cmd_dist(parse(doc), out)
        lines = out.read_text(encoding="utf-8").splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        assert any(ln.startswith("# k=") for ln in header)
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "g,analytical_pdf,analytical_cdf,empirical_cdf"
        rows = [ln.split(",") for ln in data[1:]]
        assert len(rows) == 200
        for g, _, cdf, _ in rows:
            assert float(cdf) == pytest.approx(1.0 - math.exp(-float(g)), abs=1e-12)

    def test_deterministic_bytes(self, tmp_path):
        cfg = parse(tiny_doc())
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cmd_dist(cfg, a)
        cmd_dist(cfg, b)
        assert a.read_bytes() == b.read_bytes()

    def test_requires_single_static_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="static"):
            cmd_dist(
                parse(tiny_doc(modes=[{"type": "adaptive_fris", "m_o": 4}])),
                tmp_path / "x.csv",
            )


class TestCmdOutage:
    def test_columns_and_monotonicity(self, tmp_path):
        doc = tiny_doc(
            snr_grid_db=[0.0, 10.0, 20.0, 30.0],
            modes=[
                {"type": "static", "select_x": 2, "select_z": 2},
                {"type": "adaptive_fris", "m_o": 4},
                {"type": "ris_baseline", "m_rx": 2, "m_rz": 2},
            ],
        )
        out = tmp_path / "o.csv"
        cmd_outage(parse(doc), out)
        lines = [
            ln for ln in out.read_text(encoding="utf-8").splitlines()
            if not ln.startswith("#")
        ]
        assert lines[0] == (
            "snr_db,mode,analytical_po,asymptotic_po,mc_outage,mc_stderr,hits,reliable"
        )
        by_mode = {}
        for ln in lines[1:]:
            cells = ln.split(",")
            by_mode.setdefault(cells[1], []).append(float(cells[2]))
        assert set(by_mode) == {"static(2x2)", "fris(Mo=4)", "ris(2x2)"}
        for values in by_mode.values():
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_joint_rows_equal_lone_runs(self, tmp_path):
        # the modes share each chunk's draw, yet every row is the one the
        # mode writes when it is configured alone
        modes = [
            {"type": "static", "select_x": 2, "select_z": 2},
            {"type": "ris_baseline", "m_rx": 2, "m_rz": 2},
            {"type": "adaptive_fris", "m_o": 4},
        ]

        def data_rows(mode_list, name):
            out = tmp_path / name
            cmd_outage(parse(tiny_doc(modes=mode_list)), out)
            lines = out.read_text(encoding="utf-8").splitlines()
            return [ln for ln in lines if not ln.startswith(("#", "snr_db"))]

        joint = data_rows(modes, "all.csv")
        alone = [row for i, m in enumerate(modes) for row in data_rows([m], f"{i}.csv")]
        assert sorted(joint) == sorted(alone) and len(joint) == 6

    @pytest.mark.parametrize("command", [cmd_outage, cmd_dist, cmd_capacity, cmd_sweep_m])
    def test_builds_each_grid_once(self, monkeypatch, tmp_path, command):
        # the analytic curves and the engine share each grid's matrix:
        # outage and capacity build the 4x4 grid and the RIS 2x2 grid,
        # dist the 4x4, and sweep-m the RIS 2x2 and each sweep grid
        import frislink.montecarlo as mc_mod

        built = []
        for module in (experiments_mod, mc_mod):
            real = module.build_correlation_matrix
            monkeypatch.setattr(
                module,
                "build_correlation_matrix",
                lambda g, k, real=real: built.append((g.m_x, g.m_z)) or real(g, k),
            )
        coherent = [
            {"type": "adaptive_fris", "m_o": 4},
            {"type": "ris_baseline", "m_rx": 2, "m_rz": 2},
        ]
        if command is cmd_sweep_m:
            doc = tiny_doc(modes=coherent, snr_grid_db=[10.0], m_grid=[[4, 4], [3, 3], [2, 2]])
            want = [(2, 2), (3, 3), (4, 4)]
        elif command is cmd_dist:
            doc = tiny_doc(modes=[{"type": "static", "select_x": 2, "select_z": 2}])
            want = [(4, 4)]
        else:
            doc = tiny_doc(modes=[{"type": "static", "select_x": 2, "select_z": 2}, *coherent])
            want = [(2, 2), (4, 4)]
        command(parse(doc), tmp_path / "x.csv")
        assert sorted(built) == want

    def test_reliability_flag_written(self, tmp_path):
        doc = tiny_doc(snr_grid_db=[0.0, 40.0], trials=500)
        out = tmp_path / "o.csv"
        cmd_outage(parse(doc), out)
        rows = [
            ln.split(",")
            for ln in out.read_text(encoding="utf-8").splitlines()
            if not ln.startswith("#") and "," in ln and not ln.startswith("snr_db")
        ]
        flags = {r[-1] for r in rows}
        assert flags <= {"true", "false"}


class TestCmdCapacity:
    def test_bound_dominates_static_mc(self, tmp_path):
        doc = tiny_doc(trials=4000)
        out = tmp_path / "c.csv"
        cmd_capacity(parse(doc), out)
        lines = [
            ln for ln in out.read_text(encoding="utf-8").splitlines()
            if not ln.startswith("#")
        ]
        assert lines[0] == (
            "snr_db,mode,jensen_bound,asymptotic_bound,mc_capacity,mc_stderr"
        )
        for ln in lines[1:]:
            cells = ln.split(",")
            bound, mc, se = float(cells[2]), float(cells[4]), float(cells[5])
            assert mc <= bound + 3.0 * se


class TestCmdSweepM:
    def test_structure_and_flat_baseline(self, tmp_path):
        doc = tiny_doc(
            snr_grid_db=[30.0],
            modes=[
                {"type": "adaptive_fris", "m_o": 4},
                {"type": "ris_baseline", "m_rx": 2, "m_rz": 2},
            ],
            m_grid=[[2, 2], [3, 3], [4, 4]],
            trials=3000,
        )
        out = tmp_path / "s.csv"
        cmd_sweep_m(parse(doc), out)
        text = out.read_text(encoding="utf-8")
        # the header states the rank tail and the rank each run samples
        assert "\n# rank_tail=1e-08\n" in text
        assert "\n# ranks=ris(2x2):4,fris(Mo=4)@2x2:4,fris(Mo=4)@3x3:9,fris(Mo=4)@4x4:16\n" in text
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert lines[0] == (
            "m_x,m_z,m,fris_capacity,fris_stderr,ris_capacity,ris_stderr"
        )
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 3
        fris = [float(r[3]) for r in rows]
        ris = {r[5] for r in rows}
        assert len(ris) == 1  # baseline column bit-identical across the sweep
        ses = [float(r[4]) for r in rows]
        assert fris[-1] >= fris[0] - 3.0 * (ses[0] + ses[-1])
        # densest grid with m_o = m degenerates to the all-on baseline of
        # the 2x2 grid: first row equals the ris column exactly
        assert rows[0][3] == rows[0][5]

    def test_requires_m_grid_and_single_snr(self, tmp_path):
        doc = tiny_doc(
            snr_grid_db=[30.0],
            modes=[{"type": "adaptive_fris", "m_o": 4}],
        )
        with pytest.raises(ConfigError, match="m_grid"):
            cmd_sweep_m(parse(doc), tmp_path / "x.csv")
        doc2 = tiny_doc(
            modes=[{"type": "adaptive_fris", "m_o": 4}],
            m_grid=[[2, 2]],
        )
        with pytest.raises(ConfigError, match="snr_grid_db"):
            cmd_sweep_m(parse(doc2), tmp_path / "y.csv")

    def test_checks_every_grid_before_running(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(
            experiments_mod, "run_many", lambda *a, **k: calls.append(a) or [np.ones(8)] * 4
        )
        doc = tiny_doc(
            snr_grid_db=[30.0],
            modes=[
                {"type": "adaptive_fris", "m_o": 9},
                {"type": "ris_baseline", "m_rx": 3, "m_rz": 3},
            ],
            m_grid=[[4, 4], [3, 3], [2, 2]],
        )
        with pytest.raises(ConfigError, match="2x2 has fewer than"):
            cmd_sweep_m(parse(doc), tmp_path / "z.csv")
        assert calls == []

    def test_rejects_a_static_mode(self, tmp_path, capsys):
        # the config hash covers every mode, so a static mode the sweep
        # cannot run is an error, not a silently dropped column
        doc = tiny_doc(
            geometry={"m_x": 10, "m_z": 10, "w_x": 1.5, "w_z": 1.5},
            snr_grid_db=[40.0],
            modes=[
                {"type": "adaptive_fris", "m_o": 36},
                {"type": "static", "select_x": 6, "select_z": 6},
            ],
            m_grid=[[6, 6], [10, 10]],
        )
        path, out = tmp_path / "cfg.json", tmp_path / "s.csv"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["sweep-m", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: sweep-m: ")
        assert "static" in err[0] and not out.exists()

    @pytest.mark.parametrize(
        "modes",
        [
            [{"type": "adaptive_fris", "m_o": 4}, {"type": "adaptive_fris", "m_o": 9}],
            [
                {"type": "adaptive_fris", "m_o": 4},
                {"type": "ris_baseline", "m_rx": 2, "m_rz": 2},
                {"type": "ris_baseline", "m_rx": 3, "m_rz": 3},
            ],
        ],
        ids=["two_adaptive", "two_baselines"],
    )
    def test_rejects_a_second_adaptive_or_baseline_mode(self, modes, tmp_path):
        doc = tiny_doc(snr_grid_db=[30.0], modes=modes, m_grid=[[4, 4]])
        with pytest.raises(
            ConfigError,
            match="exactly one adaptive_fris mode, at most one ris_baseline mode and no static",
        ):
            cmd_sweep_m(parse(doc), tmp_path / "x.csv")

    def test_non_square_m_o_needs_a_baseline(self, tmp_path):
        doc = tiny_doc(
            snr_grid_db=[30.0], modes=[{"type": "adaptive_fris", "m_o": 6}], m_grid=[[4, 4]]
        )
        with pytest.raises(ConfigError, match="ris_baseline mode required when m_o is not square"):
            cmd_sweep_m(parse(doc), tmp_path / "x.csv")
        doc["modes"].append({"type": "ris_baseline", "m_rx": 2, "m_rz": 3})
        out = tmp_path / "s.csv"
        cmd_sweep_m(parse(doc), out)
        assert "\n# ranks=ris(2x3):6,fris(Mo=6)@4x4:16\n" in out.read_text(encoding="utf-8")

    def test_adaptive_mode_on_every_element_beside_a_baseline(self, tmp_path):
        # an adaptive mode keeping all M' = 16 elements samples what the
        # 4x4 baseline does, yet it stays the sweep's adaptive mode
        doc = tiny_doc(
            snr_grid_db=[30.0],
            modes=[
                {"type": "adaptive_fris", "m_o": 16},
                {"type": "ris_baseline", "m_rx": 4, "m_rz": 4},
            ],
            m_grid=[[4, 4], [5, 5]],
        )
        out = tmp_path / "s.csv"
        cmd_sweep_m(parse(doc), out)
        text = out.read_text(encoding="utf-8")
        assert "\n# m_o=16\n" in text
        assert "\n# ranks=ris(4x4):16,fris(Mo=16)@4x4:16,fris(Mo=16)@5x5:25\n" in text
        rows = [ln.split(",") for ln in text.splitlines()[-2:]]
        assert rows[0][3] == rows[0][5]  # the 4x4 row: the same run twice

    def test_rejects_too_small_grid(self, tmp_path):
        doc = tiny_doc(
            snr_grid_db=[30.0],
            modes=[{"type": "adaptive_fris", "m_o": 9}],
            m_grid=[[2, 2]],
        )
        with pytest.raises(ConfigError, match="fewer than"):
            cmd_sweep_m(parse(doc), tmp_path / "z.csv")


class TestCli:
    def test_validate_preset(self, monkeypatch, capsys):
        assert main(["validate", "--preset", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "config_hash:" in out
        assert "20x20 elements" in out
        # the run's cost: the static mode factors its 144-element block,
        # which keeps r = 135 eigenpairs, and draws K + 1 exponentials a trial
        assert "\nrank_tail: 1e-08\n" in out
        assert "mode static(12x12): rank 135, clamped 9, weights 94, draws_per_trial 95" in out
        assert main(["validate", "--preset", "fig3c"]) == 0
        out = capsys.readouterr().out
        # a coherent run samples the first r = 112 of the 167, which carry
        # all but 1e-8 of the trace, and reads 4r normals a trial
        assert "mode ris(6x6): rank 36, clamped 0, normals_per_trial 144" in out
        assert "sweep 20x20: rank 112, clamped 233, normals_per_trial 448" in out
        # the coherent runs share one draw as wide as the largest rank's
        assert "\nshared normals_per_trial 448\n" in out
        import frislink.montecarlo as mc_mod

        def boom(j):
            raise np.linalg.LinAlgError("eigendecomposition failed")

        monkeypatch.setattr(mc_mod, "psd_sqrt", boom)
        assert main(["validate", "--preset", "fig2"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_validate_states_blas_pin(self, capsys):
        import frislink.montecarlo as mc_mod

        assert main(["validate", "--preset", "fig3b"]) == 0
        lines = capsys.readouterr().out.splitlines()
        if mc_mod._blas_controls() is not None:
            assert lines[-1] == "blas: pinned to 1 thread"
        else:
            assert lines[-1].startswith("blas: unpinned")

    @pytest.mark.parametrize("command, preset", [("dist", "fig2"), ("capacity", "fig3b")])
    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path, command, preset):
        # each run is a fresh interpreter, so OpenBLAS starts with the
        # environment's thread count, or the core count when it is unset
        src = os.path.dirname(os.path.dirname(frislink.__file__))
        digests = {}
        for threads in ("1", "2", None):
            env = {
                k: v
                for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
            }
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"{command}-{threads}.csv"
            subprocess.run(
                [
                    sys.executable, "-m", "frislink.cli", command, "--preset", preset,
                    "--trials", "1000", "--seed", "7", "--out", str(out),
                ],
                env=env, check=True, capture_output=True, timeout=300,
            )
            digests[threads] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert len(set(digests.values())) == 1, digests

    def test_validate_factors_each_grid_once(self, monkeypatch, capsys):
        # fig3c samples 20x20 (fris mode and sweep), 6x6 (ris mode and
        # sweep), 10x10 and 14x14; _grid_factor factors a coherent grid
        # through its parity classes
        import frislink.montecarlo as mc_mod

        sizes = []
        real_grid_factor = mc_mod._grid_factor

        def counting_grid_factor(grid, j):
            sizes.append(j.shape[0])
            return real_grid_factor(grid, j)

        monkeypatch.setattr(mc_mod, "_grid_factor", counting_grid_factor)
        assert main(["validate", "--preset", "fig3c"]) == 0
        assert sorted(sizes) == [36, 100, 196, 400]
        assert capsys.readouterr().out.count("rank 112, clamped 233") == 2

    def test_dist_factors_only_the_selection_block(self, monkeypatch, tmp_path):
        # fig2's static 12x12 selection of the 20x20 grid: the engine
        # factors the selection's 144 x 144 block, never the whole grid
        import frislink.montecarlo as mc_mod

        sizes = []
        real_psd_sqrt = mc_mod.psd_sqrt

        def counting_psd_sqrt(j):
            sizes.append(j.shape[0])
            return real_psd_sqrt(j)

        monkeypatch.setattr(mc_mod, "psd_sqrt", counting_psd_sqrt)
        argv = ["dist", "--preset", "fig2", "--trials", "256", "--out", str(tmp_path / "d.csv")]
        assert main(argv) == 0
        assert sizes == [144]

    def test_commands_never_import_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma, a sizeable import no command needs
        src = os.path.dirname(os.path.dirname(frislink.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import sys\n"
            "from frislink.cli import main\n"
            "assert main(['validate', '--preset', 'fig2']) == 0\n"
            "assert main(['outage', '--preset', 'fig3a', '--trials', '256', '--out', sys.argv[1]]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "o.csv")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_validate_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_doc()), encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 0

    def test_missing_source_is_config_error(self, capsys):
        assert main(["validate"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2

    def test_invalid_document(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_doc(snr_grid_db=[5, 5])), encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        assert "snr_grid_db" in capsys.readouterr().err

    def test_dist_end_to_end_reproducible(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_doc(trials=2000)), encoding="utf-8")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["dist", "--config", str(path), "--out", str(a)]) == 0
        assert main(["dist", "--config", str(path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert str(a) in capsys.readouterr().out

    def test_overrides_apply(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_doc(trials=2000)), encoding="utf-8")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["dist", "--config", str(path), "--out", str(a), "--seed", "1"]) == 0
        assert main(["dist", "--config", str(path), "--out", str(b), "--seed", "2"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_preset_with_overrides_runs(self, tmp_path):
        out = tmp_path / "fig3c.csv"
        code = main(
            ["sweep-m", "--preset", "fig3c", "--trials", "2000", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()

    def test_command_level_config_error(self, tmp_path, capsys):
        # outage preset lacks m_grid: sweep-m must exit 2, not crash
        assert main(["sweep-m", "--preset", "fig3a"]) == 2
        assert "m_grid" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, monkeypatch, tmp_path, capsys):
        import frislink.cli as cli_mod

        def boom(config, out_path, workers=1):
            raise np.linalg.LinAlgError("eigendecomposition failed")

        monkeypatch.setitem(cli_mod._COMMANDS, "dist", boom)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_doc(trials=100)), encoding="utf-8")
        assert main(["dist", "--config", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "phases, command, message",
        [
            (["a"], "validate", "phases[0]: must be a finite number, got 'a'"),
            ([[1.0]], "outage", "phases[0]: must be a finite number, got [1.0]"),
            ([True], "validate", "phases[0]: must be a finite number, got True"),
            ([6.5], "outage", "phases[0]: must lie in [0, 2pi), got 6.5"),
        ],
    )
    def test_malformed_phases_exit_2(self, tmp_path, capsys, phases, command, message):
        mode = {"type": "static", "select_x": 1, "select_z": 1, "phases": phases}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_doc(modes=[mode], trials=100)), encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert f"config error: modes[0].{message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, values, field",
        [
            (None, {"snr_grid_db": [-4000, 0]}, "snr_grid_db[0]"),
            (None, {"snr_grid_db": [0, 4000]}, "snr_grid_db[1]"),
            ("pathloss", {"alpha": 1000}, "snr_grid_db[0]"),
            ("pathloss", {"alpha": 2000, "d_f": 0.5}, "snr_grid_db[0]"),
            ("geometry", {"w_x": 1e308}, "geometry"),
            # 2 pi hypot(w_x, w_z) is finite, the kernel's argument in metres is not
            ("geometry", {"w_x": 1e307, "carrier_frequency_hz": 1e6}, "geometry"),
            (None, {"rate_target": 1e6}, "snr_grid_db[0]"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "outage", "capacity"])
    def test_budget_out_of_range_exits_2(
        self, monkeypatch, tmp_path, capsys, command, section, values, field
    ):
        # the parser rejects the budget or aperture: no trial runs and no file is left
        calls = []
        monkeypatch.setattr(experiments_mod, "run_many", lambda *a, **k: calls.append(a))
        doc = preset_config("fig3a")
        if section is None:
            doc.update(values)
        else:
            doc[section] = {**doc.get(section, {}), **values}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: {field}: ")
        assert calls == []
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_unwritable_output_exits_2(self, monkeypatch, tmp_path, capsys):
        # the output is opened before any trial runs
        calls = []
        monkeypatch.setattr(experiments_mod, "run_many", lambda *a, **k: calls.append(a))
        for out in (tmp_path / "absent" / "x.csv", tmp_path):  # a missing directory, a directory
            for command, preset in (
                ("outage", "fig3a"), ("dist", "fig2"), ("capacity", "fig3b"), ("sweep-m", "fig3c"),
            ):
                argv = [command, "--preset", preset, "--trials", "256", "--out", str(out)]
                assert main(argv) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                lines = captured.err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("output error: ")
                assert str(out) in lines[0]
        assert calls == []
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "failure", [FloatingPointError, OverflowError, np.linalg.LinAlgError, KeyboardInterrupt]
    )
    def test_failed_run_keeps_existing_output(self, monkeypatch, tmp_path, failure):
        # the output is written beside the path and moved onto it only
        # when complete, so a run that fails or is interrupted leaves a
        # file already at the path as it was, and nothing beside it
        def fail(*a, **k):
            raise failure("stopped")

        monkeypatch.setattr(experiments_mod, "run_many", fail)
        out = tmp_path / "x.csv"
        out.write_text("earlier result\n", encoding="utf-8")
        argv = ["outage", "--preset", "fig3a", "--trials", "256", "--out", str(out)]
        if failure is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == 3
        assert out.read_text(encoding="utf-8") == "earlier result\n"
        assert os.listdir(tmp_path) == ["x.csv"]

    def test_benchmark_tracer_installs(self):
        # perfbench/tracing.py wraps frislink functions by module attribute
        # (experiments.run_trials among them); one that is renamed away
        # fails here rather than in the benchmark's smoke check
        src = os.path.dirname(os.path.dirname(frislink.__file__))
        perfbench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, perfbench]))
        proc = subprocess.run(
            [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_argparse_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--config", "a", "--preset", "fig2"])
        assert exc.value.code == 2
