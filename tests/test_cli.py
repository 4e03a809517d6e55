import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from bulkgrow import experiments
from bulkgrow.assembly import Assembler
from bulkgrow.cli import main
from bulkgrow import stability as stability_module
from bulkgrow.errors import ConfigError, GeometryError, SolverError
from bulkgrow.experiments import (
    CONFIG_KEYS,
    load_config,
    parse_source,
    run_converge,
    run_regularization,
    run_simulate,
    run_stability,
    validate_config,
)
from bulkgrow.mesh import generate_disk_mesh, save_mesh
from bulkgrow.stepper import Stepper


def disk_config(tmp_path, **overrides):
    config = {
        "model": {"alpha": 1.0, "beta": 1.0, "mu": 0.0, "Q": "const:1.5"},
        "geometry": {"kind": "disk", "radii": [1.5], "h": 0.4},
        "discretization": {"k": 2, "q": 2, "tau": 2e-3, "T": 0.02},
        "run": {"kind": "simulate", "outputs": str(tmp_path / "out"),
                "seed": 0, "snapshots": 4},
    }
    for key, value in overrides.items():
        config[key].update(value)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSourceParsing:
    def test_constant_forms(self):
        for spec in (1.5, "const:1.5"):
            q = parse_source(spec)
            assert np.allclose(q(np.zeros((3, 2)), 0.0), 1.5)

    def test_expression(self):
        q = parse_source("expr:x*x + 0.5*t")
        pts = np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert np.allclose(q(pts, 2.0), [5.0, 2.0])

    def test_rejects_names(self):
        with pytest.raises(ConfigError):
            parse_source("expr:__import__('os')")
        with pytest.raises(ConfigError):
            parse_source("expr:q + 1")
        with pytest.raises(ConfigError):
            parse_source("sin(x)")

    def test_long_sum(self):
        # compile nests a sum of 5,000 terms past the recursion limit.
        q = parse_source("expr:" + "+".join(["x"] * 1000))
        assert np.allclose(q(np.ones((2, 3)), 0.0), 1000.0)
        with pytest.raises(ConfigError, match="does not parse"):
            parse_source("expr:" + "+".join(["x"] * 5000))


class TestConfigValidation:
    def test_missing_section(self, tmp_path):
        config = disk_config(tmp_path)
        del config["model"]
        with pytest.raises(ConfigError):
            validate_config(config)

    def test_bad_kind(self, tmp_path):
        config = disk_config(tmp_path)
        config["run"]["kind"] = "explode"
        with pytest.raises(ConfigError):
            validate_config(config)

    def test_bad_tau(self, tmp_path):
        config = disk_config(tmp_path)
        config["discretization"]["tau"] = 0.0
        with pytest.raises(ConfigError):
            validate_config(config)

    def test_final_time_is_whole_steps(self, tmp_path):
        # Roundoff in T / tau is accepted: 0.2 / 4e-3 = 50.00000000000001.
        validate_config(disk_config(tmp_path, discretization={"tau": 4e-3, "T": 0.2}))
        # Every converge time step must divide T.
        converge = {"kind": "converge", "tau_levels": [4e-3, 3e-3]}
        with pytest.raises(ConfigError, match="whole number of time steps"):
            validate_config(disk_config(tmp_path, run=converge))
        # Stability sweeps do not time-step.
        validate_config(disk_config(tmp_path, run={"kind": "stability"},
                                    discretization={"T": 0.021}))

    def test_bad_seed_mode(self, tmp_path):
        config = disk_config(tmp_path, run={"seed_mode": "exact"})
        with pytest.raises(ConfigError, match="seed_mode"):
            validate_config(config)

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


class TestSimulate:
    def test_oracle_run_tracks_radius(self, tmp_path):
        config = disk_config(tmp_path)
        outdir = run_simulate(config, str(tmp_path / "out"))
        rows = read_csv(tmp_path / "out" / "diagnostics.csv")
        assert len(rows) >= 2
        # Radius column follows the closed-form solution.
        from bulkgrow.oracle import RadialOracle

        oracle = RadialOracle(dim_m=1, initial_radius=1.5, source=1.5,
                              alpha=1.0, beta=1.0)
        last = rows[-1]
        expected = oracle.radius(float(last["time"]))
        assert abs(float(last["mean_radius"]) - expected) < 5e-3
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["version"]
        assert manifest["mesh"]["n_nodes"] > 0

    def test_t_zero_writes_initial_snapshot_only(self, tmp_path):
        config = disk_config(tmp_path, discretization={"T": 0.0})
        run_simulate(config, str(tmp_path / "out0"))
        rows = read_csv(tmp_path / "out0" / "diagnostics.csv")
        assert len(rows) == 1
        assert (tmp_path / "out0" / "snapshot_0000.vtk").exists()
        assert not (tmp_path / "out0" / "snapshot_0001.vtk").exists()

    def test_deterministic_outputs(self, tmp_path):
        config = disk_config(tmp_path)
        run_simulate(config, str(tmp_path / "a"))
        run_simulate(config, str(tmp_path / "b"))
        assert (tmp_path / "a" / "diagnostics.csv").read_bytes() == (
            tmp_path / "b" / "diagnostics.csv"
        ).read_bytes()

    def test_bootstrap_seeding_on_ellipse_like_setup(self, tmp_path):
        # The disk has a closed form for any mu, so auto would take the oracle.
        config = disk_config(tmp_path, model={"mu": 0.1},
                             discretization={"T": 0.01, "tau": 2e-3},
                             run={"seed_mode": "bootstrap"})
        run_simulate(config, str(tmp_path / "boot"))
        rows = read_csv(tmp_path / "boot" / "diagnostics.csv")
        assert len(rows) >= 2


class TestConverge:
    def test_small_grid_with_eoc(self, tmp_path):
        config = disk_config(
            tmp_path,
            discretization={"tau": 1e-3, "T": 0.01},
            run={"kind": "converge", "h_levels": [0.5, 0.25],
                 "tau_levels": [1e-3], "error_samples": 5},
        )
        rows = run_converge(config, str(tmp_path / "conv"))
        assert len(rows) == 2
        table = read_csv(tmp_path / "conv" / "converge.csv")
        assert table[0]["eoc_h_u"] == ""
        assert float(table[1]["eoc_h_u"]) > 1.0  # refinement helps
        manifest = json.loads((tmp_path / "conv" / "manifest.json").read_text())
        assert manifest["aborted"] is None

    def test_row_errors_are_sample_maxima(self, tmp_path, monkeypatch):
        # The quantities peak at different samples: the first, a middle
        # one and the last.
        samples = iter([
            {"u": 3.0, "x": 1.0, "v": 0.5, "nu": 2.0, "H": 0.0},
            {"u": 1.0, "x": 4.0, "v": 0.25, "nu": 2.0, "H": 0.0},
            {"u": 2.0, "x": 0.5, "v": 0.75, "nu": 1.0, "H": 0.0},
        ])
        monkeypatch.setattr(experiments, "oracle_errors", lambda *args: next(samples))
        config = disk_config(tmp_path, discretization={"tau": 2e-3, "T": 6e-3},
                             run={"kind": "converge", "error_samples": 3})
        row = experiments.run_convergence_cell(config)
        assert next(samples, None) is None  # one sample per step
        assert {q: row[f"err_{q}"] for q in ("u", "x", "v", "nu", "H")} == {
            "u": 3.0, "x": 4.0, "v": 0.75, "nu": 2.0, "H": 0.0}

    def test_worker_pool_matches_serial(self, tmp_path, monkeypatch):
        config = disk_config(
            tmp_path,
            discretization={"tau": 2e-3, "T": 0.01},
            run={"kind": "converge", "h_levels": [0.5, 0.25],
                 "tau_levels": [2e-3, 1e-3], "error_samples": 3},
        )
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("BULKGROW_THREADS", threads)
            outdir = tmp_path / f"threads{threads}"
            run_converge(config, str(outdir))
            outputs[threads] = (outdir / "converge.csv").read_bytes()
        assert outputs["2"] == outputs["1"]

    def test_worker_pool_capped_at_cell_count(self, tmp_path, monkeypatch):
        pools = []

        class RecordingPool:
            """Records its worker count and maps in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("BULKGROW_THREADS", "5000")
        for h_levels in ([0.5, 0.25], [0.5]):
            config = disk_config(
                tmp_path,
                discretization={"tau": 2e-3, "T": 0.004},
                run={"kind": "converge", "h_levels": h_levels,
                     "tau_levels": [2e-3], "error_samples": 1},
            )
            run_converge(config, str(tmp_path / f"conv{len(h_levels)}"))
        assert pools == [2]  # two cells, two workers; one cell runs serially

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failure_names_its_cell(self, tmp_path, monkeypatch, capsys, threads):
        config = self.failing_third_cell(tmp_path, monkeypatch, threads)
        assert main(["converge", str(write_config(tmp_path, config))]) == 3
        where = "cell h=0.5, tau=0.001: element 0: step 3 (position_update): tangled"
        assert capsys.readouterr().err == f"numerical failure: {where}\n"
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["aborted"] == where

    def test_requires_oracle_compatible_setup(self, tmp_path):
        config = disk_config(tmp_path, model={"Q": "expr:1.5+0.1*x"},
                             run={"kind": "converge"})
        with pytest.raises(ConfigError):
            run_converge(config, str(tmp_path / "conv2"))

    @staticmethod
    def failing_third_cell(tmp_path, monkeypatch, threads):
        """The config of a three-cell study whose third cell (tau = 1e-3)
        fails at its third step."""
        original = Stepper.step

        def failing_step(self, history):
            if self.tau == 1e-3 and self.step_count == 2:
                raise GeometryError("step 3 (position_update): tangled", element=0)
            return original(self, history)

        monkeypatch.setattr(Stepper, "step", failing_step)
        monkeypatch.setenv("BULKGROW_THREADS", threads)
        return disk_config(
            tmp_path,
            run={"kind": "converge", "h_levels": [0.5],
                 "tau_levels": [4e-3, 2e-3, 1e-3], "error_samples": 2},
        )

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_numerical_failure_flushes(self, tmp_path, monkeypatch, threads):
        # The other two cells finish, and their rows and an aborted manifest
        # are written.
        config = self.failing_third_cell(tmp_path, monkeypatch, threads)
        assert main(["converge", str(write_config(tmp_path, config))]) == 3
        out = tmp_path / "out"
        rows = read_csv(out / "converge.csv")
        assert [float(r["tau"]) for r in rows] == [4e-3, 2e-3]
        assert rows[0]["eoc_tau_u"] == "" and float(rows[1]["eoc_tau_u"]) > 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "tangled" in manifest["aborted"]
        assert manifest["mesh"]["n_nodes"] > 0

    def test_accepts_surface_diffusion(self, tmp_path):
        # On the sphere Delta_Gamma u = 0, so the radial solution holds for mu > 0.
        config = disk_config(
            tmp_path, model={"mu": 0.5}, discretization={"T": 0.004},
            run={"kind": "converge", "h_levels": [0.5], "error_samples": 1},
        )
        rows = run_converge(config, str(tmp_path / "conv"))
        assert rows[0]["err_u"] < 1e-2


class TestStability:
    def test_sweep_files(self, tmp_path):
        config = disk_config(
            tmp_path,
            discretization={"k": 1},
            run={"kind": "stability", "levels": 2, "samples": 4,
                 "seed": 3, "mode": "both", "boost_iters": 4},
        )
        results = run_stability(config, str(tmp_path / "stab"))
        assert set(results) == {"dirichlet", "robin"}
        for mode in results:
            table = read_csv(tmp_path / "stab" / f"stability_{mode}.csv")
            assert len(table) == 2
            assert set(table[0]) == {
                "level", "h", "N", "N_Gamma", "max_ratio", "argmax_seed"
            }

    def test_modes_share_each_level_assembly(self, tmp_path, monkeypatch):
        calls = []
        original = Assembler.system

        def counted(self, positions=None):
            calls.append(self.mesh.n_nodes)
            return original(self, positions)

        monkeypatch.setattr(Assembler, "system", counted)
        config = disk_config(
            tmp_path,
            discretization={"k": 1},
            run={"kind": "stability", "levels": 2, "samples": 2,
                 "seed": 0, "mode": "both", "boost_iters": 0},
        )
        run_stability(config, str(tmp_path / "stab"))
        assert len(calls) == 2 and calls[0] < calls[1]  # one per level

    def test_numerical_failure_flushes(self, tmp_path, monkeypatch):
        # Level 1 of the first mode fails: level 0's row and an aborted
        # manifest are written, the second mode does not run.
        original = stability_module._level_row

        def failing_level(level, *args):
            if level == 1:
                raise SolverError("forced at level 1")
            return original(level, *args)

        monkeypatch.setattr(stability_module, "_level_row", failing_level)
        config = disk_config(
            tmp_path,
            discretization={"k": 1},
            run={"kind": "stability", "levels": 3, "samples": 2,
                 "seed": 0, "mode": "both", "boost_iters": 0},
        )
        assert main(["stability", str(write_config(tmp_path, config))]) == 3
        out = tmp_path / "out"
        rows = read_csv(out / "stability_dirichlet.csv")
        assert [int(r["level"]) for r in rows] == [0]
        assert not (out / "stability_robin.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "forced at level 1" in manifest["aborted"]
        assert manifest["seed"] == 0

    def test_failure_names_its_level_and_mode(self, tmp_path, monkeypatch):
        original = stability_module._level_row

        def failing_level(level, mesh, matrices, mode, *args):
            if level == 1 and mode == "robin":
                raise SolverError("forced", residual=1.0)
            return original(level, mesh, matrices, mode, *args)

        monkeypatch.setattr(stability_module, "_level_row", failing_level)
        config = disk_config(
            tmp_path,
            discretization={"k": 1},
            run={"kind": "stability", "levels": 2, "samples": 2,
                 "seed": 0, "mode": "both", "boost_iters": 0},
        )
        with pytest.raises(SolverError) as info:
            run_stability(config, str(tmp_path / "stab"))
        assert str(info.value) == "level 1 (robin): forced (relative residual 1.000e+00)"
        assert info.value.residual == 1.0

    def stability_config(self, tmp_path):
        config = disk_config(
            tmp_path,
            geometry={"radii": [1.0]},
            run={"kind": "stability", "levels": 1, "samples": 2, "mode": "dirichlet",
                 "boost_iters": 0},
        )
        del config["run"]["snapshots"]
        return config

    def test_default_degree_matches_other_runs(self, tmp_path):
        config = self.stability_config(tmp_path)
        del config["discretization"]["k"]
        assert main(["stability", str(write_config(tmp_path, config))]) == 0
        table = read_csv(tmp_path / "out" / "stability_dirichlet.csv")
        # The P2 disk of radius 1 at h = 0.4, as every other run kind meshes it.
        assert int(table[0]["N"]) == generate_disk_mesh(1.0, 0.4, degree=2).n_nodes == 127

    def test_needs_no_time_step(self, tmp_path):
        config = self.stability_config(tmp_path)
        del config["discretization"]["tau"]
        del config["discretization"]["T"]
        assert main(["stability", str(write_config(tmp_path, config))]) == 0
        assert (tmp_path / "out" / "stability_dirichlet.csv").exists()


class TestRegularization:
    def test_mu_zero_baseline_and_duplicates(self, tmp_path):
        config = disk_config(
            tmp_path,
            discretization={"tau": 2e-3, "T": 0.01},
            run={"kind": "regularization", "mu_values": [0.0, 0.1, 0.1],
                 "snapshots": 2},
        )
        rows = run_regularization(config, str(tmp_path / "reg"))
        zero_rows = [r for r in rows if r["mu"] == 0.0]
        assert all(r["max_boundary_displacement_vs_mu0"] == 0.0 for r in zero_rows)
        taken = [r for r in rows if r["mu"] == 0.1]
        # Duplicated mu values give identical columns.
        half = len(taken) // 2
        for a, b in zip(taken[:half], taken[half:]):
            assert a["max_boundary_displacement_vs_mu0"] == pytest.approx(
                b["max_boundary_displacement_vs_mu0"], rel=1e-12
            )
        # The regularization has a finite, small effect.
        assert all(np.isfinite(r["max_boundary_displacement_vs_mu0"]) for r in rows)

    def test_baseline_runs_when_not_listed(self, tmp_path):
        config = disk_config(
            tmp_path,
            discretization={"tau": 2e-3, "T": 0.01},
            run={"kind": "regularization", "mu_values": [0.1], "snapshots": 2},
        )
        rows = run_regularization(config, str(tmp_path / "reg"))
        n = len(rows) // 2
        assert n > 0 and [r["mu"] for r in rows] == [0.0] * n + [0.1] * n
        assert all(r["max_boundary_displacement_vs_mu0"] == 0.0 for r in rows[:n])
        assert all(r["max_boundary_displacement_vs_mu0"] > 0.0 for r in rows[n:])

    @pytest.mark.parametrize("failing_mu, flushed", [(0.1, [0.0] * 5 + [0.1]),
                                                     (0.0, [])])
    def test_numerical_failure_flushes(self, tmp_path, monkeypatch, failing_mu, flushed):
        original = Stepper.step

        # step_count counts the BDF1 start step of the q = 2 bootstrap, so
        # step 4 is the third step of the run's time loop.
        def failing_step(self, history):
            if self.params.mu == failing_mu and self.step_count == 3:
                self.step_count += 1
                raise GeometryError("step 4 (position_update): tangled", element=0)
            return original(self, history)

        monkeypatch.setattr(Stepper, "step", failing_step)
        config = disk_config(
            tmp_path,
            run={"kind": "regularization", "mu_values": [0.0, 0.1], "snapshots": 5},
        )
        assert main(["simulate", str(write_config(tmp_path, config))]) == 3
        # The baseline's five samples and the failing run's one before its
        # third step; nothing to compare with when the baseline fails.
        rows = read_csv(tmp_path / "out" / "regularization.csv")
        assert [float(r["mu"]) for r in rows] == flushed
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "tangled" in manifest["aborted"]

    def test_failing_seed_names_mu_and_stage(self, tmp_path, capsys):
        # At alpha = 1e-6 the Robin matrix is too ill-conditioned for the
        # 1e-11 solve contract, so the baseline's seed solve fails.
        config = disk_config(
            tmp_path,
            model={"alpha": 1e-6},
            geometry={"h": 0.5},
            discretization={"tau": 0.01, "T": 0.02},
            run={"kind": "regularization", "mu_values": [0.0, 0.1]},
        )
        assert main(["simulate", str(write_config(tmp_path, config))]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: mu=0: seed (robin_solve, t=0): PCG")
        assert err.count("\n") == 1, err
        with pytest.raises(SolverError) as info:
            run_regularization(config, str(tmp_path / "reg"))
        assert info.value.residual > 1e-11

    def test_failing_seed_flushes_the_baseline(self, tmp_path, monkeypatch):
        # Each run is seeded after the output directory exists, so a seed
        # that fails writes the baseline's rows and an aborted manifest.
        original = experiments.initial_state

        def failing_initial_state(stepper, normal, curvature):
            if stepper.params.mu == 0.1:
                raise SolverError("seed Robin solve failed", residual=1.0)
            return original(stepper, normal, curvature)

        monkeypatch.setattr(experiments, "initial_state", failing_initial_state)
        config = disk_config(
            tmp_path,
            run={"kind": "regularization", "mu_values": [0.0, 0.1], "snapshots": 5},
        )
        assert main(["simulate", str(write_config(tmp_path, config))]) == 3
        rows = read_csv(tmp_path / "out" / "regularization.csv")
        assert [float(r["mu"]) for r in rows] == [0.0] * 5
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "seed Robin solve failed" in manifest["aborted"]


class TestCliEntry:
    def test_mesh_gen_info_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "disk.bsm"
        code = main(["mesh", "gen", "disk", "--radius", "1.0", "--h", "0.4",
                     "--degree", "2", "-o", str(out)])
        assert code == 0
        assert out.exists()
        capsys.readouterr()  # drop the gen report
        code = main(["mesh", "info", str(out)])
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["n_boundary"] > 0

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"model": {}})
        assert main(["simulate", str(path)]) == 2

    def test_simulate_via_cli(self, tmp_path):
        config = disk_config(tmp_path, discretization={"T": 0.004})
        path = write_config(tmp_path, config)
        assert main(["simulate", str(path)]) == 0
        assert (tmp_path / "out" / "diagnostics.csv").exists()

    def test_exploding_source_aborts(self, tmp_path, capsys):
        # Finite at t = 0, so the config is valid; infinite at the second
        # step, t = 0.002, where the run stops with a numerical failure.
        config = disk_config(tmp_path, model={"Q": "expr:1/(t-0.002)"},
                             discretization={"q": 1, "tau": 1e-3, "T": 0.004})
        assert main(["simulate", str(write_config(tmp_path, config))]) == 3
        err = capsys.readouterr().err
        assert "step 2 (robin_solve, t=0.002)" in err and "not finite" in err
        assert "Traceback" not in err
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "source Q is not finite" in manifest["aborted"]
        times = [float(row["time"]) for row in read_csv(out / "diagnostics.csv")]
        assert times[-1] == pytest.approx(1e-3)  # the last good state, flushed

    @pytest.mark.parametrize("overrides", [
        {"model": {"alpha": 1e300}},
        # delta_0 / tau scales the first start step's surface pencil.
        {"discretization": {"tau": 1e-300, "T": 0.0}, "run": {"seed_mode": "bootstrap"}},
        # The start step's velocity, and so its harmonic residual, passes float32.
        {"model": {"Q": 1e30}, "run": {"kind": "regularization", "mu_values": [0.1]}},
    ], ids=["alpha", "tau-bootstrap", "Q-regularization"])
    def test_values_past_float32_fail_in_one_line(self, tmp_path, capsys, overrides):
        config = disk_config(tmp_path, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(write_config(tmp_path, config))]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, err

    def test_failing_start_step_reports_its_number(self, tmp_path, capsys):
        # No closed form for this Q, so q = 3 starts with two steps on the
        # run's stepper; the second one, at t = 0.002, meets the pole.
        config = disk_config(tmp_path, model={"Q": "expr:1/(t-0.002)"},
                             discretization={"q": 3, "tau": 1e-3, "T": 0.004})
        assert main(["simulate", str(write_config(tmp_path, config))]) == 3
        err = capsys.readouterr().err
        assert "step 2 (robin_solve, t=0.002)" in err and "not finite" in err
        assert "Traceback" not in err
        # The start steps run inside the run's flush path: the first start
        # step's state is the last good one, written once.
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "step 2 (robin_solve, t=0.002)" in manifest["aborted"]
        times = [float(row["time"]) for row in read_csv(out / "diagnostics.csv")]
        assert times == pytest.approx([1e-3])
        assert (out / "snapshot_0000.vtk").exists()

    @pytest.mark.parametrize("overrides", [
        {"discretization": {"q": "2"}},
        {"discretization": {"q": 2.5}},
        {"discretization": {"tau": "abc"}},
        {"discretization": {"T": None}},
        # T must be a whole number of steps, not rounded to one.
        {"discretization": {"T": 0.0015, "tau": 1e-3}},
        {"discretization": {"T": 0.0104, "tau": 1e-3}},
        {"discretization": {"T": 1e-300, "tau": 1e-3}},  # positive, but less than a step
        {"model": {"alpha": -1}},
        {"model": {"beta": 0}},
        {"model": {"mu": "x"}},
        {"model": {"Q": "expr:9**9**9"}},
        {"model": {"Q": "expr:x+"}},
        {"model": {"Q": "expr:1/x"}},
        {"model": {"Q": "expr:1/(x-1.5)"}},  # infinite at the boundary point (1.5, 0)
        {"geometry": {"h": "abc"}},
        {"geometry": {"h": 2.0}},
        {"geometry": {"radii": ["1.5"]}},
        {"geometry": {"kind": "file", "path": "disk.bsm"}, "run": {"kind": "stability"}},
        {"run": {"snapshots": "many"}},
        {"run": {"seed": -1}},
        {"run": {"mode": "neumann"}},
        {"run": {"error_samples": 0}},
        {"run": {"tau_levels": [1e-3, 0]}},
        {"run": {"snapshot": 3}},  # unknown keys: misspelled snapshots, seed_mode
        {"run": {"seedmode": "oracle"}},
        {"geometry": {"kind": "disk", "radii": [1.5, 3.0]}},  # a disk has one radius
        {"geometry": {"radii": [1.5, 1.5], "kind": "ball"}},  # a ball has one or three
        {"model": {"Q": "expr:" + "+".join(["x"] * 5000)}},  # nests too deep to compile
    ], ids=lambda overrides: "-".join(
        f"{section}.{key}" for section, fields in overrides.items() for key in fields))
    def test_malformed_config_exit_code(self, tmp_path, overrides):
        path = write_config(tmp_path, disk_config(tmp_path, **overrides))
        assert main(["simulate", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, run_kind, geometry", [
        ("simulate", "converge", "disk"),
        ("simulate", "stability", "disk"),
        ("converge", "simulate", "disk"),
        ("converge", "regularization", "disk"),
        ("converge", "stability", "disk"),
        ("stability", "simulate", "disk"),
        ("stability", "simulate", "file"),
        ("stability", "regularization", "disk"),
        ("stability", "converge", "disk"),
    ])
    def test_subcommand_must_match_run_kind(self, tmp_path, command, run_kind, geometry):
        config = disk_config(tmp_path, run={"kind": run_kind})
        if geometry == "file":
            config["geometry"] = {"kind": "file", "path": "disk.bsm"}
        validate_config(config)  # valid on its own; only the subcommand is wrong
        path = write_config(tmp_path, config)
        assert main([command, str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_numerical_failure_keeps_type_and_flushes(self, tmp_path, monkeypatch):
        original = Stepper.step

        def failing_step(self, history):
            if self.step_count == 2:
                self.step_count += 1
                raise GeometryError("step 3 (position_update): tangled", element=0)
            return original(self, history)

        monkeypatch.setattr(Stepper, "step", failing_step)
        config = disk_config(tmp_path)
        outdir = tmp_path / "out"
        with pytest.raises(GeometryError, match="step 3 \\(position_update\\)"):
            run_simulate(config, str(outdir))
        rows = read_csv(outdir / "diagnostics.csv")
        # The seed (t = tau) and step 2's snapshot, which is the last good
        # state: it is not written twice.
        assert [float(r["time"]) for r in rows] == pytest.approx([2e-3, 6e-3])
        assert (outdir / "snapshot_0001.vtk").exists()
        assert not (outdir / "snapshot_0002.vtk").exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert "tangled" in manifest["aborted"]

    def test_collapsing_oracle_seed_is_numerical(self, tmp_path):
        # Q < 0 shrinks the disk to nothing before the second seed time
        # t = tau: R(t) = 3.5 exp(-t/2) - 2 < 0 at t = 1.5.
        config = disk_config(tmp_path, model={"Q": -1.0},
                             discretization={"tau": 1.5, "T": 3.0},
                             run={"seed_mode": "oracle"})
        assert main(["simulate", str(write_config(tmp_path, config))]) == 3
        assert not (tmp_path / "out").exists()

    def test_converge_without_steps_is_config_error(self, tmp_path):
        # A convergence cell samples errors on its steps, so T = 0 has none.
        config = disk_config(tmp_path, discretization={"T": 0.0},
                             run={"kind": "converge"})
        assert main(["converge", str(write_config(tmp_path, config))]) == 2
        assert not (tmp_path / "out").exists()

    def test_converge_on_ellipsoid_leaves_no_outdir(self, tmp_path):
        config = disk_config(
            tmp_path,
            geometry={"kind": "ellipsoid", "radii": [1.0, 0.8, 0.9], "h": 0.5},
            run={"kind": "converge"},
        )
        assert main(["converge", str(write_config(tmp_path, config))]) == 2
        assert not (tmp_path / "out").exists()

    def test_missing_outdir(self, tmp_path):
        config = disk_config(tmp_path)
        del config["run"]["outputs"]
        path = write_config(tmp_path, config)
        assert main(["simulate", str(path)]) == 2


def assert_config_error(capsys):
    """One ``configuration error`` line on stderr, nothing else."""
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err
    return err


class TestBadInputs:
    """Bad mesh arguments, mesh files and output paths exit 2 with one line."""

    @pytest.mark.parametrize("args", [
        ["disk", "--radius", "1", "--h", "2"],
        ["disk", "--h", "-0.5", "--radius", "1"],
        ["ellipsoid", "--radii", "1", "1", "-1", "--h", "0.5"],
        ["disk", "--radius", "inf", "--h", "0.5"],
        ["ball", "--radius", "1", "--h", "nan"],
        ["ellipsoid", "--radii", "1", "1", "inf", "--h", "0.5"],
        ["disk", "--radius", "1", "--h", "0.0002"],  # over the node cap
        ["ball", "--radius", "1", "--h", "1e-300"],
        ["disk", "--h", "0.5"],  # no radius
        ["ball", "--h", "0.5"],
        ["ellipsoid", "--h", "0.5"],
        # A ball takes --radius, an ellipsoid --radii.
        ["ball", "--radii", "1", "1", "1", "--h", "0.5"],
        ["ellipsoid", "--radius", "1", "--h", "0.5"],
    ])
    def test_mesh_gen_arguments(self, tmp_path, capsys, args):
        out = tmp_path / "mesh.bsm"
        assert main(["mesh", "gen", *args, "-o", str(out)]) == 2
        assert_config_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command, overrides", [
        ("simulate", {"geometry": {"radii": [1e300], "h": 1e-10}}),
        ("converge", {"run": {"kind": "converge", "h_levels": [0.4, 1e-4]}}),
        ("stability", {"run": {"kind": "stability", "levels": 12}}),
    ], ids=["simulate", "converge", "stability"])
    def test_mesh_over_the_node_cap(self, tmp_path, capsys, command, overrides):
        # Every mesh the run would generate is checked before any is built.
        config = disk_config(tmp_path, **overrides)
        assert main([command, str(write_config(tmp_path, config))]) == 2
        assert_config_error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("geometry", [
        {"kind": "disk", "radius": 1.5, "h": 0.4},
        {"kind": "disk", "radii": 1.5, "h": 0.4},
        {"kind": "ball", "radii": [1.0, 1.0, 1.0], "h": 0.5},
        {"kind": "ellipsoid", "radii": [1.0], "h": 0.5},
    ], ids=["radius", "bare-number-radii", "ball-with-three-radii",
            "ellipsoid-with-one-radius"])
    def test_geometry_takes_radii_as_a_list_of_its_count(self, tmp_path, capsys, geometry):
        config = disk_config(tmp_path)
        config["geometry"] = geometry
        assert main(["simulate", str(write_config(tmp_path, config))]) == 2
        assert_config_error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, overrides", [
        ("simulate", {"discretization": {"T": 1e300, "tau": 1e-3}}),
        ("stability", {"run": {"kind": "stability", "samples": 10**30}}),
        ("stability", {"run": {"kind": "stability", "boost_iters": 10**9}}),
    ], ids=["steps", "samples", "boost_iters"])
    def test_count_over_its_budget(self, tmp_path, capsys, command, overrides):
        # Each would run for ages, or fail to allocate, after making out/.
        config = disk_config(tmp_path, **overrides)
        assert main([command, str(write_config(tmp_path, config))]) == 2
        assert "over the budget of" in assert_config_error(capsys)
        assert not (tmp_path / "out").exists()

    # Each edited row of the P1 disk file: (line, text, message).
    BAD_ROWS = {
        "malformed": (5, "0.5 abc", "non-numeric coordinate"),  # the third node row
        "nan": (5, "nan 0.5", "non-finite coordinate"),
        "inf": (5, "0.5 inf", "non-finite coordinate"),
        "1e400": (5, "1e400 0.5", "non-finite coordinate"),
        "past-int64": (41, "0 1 99999999999999999999999", "node index out of range"),
    }
    BAD_FILES = ["missing", "directory", *BAD_ROWS]

    @classmethod
    def bad_mesh_file(cls, tmp_path, case):
        if case == "missing":
            return tmp_path / "missing.bsm"
        if case == "directory":
            return tmp_path
        path = tmp_path / "bad.bsm"
        save_mesh(generate_disk_mesh(1.0, 0.4), path)
        lines = path.read_text().splitlines()
        assert lines[39] == "ELEMENTS"  # line 40, so line 41 is the first element row
        line, text, _ = cls.BAD_ROWS[case]
        lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def assert_names_the_row(cls, err, case):
        if case in cls.BAD_ROWS:
            line, _, message = cls.BAD_ROWS[case]
            assert err == f"configuration error: line {line}: {message}\n"

    @pytest.mark.parametrize("case", BAD_FILES)
    def test_mesh_info_of_a_bad_file(self, tmp_path, capsys, case):
        assert main(["mesh", "info", str(self.bad_mesh_file(tmp_path, case))]) == 2
        self.assert_names_the_row(assert_config_error(capsys), case)

    @pytest.mark.parametrize("case", BAD_FILES)
    def test_simulate_on_a_bad_file(self, tmp_path, capsys, case):
        config = disk_config(tmp_path)
        config["geometry"] = {"kind": "file", "path": str(self.bad_mesh_file(tmp_path, case))}
        assert main(["simulate", str(write_config(tmp_path, config))]) == 2
        self.assert_names_the_row(assert_config_error(capsys), case)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"model": {"Q": [1]}}, "cannot parse source term [1]"),
        ({"model": {"Q": "const:abc"}}, "bad constant source 'const:abc'"),
        ({"model": {"Q": "expr:x(1)"}}, "source expression does not evaluate: "),
        ({"geometry": {"radii": None}}, "geometry.radii must be a list: one radius"),
        ({"geometry": {"kind": "ellipsoid", "radii": [1.0, 0.8, 0.9], "h": 0.5},
          "run": {"seed_mode": "oracle"}},
         "run.seed_mode=oracle requires sphere data and constant Q"),
        # JSON integers past the float range, which float() cannot convert.
        ({"model": {"alpha": 10**400}}, "model.alpha must be a positive number"),
        ({"run": {"seed": 10**400}}, "run.seed must be an integer >= 0"),
    ], ids=["Q-list", "Q-const", "Q-expr-call", "disk-without-radius", "oracle-on-ellipsoid",
            "alpha-past-float", "seed-past-float"])
    def test_config_error_names_its_cause(self, tmp_path, capsys, overrides, message):
        config = disk_config(tmp_path, **overrides)
        # A key set to None is left out.
        config["geometry"] = {k: v for k, v in config["geometry"].items() if v is not None}
        assert main(["simulate", str(write_config(tmp_path, config))]) == 2
        assert assert_config_error(capsys).startswith(f"configuration error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [b"{", b'{"model": "\xff"}', b"[" * 10**5 + b"]" * 10**5],
                             ids=["truncated", "bad-utf8", "deeply-nested"])
    def test_config_file_that_is_not_json(self, tmp_path, capsys, text):
        (tmp_path / "config.json").write_bytes(text)
        assert main(["simulate", str(tmp_path / "config.json")]) == 2
        err = assert_config_error(capsys)
        assert err.startswith("configuration error: config is not valid JSON: ")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "missing.json")]) == 2
        assert assert_config_error(capsys).startswith("configuration error: cannot read config: ")
        assert list(tmp_path.iterdir()) == []

    def test_bad_thread_count_leaves_no_outdir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BULKGROW_THREADS", "abc")
        config = disk_config(tmp_path, run={"kind": "converge"})
        assert main(["converge", str(write_config(tmp_path, config))]) == 2
        assert assert_config_error(capsys) == (
            "configuration error: BULKGROW_THREADS must be an integer, got 'abc'\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["simulate", "regularization"])
    def test_file_mesh_keeps_its_degree(self, tmp_path, capsys, kind):
        # A loaded mesh has the degree of its file: a k that differs from
        # it is a configuration error, and without k the run takes the file's.
        path = tmp_path / "disk_p1.bsm"
        mesh = generate_disk_mesh(1.5, 0.4, degree=1)
        save_mesh(mesh, path)
        config = disk_config(tmp_path, discretization={"T": 0.004},
                             run={"kind": kind, "mu_values": [0.0, 0.1]})
        config["geometry"] = {"kind": "file", "path": str(path)}
        assert main(["simulate", str(write_config(tmp_path, config))]) == 2
        assert_config_error(capsys)
        assert not (tmp_path / "out").exists()
        del config["discretization"]["k"]
        assert main(["simulate", str(write_config(tmp_path, config))]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["mesh"]["n_nodes"] == mesh.n_nodes

    @pytest.mark.parametrize("below", [True, False], ids=["below_a_file", "a_file"])
    def test_outputs_that_cannot_be_created(self, tmp_path, capsys, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        outputs = blocker / "out" if below else blocker
        config = disk_config(tmp_path, discretization={"T": 0.004},
                             run={"outputs": str(outputs)})
        assert main(["simulate", str(write_config(tmp_path, config))]) == 2
        assert_config_error(capsys)
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("target", ["missing/mesh.bsm", "."])
    def test_mesh_gen_output_that_cannot_be_created(self, tmp_path, capsys, target):
        out = tmp_path / target
        assert main(["mesh", "gen", "disk", "--radius", "1", "--h", "0.5", "-o", str(out)]) == 2
        assert_config_error(capsys)
        assert not (tmp_path / "missing").exists()


def readme_key_table():
    """{key: default cell} of the README table "Every key a run reads, with
    its default"; a row may name several keys."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("Every key a run reads, with its default", 1)[1].split("\n\n")[1]
    table = {}
    for row in block.splitlines()[2:]:  # past the header and its rule
        name, default = [cell.strip() for cell in row.strip("|").split("|")][:2]
        table.update((key, default) for key in re.findall(r"`(\w+\.\w+)`", name))
    return table


def readme_default(cell):
    """The default a key-table cell gives: a JSON value or a `word`, and None
    for a required key (—) or one derived from other keys (prose naming
    them in backticks)."""
    if cell == "—":
        return None
    word = re.fullmatch(r"`(\w+)`", cell)
    if word:
        return word.group(1)
    try:
        return json.loads(cell)
    except ValueError:
        assert re.search(r"`\w+(\.\w+)?`", cell), f"default {cell!r} names no key"
        return None


def test_readme_key_table_matches_config_keys():
    table = readme_key_table()
    keys = {f"{section}.{key}": default for section, defaults in CONFIG_KEYS.items()
            for key, default in defaults.items()}
    assert sorted(table) == sorted(keys)
    assert {key: readme_default(cell) for key, cell in table.items()} == keys
