import csv
import json

import numpy as np
import pytest

from bulkgrow import experiments
from bulkgrow.assembly import Assembler
from bulkgrow.cli import main
from bulkgrow import stability as stability_module
from bulkgrow.errors import ConfigError, GeometryError, SolverError
from bulkgrow.experiments import (
    load_config,
    parse_source,
    run_converge,
    run_regularization,
    run_simulate,
    run_stability,
    validate_config,
)
from bulkgrow.mesh import generate_disk_mesh
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

    def test_requires_oracle_compatible_setup(self, tmp_path):
        config = disk_config(tmp_path, model={"Q": "expr:1.5+0.1*x"},
                             run={"kind": "converge"})
        with pytest.raises(ConfigError):
            run_converge(config, str(tmp_path / "conv2"))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_numerical_failure_flushes(self, tmp_path, monkeypatch, threads):
        # The third cell (tau = 1e-3) fails at its third step; the other two
        # finish, and their rows and an aborted manifest are written.
        original = Stepper.step

        def failing_step(self, history):
            if self.tau == 1e-3 and self.step_count == 2:
                raise GeometryError("step 3 (position_update): tangled", element=0)
            return original(self, history)

        monkeypatch.setattr(Stepper, "step", failing_step)
        monkeypatch.setenv("BULKGROW_THREADS", threads)
        config = disk_config(
            tmp_path,
            run={"kind": "converge", "h_levels": [0.5],
                 "tau_levels": [4e-3, 2e-3, 1e-3], "error_samples": 2},
        )
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

    def test_failing_start_step_reports_its_number(self, tmp_path, capsys):
        # No closed form for this Q, so q = 3 starts with two steps on the
        # run's stepper; the second one, at t = 0.002, meets the pole.
        config = disk_config(tmp_path, model={"Q": "expr:1/(t-0.002)"},
                             discretization={"q": 3, "tau": 1e-3, "T": 0.004})
        assert main(["simulate", str(write_config(tmp_path, config))]) == 3
        err = capsys.readouterr().err
        assert "step 2 (robin_solve, t=0.002)" in err and "not finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("overrides", [
        {"discretization": {"q": "2"}},
        {"discretization": {"q": 2.5}},
        {"discretization": {"tau": "abc"}},
        {"discretization": {"T": None}},
        # T must be a whole number of steps, not rounded to one.
        {"discretization": {"T": 0.0015, "tau": 1e-3}},
        {"discretization": {"T": 0.0104, "tau": 1e-3}},
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
        # The seed (t = tau), step 2's snapshot and the flushed last good state.
        assert [float(r["time"]) for r in rows] == pytest.approx([2e-3, 6e-3, 6e-3])
        assert (outdir / "snapshot_0002.vtk").exists()
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
