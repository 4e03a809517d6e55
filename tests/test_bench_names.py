"""The program names the benchmark wraps still exist.

``bench/layers.py`` and ``bench/workloads.py`` time the program by wrapping
functions and methods at the names their callers look up, and read the
factors they record after a job.  A rename in ``src`` would otherwise show
only in the benchmark's own self-test (``python3 -m pytest -q bench``).
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bulkgrow.assembly import Assembler, assemble_L
from bulkgrow.experiments import run_simulate, run_stability
from bulkgrow.mesh import generate_ball_mesh, generate_disk_mesh
from bulkgrow.sparsela import Dissection, SpdFactor

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def identity(fn):
    return fn


def robin_matrix(mesh):
    return assemble_L(Assembler(mesh).system(), 1.0)


def test_every_traced_and_probed_name_exists():
    points = [((owner, attr), identity) for owner, attr, _, _ in layers.TRACE_POINTS]
    for workload in workloads.WORKLOADS.values():
        points += [(point, identity) for point, _ in workload.probe().points()]
    with spans.patched(points):
        superlu = SpdFactor(robin_matrix(generate_disk_mesh(1.0, 0.3, degree=1)))
        ball = generate_ball_mesh([1.0, 1.0, 1.0], 0.5, degree=1)
        bulk, _ = ball.bulk_orderings
        assert isinstance(bulk, Dissection)
        cholesky = SpdFactor(robin_matrix(ball), bulk)
    tracer = layers.new_tracer()
    for factor in (superlu, cholesky):
        tracer.record("factors", factor)
    layers.close(tracer)
    expected = [f.nnz / f.matrix.nnz for f in (superlu, cholesky)]
    assert np.allclose(tracer.values["lu_fill"], expected)


def test_simulate_probe_points_are_called(tmp_path):
    # The benchmark times build_geometry and seed_history as set-up and each
    # Stepper.step as a step, so a short oracle run must call all of them.
    probe = workloads.WORKLOADS["sim2d"].probe()
    config = workloads.WORKLOADS["sim2d"].config(0)
    config["geometry"]["h"] = 0.4
    config["discretization"]["T"] = 3e-3
    with spans.patched(probe.points()):
        run_simulate(config, str(tmp_path))
    assert sorted(probe.returned) == ["build_geometry", "seed_history", "step"]
    assert len(probe.setups) == 2  # build_geometry, then seed_history
    assert len(probe.cells) == 1   # one Stepper.__init__
    assert len(probe.calls) == 3   # the steps, each returning its new state
    # Three steps from the newest BDF2 oracle seed state, at t = tau.
    assert probe.returned["step"].time == pytest.approx(4e-3)


def test_stability_probe_points_are_called(tmp_path):
    # The benchmark times each mode's stability_sweep as a step that ends at
    # its last SpdFactor.solve, and traces the dense spectrum at the name
    # stability looks it up by.
    probe = workloads.WORKLOADS["stability2d"].probe()
    config = workloads.WORKLOADS["stability2d"].config(0)
    config["discretization"]["k"] = 1
    config["run"].update(levels=2, samples=2, boost_iters=2)
    spectra = Counter()

    def counted(span):
        def make(fn):
            def wrapper(*args, **kwargs):
                spectra[span] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    traced = [((owner, attr), counted(span))
              for owner, attr, span, _ in layers.TRACE_POINTS if attr == "surface_spectrum"]
    assert len(traced) == 2
    with spans.patched(probe.points() + traced):
        run_stability(config, str(tmp_path))
    assert len(probe.cells) == 2  # one stability_sweep per mode
    assert all(probe.cells)       # each of them ran SpdFactor.solve
    assert spectra == {"stability.surface_spectrum": 2}  # once per Dirichlet level
