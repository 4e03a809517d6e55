"""Smoke-size self-test of the benchmark harness (a few seconds).

    python3 -m pytest -q bench

Runs a tiny disk simulation through the untraced and traced job paths,
checks the span arithmetic on hand-made spans, that perturbed outputs fail
the output checks, that seeds keep node counts fixed, and that the benchmark
refuses to run without the program's source.
"""

import json
import shutil
import subprocess
import sys

import pytest

import checkout

checkout.prepare()

from bulkgrow.mesh import generate_ball_mesh, generate_disk_mesh  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import layer_totals  # noqa: E402
import workloads  # noqa: E402

SMOKE = workloads.Simulate(
    "smoke", "tiny disk", geometry="disk", radius=(1.46, 1.5), h=0.3, steps=3,
    snapshots=1,
)


def test_self_time_subtracts_direct_children_and_busy_skips_nesting():
    # a [0, 10] > b [1, 4] > c [2, 3]; a > d [5, 9]; b and c share a layer.
    names = ["a", "b", "c", "d"]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    layer_of = {"a": "top", "b": "mid", "c": "mid", "d": "leaf"}
    totals = layer_totals(names, starts, ends, parents, layer_of)
    assert totals["top"] == [10.0, 3.0, 1]       # 10 - (3 + 4)
    assert totals["mid"] == [3.0, 3.0, 2]        # c nests in b: busy 3, self 2 + 1
    assert totals["leaf"] == [4.0, 4.0, 1]


def test_reference_clock_scales_by_kernel_speed():
    ref_s = hostspeed.KERNEL_REF_S
    # The kernel takes twice the reference time throughout: half speed.
    slow = hostspeed.ReferenceClock([(t, 2 * ref_s) for t in (0.0, 1.0, 2.0)])
    assert slow.span(0.5, 1.5) == pytest.approx(0.5)
    assert slow.span(-1.0, 3.0) == pytest.approx(2.0)      # edge speed outside
    # Full speed up to t=10, half speed from t=11 on; the running median
    # keeps a lone fast sample among slow ones from counting.
    costs = [ref_s] * 11 + [2 * ref_s] * 11
    costs[16] = ref_s
    clock = hostspeed.ReferenceClock(list(zip(range(22), costs)))
    assert clock.span(0.0, 10.0) == pytest.approx(10.0)
    assert clock.span(11.0, 21.0) == pytest.approx(5.0)
    assert clock.span(10.0, 11.0) == pytest.approx(0.75)


def test_sampling_takes_its_own_time_out_of_the_clock():
    with hostspeed.sampling() as samples:
        net0, real0 = hostspeed.net(), hostspeed.time.perf_counter()
        while hostspeed.time.perf_counter() - real0 < 0.45:
            pass
        net1, real1 = hostspeed.net(), hostspeed.time.perf_counter()
    assert len(samples) >= 5                  # start, about four ticks, end
    calibrating = sum(c for _, c in samples[1:-1])
    assert (real1 - real0) - (net1 - net0) == pytest.approx(calibrating, rel=0.5)
    assert all(c > 0 for _, c in samples)


@pytest.fixture(scope="module")
def smoke_jobs(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    config = SMOKE.config(0)
    first = run.run_job(SMOKE, config, out / "a", False, None)
    assert first.error is None, first.error
    reference = first.outcome
    untraced = run.run_job(SMOKE, config, out / "b", False, reference)
    traced = run.run_job(SMOKE, config, out / "c", True, reference)
    setup = run.run_job(SMOKE, SMOKE.setup_only(config), out / "d", False, None)
    return first, untraced, traced, setup


def test_untraced_job_times_coarse_boundaries(smoke_jobs):
    first, untraced, _, setup = smoke_jobs
    assert untraced.error is None and untraced.failures == []
    assert len(untraced.steps) == SMOKE.steps
    assert 0 < untraced.setup < untraced.wall
    assert untraced.first_step == untraced.steps[0]
    assert sum(untraced.steps) <= untraced.stepping < untraced.wall
    assert untraced.tracer is None
    assert setup.error is None and setup.outcome is None and setup.setup > 0
    metrics = run.end_to_end([first, untraced], [first.setup, untraced.setup, setup.setup])
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())


def test_traced_job_reports_every_layer_metric(smoke_jobs):
    first, untraced, traced, _ = smoke_jobs
    assert traced.error is None and traced.failures == []
    metrics = run.per_layer([first, untraced, traced])
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["stepper.step_calls"] == SMOKE.steps
    assert metrics["sparsela.factor_calls"] >= 2
    assert metrics["sparsela.lu_fill"] > 1
    assert metrics["vtkio.bytes"] > 0
    # The stages account for the step: stage durations cover all of it but
    # the unwrapped velocity law and the step's own bookkeeping.
    assert 0.9 < metrics["stepper.stage_coverage"] <= 1.0
    names = traced.tracer.name
    assert names.count("Stepper.step") == SMOKE.steps
    assert all(p < i for i, p in enumerate(traced.tracer.parent))


def test_perturbed_outputs_fail_the_checks(smoke_jobs):
    reference = smoke_jobs[0].outcome
    assert SMOKE.check(dict(reference), reference) == []
    assert SMOKE.check({**reference, "radius_rel": 1e-4}, reference)
    assert SMOKE.check({**reference, "err_u": reference["err_u"] * 1.05}, reference)

    converge = workloads.WORKLOADS["converge2d"]
    good = {"err_u": 1.0, "err_x": 1.0, "eoc_h_u": 2.1, "eoc_tau_x": 1.97}
    assert converge.check(good, good) == []
    assert converge.check({**good, "eoc_h_u": 1.5}, good)
    assert converge.check({**good, "err_x": 1.02}, good)

    stability = workloads.WORKLOADS["stability2d"]
    ratios = {"dirichlet": [1.5, 1.52], "robin": [0.99, 0.95]}
    assert stability.check(ratios, ratios) == []
    assert stability.check({**ratios, "robin": [0.99, 0.95 * (1 + 1e-6)]}, ratios)


def test_seed_jitter_keeps_node_counts():
    for name in ("sim2d", "converge2d"):
        workload = workloads.WORKLOADS[name]
        hs = [workload.h] if name == "sim2d" else [0.4, 0.2, 0.1]
        for h in hs:
            counts = {generate_disk_mesh(r, h, degree=2).n_nodes for r in workload.radius}
            assert len(counts) == 1, (name, h, counts)
    ball = workloads.WORKLOADS["sim3d"]
    counts = {generate_ball_mesh((r, r, r), ball.h, degree=2).n_nodes for r in ball.radius}
    assert counts == {24389}
    for seed in range(workloads.N_SEEDS):
        for workload in (workloads.WORKLOADS["sim2d"], ball):
            r0 = workload.config(seed)["geometry"]["radii"][0]
            assert workload.radius[0] <= r0 <= workload.radius[1]


def test_every_input_set_has_a_reference():
    for name in workloads.WORKLOADS:
        for seed in range(workloads.N_SEEDS):
            assert workloads.load_reference(name, seed)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(checkout.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim2d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_harness():
    with open(checkout.ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == layers.PER_LAYER
