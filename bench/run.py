"""Run one bulkgrow benchmark workload and print its metrics.

    python3 bench/run.py --workload sim2d --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # each workload in turn

Run from anywhere; the program is imported from this checkout's ``src/``.
Jobs of the workload repeat until ``--seconds`` is used up (at least one).
With ``--trace 0`` only the coarse boundaries are timed (set-up calls, each
step, each job) and the end-to-end metrics are reported.  With ``--trace 1``
untraced and traced jobs alternate; the traced ones record a span per call
into each ``bulkgrow`` layer, written to ``.bench_out/spans-<workload>.jsonl``,
and the per-layer metrics are reported.

Times are reported at a fixed reference host speed: a calibration kernel is
timed throughout each job and scales the clock (see ``hostspeed.py``).  The
figures as measured are printed as ``#`` lines.

Every job's outputs are checked (see ``workloads.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and ``failed``
(jobs), and ``metrics``.
"""

import argparse
import gc
import json
import os
from pathlib import Path
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import checkout
import hostspeed
import layers
from spans import clock, patched

MIN_SETUPS = 3

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "step_p50_ms": ("ms", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


class Job:
    """Timings, check outcome and (when traced) spans of one program run.

    Times are in reference-speed seconds (see ``hostspeed.py``); ``raw_wall``
    and ``raw_steps`` are the same as measured, and ``kernel_s`` is the median
    calibration-kernel time during the job.
    """

    def __init__(self, traced):
        self.traced = traced
        self.wall = self.setup = self.first_step = self.stepping = 0.0
        self.steps = []
        self.raw_wall = self.kernel_s = 0.0
        self.raw_steps = []
        self.outcome = None
        self.failures = []
        self.error = None
        self.tracer = None


def run_job(workload, config, outdir, traced, reference):
    """One program run under the probe (and the tracer when ``traced``).

    ``reference`` is the seed commit's output for the check; ``None`` runs
    without a check (set-up-only runs).
    """
    job = Job(traced)
    probe = workload.probe()
    points = probe.points()
    if traced:
        job.tracer = layers.new_tracer()
        points += job.tracer.points()
    outcome = None
    # Garbage left by the previous job would otherwise be freed at a random
    # point of this one, moving its time and the process's peak memory.
    gc.collect()
    with hostspeed.sampling() as samples, patched(points):
        start = clock()
        try:
            outcome = workload.execute(config, outdir, probe)
        except Exception:
            job.error = traceback.format_exc()
        end = clock()
    ref = hostspeed.ReferenceClock(samples)
    if traced:
        layers.close(job.tracer)
        job.tracer.start = [ref(t) for t in job.tracer.start]
        job.tracer.end = [ref(t) for t in job.tracer.end]
    job.wall = ref.span(start, end)
    job.setup = probe.setup_s(ref)
    job.first_step = probe.first_step_s(ref)
    job.stepping = probe.stepping_s(ref)
    job.steps = probe.steps(ref)
    job.raw_wall = end - start
    job.raw_steps = probe.steps()
    job.kernel_s = statistics.median(c for _, c in samples)
    shutil.rmtree(outdir, ignore_errors=True)
    job.outcome = outcome
    if outcome is not None and reference is not None:
        job.failures = workload.check(outcome, reference)
    return job


def environment():
    """Where and with what the numbers were measured."""
    import numpy  # only after checkout.prepare() has pinned the thread counts
    import scipy

    commit = "unknown"
    if (checkout.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(checkout.ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches.append(f"L{level}{kind[0].lower() if kind != 'Unified' else ''} {size}")
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in checkout.PINNED_THREADS},
    }


def tail(steps):
    """(percentile, value) of the highest integer percentile with at least
    ten samples beyond it, or None when there are fewer than 20 samples."""
    n = len(steps)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(steps, n=100, method="inclusive")[p - 1]


def end_to_end(jobs, setups):
    """End-to-end metrics of completed untraced jobs and all timed set-ups.

    Job and stepping times are pooled over the whole run (means, and the
    median of all steps) rather than taken as the median of a few jobs.
    """
    steps = [s for j in jobs for s in j.steps]
    return {
        "wall_s": statistics.fmean(j.wall for j in jobs),
        "setup_s": statistics.median(setups),
        "step_p50_ms": 1e3 * statistics.median(steps),
        "steps_per_s": len(steps) / sum(j.stepping for j in jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(jobs):
    """Per-layer metrics of completed jobs, averaged over the traced ones."""
    traced = [j for j in jobs if j.traced]
    untraced = [j for j in jobs if not j.traced]
    per_job = [layers.job_metrics(j.tracer) for j in traced]
    out = {name: statistics.fmean(m[name] for m in per_job) for name in per_job[0]}
    base = statistics.median(j.wall for j in untraced)
    out["trace_overhead_frac"] = (statistics.median(j.wall for j in traced) - base) / base
    return out


def write_spans(path, jobs):
    with open(path, "w") as fh:
        for k, job in enumerate(jobs):
            if job.tracer is None:
                continue
            for row in job.tracer.rows():
                fh.write(json.dumps({"job": k, **row}) + "\n")


def run_all(names, args):
    """Every workload in turn, each in a fresh interpreter."""
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        checkout.prepare()
    except (checkout.MissingSource, ImportError) as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    config = workload.config(args.seed)
    reference = workloads.load_reference(workload.name, args.seed)
    out_root = checkout.ROOT / ".bench_out"
    run_dir = out_root / f"{workload.name}-{os.getpid()}"
    print(f"# bench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# env {json.dumps(environment())}")
    print(f"# config {json.dumps(config)}")

    # Untraced: jobs back to back.  Traced: untraced/traced pairs, alternating
    # which goes first.  Another round starts only if it fits the window.
    deadline = time.perf_counter() + args.seconds
    jobs = []
    rounds = 0
    while True:
        began = time.perf_counter()
        if not args.trace:
            order = (False,)
        else:
            order = (False, True) if rounds % 2 == 0 else (True, False)
        for traced in order:
            jobs.append(run_job(workload, config, run_dir / f"job{len(jobs)}", traced,
                                reference))
        rounds += 1
        # Set-up is timed once per job; a workload with no set-up-only run
        # repeats whole jobs until MIN_SETUPS are timed.
        enough = args.trace or workload.setup_only or len(jobs) >= MIN_SETUPS
        now = time.perf_counter()
        if enough and now + (now - began) > deadline:
            break
    setups = [j.setup for j in jobs if j.error is None]
    while not args.trace and len(setups) < MIN_SETUPS and workload.setup_only:
        job = run_job(workload, workload.setup_only(config),
                      run_dir / f"setup{len(setups)}", False, None)
        jobs.append(job)
        if job.error is not None:
            break
        setups.append(job.setup)
    shutil.rmtree(run_dir, ignore_errors=True)
    attempted = len(jobs)

    failed = 0
    for k, job in enumerate(jobs):
        if job.error is not None:
            failed += 1
            print(f"# job {k} raised:\n{job.error}", file=sys.stderr)
        elif job.failures:
            failed += 1
            for failure in job.failures:
                print(f"# job {k} output check failed: {failure}", file=sys.stderr)
    full = [j for j in jobs if j.error is None and j.outcome is not None]
    kinds = {j.traced for j in full}
    if kinds != ({False, True} if args.trace else {False}):
        print("bench: no job completed; no metrics", file=sys.stderr)
        return 1

    if args.trace:
        out_root.mkdir(exist_ok=True)
        write_spans(out_root / f"spans-{workload.name}.jsonl", jobs)
        values = per_layer(full)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        values = end_to_end(full, setups)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        steps = [s for j in full for s in j.steps]
        t = tail(steps)
        print(f"# step_tail_ms {'n/a' if t is None else f'p{t[0]} {1e3 * t[1]:.4g} ms'} "
              f"(n={len(steps)} steps)")
        print(f"# first_step_s {statistics.median(j.first_step for j in full):.4g} s "
              f"(median of {len(full)} jobs)")
        raw_steps = [s for j in full for s in j.raw_steps]
        print(f"# as measured: wall_s {statistics.fmean(j.raw_wall for j in full):.4g}, "
              f"step_p50_ms {1e3 * statistics.median(raw_steps):.4g}; calibration kernel "
              f"{1e3 * statistics.median(j.kernel_s for j in full):.4g} ms "
              f"(reference {1e3 * hostspeed.KERNEL_REF_S:g} ms)")
    for key, value in full[-1].outcome.items():
        print(f"# check {key} = {value}")
    print(f"# fail_rate {failed / attempted:g} ({failed}/{attempted} jobs)")
    for name, value in values.items():
        print(f"{name:<40} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
