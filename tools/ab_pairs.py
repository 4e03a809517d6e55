"""Compare two checkouts' benchmark runs in alternating pairs.

Usage::

    python tools/ab_pairs.py PARENT CHANGE --workload sim2d [--seed 3]
        [--seconds 20] [--pairs 6]

PARENT and CHANGE are two checkouts of this repository.  The script runs
each one's ``bench/run.py --trace 0`` on the same workload, seed and window,
one run at a time, in the order A B B A A B ... (A the parent), so that a
slow phase of a shared host lands on both sides alike, which is how
``bench/README.md`` advises to compare a change with its parent.  It prints
one line per run with its end-to-end metrics and failed/attempted jobs, then
one line per metric: the median over pairs of change / parent, how many
pairs the change moved down, up or not at all, each side's median and the
distance between the quartiles of the parent's runs.  A pair whose run
fails to give a result is left out of the summary.

Only the last line of each run's output is read, the benchmark's JSON
result.  Standard library only.  Exits 1 if a run gave no result or a job
failed, 0 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_result(stdout):
    """The benchmark's JSON result, its last nonblank output line, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def _iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs):
    """Per metric, over the (parent, change) result pairs that both have it,
    a dict of: ``ratio``, the median of change / parent; ``down``, ``up``
    and ``same``, the pairs in which the change's value is lower, higher or
    equal; ``parent`` and ``change``, the medians of each side's values; and
    ``parent_iqr``, the distance between the quartiles of the parent's."""
    values = {}  # name -> [(parent, change)] per pair
    for parent, change in pairs:
        if parent is None or change is None:
            continue
        for name, entry in parent["metrics"].items():
            if name in change["metrics"]:
                values.setdefault(name, []).append(
                    (entry["value"], change["metrics"][name]["value"]))
    summary = {}
    for name, per_pair in values.items():
        a = [pa for pa, _ in per_pair]
        b = [pb for _, pb in per_pair]
        summary[name] = {
            "ratio": statistics.median(pb / pa if pa else float("nan") for pa, pb in per_pair),
            "down": sum(pb < pa for pa, pb in per_pair),
            "up": sum(pb > pa for pa, pb in per_pair),
            "same": sum(pb == pa for pa, pb in per_pair),
            "parent": statistics.median(a),
            "change": statistics.median(b),
            "parent_iqr": _iqr(a),
        }
    return summary


def run_bench(checkout, args):
    """One benchmark run of ``checkout``: (its parsed result or None, stderr)."""
    proc = subprocess.run(
        [sys.executable, str(Path(checkout) / "bench" / "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, check=False,
    )
    return parse_result(proc.stdout), proc.stderr


def describe(label, result):
    if result is None:
        return f"{label}: no result"
    metrics = " ".join(f"{name}={entry['value']:.4g}"
                       for name, entry in result["metrics"].items())
    return f"{label}: {metrics} failed={result['failed']}/{result['attempted']}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args(argv)
    for root in (args.parent, args.change):
        if not (root / "bench" / "run.py").is_file():
            parser.error(f"{root} has no bench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    pairs = []
    ok = True
    for k in range(args.pairs):
        order = ("A", "B") if k % 2 == 0 else ("B", "A")
        results = {}
        for side in order:
            result, stderr = run_bench(args.parent if side == "A" else args.change, args)
            results[side] = result
            print(describe(f"pair {k} {side}", result), flush=True)
            if result is None:
                print(stderr.strip().splitlines()[-1] if stderr.strip() else "(no stderr)",
                      file=sys.stderr)
            ok &= result is not None and result["failed"] == 0
        pairs.append((results["A"], results["B"]))

    print(f"{'metric':<14} {'B/A median':>10} {'down':>5} {'up':>3} {'same':>5} "
          f"{'A median':>10} {'A IQR':>10} {'B median':>10}")
    for name, m in summarize(pairs).items():
        print(f"{name:<14} {m['ratio']:>10.4f} {m['down']:>5} {m['up']:>3} {m['same']:>5} "
              f"{m['parent']:>10.4g} {m['parent_iqr']:>10.3g} {m['change']:>10.4g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
