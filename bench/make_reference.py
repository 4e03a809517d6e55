"""Record the outputs the benchmark's checks compare against.

    python3 bench/make_reference.py [--out PATH] [WORKLOAD ...]

Runs every input set (seeds 0 .. N_SEEDS-1) of the named workloads (default:
all) untraced and stores their check values in ``reference.json``, keeping
the entries of workloads not named.  Regenerate it only at a commit whose
numerical outputs are accepted as correct; a change that moves them is then
visible as a failing output check.
"""

import argparse
import json
import os
import shutil
import sys

import checkout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    checkout.prepare()
    from spans import patched
    import workloads

    out = args.out or workloads.REFERENCE
    try:
        with open(out) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    outdir = checkout.ROOT / ".bench_out" / f"reference-{os.getpid()}"
    for name in args.workloads or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        entries = {}
        for seed in range(workloads.N_SEEDS):
            probe = workload.probe()
            with patched(probe.points()):
                entries[str(seed)] = workload.execute(workload.config(seed), outdir, probe)
            shutil.rmtree(outdir, ignore_errors=True)
            print(name, seed, entries[str(seed)], flush=True)
        table[name] = entries
    with open(out, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
