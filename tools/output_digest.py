"""Print a SHA-256 digest of every output file of a fixed set of small runs.

Usage::

    python tools/output_digest.py

Runs each configuration below in-process, in a temporary directory, and
prints one ``<sha256>  <config>/<file>`` line per output file, sorted.  It
also writes the generated meshes below with ``save_mesh`` and prints one
``<sha256>  meshes/<name>.bsm`` line each, and one
``<sha256>  orderings/<name>`` line over the bytes of each mesh's
``bulk_orderings`` (bulk, then interior, each a permutation or a
``Dissection``'s permutation; ``None``, minimum degree, as a fixed marker).  Two checkouts that print the same lines write
byte-identical simulate, converge, stability and regularization outputs
(``manifest.json`` included), byte-identical meshes and the same factor
orderings, which is the check a behaviour-preserving refactor must pass.
BLAS and worker thread counts are pinned to 1 so the digests do not depend
on the host's core count.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BULKGROW_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from bulkgrow.experiments import (  # noqa: E402
    run_converge,
    run_regularization,
    run_simulate,
    run_stability,
)
from bulkgrow.mesh import generate_ball_mesh, generate_disk_mesh, save_mesh  # noqa: E402

MODEL = {"alpha": 1.0, "beta": 1.0, "mu": 0.0, "Q": "const:1.5"}


def _config(geometry, discretization, run, model=MODEL):
    return {"model": model, "geometry": geometry,
            "discretization": discretization, "run": run}


CONFIGS = {
    "simulate_disk": (run_simulate, _config(
        {"kind": "disk", "radii": [1.5], "h": 0.1},
        {"k": 2, "q": 2, "tau": 1e-3, "T": 0.03},
        {"kind": "simulate", "snapshots": 3, "seed_mode": "oracle"},
    )),
    "simulate_ball": (run_simulate, _config(
        {"kind": "ball", "radii": [1.5], "h": 0.5},
        {"k": 2, "q": 2, "tau": 1e-3, "T": 0.005},
        {"kind": "simulate", "snapshots": 1, "seed_mode": "oracle"},
    )),
    # No closed form (ellipsoid, mu > 0, varying Q): the bootstrap seeding path.
    "simulate_ellipsoid": (run_simulate, _config(
        {"kind": "ellipsoid", "radii": [1.0, 0.8, 0.9], "h": 0.5},
        {"k": 2, "q": 3, "tau": 1e-3, "T": 0.004},
        {"kind": "simulate", "snapshots": 2},
        model={"alpha": 1.0, "beta": 1.0, "mu": 0.1, "Q": "expr:1+0.1*x"},
    )),
    "converge_disk": (run_converge, _config(
        {"kind": "disk", "radii": [1.5], "h": 0.4},
        {"k": 2, "q": 2, "tau": 1e-3, "T": 0.04},
        {"kind": "converge", "h_levels": [0.4, 0.2],
         "tau_levels": [4e-3, 2e-3], "error_samples": 5},
    )),
    "stability_disk": (run_stability, _config(
        {"kind": "disk", "radii": [1.0], "h": 0.2},
        {"k": 2, "q": 2, "tau": 1e-3, "T": 0.0},
        {"kind": "stability", "levels": 3, "samples": 10, "boost_iters": 10,
         "mode": "both", "seed": 0},
    )),
    # P1 elements with BDF1: linear shape functions and their quadrature rule.
    "simulate_disk_p1": (run_simulate, _config(
        {"kind": "disk", "radii": [1.5], "h": 0.1},
        {"k": 1, "q": 1, "tau": 1e-3, "T": 0.01},
        {"kind": "simulate", "snapshots": 2, "seed_mode": "oracle"},
    )),
    # BDF1 from the bootstrap start: the initial-state solves alone, no start step.
    "simulate_disk_bootstrap_q1": (run_simulate, _config(
        {"kind": "disk", "radii": [1.5], "h": 0.1},
        {"k": 2, "q": 1, "tau": 1e-3, "T": 0.01},
        {"kind": "simulate", "snapshots": 2, "seed_mode": "bootstrap"},
    )),
    "stability_disk_p1": (run_stability, _config(
        {"kind": "disk", "radii": [1.0], "h": 0.2},
        {"k": 1, "q": 2, "tau": 1e-3, "T": 0.0},
        {"kind": "stability", "levels": 2, "samples": 10, "boost_iters": 10,
         "mode": "both", "seed": 0},
    )),
    # The 3d sweep: Robin and interior factorizations of a P1 ball.
    "stability_ball_p1": (run_stability, _config(
        {"kind": "ball", "radii": [1.0], "h": 0.5},
        {"k": 1, "q": 2, "tau": 1e-3, "T": 0.0},
        {"kind": "stability", "levels": 2, "samples": 5, "boost_iters": 5,
         "mode": "both", "seed": 0},
    )),
    "regularization_ellipsoid": (run_regularization, _config(
        {"kind": "ellipsoid", "radii": [1.0, 0.8, 0.9], "h": 0.5},
        {"k": 2, "q": 2, "tau": 1e-3, "T": 0.004},
        {"kind": "regularization", "mu_values": [0.0, 0.1], "snapshots": 2},
    )),
}


# Benchmark-size meshes: the sim3d ball, the sim2d disk, stability2d's finest
# disk, an anisotropic ellipsoid and one P1 disk.
MESHES = {
    "ball_p2": lambda: generate_ball_mesh(0.97, 0.25, degree=2),
    "disk_p2": lambda: generate_disk_mesh(1.48, 0.05, degree=2),
    "disk_fine_p2": lambda: generate_disk_mesh(1.0, 0.0125, degree=2),
    "ellipsoid_p2": lambda: generate_ball_mesh([1.0, 0.8, 0.9], 0.5, degree=2),
    "disk_p1": lambda: generate_disk_mesh(1.5, 0.1, degree=1),
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _orderings_digest(mesh):
    sha = hashlib.sha256()
    for perm in mesh.bulk_orderings:
        perm = getattr(perm, "perm", perm)  # a Dissection's permutation
        sha.update(b"None" if perm is None else np.asarray(perm, dtype="<i8").tobytes())
    return sha.hexdigest()


def digests():
    """(sha256, name) for every output file, saved mesh and mesh ordering,
    sorted by name."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (runner, config) in CONFIGS.items():
            outdir = Path(tmp) / name
            runner(config, str(outdir))
            for path in sorted(outdir.iterdir()):
                lines.append((_digest(path), f"{name}/{path.name}"))
        for name, generate in MESHES.items():
            path = Path(tmp) / f"{name}.bsm"
            mesh = generate()
            save_mesh(mesh, path)
            lines.append((_digest(path), f"meshes/{path.name}"))
            lines.append((_orderings_digest(mesh), f"orderings/{name}"))
    return sorted(lines, key=lambda line: line[1])


def main():
    for digest, name in digests():
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
