"""The benchmark's workloads: inputs from a seed, one job, and its output check.

Every workload is a closed-loop batch job in one process: the program gets a
configuration and runs to its written outputs.  Model for all of them:
alpha = beta = 1, mu = 0, constant source Q, P2 elements, BDF2, tau = 1e-3,
oracle-seeded (the closed-form radial solution).

A seed selects one of ``N_SEEDS`` input sets (``seed % N_SEEDS``).  For the
oracle workloads it jitters the initial radius R0 and the source Q inside a
range that leaves the node counts unchanged (disk ring count and ball
subdivision count fixed); for ``stability2d`` it seeds the random boundary
fields.  ``reference.json`` holds the outputs of every input set at the seed
commit, which the output checks compare against.
"""

import json
from pathlib import Path

import numpy as np

from bulkgrow import experiments
from bulkgrow.assembly import Assembler
from bulkgrow.norms import oracle_errors

from spans import Probe

N_SEEDS = 16
REFERENCE = Path(__file__).with_name("reference.json")

EXP = "bulkgrow.experiments"
STEPPER = "bulkgrow.stepper:Stepper"

# Output-check tolerances.
RADIUS_RTOL = 1e-6       # final mean boundary radius vs RadialOracle.radius(T)
ERROR_RTOL = 0.01        # oracle errors vs the seed commit's values
EOC_ATOL = 0.25          # estimated orders vs the theoretical k = q = 2
RATIO_RTOL = 1e-8        # stability max ratios vs the seed commit's values


def _jitter(radius, seed):
    """(R0, Q) of an input set: R0 drawn from ``radius``, Q from [1.45, 1.55]."""
    u_r, u_q = (float(u) for u in np.random.default_rng(seed % N_SEEDS).random(2))
    r_lo, r_hi = radius
    return r_hi - (r_hi - r_lo) * u_r, 1.45 + 0.1 * u_q


def _model(source):
    return {"alpha": 1.0, "beta": 1.0, "mu": 0.0, "Q": f"const:{source!r}"}


def _rel(a, b):
    return abs(a - b) / abs(b)


class Simulate:
    """``run_simulate`` from an oracle-seeded sphere to ``steps * tau``."""

    def __init__(self, name, why, geometry, radius, h, steps, snapshots):
        self.name, self.why = name, why
        self.geometry, self.radius, self.h = geometry, radius, h
        self.steps, self.snapshots = steps, snapshots

    def config(self, seed):
        r0, q = _jitter(self.radius, seed)
        return {
            "model": _model(q),
            "geometry": {"kind": self.geometry, "radii": [r0], "h": self.h},
            "discretization": {"k": 2, "q": 2, "tau": 1e-3, "T": self.steps * 1e-3},
            "run": {"kind": "simulate", "snapshots": self.snapshots,
                    "seed_mode": "oracle"},
        }

    def setup_only(self, config):
        """The same run with no steps: set-up plus the t=0 outputs."""
        return {**config, "discretization": {**config["discretization"], "T": 0.0}}

    def probe(self):
        return Probe(
            setup=[(EXP, "build_geometry"), (EXP, "seed_history")],
            cell=(STEPPER, "__init__"),
            step=[(STEPPER, "step")],
        )

    def execute(self, config, outdir, probe):
        experiments.run_simulate(config, outdir)
        if "step" not in probe.returned:
            return None
        mesh = probe.returned["build_geometry"][0]
        state = probe.returned["step"]
        oracle = experiments.compatible_oracle(config, mesh)
        ng = mesh.n_boundary
        radius = float(np.linalg.norm(state.positions[:ng], axis=1).mean())
        errors = oracle_errors(state, oracle, mesh, Assembler(mesh).system(state.positions))
        return {
            "t_end": float(state.time),
            "radius_rel": _rel(radius, float(oracle.radius(state.time))),
            "err_u": float(errors["u"]),
            "err_x": float(errors["x"]),
        }

    def check(self, outcome, ref):
        failures = []
        if outcome["radius_rel"] > RADIUS_RTOL:
            failures.append(f"mean boundary radius off the oracle by "
                            f"{outcome['radius_rel']:.3g} (> {RADIUS_RTOL:g})")
        failures += _errors_match(outcome, ref)
        return failures


class Converge:
    """``run_converge`` over a 3x3 (h, tau) grid on the disk, serial."""

    def __init__(self, name, why, radius):
        self.name, self.why, self.radius = name, why, radius

    def config(self, seed):
        r0, q = _jitter(self.radius, seed)
        return {
            "model": _model(q),
            "geometry": {"kind": "disk", "radii": [r0], "h": 0.4},
            "discretization": {"k": 2, "q": 2, "tau": 1e-3, "T": 0.2},
            "run": {"kind": "converge", "h_levels": [0.4, 0.2, 0.1],
                    "tau_levels": [4e-3, 2e-3, 1e-3], "error_samples": 20},
        }

    setup_only = None

    def probe(self):
        return Probe(
            setup=[(EXP, "build_geometry"), ("bulkgrow.oracle", "sphere_oracle_mesh"),
                   ("bulkgrow.oracle:RadialOracle", "seed_state")],
            cell=(STEPPER, "__init__"),
            step=[(STEPPER, "step")],
        )

    def execute(self, config, outdir, probe):
        rows = experiments.run_converge(config, outdir)
        finest = [r for r in rows if r["h"] == min(row["h"] for row in rows)]
        by_tau = {r["tau"]: r for r in finest}
        return {
            "err_u": by_tau[1e-3]["err_u"],
            "err_x": by_tau[1e-3]["err_x"],
            "eoc_h_u": by_tau[1e-3]["eoc_h_u"],
            "eoc_tau_x": by_tau[2e-3]["eoc_tau_x"],
        }

    def check(self, outcome, ref):
        failures = [
            f"{key} = {outcome[key]:.3f}, expected 2 +- {EOC_ATOL}"
            for key in ("eoc_h_u", "eoc_tau_x")
            if not abs(outcome[key] - 2.0) <= EOC_ATOL
        ]
        return failures + _errors_match(outcome, ref)


class Stability:
    """``run_stability`` on the unit disk, both modes, seeded random fields."""

    def __init__(self, name, why):
        self.name, self.why = name, why

    def config(self, seed):
        return {
            "model": _model(1.5),
            "geometry": {"kind": "disk", "radii": [1.0], "h": 0.2},
            "discretization": {"k": 2, "q": 2, "tau": 1e-3, "T": 0.0},
            "run": {"kind": "stability", "levels": 5, "samples": 20,
                    "boost_iters": 20, "mode": "both", "seed": seed % N_SEEDS},
        }

    setup_only = None

    def probe(self):
        return Probe(
            setup=[(EXP, "build_geometry")],
            cell=(EXP, "stability_sweep"),
            # A step is one mode's sweep over all levels; the two modes cost
            # about the same.  A level, a solve or a ratio would mix costs
            # that differ up to 250x in equal numbers, so their median would
            # fall on a gap between two groups and jump.
            step=[("bulkgrow.sparsela:SpdFactor", "solve")],
            per_cell=True,
        )

    def execute(self, config, outdir, probe):
        results = experiments.run_stability(config, outdir)
        return {mode: [row["max_ratio"] for row in rows] for mode, rows in results.items()}

    def check(self, outcome, ref):
        failures = []
        for mode, expected in ref.items():
            got = outcome.get(mode, [])
            if len(got) != len(expected) or any(
                not _rel(g, e) <= RATIO_RTOL for g, e in zip(got, expected)
            ):
                failures.append(f"{mode} max ratios {got} differ from {expected}")
        return failures


def _errors_match(outcome, ref):
    return [
        f"{key} = {outcome[key]:.6g} differs from the seed commit's {ref[key]:.6g} "
        f"by more than {ERROR_RTOL:.0%}"
        for key in ("err_u", "err_x")
        if not _rel(outcome[key], ref[key]) <= ERROR_RTOL
    ]


WORKLOADS = {
    w.name: w for w in (
        Simulate(
            "sim2d",
            "2d disk, h=0.05: bulk assembly and cached-LU PCG share each step, "
            "output is ~15% of wall time; factorization is a small one-off",
            geometry="disk", radius=(1.46, 1.5), h=0.05, steps=150, snapshots=5,
        ),
        Simulate(
            "sim3d",
            "3d ball, h=0.25: two large LU factorizations in the first step, "
            "triangular-solve-bound later steps, slow set-up, high memory",
            geometry="ball", radius=(0.95, 1.0), h=0.25, steps=20, snapshots=1,
        ),
        Converge(
            "converge2d",
            "3x3 h/tau grid of small 2d runs: ~1,050 steps and ~5,300 PCG solves, "
            "so per-call and per-solve overheads dominate; yields the EOCs",
            radius=(1.41, 1.5),
        ),
        Stability(
            "stability2d",
            "5-level disk stability sweep: one direct factorization per level, "
            "many verified direct solves, dense surface spectra, no PCG",
        ),
    )
}


def load_reference(name, seed):
    """Seed-commit outputs of one workload for one input set."""
    with open(REFERENCE) as fh:
        return json.load(fh)[name][str(seed % N_SEEDS)]
