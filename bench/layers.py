"""Per-layer view of a job: where each ``bulkgrow`` layer is timed, and the
per-layer metrics derived from the recorded spans.

Every point is the attribute the caller looks up.  Module functions imported
with ``from .x import f`` are wrapped in the importing module (a function may
need wrapping at several names, e.g. ``solve_spd`` is called from ``stepper``
and from inside ``sparsela``); methods are wrapped on their class.
"""

import os

from spans import Tracer, layer_totals

EXP = "bulkgrow.experiments"
STEPPER = "bulkgrow.stepper"

# (owner, attribute, span name, layer)
TRACE_POINTS = [
    (EXP, "generate_disk_mesh", "experiments.generate_disk_mesh", "mesh.generate"),
    (EXP, "generate_ball_mesh", "experiments.generate_ball_mesh", "mesh.generate"),
    ("bulkgrow.mesh", "generate_disk_mesh", "mesh.generate_disk_mesh", "mesh.generate"),
    ("bulkgrow.mesh", "generate_ball_mesh", "mesh.generate_ball_mesh", "mesh.generate"),
    (STEPPER, "check_orientation", "stepper.check_orientation", "mesh.check_orientation"),
    ("bulkgrow.oracle:RadialOracle", "seed_state", "RadialOracle.seed_state",
     "oracle.seed_state"),
    ("bulkgrow.assembly:Assembler", "bulk_matrices", "Assembler.bulk_matrices",
     "assembly.bulk_matrices"),
    ("bulkgrow.assembly:Assembler", "surface_geometry", "Assembler.surface_geometry",
     "assembly.surface"),
    ("bulkgrow.assembly:Assembler", "surface_matrices", "Assembler.surface_matrices",
     "assembly.surface"),
    ("bulkgrow.assembly:Assembler", "curvature_forcing_nu",
     "Assembler.curvature_forcing_nu", "assembly.forcing"),
    ("bulkgrow.assembly:Assembler", "curvature_forcing_H",
     "Assembler.curvature_forcing_H", "assembly.forcing"),
    ("bulkgrow.assembly:Assembler", "system", "Assembler.system", "assembly.system"),
    ("bulkgrow.sparsela:SpdFactor", "__init__", "SpdFactor.__init__", "sparsela.factor"),
    ("bulkgrow.sparsela:SpdFactor", "apply_inverse", "SpdFactor.apply_inverse",
     "sparsela.trisolve"),
    ("bulkgrow.sparsela:SpdFactor", "solve", "SpdFactor.solve", "sparsela.trisolve"),
    ("bulkgrow.sparsela:CachedSpdSolver", "solve", "CachedSpdSolver.solve",
     "sparsela.cached_solve"),
    (STEPPER, "solve_spd", "stepper.solve_spd", "sparsela.jacobi_solve"),
    ("bulkgrow.sparsela", "solve_spd", "sparsela.solve_spd", "sparsela.jacobi_solve"),
    (STEPPER + ":Stepper", "step", "Stepper.step", "stepper.step"),
] + [
    (STEPPER, stage, f"stepper.{stage}", f"stepper.{stage}")
    for stage in (
        "extrapolated_geometry", "robin_solve", "normal_step", "curvature_step",
        "harmonic_extension", "position_update",
    )
] + [
    (EXP, "write_vtk", "experiments.write_vtk", "vtkio.write"),
    (EXP, "write_surface_vtk", "experiments.write_surface_vtk", "vtkio.write"),
    (EXP, "write_csv", "experiments.write_csv", "vtkio.write"),
    (EXP, "oracle_errors", "experiments.oracle_errors", "norms.oracle_errors"),
    ("bulkgrow.stability", "surface_spectrum", "stability.surface_spectrum",
     "norms.surface_spectrum"),
    ("bulkgrow.norms", "surface_spectrum", "norms.surface_spectrum",
     "norms.surface_spectrum"),
]

LAYER_OF = {span: layer for _, _, span, layer in TRACE_POINTS}
LAYERS = list(dict.fromkeys(LAYER_OF.values()))
STAGES = [layer for layer in LAYERS if layer.startswith("stepper.") and layer != "stepper.step"]

# name -> (unit, better); the order is the report order.
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}_self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}_calls"] = ("count", "lower")
PER_LAYER.update({
    "sparsela.lu_fill": ("ratio", "lower"),
    "sparsela.pcg_iters_per_solve": ("count", "lower"),
    "sparsela.refresh_ratio": ("ratio", "lower"),
    "vtkio.bytes": ("B", "lower"),
    "stepper.stage_coverage": ("ratio", "higher"),
    "trace_overhead_frac": ("ratio", "lower"),
})


def _keep_factor(tracer, args, result):
    # Extracting L and U copies them; that is done after the job (close).
    tracer.record("factors", args[0])


def _bytes_written(tracer, args, result):
    tracer.record("bytes", os.path.getsize(args[0]))


HOOKS = {
    "SpdFactor.__init__": _keep_factor,
    "experiments.write_vtk": _bytes_written,
    "experiments.write_surface_vtk": _bytes_written,
    "experiments.write_csv": _bytes_written,
}


def new_tracer():
    return Tracer({(owner, attr): span for owner, attr, span, _ in TRACE_POINTS}, HOOKS)


def close(tracer):
    """After the job: LU fill nnz(L+U)/nnz(A) of each factorization, then
    release the factors."""
    tracer.values["lu_fill"] = [
        (f._lu.L.nnz + f._lu.U.nnz) / f.matrix.nnz for f in tracer.values.pop("factors", [])
    ]


def job_metrics(tracer):
    """Per-layer metrics of one traced job, except ``trace_overhead_frac``."""
    names, starts, ends, parents = tracer.name, tracer.start, tracer.end, tracer.parent
    totals = layer_totals(names, starts, ends, parents, LAYER_OF)
    out = {}
    for layer in LAYERS:
        busy, self_s, calls = totals.get(layer, (0.0, 0.0, 0))
        out[f"{layer}_s"] = busy
        out[f"{layer}_self_s"] = self_s
        out[f"{layer}_calls"] = calls

    # A cached solve refreshed when it ran PCG (apply_inverse) and then
    # factorized; its first solve factorizes without PCG.
    pcg_parents = {parents[i] for i, n in enumerate(names) if n == "SpdFactor.apply_inverse"}
    refreshes = sum(
        1 for i, n in enumerate(names)
        if n == "SpdFactor.__init__" and parents[i] in pcg_parents
        and names[parents[i]] == "CachedSpdSolver.solve"
    )
    cached = out["sparsela.cached_solve_calls"]
    applies = names.count("SpdFactor.apply_inverse")
    out["sparsela.lu_fill"] = max(tracer.values.get("lu_fill", [0.0]))
    out["sparsela.pcg_iters_per_solve"] = applies / cached if cached else 0.0
    out["sparsela.refresh_ratio"] = refreshes / cached if cached else 0.0
    out["vtkio.bytes"] = sum(tracer.values.get("bytes", []))
    step_s = out["stepper.step_s"]
    out["stepper.stage_coverage"] = (
        sum(out[f"{stage}_s"] for stage in STAGES) / step_s if step_s else 0.0
    )
    return out
