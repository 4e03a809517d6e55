"""Experiment orchestration: configuration, runs, and file outputs.

A run is described by one JSON document with sections ``model``, ``geometry``,
``discretization`` and ``run``.  The runners build the mesh and initial data,
drive the time stepper, and emit CSV tables, VTK snapshots and a manifest.
Grid experiments (mesh/step-size sweeps) can run cells in parallel worker
processes; results are merged in a fixed order so outputs are byte-identical
for identical configurations.
"""

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .assembly import Assembler
from .errors import BulkgrowError, ConfigError, with_context
from .mesh import (
    boundary_element_measures,
    bulk_element_measures,
    generate_ball_mesh,
    generate_disk_mesh,
    generator_grid,
    load_mesh,
    quality_report,
)
from .norms import ERROR_QUANTITIES, estimated_orders, oracle_errors
from .oracle import RadialOracle
from .stability import stability_sweep
from .stepper import (
    History,
    ModelParams,
    Stepper,
    constant_source,
    ellipsoid_surface_fields,
    estimate_boundary_geometry,
    evolve,
    initial_state,
)
from .vtkio import write_csv, write_surface_vtk, write_vtk

_EXPR_ALLOWED = re.compile(r"[0-9xyzt+\-*/().\s]*\Z")


def worker_count():
    """Parallel worker cap from BULKGROW_THREADS (default: serial)."""
    value = os.environ.get("BULKGROW_THREADS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        raise ConfigError(f"BULKGROW_THREADS must be an integer, got {value!r}")


def parse_source(spec):
    """Source term from its config spelling.

    Accepts a plain number, ``"const:<value>"``, or ``"expr:<polynomial in
    x, y, z, t>"``.
    """
    if _is_number(spec):
        return constant_source(float(spec))
    if not isinstance(spec, str):
        raise ConfigError(f"cannot parse source term {spec!r}")
    if spec.startswith("const:"):
        try:
            return constant_source(float(spec[6:]))
        except ValueError:
            raise ConfigError(f"bad constant source {spec!r}") from None
    if spec.startswith("expr:"):
        body = spec[5:]
        # No powers: the expression is evaluated below, and 9**9**9 would
        # not finish.
        if not _EXPR_ALLOWED.fullmatch(body) or "**" in body:
            raise ConfigError(
                "source expressions may use x, y, z, t, digits and + - * / ( ), "
                "but not **"
            )
        try:
            code = compile(body, "<source>", "eval")
        except (SyntaxError, RecursionError) as exc:  # a long sum nests too deep
            raise ConfigError(f"source expression does not parse: {exc}") from None

        def q(points, time):
            # A numpy time divides by zero to inf, not to ZeroDivisionError;
            # assemble_f_u rejects values that are not finite.
            pts = np.atleast_2d(points)
            env = {
                "x": pts[:, 0],
                "y": pts[:, 1],
                "z": pts[:, 2] if pts.shape[1] > 2 else np.zeros(len(pts)),
                "t": np.float64(time),
            }
            with np.errstate(all="ignore"):
                value = eval(code, {"__builtins__": {}}, env)
            return np.broadcast_to(np.asarray(value, dtype=float), (len(pts),)).copy()

        try:
            trial = q(np.zeros((2, 3)), 0.0)
        except Exception as exc:
            raise ConfigError(f"source expression does not evaluate: {exc}")
        if not np.isfinite(trial).all():
            raise ConfigError(f"source expression {body!r} is not finite at the origin")
        return q
    raise ConfigError(f"cannot parse source term {spec!r}")


def load_config(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    # Bad UTF-8 is a ValueError too, and deep nesting exhausts the decoder's stack.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return validate_config(config)


def _is_number(value, integer=False):
    """True for a finite JSON number (an integral one if ``integer``)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max  # not inf or NaN, nor an int past float
        and (not integer or float(value).is_integer())
    )


def _check(ok, message):
    if not ok:
        raise ConfigError(message)


# Every key of each config section and its default; any other key is a
# configuration error.  None marks a required key, or one whose default is
# derived from others (h_levels, tau_levels, and the k of a file mesh).
CONFIG_KEYS = {
    "model": {"alpha": None, "beta": None, "mu": 0.0, "Q": 0.0},
    "geometry": {"kind": None, "radii": None, "h": None, "path": None},
    "discretization": {"k": 2, "q": 2, "tau": None, "T": None},
    "run": {"kind": None, "outputs": None, "seed_mode": "auto", "snapshots": 20,
            "h_levels": None, "tau_levels": None, "levels": 4, "error_samples": 40,
            "samples": 20, "seed": 0, "boost_iters": 20, "mode": "both",
            "mu_values": [0.0, 0.01, 0.1, 1.0]},
}

# Budgets of the counts a config sets, far above any documented run; a run
# over one exits 2 before its output directory is made, as one over the
# node cap does.  Snapshots, error samples and levels need none: the step
# budget bounds the first two, the node cap the levels.
MAX_STEPS = 10**6
MAX_SAMPLES = 1000
MAX_BOOST_ITERS = 1000


def setting(config, section, key):
    """``config[section][key]``, or the key's default in CONFIG_KEYS."""
    return config[section].get(key, CONFIG_KEYS[section][key])


def validate_config(config):
    """Check every field a runner reads; ConfigError names the first bad one."""
    _check(isinstance(config, dict), "config must be a JSON object")
    for section in CONFIG_KEYS:
        _check(section in config, f"missing config section {section!r}")
        _check(isinstance(config[section], dict),
               f"config section {section!r} must be a JSON object")
    unknown = sorted(set(config) - set(CONFIG_KEYS)) + sorted(
        f"{section}.{key}" for section, keys in CONFIG_KEYS.items()
        for key in set(config[section]) - set(keys))
    _check(not unknown, f"unknown config keys: {', '.join(unknown)}")
    model = config["model"]
    for key in ("alpha", "beta"):
        _check(_is_number(model.get(key)) and model[key] > 0,
               f"model.{key} must be a positive number")
    mu = setting(config, "model", "mu")
    _check(_is_number(mu) and mu >= 0, "model.mu must be a nonnegative number")
    parse_source(setting(config, "model", "Q"))

    geometry = config["geometry"]
    _check(geometry.get("kind") in ("disk", "ball", "ellipsoid", "file"),
           "geometry.kind must be disk, ball, ellipsoid or file")
    run = config["run"]
    if geometry["kind"] == "file":
        _check(isinstance(geometry.get("path"), str),
               "geometry.path required for kind=file")
        _check(run.get("kind") != "stability",
               "stability sweeps refine generated meshes, not geometry.kind=file")
    else:
        _check("h" in geometry, "geometry.h required for generated meshes")
        axes = _semi_axes(geometry)
        radius = min(axes)
        for h in [geometry["h"]] + _number_list(run, "h_levels"):
            _check(_is_number(h) and 0 < h < radius,
                   f"mesh sizes must be positive and below the radius {radius:g}")

    disc = config["discretization"]
    k, q = setting(config, "discretization", "k"), setting(config, "discretization", "q")
    _check(_is_number(k, integer=True) and k in (1, 2), "discretization.k must be 1 or 2")
    _check(_is_number(q, integer=True) and 1 <= q <= 6,
           "discretization.q must be an integer in 1..6")
    # Stability sweeps do not time-step, so only they may leave tau and T out.
    stepping = run.get("kind") != "stability"
    taus = [disc.get("tau")] if stepping or "tau" in disc else []
    for tau in taus + _number_list(run, "tau_levels"):
        _check(_is_number(tau) and tau > 0, "time steps must be positive numbers")
    if stepping or "T" in disc:
        end = disc.get("T")
        _check(_is_number(end) and end >= 0, "discretization.T must be a nonnegative number")
        _check(run.get("kind") != "converge" or end > 0,  # errors are sampled on steps
               "discretization.T must be positive for run.kind=converge")
    if stepping:
        for tau in taus + _number_list(run, "tau_levels"):
            steps = end / tau
            _check(steps <= MAX_STEPS,
                   f"discretization.T = {end:g} would take {steps:.3g} steps of "
                   f"tau = {tau:g}, over the budget of {MAX_STEPS}")
            # Within the budget, T / tau is off a whole number by roundoff
            # below 1e-9; a positive T is at least one step.
            _check(abs(steps - round(steps)) <= 1e-9 and (round(steps) > 0 or end == 0),
                   f"discretization.T must be a whole number of time steps "
                   f"(T / tau = {steps:.12g} for tau = {tau:g})")

    _check(run.get("kind") in ("simulate", "converge", "stability", "regularization"),
           "run.kind must be simulate, converge, stability or regularization")
    for key, minimum in (("snapshots", 0), ("seed", 0), ("levels", 1), ("samples", 1),
                         ("boost_iters", 0), ("error_samples", 1)):
        value = setting(config, "run", key)
        _check(_is_number(value, integer=True) and value >= minimum,
               f"run.{key} must be an integer >= {minimum}")
    for key, budget in (("samples", MAX_SAMPLES), ("boost_iters", MAX_BOOST_ITERS)):
        value = setting(config, "run", key)
        _check(value <= budget, f"run.{key} = {value:g} is over the budget of {budget}")
    for mu_value in _number_list(run, "mu_values"):
        _check(_is_number(mu_value) and mu_value >= 0,
               "run.mu_values must be nonnegative numbers")
    _check(setting(config, "run", "mode") in ("dirichlet", "robin", "both"),
           "run.mode must be dirichlet, robin or both")
    _check(setting(config, "run", "seed_mode") in ("auto", "oracle", "bootstrap"),
           "run.seed_mode must be auto, oracle or bootstrap")
    _check("outputs" not in run or isinstance(run["outputs"], str), "run.outputs must be a path")
    if geometry["kind"] != "file":
        for h in _mesh_sizes(config):  # stops at the first mesh over the cap
            generator_grid(axes, h, k)
    return config


def _mesh_sizes(config):
    """Yield the h of each mesh a run generates: the converge
    ``run.h_levels``, else ``run.levels`` halvings of ``geometry.h`` for a
    converge or stability run, else ``geometry.h``."""
    run = config["run"]
    base = float(config["geometry"]["h"])
    if run.get("kind") == "converge" and "h_levels" in run:
        yield from (float(h) for h in run["h_levels"])
    elif run.get("kind") in ("converge", "stability"):
        yield from (base / 2 ** j for j in range(int(setting(config, "run", "levels"))))
    else:
        yield base


def _number_list(run, key):
    """The list run[key], empty when absent; the caller checks its entries."""
    if key not in run:
        return []
    _check(isinstance(run[key], list) and run[key], f"run.{key} must be a non-empty list")
    return run[key]


def _semi_axes(geometry):
    """A generated domain as its semi-axes, one per ambient dimension: the
    one radius of a disk or a ball repeated, or an ellipsoid's three."""
    count, dimension = {"disk": (1, 2), "ball": (1, 3), "ellipsoid": (3, 3)}[geometry["kind"]]
    radii = geometry.get("radii")
    _check(isinstance(radii, list) and len(radii) == count,
           "geometry.radii must be a list: one radius for a disk or ball, "
           "three semi-axes for an ellipsoid")
    _check(all(_is_number(r) and r > 0 for r in radii),
           "geometry.radii must be positive numbers")
    return [float(r) for r in radii] * (dimension // count)


def build_geometry(geometry, degree=None):
    """Mesh plus initial boundary fields (normal, curvature) for a config: a
    generated mesh of ``degree`` (default: that of ``discretization.k``), or
    a loaded one, which keeps its file's degree; a ``degree`` given must
    match it."""
    kind = geometry["kind"]
    if kind == "file":
        mesh = load_mesh(geometry["path"])
        _check(degree in (None, mesh.degree_k),
               f"discretization.k = {degree}, but {geometry['path']} holds a mesh "
               f"of degree {mesh.degree_k}")
        normal, curvature = estimate_boundary_geometry(mesh)
        return mesh, normal, curvature
    axes = _semi_axes(geometry)
    h = float(geometry["h"])
    degree = degree or CONFIG_KEYS["discretization"]["k"]
    if kind == "disk":
        mesh = generate_disk_mesh(axes[0], h, degree=degree)
    else:
        mesh = generate_ball_mesh(axes, h, degree=degree)
    normal, curvature = ellipsoid_surface_fields(mesh.boundary_positions, axes)
    return mesh, normal, curvature


def build_params(config, mesh):
    """Model constants; the source must be finite on the initial boundary."""
    model = config["model"]
    source = parse_source(setting(config, "model", "Q"))
    finite = np.isfinite(source(mesh.boundary_positions, 0.0)).all()
    _check(finite, "model.Q is not finite on the initial boundary")
    return ModelParams(
        alpha=float(model["alpha"]),
        beta=float(model["beta"]),
        mu=float(setting(config, "model", "mu")),
        source=source,
    )


def compatible_oracle(config, mesh=None):
    """RadialOracle for the config, or None when no closed form applies: it
    applies to a disk or a ball with a constant source.

    The boundary dimension follows from ``geometry.kind``, so no mesh is
    needed; ``mesh`` is ignored, and kept for the benchmark's workloads,
    which pass one.
    """
    geometry = config["geometry"]
    if geometry["kind"] not in ("disk", "ball"):
        return None
    q_value = getattr(parse_source(setting(config, "model", "Q")), "value", None)
    if q_value is None:
        return None
    return RadialOracle(
        dim_m=1 if geometry["kind"] == "disk" else 2,
        initial_radius=_semi_axes(geometry)[0],
        source=q_value,
        alpha=float(config["model"]["alpha"]),
        beta=float(config["model"]["beta"]),
    )


def seed_history(config, stepper, normal, curvature):
    """Seed states of the run ``stepper`` takes: the q states of the closed
    form when one exists, otherwise the initial state alone (whose solves
    run on the stepper).  ``evolve`` completes a short seed with start
    steps."""
    mode = setting(config, "run", "seed_mode")
    oracle = compatible_oracle(config)
    if mode == "oracle" and oracle is None:
        raise ConfigError("run.seed_mode=oracle requires sphere data and constant Q")
    if oracle is not None and mode != "bootstrap":
        return oracle.seed_history(stepper.mesh, stepper.tau, stepper.scheme.order)
    return History([initial_state(stepper, normal, curvature)])


def _n_steps(disc):
    """Time steps of a discretization section."""
    return int(round(float(disc["T"]) / float(disc["tau"])))


def _start(config, built=None):
    """(stepper, history, n_steps) of a time-stepping run: the config's mesh
    (or ``built``, its ``build_geometry`` result) and model, and its seed
    states (``seed_history``)."""
    disc = config["discretization"]
    mesh, normal, curvature = built or build_geometry(config["geometry"], disc.get("k"))
    stepper = Stepper(mesh, build_params(config, mesh),
                      int(setting(config, "discretization", "q")), float(disc["tau"]))
    return stepper, seed_history(config, stepper, normal, curvature), _n_steps(disc)


def _sampler(n_steps, count):
    """Predicate on step indices 0..n_steps-1: about ``count`` evenly spaced
    steps, always including the last."""
    every = max(1, n_steps // max(count, 1))
    return lambda k: (k + 1) % every == 0 or k + 1 == n_steps


def _make_outdir(outdir):
    """Create the output directory; ConfigError if it cannot be."""
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None


def _finish(outdir, config, mesh_report, aborted=None, **extra):
    """Write manifest.json (version, config, the ``quality_report`` of a
    mesh, ``aborted``: the failure's message or null, and ``extra``), then
    re-raise ``aborted`` if the run failed."""
    manifest = {
        "version": __version__,
        "config": config,
        "mesh": mesh_report,
        "aborted": None if aborted is None else str(aborted),
        **extra,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if aborted is not None:
        raise aborted


def _diagnostics_row(mesh, state):
    ng = mesh.n_boundary
    radii = np.linalg.norm(state.positions[:ng], axis=1)
    return {
        "time": float(state.time),
        "boundary_measure": float(
            boundary_element_measures(mesh, state.positions).sum()
        ),
        "bulk_measure": float(bulk_element_measures(mesh, state.positions).sum()),
        "min_H": float(state.curvature.min()),
        "max_H": float(state.curvature.max()),
        "min_u_trace": float(state.pressure[:ng].min()),
        "max_u_trace": float(state.pressure[:ng].max()),
        "mean_radius": float(radii.mean()),
        "radius_std": float(radii.std()),
    }


_DIAG_COLUMNS = [
    "time", "boundary_measure", "bulk_measure", "min_H", "max_H",
    "min_u_trace", "max_u_trace", "mean_radius", "radius_std",
]


def run_simulate(config, outdir):
    """Time-step to the final time, writing snapshots and diagnostics."""
    stepper, history, n_steps = _start(config)
    mesh = stepper.mesh
    _make_outdir(outdir)  # after set-up: a bad config leaves none
    keep = _sampler(n_steps, int(setting(config, "run", "snapshots")))
    diag_rows = []

    def snapshot(state):
        tag = f"{len(diag_rows):04d}"
        diag_rows.append(_diagnostics_row(mesh, state))
        write_vtk(os.path.join(outdir, f"snapshot_{tag}.vtk"), mesh, state)
        write_surface_vtk(os.path.join(outdir, f"surface_{tag}.vtk"), mesh, state)

    def observer(step, state):
        if step == 0:
            snapshot(history[1])  # the completed seed, where the time loop starts
        if keep(step):
            snapshot(state)

    aborted = None
    try:
        evolve(stepper, history, n_steps, observer)
    except BulkgrowError as exc:
        aborted = exc
    # The last good state, unless it was written: after a failure, or the
    # completed seed of a run without steps.
    if not diag_rows or diag_rows[-1]["time"] < history[0].time:
        snapshot(history[0])
    write_csv(os.path.join(outdir, "diagnostics.csv"), _DIAG_COLUMNS, diag_rows)
    _finish(outdir, config, quality_report(mesh), aborted)
    return outdir


def run_convergence_cell(config):
    """One (h, tau) cell of the radial convergence study; picklable worker.

    ``config`` is the study's, with the cell's ``geometry.h`` and
    ``discretization.tau``.  The cell starts as a simulation does
    (``run.seed_mode`` applies) and samples the errors against the nodal
    interpolation of the radial solution at ``run.error_samples`` uniformly
    spaced steps.  The row holds h, tau, the sup errors and, under ``mesh``,
    the mesh's ``quality_report``.  A failure's message is prefixed with
    ``cell h=<h>, tau=<tau>``.
    """
    try:
        stepper, history, n_steps = _start(config)
        mesh = stepper.mesh
        oracle = compatible_oracle(config)
        keep = _sampler(n_steps, int(setting(config, "run", "error_samples")))
        sup = dict.fromkeys(ERROR_QUANTITIES, 0.0)  # errors are norms: >= 0

        def observer(step, state):
            if keep(step):
                mats = stepper.assembler.system(state.positions)
                errors = oracle_errors(state, oracle, mesh, mats)
                sup.update((q, max(sup[q], errors[q])) for q in ERROR_QUANTITIES)

        evolve(stepper, history, n_steps, observer)
    except BulkgrowError as exc:
        h, tau = config["geometry"]["h"], config["discretization"]["tau"]
        raise with_context(exc, f"cell h={float(h):g}, tau={float(tau):g}")
    return {"h": mesh.mesh_size_h, "tau": stepper.tau,
            **{f"err_{q}": sup[q] for q in ERROR_QUANTITIES},
            "mesh": quality_report(mesh)}


def _cell_outcome(config):
    """The row of ``run_convergence_cell``, or the BulkgrowError it raised."""
    try:
        return run_convergence_cell(config)
    except BulkgrowError as exc:
        return exc


CONVERGE_COLUMNS = (
    ["h", "tau"]
    + [f"err_{q}" for q in ERROR_QUANTITIES]
    + [f"eoc_h_{q}" for q in ERROR_QUANTITIES]
    + [f"eoc_tau_{q}" for q in ERROR_QUANTITIES]
)


def _attach_eoc(rows):
    """EOC columns vs the previous h (same tau) and previous tau (same h)."""
    for step, fixed in (("h", "tau"), ("tau", "h")):
        groups = {}
        for row in rows:
            for q in ERROR_QUANTITIES:
                row[f"eoc_{step}_{q}"] = ""
            groups.setdefault(row[fixed], []).append(row)
        for group in groups.values():
            group.sort(key=lambda r: -r[step])
            for prev, cur in zip(group, group[1:]):
                for q in ERROR_QUANTITIES:
                    orders = estimated_orders(
                        [prev[f"err_{q}"], cur[f"err_{q}"]], [prev[step], cur[step]]
                    )
                    cur[f"eoc_{step}_{q}"] = float(orders[0])
    return rows


def run_converge(config, outdir):
    """h x tau error grid against the radial solution, with EOC columns.

    Every cell runs.  The rows of the cells that finished are written in
    cell order, with EOCs between them, and the manifest holds the first
    row's mesh; the first failure in cell order is then re-raised."""
    disc = config["discretization"]
    run = config["run"]
    geometry = config["geometry"]
    oracle = compatible_oracle(config)
    if oracle is None:
        raise ConfigError("convergence study needs sphere/disk geometry and constant Q")
    tau_levels = run.get("tau_levels", [float(disc["tau"])])
    grid = [(h, float(tau)) for h in _mesh_sizes(config) for tau in tau_levels]
    cells = [{**config, "geometry": {**geometry, "h": h},
              "discretization": {**disc, "tau": tau}} for h, tau in grid]
    workers = min(worker_count(), len(cells))
    _make_outdir(outdir)  # after set-up: a bad config leaves none
    dispatch = list(range(len(cells)))
    if workers > 1:
        # Dispatch expensive cells first so workers stay balanced.
        dispatch.sort(key=lambda i: -(1.0 / grid[i][0]) ** (oracle.dim_m + 1) / grid[i][1])
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = (pool.map if pool else map)(_cell_outcome, [cells[i] for i in dispatch])
        outcomes = [outcome for _, outcome in sorted(zip(dispatch, results))]
    rows = [o for o in outcomes if not isinstance(o, BulkgrowError)]
    aborted = next((o for o in outcomes if isinstance(o, BulkgrowError)), None)
    reports = [row.pop("mesh") for row in rows]
    write_csv(os.path.join(outdir, "converge.csv"), CONVERGE_COLUMNS, _attach_eoc(rows))
    _finish(outdir, config, reports[0] if reports else None, aborted)
    return rows


STABILITY_COLUMNS = ["level", "h", "N", "N_Gamma", "max_ratio", "argmax_seed"]


def run_stability(config, outdir):
    """Stability-ratio sweeps over refinement levels, one CSV per mode; the
    modes share each level's mesh and assembled matrices.

    On a numerical failure the finished levels' rows and an ``"aborted"``
    manifest are written before the error is re-raised."""
    geometry = config["geometry"]
    run = config["run"]
    degree = config["discretization"].get("k")
    samples = int(setting(config, "run", "samples"))
    seed = int(setting(config, "run", "seed"))
    boost = int(setting(config, "run", "boost_iters"))
    modes = setting(config, "run", "mode")
    modes = ("dirichlet", "robin") if modes == "both" else (modes,)
    meshes = [build_geometry({**geometry, "h": h}, degree)[0] for h in _mesh_sizes(config)]
    systems = [(mesh, Assembler(mesh).system()) for mesh in meshes]
    _make_outdir(outdir)  # after set-up: a bad config leaves none
    results = {}
    aborted = None
    for mode in modes:
        rows = []
        try:
            stability_sweep(systems, mode, samples=samples, seed=seed,
                            boost_iters=boost, observer=rows.append)
        except BulkgrowError as exc:
            aborted = exc
        write_csv(os.path.join(outdir, f"stability_{mode}.csv"), STABILITY_COLUMNS, rows)
        results[mode] = rows
        if aborted is not None:
            break
    _finish(outdir, config, quality_report(meshes[0]), aborted, seed=seed)
    return results


REGULARIZATION_COLUMNS = [
    "time", "mu", "max_boundary_displacement_vs_mu0", "max_trace_diff_vs_mu0",
]


def run_regularization(config, outdir):
    """Re-run identical initial data across surface-diffusion strengths.

    Reports, at the snapshot times, the largest boundary-node displacement
    and trace difference of each run relative to the baseline without
    regularization.  A failure's message is prefixed with ``mu=<mu>``.
    """
    mu_values = [float(v) for v in setting(config, "run", "mu_values")]
    if 0.0 not in mu_values:
        mu_values = [0.0] + mu_values
    built = build_geometry(config["geometry"], config["discretization"].get("k"))
    mesh = built[0]
    build_params(config, mesh)  # a bad source leaves no output directory
    _make_outdir(outdir)  # after set-up: a bad config leaves none
    keep = _sampler(_n_steps(config["discretization"]),
                    int(setting(config, "run", "snapshots")))
    ng = mesh.n_boundary

    traces = {}
    aborted = None
    # The baseline runs first: every row compares a run with it.
    for mu in sorted(dict.fromkeys(mu_values), key=lambda value: value != 0.0):
        samples = []

        def observer(step, state):
            if keep(step):
                samples.append(
                    (state.time, state.positions[:ng].copy(),
                     state.pressure[:ng].copy())
                )

        run = {**config, "model": {**config["model"], "mu": mu},
               "run": {**config["run"], "seed_mode": "bootstrap"}}
        try:
            stepper, history, n_steps = _start(run, built)
            evolve(stepper, history, n_steps, observer)
        except BulkgrowError as exc:
            # Flush the samples so far against the baseline before propagating.
            aborted = with_context(exc, f"mu={mu:g}")
        if aborted is None or mu != 0.0:
            traces[mu] = samples
        if aborted is not None:
            break

    base = traces.get(0.0, [])
    rows = []
    for mu in mu_values:
        for (t, x, u), (_, x0, u0) in zip(traces.get(mu, []), base):
            rows.append(
                {
                    "time": float(t),
                    "mu": mu,
                    "max_boundary_displacement_vs_mu0": float(
                        np.linalg.norm(x - x0, axis=1).max()
                    ),
                    "max_trace_diff_vs_mu0": float(np.abs(u - u0).max()),
                }
            )
    write_csv(
        os.path.join(outdir, "regularization.csv"), REGULARIZATION_COLUMNS, rows
    )
    _finish(outdir, config, quality_report(mesh), aborted)
    return rows
