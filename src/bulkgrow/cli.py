"""Command-line driver.

Subcommands: ``simulate``, ``converge``, ``stability`` and ``mesh gen`` /
``mesh info``.  A run subcommand runs the config's ``run.kind`` if it is one of
its own (``simulate`` also runs ``regularization``); any other kind is a
configuration error.  Exit code 0 on success, 2 for configuration errors (a bad
argument, config or mesh file, a mesh over the node cap, or an output path that
cannot be created), 3 for numerical failures.  BULKGROW_THREADS caps worker parallelism for grid
experiments.
"""

import argparse
import json
import sys

from .errors import BulkgrowError, ConfigError, MeshFormatError, ResourceError, ValidationError
from .experiments import (
    load_config,
    run_converge,
    run_regularization,
    run_simulate,
    run_stability,
    setting,
)
from .mesh import generate_ball_mesh, generate_disk_mesh, load_mesh, quality_report, save_mesh

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bulkgrow",
        description="Evolving bulk-surface finite element simulation of "
                    "free-boundary tissue growth",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (
        ("simulate", "time-step a configuration to its final time"),
        ("converge", "mesh/time-step error study against the radial solution"),
        ("stability", "boundary-value stability ratio sweeps"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("config", help="JSON configuration file")
        p.add_argument("-o", "--outdir", default=None,
                       help="output directory (default: run.outputs)")

    mesh = sub.add_parser("mesh", help="generate or inspect .bsm meshes")
    mesh_sub = mesh.add_subparsers(dest="mesh_command", required=True)
    gen = mesh_sub.add_parser("gen", help="generate a mesh file")
    gen.add_argument("kind", choices=["disk", "ball", "ellipsoid"])
    gen.add_argument("--h", type=float, required=True, help="target mesh size")
    gen.add_argument("--radius", type=float, help="radius of a disk or ball")
    gen.add_argument("--radii", type=float, nargs=3, help="semi-axes of an ellipsoid")
    gen.add_argument("--degree", type=int, default=1, choices=[1, 2])
    gen.add_argument("-o", "--output", required=True)
    info = mesh_sub.add_parser("info", help="print mesh statistics")
    info.add_argument("path")
    return parser


def _outdir(args, config):
    outdir = args.outdir or setting(config, "run", "outputs")
    if not outdir:
        raise ConfigError("no output directory (run.outputs or --outdir)")
    return outdir


# Subcommand -> {run.kind: runner} for each run.kind it runs.
RUNNERS = {
    "simulate": {"simulate": run_simulate, "regularization": run_regularization},
    "converge": {"converge": run_converge},
    "stability": {"stability": run_stability},
}


def _cmd_run(args):
    config = load_config(args.config)
    kind = config["run"]["kind"]
    runners = RUNNERS[args.command]
    if kind not in runners:
        owner = next(name for name, kinds in RUNNERS.items() if kind in kinds)
        raise ConfigError(
            f"run.kind={kind} runs under 'bulkgrow {owner}', not 'bulkgrow {args.command}'"
        )
    runners[kind](config, _outdir(args, config))
    return EXIT_OK


def _cmd_mesh(args):
    if args.mesh_command == "info":
        mesh = load_mesh(args.path)
        print(json.dumps(quality_report(mesh), indent=2, sort_keys=True))
        return EXIT_OK
    flag, other = ("radii", "radius") if args.kind == "ellipsoid" else ("radius", "radii")
    if getattr(args, other) is not None:
        raise ConfigError(f"{args.kind} meshes take --{flag}, not --{other}")
    if getattr(args, flag) is None:
        raise ConfigError(f"{args.kind} meshes need --{flag}")
    try:
        if args.kind == "disk":
            mesh = generate_disk_mesh(args.radius, args.h, degree=args.degree)
        else:
            mesh = generate_ball_mesh(args.radii or [args.radius] * 3, args.h,
                                      degree=args.degree)
    except (ValidationError, ResourceError) as exc:  # the generators' checks
        raise ConfigError(str(exc)) from None
    save_mesh(mesh, args.output)
    print(json.dumps(quality_report(mesh), indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _cmd_mesh if args.command == "mesh" else _cmd_run
    try:
        return handler(args)
    except (ConfigError, MeshFormatError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BulkgrowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
