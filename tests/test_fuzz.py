"""A seeded fuzz of the command-line contract, run in process.

Every case mutates one or two keys of a small valid ``simulate``,
``converge``, ``stability`` or ``regularization`` config.  The keys come from
``CONFIG_KEYS`` and the values from a fixed pool of awkward JSON values (or
the key is deleted).  Whatever the input, ``cli.main`` must return 0, 2 or 3,
print exactly one stderr line when it fails, raise nothing and warn nothing,
and leave no output directory after a configuration error (exit 2).

Most awkward values are invalid for every key, so those cases stop in
validation.  The in-range cases set one key to an extreme value the key
accepts (one level, one sample, no boost, q = 6, T of one step, ...), so
they pass validation and reach a runner and its solvers: they must exit 0,
or 3 on a numerical failure, never 2.

The ``.bsm`` cases mutate small saved meshes (a flipped bit, truncation at a
line, a deleted or duplicated line, two sections swapped).  ``mesh info``
must exit 0 or 2 on them, and a two-step ``geometry.kind: file`` simulate 0,
2 or 3, under the same contract.

The ``slow`` half runs further seeds of both generators through
``python -W error -m bulkgrow.cli`` in a subprocess each, one at a time and
with a time limit, so a hang, a traceback or a warning printed outside
``cli.main`` also breaks the contract.
"""

import json
import os
from pathlib import Path
import random
import subprocess
import sys
import warnings

import pytest

import bulkgrow
from bulkgrow.cli import main
from bulkgrow.experiments import CONFIG_KEYS
from bulkgrow.mesh import generate_ball_mesh, generate_disk_mesh, save_mesh

DELETE = "<deleted>"
POOL = [None, True, False, 0, -1, 1e-300, 1e300, float("nan"), float("inf"),
        "", "x", [], [1], {}, {"a": 1}, 10**30, DELETE]

MODEL = {"alpha": 1.0, "beta": 1.0, "mu": 0.0, "Q": "const:1.5"}
DISK = {"kind": "disk", "radii": [1.0], "h": 0.5}
BASES = {
    "simulate": {
        "model": MODEL, "geometry": DISK,
        "discretization": {"k": 2, "q": 2, "tau": 2e-3, "T": 6e-3},
        "run": {"kind": "simulate", "outputs": "out", "snapshots": 2},
    },
    "converge": {
        "model": MODEL, "geometry": DISK,
        "discretization": {"k": 1, "q": 2, "tau": 2e-3, "T": 4e-3},
        "run": {"kind": "converge", "outputs": "out", "h_levels": [0.5],
                "tau_levels": [2e-3], "error_samples": 2},
    },
    "stability": {
        "model": MODEL, "geometry": DISK,
        "discretization": {"k": 1},
        "run": {"kind": "stability", "outputs": "out", "levels": 1, "samples": 2,
                "boost_iters": 1, "mode": "both", "seed": 0},
    },
    "regularization": {
        "model": MODEL, "geometry": DISK,
        "discretization": {"k": 1, "q": 2, "tau": 2e-3, "T": 4e-3},
        "run": {"kind": "regularization", "outputs": "out", "mu_values": [0.0, 0.1],
                "snapshots": 2},
    },
}
COMMAND = {"simulate": "simulate", "converge": "converge", "stability": "stability",
           "regularization": "simulate"}
KEYS = [(section, key) for section, keys in CONFIG_KEYS.items() for key in keys]


def mutation(seed):
    """(run kind, [(section, key, value)]) of case ``seed``."""
    rng = random.Random(seed)
    kind = sorted(BASES)[seed % len(BASES)]
    picks = rng.sample(KEYS, rng.choice([1, 2]))
    return kind, [(section, key, rng.choice(POOL)) for section, key in picks]


# The unmutated bases come first: each must run, or every mutation of it
# would only meet the error its base already has.
CASES = [(kind, []) for kind in sorted(BASES)] + [mutation(seed) for seed in range(52)]


# In-range extremes per key, each set on every base.  Every base has
# tau = 2e-3 and converge's tau_levels are [2e-3], so T = 2e-3 is one step.
EXTREMES = {
    ("model", "alpha"): [1e-6, 1e6],
    ("model", "beta"): [1e-6, 1e6],
    ("model", "mu"): [10.0],
    ("model", "Q"): [-1.5, "const:0"],
    ("geometry", "kind"): ["ball"],
    ("geometry", "radii"): [[0.51], [3.0]],
    ("geometry", "h"): [0.99],
    ("discretization", "k"): [1, 2],
    ("discretization", "q"): [1, 6],
    ("discretization", "T"): [2e-3],
    ("run", "snapshots"): [0, 1],
    ("run", "seed_mode"): ["oracle", "bootstrap"],
    ("run", "h_levels"): [[0.99]],
    ("run", "levels"): [1, 3],
    ("run", "error_samples"): [1],
    ("run", "samples"): [1],
    ("run", "seed"): [2**64],
    ("run", "boost_iters"): [0],
    ("run", "mode"): ["dirichlet", "robin"],
    ("run", "mu_values"): [[0.0], [1e3]],
    ("run", "outputs"): ["nested/out"],
}
IN_RANGE = [(kind, [(section, key, value)]) for kind in sorted(BASES)
            for (section, key), values in EXTREMES.items() for value in values]


def case_id(case):
    kind, changes = case
    return kind + ":" + ",".join(f"{s}.{k}={v!r}" for s, k, v in changes)


def check_contract(code, err):
    """The part of the contract that holds for every input."""
    assert code in (0, 2, 3), err
    if code == 0:
        assert err == ""
    else:
        prefix = "configuration error: " if code == 2 else "numerical failure: "
        assert err.startswith(prefix) and err.count("\n") == 1, err
    return code, err


@pytest.fixture
def in_process(tmp_path, monkeypatch, capsys):
    """Runs ``cli.main(argv)`` in ``tmp_path`` with warnings as errors and
    returns the checked (exit code, stderr)."""
    monkeypatch.chdir(tmp_path)  # a mutated run.outputs stays in tmp_path

    def run(argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        return check_contract(code, capsys.readouterr().err)
    return run


# A case's wall-time limit; a default-sized case takes about a second.
CASE_SECONDS = 60


@pytest.fixture
def in_subprocess(tmp_path):
    """Runs ``python -W error -m bulkgrow.cli argv`` in ``tmp_path`` and
    returns the checked (exit code, stderr)."""
    path = [str(Path(bulkgrow.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def run(argv):
        done = subprocess.run([sys.executable, "-W", "error", "-m", "bulkgrow.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=CASE_SECONDS)
        return check_contract(done.returncode, done.stderr)
    return run


def run_case(tmp_path, run, case):
    """(exit code, stderr) of the CLI on the mutated base; checks the
    contract that holds for every case."""
    kind, changes = case
    config = json.loads(json.dumps(BASES[kind]))
    for section, key, value in changes:
        if value == DELETE:
            config[section].pop(key, None)
        else:
            config[section][key] = value
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, err = run([COMMAND[kind], "config.json"])
    assert code == 0 or changes
    if code == 2:
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    return code, err


@pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
def test_cli_contract(tmp_path, in_process, case):
    run_case(tmp_path, in_process, case)


@pytest.mark.parametrize("case", IN_RANGE, ids=[case_id(c) for c in IN_RANGE])
def test_in_range_reaches_a_runner(tmp_path, in_process, case):
    code, err = run_case(tmp_path, in_process, case)
    assert code in (0, 3), err


# Config seeds past the in-process ones.
SLOW_CASES = [mutation(seed) for seed in range(52, 202)]


@pytest.mark.slow
@pytest.mark.parametrize("case", SLOW_CASES, ids=[case_id(c) for c in SLOW_CASES])
def test_cli_contract_in_a_subprocess(tmp_path, in_subprocess, case):
    run_case(tmp_path, in_subprocess, case)


MESHES = {
    "disk_p1": lambda: generate_disk_mesh(1.0, 0.5, degree=1),
    "disk_p2": lambda: generate_disk_mesh(1.0, 0.5, degree=2),
    "ball_p1": lambda: generate_ball_mesh([1.0, 1.0, 1.0], 0.7, degree=1),
}
BSM_MUTATIONS = ("flip", "truncate", "delete", "duplicate", "swap")
BSM_SEEDS = range(50)


def bsm_case(seed):
    """(mesh name, mutation) of ``.bsm`` case ``seed``: every pair recurs."""
    return sorted(MESHES)[seed // len(BSM_MUTATIONS) % len(MESHES)], \
        BSM_MUTATIONS[seed % len(BSM_MUTATIONS)]


@pytest.fixture(scope="module")
def saved_meshes(tmp_path_factory):
    """(degree, bytes of the saved file) per name in MESHES."""
    out = {}
    for name, make in MESHES.items():
        mesh = make()
        path = tmp_path_factory.mktemp("bsm") / f"{name}.bsm"
        save_mesh(mesh, path)
        out[name] = (mesh.degree_k, path.read_bytes())
    return out


def mutate_bsm(data, mutation, rng):
    """``data`` with one seeded mutation."""
    lines = data.splitlines(keepends=True)
    if mutation == "flip":
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(flipped)
    at = rng.randrange(len(lines))
    if mutation == "truncate":
        return b"".join(lines[:at])
    if mutation == "delete":
        return b"".join(lines[:at] + lines[at + 1:])
    if mutation == "duplicate":
        return b"".join(lines[:at + 1] + lines[at:])
    heads = [i for i, line in enumerate(lines)
             if line.strip() in (b"NODES", b"ELEMENTS", b"BOUNDARY")] + [len(lines)]
    sections = [lines[a:b] for a, b in zip(heads, heads[1:])]
    i, j = rng.sample(range(len(sections)), 2)
    sections[i], sections[j] = sections[j], sections[i]
    return b"".join(lines[:heads[0]] + [line for section in sections for line in section])


def run_mesh_file_case(tmp_path, run, saved_meshes, seed):
    """``mesh info`` and a two-step simulate on the mutated file of ``.bsm``
    case ``seed``; checks the contract of each."""
    name, mutation = bsm_case(seed)
    degree, data = saved_meshes[name]
    (tmp_path / "mesh.bsm").write_bytes(mutate_bsm(data, mutation, random.Random(seed)))
    code, err = run(["mesh", "info", "mesh.bsm"])
    assert code in (0, 2), err
    config = {
        "model": MODEL,
        "geometry": {"kind": "file", "path": "mesh.bsm"},
        "discretization": {"k": degree, "q": 2, "tau": 2e-3, "T": 4e-3},
        "run": {"kind": "simulate", "outputs": "out", "snapshots": 1},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, err = run(["simulate", "config.json"])
    if code == 2:
        assert not (tmp_path / "out").exists(), err


def bsm_id(seed):
    return f"{seed}-" + "-".join(bsm_case(seed))


@pytest.mark.parametrize("seed", BSM_SEEDS, ids=[bsm_id(seed) for seed in BSM_SEEDS])
def test_mutated_mesh_file(tmp_path, in_process, saved_meshes, seed):
    run_mesh_file_case(tmp_path, in_process, saved_meshes, seed)


# .bsm seeds past the in-process ones.
SLOW_BSM_SEEDS = range(50, 100)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_BSM_SEEDS, ids=[bsm_id(seed) for seed in SLOW_BSM_SEEDS])
def test_mutated_mesh_file_in_a_subprocess(tmp_path, in_subprocess, saved_meshes, seed):
    run_mesh_file_case(tmp_path, in_subprocess, saved_meshes, seed)
