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
"""

import json
import random
import warnings

import pytest

from bulkgrow.cli import main
from bulkgrow.experiments import CONFIG_KEYS

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


def run_case(tmp_path, monkeypatch, capsys, case):
    """(exit code, stderr) of ``cli.main`` on the mutated base; checks the
    contract that holds for every case."""
    kind, changes = case
    config = json.loads(json.dumps(BASES[kind]))
    for section, key, value in changes:
        if value == DELETE:
            config[section].pop(key, None)
        else:
            config[section][key] = value
    (tmp_path / "config.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)  # a mutated run.outputs stays in tmp_path
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([COMMAND[kind], "config.json"])
    err = capsys.readouterr().err
    assert code in (0, 2, 3) and (code == 0 or changes)
    if code == 0:
        assert err == ""
    else:
        prefix = "configuration error: " if code == 2 else "numerical failure: "
        assert err.startswith(prefix) and err.count("\n") == 1, err
    if code == 2:
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    return code, err


@pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
def test_cli_contract(tmp_path, monkeypatch, capsys, case):
    run_case(tmp_path, monkeypatch, capsys, case)


@pytest.mark.parametrize("case", IN_RANGE, ids=[case_id(c) for c in IN_RANGE])
def test_in_range_reaches_a_runner(tmp_path, monkeypatch, capsys, case):
    code, err = run_case(tmp_path, monkeypatch, capsys, case)
    assert code in (0, 3), err
