import csv
import json
import math

import numpy as np
import pytest

from bulkgrow.assembly import Assembler
from bulkgrow.cli import main
from bulkgrow.errors import ValidationError
from bulkgrow.mesh import generate_ball_mesh, generate_disk_mesh
from bulkgrow.norms import HalfNorm, surface_spectrum
from bulkgrow.sparsela import SpdFactor, dirichlet_extension
from bulkgrow.stability import DirichletRatio, RobinRatio, stability_sweep


def dirichlet_ratio(level):
    """DirichletRatio of one (mesh, matrices) level, with its bulk mass."""
    mesh, mats = level
    return DirichletRatio(mats, Assembler(mesh).bulk_mass())


def dirichlet(level, g):
    """Dirichlet ratio with the spectrum and interior factor of the level."""
    return dirichlet_ratio(level)(g)


def robin(mats, g):
    """Robin ratio with the factorized unit Robin matrix of ``mats``."""
    return RobinRatio(mats)(g)


def half_norm(g, mats):
    """||g||_{H^1/2} on the boundary of ``mats``."""
    return HalfNorm(mats, surface_spectrum(mats.surface)).norms(g)


def bulk_h1_norm(values, level):
    """sqrt(v^T (A + M) v) on the bulk of a (mesh, matrices) level."""
    mesh, mats = level
    return math.sqrt(values @ ((mats.stiff_bulk + Assembler(mesh).bulk_mass()) @ values))


def growth_factors(rows):
    """Per-level growth factors of the max ratio."""
    ratios = [row["max_ratio"] for row in rows]
    return [b / a for a, b in zip(ratios, ratios[1:])]


@pytest.fixture(scope="module")
def disk():
    mesh = generate_disk_mesh(1.0, 0.15, degree=1)
    return mesh, Assembler(mesh).system()


@pytest.fixture(scope="module")
def ball_levels():
    """Three P1 unit balls, h = 0.5, 0.35, 0.25 (512 to 3,375 nodes), with
    their matrices; their sweeps factor on the 3d Dissection path."""
    meshes = [generate_ball_mesh([1.0, 1.0, 1.0], h, degree=1) for h in (0.5, 0.35, 0.25)]
    return [(mesh, Assembler(mesh).system()) for mesh in meshes]


class TestDirichletRatio:
    def test_constant_field(self, disk):
        mesh, mats = disk
        g = np.ones(mesh.n_boundary)
        # Extension of a constant is the constant: ratio
        # sqrt(|Omega| / |Gamma|) -> sqrt(1/2) on the unit disk.
        assert dirichlet(disk, g) == pytest.approx(
            math.sqrt(0.5), rel=5e-3
        )

    def test_zero_field(self, disk):
        mesh, mats = disk
        assert dirichlet(disk, np.zeros(mesh.n_boundary)) == 0.0

    def test_affine_trace(self, disk):
        mesh, mats = disk
        coeffs = np.array([0.8, -0.4])
        affine = mesh.node_positions @ coeffs + 0.2
        g = affine[: mesh.n_boundary]
        expected = bulk_h1_norm(affine, disk) / half_norm(g, mats)
        assert dirichlet(disk, g) == pytest.approx(expected, rel=1e-10)

    def test_scale_invariance(self, disk):
        mesh, mats = disk
        rng = np.random.default_rng(0)
        g = rng.standard_normal(mesh.n_boundary)
        base = dirichlet(disk, g)
        for s in (3.0, -0.2, 1e4):
            assert dirichlet(disk, s * g) == pytest.approx(base, rel=1e-12)

    def test_energy_minimality_against_zero_extension(self, disk):
        mesh, mats = disk
        rng = np.random.default_rng(1)
        g = rng.standard_normal(mesh.n_boundary)
        denom = half_norm(g, mats)
        competitor = np.zeros(mesh.n_nodes)
        competitor[: mesh.n_boundary] = g
        competitor_ratio = bulk_h1_norm(competitor, disk) / denom
        assert dirichlet(disk, g) <= competitor_ratio + 1e-12


class TestRobinRatio:
    def test_constant_on_circle(self, disk):
        mesh, mats = disk
        g = np.full(mesh.n_boundary, 1.7)
        # The exact solution of the unit Robin problem with constant data is
        # the constant itself, whose trace has equal H1 and L2 norms.
        assert robin(mats, g) == pytest.approx(1.0, abs=2e-2)

    def test_zero_field(self, disk):
        mesh, mats = disk
        assert robin(mats, np.zeros(mesh.n_boundary)) == 0.0

    def test_random_field_finite(self, disk):
        mesh, mats = disk
        rng = np.random.default_rng(2)
        r = robin(mats, rng.standard_normal(mesh.n_boundary))
        assert np.isfinite(r) and r > 0

    def test_scale_invariance(self, disk):
        mesh, mats = disk
        rng = np.random.default_rng(3)
        g = rng.standard_normal(mesh.n_boundary)
        base = robin(mats, g)
        for s in (10.0, -4.0):
            assert robin(mats, s * g) == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("ratio_type", [DirichletRatio, RobinRatio])
def test_fields_in_columns_match_single_fields(disk, ratio_type):
    # The sweep evaluates its sampled fields as the columns of one block;
    # each column's ratio is the ratio of that field alone, and a zero
    # column has ratio 0.
    mesh, mats = disk
    ratio = dirichlet_ratio(disk) if ratio_type is DirichletRatio else RobinRatio(mats)
    fields = np.random.default_rng(9).standard_normal((mesh.n_boundary, 4))
    fields[:, 2] = 0.0
    block = ratio(fields)
    assert block.shape == (4,)
    assert block[2] == 0.0
    for col, value in zip(fields.T, block):
        assert value == pytest.approx(ratio(col), rel=1e-12)


class TestSweep:
    def levels(self, count=3):
        meshes = [generate_disk_mesh(1.0, 0.4 / 2 ** j, degree=1) for j in range(count)]
        return [(mesh, Assembler(mesh).system()) for mesh in meshes]

    def test_dirichlet_sweep_bounded(self):
        rows = stability_sweep(self.levels(), "dirichlet", samples=8, seed=0,
                               boost_iters=10)
        assert len(rows) == 3
        for factor in growth_factors(rows):
            assert factor <= 1.15

    def test_robin_sweep_bounded(self):
        rows = stability_sweep(self.levels(), "robin", samples=8, seed=0,
                               boost_iters=10)
        for factor in growth_factors(rows):
            assert factor <= 1.15

    def test_ball_robin_sweep_bounded(self, ball_levels):
        # Max ratios read 0.993, 0.964, 0.955.
        rows = stability_sweep(ball_levels, "robin", samples=5, seed=0, boost_iters=10)
        for factor in growth_factors(rows):
            assert factor <= 1.15

    @pytest.mark.xfail(strict=True, reason=(
        "generate_ball_mesh is not shape-regular (FOUND in CHANGES.md): its min "
        "vol/diam^3 falls linearly in h, and the max ratio grows like 1/h, "
        "5.21, 7.49, 10.58"))
    def test_ball_dirichlet_sweep_bounded(self, ball_levels):
        rows = stability_sweep(ball_levels, "dirichlet", samples=5, seed=0, boost_iters=10)
        for factor in growth_factors(rows):
            assert factor <= 1.15

    @pytest.mark.slow
    def test_p2_ball_sweeps_past_4000_boundary_nodes(self, tmp_path):
        # h = 0.5 -> 0.25: N_Gamma = 1,178 and 4,706.  The H^(1/2) norm has
        # no boundary-node cap, so both modes finish.  The Dirichlet ratios
        # (5.13, 7.75) grow with the mesher's corner cells, not the norm.
        config = {
            "model": {"alpha": 1.0, "beta": 1.0, "mu": 0.0, "Q": "const:1.5"},
            "geometry": {"kind": "ball", "radii": [1.0], "h": 0.5},
            "discretization": {"k": 2},
            "run": {"kind": "stability", "levels": 2, "samples": 5, "boost_iters": 5,
                    "mode": "both", "seed": 0},
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["stability", str(tmp_path / "config.json"),
                     "-o", str(tmp_path / "out")]) == 0
        for mode in ("dirichlet", "robin"):
            with open(tmp_path / "out" / f"stability_{mode}.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert [int(row["N_Gamma"]) for row in rows] == [1178, 4706]
            assert all(0.0 < float(row["max_ratio"]) < 10.0 for row in rows)

    def test_boost_does_not_lose_to_samples(self):
        # The boosted ratio must be at least the best sampled ratio.
        levels = self.levels(2)
        plain = stability_sweep(levels, "dirichlet", samples=8, seed=0, boost_iters=0)
        boosted = stability_sweep(levels, "dirichlet", samples=8, seed=0, boost_iters=15)
        for a, b in zip(plain, boosted):
            assert b["max_ratio"] >= a["max_ratio"] - 1e-12

    def test_deterministic(self):
        levels = self.levels(2)
        r1 = stability_sweep(levels, "robin", samples=5, seed=7, boost_iters=5)
        r2 = stability_sweep(levels, "robin", samples=5, seed=7, boost_iters=5)
        assert r1 == r2

    def test_mode_validation(self):
        with pytest.raises(ValidationError):
            stability_sweep(self.levels(1), "neumann", samples=8, seed=0, boost_iters=0)

    def test_constant_only_sample(self, disk):
        mesh, mats = disk
        g = np.ones(mesh.n_boundary)
        ng = mesh.n_boundary
        interior = SpdFactor(mats.stiff_bulk[ng:, ng:])
        u = dirichlet_extension(mats.stiff_bulk[ng:, :ng], g, interior.solve)
        assert np.allclose(u, 1.0, atol=1e-9)
