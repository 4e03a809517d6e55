import csv
import io

import numpy as np
import pytest

from bulkgrow.mesh import generate_ball_mesh, generate_disk_mesh, write_rows
from bulkgrow.oracle import RadialOracle
from bulkgrow.vtkio import write_csv, write_surface_vtk, write_vtk

VALID_CELL_TYPES = {3, 5, 10, 21, 22, 24}


def parse_vtk(path):
    """Structural parse of a legacy VTK file; raises on inconsistencies.

    Returns the dataset kind and a dict of section sizes, with the cell rows
    (without their leading count) under ``cell_rows`` and the cell types
    under ``cell_types``."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile Version")
    assert lines[2] == "ASCII"
    dataset = lines[3].split()[1]
    idx = 4
    sections = {}
    while idx < len(lines):
        parts = lines[idx].split()
        key = parts[0]
        if key == "POINTS":
            count = int(parts[1])
            pts = lines[idx + 1 : idx + 1 + count]
            assert len(pts) == count
            assert all(len(p.split()) == 3 for p in pts)
            sections["points"] = count
            idx += count + 1
        elif key == "CELLS":
            count, total = int(parts[1]), int(parts[2])
            rows = lines[idx + 1 : idx + 1 + count]
            used = sum(len(r.split()) for r in rows)
            assert used == total
            sections["cell_rows"] = []
            for r in rows:
                vals = [int(v) for v in r.split()]
                assert vals[0] == len(vals) - 1
                assert all(0 <= v < sections["points"] for v in vals[1:])
                sections["cell_rows"].append(vals[1:])
            sections["cells"] = count
            idx += count + 1
        elif key == "CELL_TYPES":
            count = int(parts[1])
            types = lines[idx + 1 : idx + 1 + count]
            assert len(types) == count
            assert all(int(t) in VALID_CELL_TYPES for t in types)
            sections["cell_types"] = {int(t) for t in types}
            idx += count + 1
        elif key == "POINT_DATA":
            sections["point_data"] = int(parts[1])
            idx += 1
        elif key == "SCALARS":
            assert lines[idx + 1].startswith("LOOKUP_TABLE")
            count = sections["point_data"]
            values = lines[idx + 2 : idx + 2 + count]
            assert len(values) == count
            [float(v) for v in values]
            idx += count + 2
        else:
            idx += 1
    return dataset, sections


def oracle_state(mesh, m):
    oracle = RadialOracle(dim_m=m, initial_radius=1.5, source=1.5,
                          alpha=1.0, beta=1.0)
    return oracle.seed_state(mesh, 0.0)


class TestVtk:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_disk_snapshot_structure(self, tmp_path, degree):
        mesh = generate_disk_mesh(1.5, 0.4, degree=degree)
        state = oracle_state(mesh, 1)
        path = tmp_path / "snap.vtk"
        write_vtk(path, mesh, state)
        dataset, sections = parse_vtk(path)
        assert dataset == "UNSTRUCTURED_GRID"
        assert sections["points"] == mesh.n_nodes
        assert sections["cells"] == len(mesh.bulk_elements)
        assert sections["point_data"] == mesh.n_nodes

    def test_ball_snapshot_structure(self, tmp_path):
        mesh = generate_ball_mesh((1.5, 1.5, 1.5), 0.8, degree=2)
        state = oracle_state(mesh, 2)
        path = tmp_path / "ball.vtk"
        write_vtk(path, mesh, state)
        dataset, sections = parse_vtk(path)
        assert dataset == "UNSTRUCTURED_GRID"
        assert sections["points"] == mesh.n_nodes

    @pytest.mark.parametrize("degree", [1, 2])
    def test_surface_grid(self, tmp_path, degree):
        mesh = generate_disk_mesh(1.5, 0.4, degree=degree)
        state = oracle_state(mesh, 1)
        path = tmp_path / "surf.vtk"
        write_surface_vtk(path, mesh, state)
        dataset, sections = parse_vtk(path)
        assert dataset == "UNSTRUCTURED_GRID"
        assert sections["points"] == mesh.n_boundary
        assert sections["cell_types"] == {3 if degree == 1 else 21}
        assert sections["cell_rows"] == mesh.boundary_elements.tolist()
        assert sections["point_data"] == mesh.n_boundary

    def test_surface_grid_sphere(self, tmp_path):
        mesh = generate_ball_mesh((1.5, 1.5, 1.5), 0.8, degree=2)
        state = oracle_state(mesh, 2)
        path = tmp_path / "sphere_surf.vtk"
        write_surface_vtk(path, mesh, state)
        dataset, sections = parse_vtk(path)
        assert dataset == "UNSTRUCTURED_GRID"
        assert sections["cell_types"] == {22}
        assert sections["cell_rows"] == mesh.boundary_elements.tolist()

    @pytest.mark.parametrize("m,degree", [(1, 1), (1, 2), (2, 2)])
    def test_surface_rows_are_the_bulk_file_boundary_rows(self, tmp_path, m, degree):
        if m == 1:
            mesh = generate_disk_mesh(1.5, 0.4, degree=degree)
        else:
            mesh = generate_ball_mesh((1.5, 1.5, 1.5), 0.8, degree=degree)
        state = oracle_state(mesh, m)
        write_vtk(tmp_path / "bulk.vtk", mesh, state)
        write_surface_vtk(tmp_path / "surf.vtk", mesh, state)
        bulk = (tmp_path / "bulk.vtk").read_text().splitlines()
        surf = (tmp_path / "surf.vtk").read_text().splitlines()
        ng = mesh.n_boundary

        def block(lines, header, n):
            start = lines.index(header) + 1
            return lines[start : start + n]

        assert (block(surf, f"POINTS {ng} double", ng)
                == block(bulk, f"POINTS {mesh.n_nodes} double", ng))
        assert (block(surf, "SCALARS curvature double", ng + 1)
                == block(bulk, "SCALARS curvature double", ng + 1))

    def test_constant_curvature_in_output(self, tmp_path):
        mesh = generate_disk_mesh(1.5, 0.4, degree=2)
        state = oracle_state(mesh, 1)
        path = tmp_path / "surf.vtk"
        write_surface_vtk(path, mesh, state)
        text = path.read_text().splitlines()
        start = text.index("SCALARS curvature double") + 2
        values = [float(v) for v in text[start : start + mesh.n_boundary]]
        assert np.allclose(values, 1.0 / 1.5, atol=1e-12)


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            {"a": 1.0 / 3.0, "b": 7, "c": "x"},
            {"a": 2e-13, "b": -1, "c": "y"},
        ]
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], rows)
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 2
        assert float(parsed[0]["a"]) == pytest.approx(1.0 / 3.0, rel=1e-11)
        assert int(parsed[1]["b"]) == -1

    def test_deterministic_bytes(self, tmp_path):
        rows = [{"v": 0.1 + 0.2}]
        p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
        write_csv(p1, ["v"], rows)
        write_csv(p2, ["v"], rows)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("rows,fmt", [
    (np.array([0.1, -2.5e-17, 1.0 / 3.0, 12345.678]), "%.12g"),
    (np.random.default_rng(0).standard_normal((7, 3)), "%.17g %.17g %.17g"),
    (np.arange(12).reshape(4, 3).T, "6 %d %d %d %d"),
    (np.zeros((0, 3)), "%.12g %.12g %.12g"),
    (np.zeros(0, dtype=int), "%d"),
], ids=["1d", "2d", "int-transposed", "empty-2d", "empty-1d"])
def test_write_rows_matches_per_row_formatting(rows, fmt):
    out = io.StringIO()
    write_rows(out, rows, fmt)
    block = rows[:, None] if rows.ndim == 1 else rows
    assert out.getvalue() == "".join(fmt % tuple(row) + "\n" for row in block.tolist())
