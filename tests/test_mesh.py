import math

import numpy as np
import pytest

from bulkgrow.errors import (
    GeometryError,
    MeshFormatError,
    ResourceError,
    ValidationError,
)
from bulkgrow.mesh import (
    BulkSurfaceMesh,
    boundary_element_measures,
    bulk_element_measures,
    circle_projector,
    displace,
    elevate_to_quadratic,
    ellipsoid_projector,
    generate_ball_mesh,
    generate_disk_mesh,
    load_mesh,
    quality_report,
    save_mesh,
    validate_mesh,
)


class TestDiskMesh:
    def test_polygon_area_matches_exact_formula(self):
        mesh = generate_disk_mesh(1.0, 0.5, degree=1)
        n_seg = mesh.boundary_elements.shape[0]
        exact = (n_seg / 2.0) * math.sin(2.0 * math.pi / n_seg)
        assert bulk_element_measures(mesh).sum() == pytest.approx(exact, rel=1e-12)

    def test_boundary_nodes_on_circle(self):
        for h in (0.4, 0.17):
            mesh = generate_disk_mesh(1.0, h, degree=1)
            radii = np.linalg.norm(mesh.boundary_positions, axis=1)
            assert np.max(np.abs(radii - 1.0)) < 1e-12

    def test_mesh_size_below_bound(self):
        for h in (0.5, 0.2, 0.08):
            mesh = generate_disk_mesh(1.0, h)
            assert mesh.mesh_size_h <= 1.5 * h

    def test_quasi_uniform(self):
        mesh = generate_disk_mesh(1.5, 0.15)
        assert quality_report(mesh)["quasi_uniformity_ratio"] <= 4.0

    def test_quadratic_boundary_length_fourth_order(self):
        radius = 1.5
        errors = []
        hs = []
        for h in (0.5, 0.25, 0.125, 0.0625):
            mesh = generate_disk_mesh(radius, h, degree=2)
            length = boundary_element_measures(mesh).sum()
            errors.append(abs(length - 2.0 * math.pi * radius))
            hs.append(mesh.mesh_size_h)
        rates = [
            math.log(errors[i] / errors[i + 1]) / math.log(hs[i] / hs[i + 1])
            for i in range(len(errors) - 1)
        ]
        assert rates[-1] == pytest.approx(4.0, abs=0.4)

    def test_linear_boundary_length_second_order(self):
        radius = 1.5
        errors = []
        hs = []
        for h in (0.5, 0.25, 0.125):
            mesh = generate_disk_mesh(radius, h, degree=1)
            length = boundary_element_measures(mesh).sum()
            errors.append(abs(length - 2.0 * math.pi * radius))
            hs.append(mesh.mesh_size_h)
        rate = math.log(errors[0] / errors[-1]) / math.log(hs[0] / hs[-1])
        assert rate == pytest.approx(2.0, abs=0.3)

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            generate_disk_mesh(-1.0, 0.1)
        with pytest.raises(ValidationError):
            generate_disk_mesh(1.0, 2.0)
        with pytest.raises(ResourceError):
            generate_disk_mesh(1.0, 1e-6)


class TestBallMesh:
    def test_sphere_surface_area(self):
        mesh = generate_ball_mesh((1.0, 1.0, 1.0), 0.3, degree=2)
        area = boundary_element_measures(mesh).sum()
        assert abs(area - 4.0 * math.pi) / (4.0 * math.pi) < 0.02

    def test_boundary_nodes_on_ellipsoid(self):
        radii = np.array([0.5, 0.5, 1.0])
        mesh = generate_ball_mesh(radii, 0.35, degree=2)
        level = ((mesh.boundary_positions / radii) ** 2).sum(axis=1)
        assert np.max(np.abs(level - 1.0)) < 1e-12

    def test_dof_counts_match_reference_resolution(self):
        mesh = generate_ball_mesh((0.5, 0.5, 1.0), 0.25, degree=2)
        # Same order as the reference resolution: ~7k bulk / ~1.4k surface.
        assert 3500 <= mesh.n_nodes <= 15000
        assert 700 <= mesh.n_boundary <= 3000

    def test_centroid_at_origin(self):
        mesh = generate_ball_mesh((1.0, 1.0, 1.0), 0.5)
        assert np.max(np.abs(mesh.node_positions.mean(axis=0))) < 1e-10

    def test_quasi_uniform(self):
        for radii in ((1.0, 1.0, 1.0), (0.5, 0.5, 1.0)):
            mesh = generate_ball_mesh(radii, 0.4)
            assert quality_report(mesh)["quasi_uniformity_ratio"] <= 4.0

    def test_degenerate_radii_rejected(self):
        with pytest.raises(ValidationError):
            generate_ball_mesh((1.0, 0.0, 1.0), 0.3)


class TestElevation:
    def test_identity_projector_keeps_volumes(self):
        lin = generate_disk_mesh(1.0, 0.3, degree=1)
        quad = elevate_to_quadratic(lin, surface_projector=lambda p: p)
        vol_lin = bulk_element_measures(lin).sum()
        vol_quad = bulk_element_measures(quad).sum()
        assert vol_quad == pytest.approx(vol_lin, rel=1e-14)

    def test_sphere_boundary_nodes_at_radius(self):
        mesh = generate_ball_mesh((1.0, 1.0, 1.0), 0.45, degree=2)
        radii = np.linalg.norm(mesh.boundary_positions, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-12

    def test_elevation_requires_linear_input(self):
        quad = generate_disk_mesh(1.0, 0.4, degree=2)
        with pytest.raises(ValidationError):
            elevate_to_quadratic(quad)

    def test_projector_displacement_guard(self):
        lin = generate_disk_mesh(1.0, 0.4, degree=1)
        with pytest.raises(GeometryError):
            elevate_to_quadratic(lin, surface_projector=lambda p: p * 3.0)

    def test_boundary_first_preserved(self):
        for degree in (1, 2):
            mesh = generate_disk_mesh(1.0, 0.3, degree=degree)
            validate_mesh(mesh)  # raises on any violated invariant


class TestDisplace:
    def test_identity(self):
        mesh = generate_disk_mesh(1.0, 0.4)
        out = displace(mesh, mesh.node_positions.copy())
        assert np.array_equal(out.node_positions, mesh.node_positions)
        assert np.array_equal(out.bulk_elements, mesh.bulk_elements)

    def test_uniform_scaling_scales_measures(self):
        mesh = generate_disk_mesh(1.0, 0.3)
        s = 1.7
        out = displace(mesh, s * mesh.node_positions)
        assert bulk_element_measures(out).sum() == pytest.approx(
            s ** 2 * bulk_element_measures(mesh).sum(), rel=1e-12
        )
        assert out.mesh_size_h == pytest.approx(s * mesh.mesh_size_h, rel=1e-12)

    def test_collapsed_element_flagged(self):
        mesh = generate_disk_mesh(1.0, 0.4)
        pos = mesh.node_positions.copy()
        elem = mesh.bulk_elements[0]
        pos[elem[2]] = (pos[elem[0]] + pos[elem[1]]) / 2.0
        with pytest.raises(GeometryError):
            displace(mesh, pos)

    def test_wrong_length_rejected(self):
        mesh = generate_disk_mesh(1.0, 0.4)
        with pytest.raises(ValidationError):
            displace(mesh, mesh.node_positions[:-1])


class TestMeasureConsistency:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_disk_measure_sums(self, degree):
        mesh = generate_disk_mesh(1.0, 0.25, degree=degree)
        per_element = bulk_element_measures(mesh).sum()
        # Integrating 1 over the mesh must agree with the element sum.
        from bulkgrow.assembly import Assembler

        mass, _ = Assembler(mesh).bulk_matrices()
        ones = np.ones(mesh.n_nodes)
        assert per_element == pytest.approx(ones @ (mass @ ones), rel=1e-12)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_disk_area_convergence(self, degree):
        errors = []
        hs = []
        for h in (0.4, 0.2, 0.1):
            mesh = generate_disk_mesh(1.0, h, degree=degree)
            errors.append(abs(bulk_element_measures(mesh).sum() - math.pi))
            hs.append(mesh.mesh_size_h)
        rate = math.log(errors[0] / errors[-1]) / math.log(hs[0] / hs[-1])
        expected = 2.0 if degree == 1 else 4.0
        assert rate == pytest.approx(expected, abs=0.45)


class TestBsmFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        mesh = generate_disk_mesh(1.0, 0.3, degree=2)
        jitter = 1e-4 * rng.standard_normal(mesh.node_positions.shape)
        mesh = displace(mesh, mesh.node_positions + jitter)
        p1 = tmp_path / "a.bsm"
        p2 = tmp_path / "b.bsm"
        save_mesh(mesh, p1)
        loaded = load_mesh(p1)
        assert np.array_equal(loaded.node_positions, mesh.node_positions)
        save_mesh(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_ball(self, tmp_path):
        mesh = generate_ball_mesh((1.0, 1.0, 1.0), 0.6, degree=1)
        path = tmp_path / "ball.bsm"
        save_mesh(mesh, path)
        loaded = load_mesh(path)
        assert loaded.n_boundary == mesh.n_boundary
        assert np.array_equal(loaded.bulk_elements, mesh.bulk_elements)

    def test_facet_referencing_interior_node(self, tmp_path):
        mesh = generate_disk_mesh(1.0, 0.4)
        path = tmp_path / "bad.bsm"
        save_mesh(mesh, path)
        lines = path.read_text().splitlines()
        # Point the last facet at an interior node.
        lines[-1] = f"{mesh.n_boundary} {mesh.n_boundary + 1}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert err.value.line == len(lines)

    def test_empty_elements_section(self, tmp_path):
        path = tmp_path / "empty.bsm"
        path.write_text("bsm 1 1 1 3 3\nNODES\n0 0\n1 0\n0 1\nELEMENTS\nBOUNDARY\n0 1\n")
        with pytest.raises(MeshFormatError):
            load_mesh(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "hdr.bsm"
        path.write_text("bsm x 1 1 3 3\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert err.value.line == 1

    def test_comments_ignored(self, tmp_path):
        mesh = generate_disk_mesh(1.0, 0.5)
        path = tmp_path / "c.bsm"
        save_mesh(mesh, path)
        text = "# generated mesh\n" + path.read_text()
        path.write_text(text)
        loaded = load_mesh(path)
        assert loaded.n_nodes == mesh.n_nodes

    def test_trace_incompatible_facet(self, tmp_path):
        mesh = generate_disk_mesh(1.0, 0.4)
        path = tmp_path / "trace.bsm"
        save_mesh(mesh, path)
        lines = path.read_text().splitlines()
        # Facet joining two boundary nodes that are not an element edge.
        lines[-1] = "0 2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshFormatError):
            load_mesh(path)


class TestProjectors:
    def test_ellipsoid_projector_lands_on_surface(self):
        radii = np.array([0.5, 0.5, 1.0])
        proj = ellipsoid_projector(radii)
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((40, 3))
        out = proj(pts)
        level = ((out / radii) ** 2).sum(axis=1)
        assert np.allclose(level, 1.0, atol=1e-13)

    def test_circle_projector(self):
        proj = circle_projector(2.0)
        out = proj(np.array([[3.0, 4.0]]))
        assert np.allclose(np.linalg.norm(out, axis=1), 2.0)
