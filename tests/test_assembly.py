import dataclasses
import math
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from bulkgrow import mesh as mesh_module
from bulkgrow.assembly import Assembler, StepLayout, assemble_f_u, assemble_L
from bulkgrow.errors import GeometryError, SourceError, ValidationError
from bulkgrow.mesh import (
    BulkSurfaceMesh,
    bulk_blocks,
    bulk_element_measures,
    check_orientation,
    generate_ball_mesh,
    generate_disk_mesh,
)
from bulkgrow.refelem import EDGE_VERTICES, adjugate_det, determinant, reference_element
from bulkgrow.sparsela import solve_spd


def single_triangle_mesh():
    """One reference triangle with all edges on the boundary."""
    return BulkSurfaceMesh(
        dim_m=1,
        degree_k=1,
        node_positions=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        n_boundary=3,
        bulk_elements=np.array([[0, 1, 2]]),
        boundary_elements=np.array([[0, 1], [1, 2], [2, 0]]),
    )


def embed_boundary_block(surface_matrix, n_nodes):
    """Zero-pad an N_Gamma x N_Gamma matrix to N x N (boundary block first)."""
    s = surface_matrix.tocsr()
    ng = s.shape[0]
    indptr = np.concatenate([s.indptr, np.full(n_nodes - ng, s.indptr[-1])])
    return sp.csr_matrix((s.data, s.indices, indptr), shape=(n_nodes, n_nodes))


def surface_matrices(mesh):
    """(mass, stiffness, load) on the boundary; ``load(u)`` is the (N_Gamma,
    d) tangential-gradient load of u, column l holding (D_l u)."""
    assembler = Assembler(mesh)
    geometry = assembler.surface_geometry()
    mass, stiff = assembler.surface_matrices(geometry)
    return mass, stiff, partial(assembler.tangential_gradient_load, geometry=geometry)


def forcing_nu(mesh, normal, beta):
    assembler = Assembler(mesh)
    geometry = assembler.surface_geometry()
    weingarten = assembler.weingarten_norm_sq(normal, geometry)
    return assembler.curvature_forcing_nu(normal, weingarten, beta, geometry)


def forcing_H(mesh, normal, normal_speed):
    assembler = Assembler(mesh)
    geometry = assembler.surface_geometry()
    weingarten = assembler.weingarten_norm_sq(normal, geometry)
    return assembler.curvature_forcing_H(weingarten, normal_speed, geometry)


def element_major_surface(mesh, positions):
    """Reference for the facet kernel: the element-major einsum formulas it
    replaced.  Returns the surface stiffness and the tangential-gradient
    blocks D_l[i, j] = integral of psi_i (tangential grad psi_j)_l."""
    ref = reference_element(mesh.dim_m, mesh.degree_k)
    conn = mesh.boundary_elements
    jac = np.einsum("enD,qnr->eqDr", positions[conn], ref.grad)
    metric = np.einsum("eqDr,eqDs->eqrs", jac, jac)
    tangrad = np.einsum("eqDr,eqrs,qis->eqiD", jac, np.linalg.inv(metric), ref.grad)
    wmeasure = np.sqrt(np.linalg.det(metric)) * ref.quad_weights
    n_loc, ng = conn.shape[1], mesh.n_boundary
    rows = np.repeat(conn, n_loc, axis=1).ravel()
    cols = np.tile(conn, (1, n_loc)).ravel()

    def assemble(element_data):
        return sp.csr_matrix((element_data.ravel(), (rows, cols)), shape=(ng, ng))

    stiff = assemble(np.einsum("eq,eqiD,eqjD->eij", wmeasure, tangrad, tangrad))
    blocks = [assemble(np.einsum("eq,qi,eqj->eij", wmeasure, ref.shape, tangrad[..., l]))
              for l in range(mesh.dim)]
    return stiff, blocks


class TestBulkAssembly:
    def test_reference_triangle_mass(self):
        mesh = single_triangle_mesh()
        mass = Assembler(mesh).bulk_mass()
        area = 0.5
        expected = area / 12.0 * (np.ones((3, 3)) + np.eye(3) * 1.0)
        expected[np.diag_indices(3)] = area / 6.0
        assert np.allclose(mass.toarray(), expected, atol=1e-15)

    def test_stiffness_kernel_contains_constants(self):
        for mesh in (generate_disk_mesh(1.0, 0.3, 2), generate_ball_mesh((1, 1, 1), 0.6)):
            _, stiff = Assembler(mesh).bulk_matrices()
            ones = np.ones(mesh.n_nodes)
            norm = sp.linalg.norm(stiff)
            assert np.linalg.norm(stiff @ ones) < 1e-12 * norm

    @pytest.mark.parametrize("degree,order", [(1, 2.0), (2, 4.0)])
    def test_disk_mass_total_converges_to_area(self, degree, order):
        errors, hs = [], []
        for h in (0.4, 0.2, 0.1):
            mesh = generate_disk_mesh(1.0, h, degree=degree)
            mass = Assembler(mesh).bulk_mass()
            ones = np.ones(mesh.n_nodes)
            errors.append(abs(ones @ (mass @ ones) - math.pi))
            hs.append(mesh.mesh_size_h)
        rate = math.log(errors[0] / errors[-1]) / math.log(hs[0] / hs[-1])
        assert rate == pytest.approx(order, abs=0.5)

    def test_galerkin_consistency_affine(self):
        mesh = generate_disk_mesh(1.0, 0.25, degree=1)
        _, stiff = Assembler(mesh).bulk_matrices()
        cu = np.array([1.3, -0.4])
        cw = np.array([0.2, 0.9])
        u = mesh.node_positions @ cu
        w = mesh.node_positions @ cw
        from bulkgrow.mesh import bulk_element_measures

        area = bulk_element_measures(mesh).sum()
        assert u @ (stiff @ w) == pytest.approx(area * (cu @ cw), rel=1e-12)

    def test_symmetry(self):
        # Exactly symmetric, not up to roundoff: the upper element entries
        # are scattered once and mirrored.  2d and 3d, P1 and P2, on moved
        # positions, so that no entry is symmetric by the reference geometry
        # alone.
        rng = np.random.default_rng(4)
        for mesh in (generate_disk_mesh(1.0, 0.1, degree=1),
                     generate_disk_mesh(1.0, 0.1, degree=2),
                     generate_ball_mesh((1.0, 1.0, 1.0), 0.5, degree=1),
                     generate_ball_mesh((1.0, 1.0, 1.0), 0.5, degree=2)):
            pos = mesh.node_positions + 1e-5 * rng.standard_normal(mesh.node_positions.shape)
            assembler = Assembler(mesh)
            mats = assembler.system(pos)
            for mat in (assembler.bulk_mass(pos), mats.stiff_bulk, mats.mass_surf, mats.stiff_surf,
                        assemble_L(mats, 1.3), assemble_L(mats, 1.3, 0.7)):
                assert (mat != mat.T).nnz == 0

    def test_deterministic(self):
        mesh = generate_disk_mesh(1.0, 0.3, degree=2)
        f1, a1 = Assembler(mesh).bulk_matrices()
        f2, a2 = Assembler(mesh).bulk_matrices()
        assert np.array_equal(f1, f2)
        assert np.array_equal(a1.data, a2.data)
        assert np.array_equal(Assembler(mesh).bulk_mass().data,
                              Assembler(mesh).bulk_mass().data)

    def test_singular_jacobian_flagged(self):
        mesh = single_triangle_mesh()
        pos = mesh.node_positions.copy()
        pos[2] = [0.5, 0.0]
        with pytest.raises(GeometryError):
            Assembler(mesh).bulk_matrices(positions=pos)
        with pytest.raises(GeometryError):
            Assembler(mesh).bulk_mass(positions=pos)


class TestVolumeLoad:
    """The step's volume load is the row sums of the bulk mass matrix."""

    MESHES = {
        "disk-p1": lambda: generate_disk_mesh(1.0, 0.2, degree=1),
        "disk-p2": lambda: generate_disk_mesh(1.0, 0.2, degree=2),
        "ball-p1": lambda: generate_ball_mesh((1.0, 1.0, 1.0), 0.5, degree=1),
        "ball-p2": lambda: generate_ball_mesh((1.0, 1.0, 1.0), 0.5, degree=2),
    }

    @pytest.fixture(scope="class", params=list(MESHES))
    def jittered(self, request):
        mesh = self.MESHES[request.param]()
        rng = np.random.default_rng(8)
        pos = mesh.node_positions + 1e-3 * mesh.mesh_size_h * rng.standard_normal(
            mesh.node_positions.shape)
        return mesh, pos

    def test_equals_mass_times_ones(self, jittered):
        mesh, pos = jittered
        assembler = Assembler(mesh)
        load, _ = assembler.bulk_matrices(pos)
        expected = assembler.bulk_mass(pos) @ np.ones(mesh.n_nodes)
        assert np.abs(load - expected).max() <= 1e-14 * np.abs(expected).max()
        assert np.array_equal(assembler.system(pos).volume_load, load)

    def test_sum_is_the_volume(self, jittered):
        mesh, pos = jittered
        load, _ = Assembler(mesh).bulk_matrices(pos)
        assert load.sum() == pytest.approx(bulk_element_measures(mesh, pos).sum(),
                                           rel=1e-14)


def bulk_jacobians(mesh, positions):
    """Whole-mesh Jacobians at the bulk quadrature points, component-major:
    an (n_qp, E, d, d) view whose ``[..., D, r]`` is dx_D / dxi_r as one
    (n_qp, E) array -- the bulk kernel before it ran by blocks."""
    ref = reference_element(mesh.dim, mesh.degree_k)
    n_qp, n_loc, r = ref.grad.shape
    gref = ref.grad.transpose(2, 0, 1).reshape(r * n_qp, n_loc)
    coords = np.take(positions.T, mesh.bulk_elements.T, axis=1)
    return np.matmul(gref, coords).reshape(mesh.dim, r, n_qp, -1).transpose(2, 3, 0, 1)


def unblocked_bulk(mesh, positions):
    """(volume load, stiffness, mass, element measures) from whole-mesh
    arrays of the adjugate, determinant and metric entries."""
    assembler = Assembler(mesh)
    jac = bulk_jacobians(mesh, positions)
    adj, det = adjugate_det(jac)
    metric = np.array([
        sum(adj[a][k] * adj[b][k] for k in range(mesh.dim)) / det
        for a, b in zip(*np.triu_indices(mesh.dim))
    ])
    load_e = assembler._w_shape.T @ det
    load = np.bincount(mesh.bulk_elements.T.ravel(), weights=load_e.ravel(),
                       minlength=mesh.n_nodes)
    pattern = mesh.bulk_pattern
    stiff = pattern.assemble(metric.reshape(-1, det.shape[1]).T @ assembler._k_upper)
    mass = pattern.assemble(det.T @ assembler._m_upper)
    weights = reference_element(mesh.dim, mesh.degree_k).quad_weights
    return load, stiff, mass, weights @ determinant(jac)


def reversed_element(mesh, e):
    """The mesh with the orientation of element ``e`` reversed: its local
    vertices 0 and 1 swap, and with them the midpoints of the edges they
    move."""
    d = mesh.dim
    perm = [1, 0] + list(range(2, d + 1))
    if mesh.degree_k == 2:
        slot = {frozenset(edge): d + 1 + s for s, edge in enumerate(EDGE_VERTICES[d])}
        perm += [slot[frozenset(perm[v] for v in edge)] for edge in EDGE_VERTICES[d]]
    conn = mesh.bulk_elements.copy()
    conn[e] = conn[e, perm]
    return dataclasses.replace(mesh, bulk_elements=conn)


def assert_close(actual, expected, rtol=1e-15):
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


class TestBulkBlocks:
    """The bulk kernel run by blocks against the whole-mesh kernel, with a
    block size that does not divide the element count."""

    BLOCK = 37
    MESHES = TestVolumeLoad.MESHES

    @pytest.fixture(scope="class", params=list(MESHES))
    def jittered(self, request):
        mesh = self.MESHES[request.param]()
        assert mesh.bulk_elements.shape[0] % self.BLOCK != 0
        rng = np.random.default_rng(9)
        pos = mesh.node_positions + 1e-3 * mesh.mesh_size_h * rng.standard_normal(
            mesh.node_positions.shape)
        return mesh, pos, unblocked_bulk(mesh, pos)

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(mesh_module, "_BLOCK_ELEMENTS", self.BLOCK)

    def test_blocks_cover_the_elements(self, jittered):
        mesh, pos, _ = jittered
        n_elements = mesh.bulk_elements.shape[0]
        sizes = [det.shape[1] for _, _, det in bulk_blocks(mesh, pos)]
        assert len(sizes) == -(-n_elements // self.BLOCK) > 2
        assert sizes[:-1] == [self.BLOCK] * (len(sizes) - 1)
        assert sum(sizes) == n_elements

    def test_bulk_matrices(self, jittered):
        mesh, pos, (load, stiff, _, _) = jittered
        block_load, block_stiff = Assembler(mesh).bulk_matrices(pos)
        assert_close(block_load, load)
        assert_close(block_stiff.data, stiff.data)

    def test_bulk_mass(self, jittered):
        mesh, pos, (_, _, mass, _) = jittered
        assert_close(Assembler(mesh).bulk_mass(pos).data, mass.data)

    def test_element_measures(self, jittered):
        mesh, pos, (_, _, _, measures) = jittered
        assert_close(bulk_element_measures(mesh, pos), measures)
        check_orientation(mesh, pos)

    def test_tangled_element_in_last_block(self, jittered):
        mesh, pos, _ = jittered
        last = mesh.bulk_elements.shape[0] - 1
        tangled = reversed_element(mesh, last)
        assembler = Assembler(tangled)
        for check in (partial(check_orientation, tangled),
                      partial(bulk_element_measures, tangled),
                      assembler.bulk_matrices, assembler.bulk_mass):
            with pytest.raises(GeometryError) as info:
                check(pos)
            assert info.value.element == last

    def test_nan_node(self, jittered):
        # NaN fails every comparison, so a test of det <= 0 would let it pass.
        mesh, pos, _ = jittered
        node = mesh.bulk_elements[-1, 0]
        first = int(np.flatnonzero((mesh.bulk_elements == node).any(axis=1))[0])
        pos = pos.copy()
        pos[node, 0] = np.nan
        assembler = Assembler(mesh)
        for check in (partial(check_orientation, mesh), partial(bulk_element_measures, mesh),
                      assembler.bulk_matrices, assembler.bulk_mass):
            with pytest.raises(GeometryError) as info:
                check(pos)
            assert info.value.element == first


class TestSurfaceAssembly:
    def test_segment_mass_block(self):
        mesh = single_triangle_mesh()
        mass, _, _ = surface_matrices(mesh)
        # Edge (0, 1) has length 1: block [[L/3, L/6], [L/6, L/3]].
        assert mass[0, 1] == pytest.approx(1.0 / 6.0, rel=1e-13)
        # Node 0 touches the two unit edges; node 1 touches edge (0,1) and
        # the hypotenuse of length sqrt(2).
        assert mass[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-13)
        assert mass[1, 1] == pytest.approx((1.0 + math.sqrt(2.0)) / 3.0, rel=1e-13)

    def test_constant_in_tangential_gradient_kernel(self):
        mesh = generate_ball_mesh((1, 1, 1), 0.5, degree=2)
        _, stiff, load = surface_matrices(mesh)
        c = 3.7 * np.ones(mesh.n_boundary)
        assert np.linalg.norm(stiff @ c) < 1e-11 * sp.linalg.norm(stiff)
        # Each column D_l c; the old bound max(||D_l||, 1) at its floor.
        for column in load(c).T:
            assert np.linalg.norm(column) < 1e-11

    def test_circle_tangential_gradient_symmetry(self):
        mesh = generate_disk_mesh(1.0, 0.1, degree=2)
        _, _, load = surface_matrices(mesh)
        w = mesh.boundary_positions[:, 0]  # x1 interpolated on the circle
        ones = np.ones(mesh.n_boundary)
        assert abs(ones @ load(w)[:, 1]) < 1e-10

    def test_degenerate_facet_flagged(self):
        mesh = single_triangle_mesh()
        pos = mesh.node_positions.copy()
        pos[1] = pos[0]  # facet 0 = (0, 1) collapses to a point
        with pytest.raises(GeometryError) as info:
            Assembler(mesh).surface_geometry(pos)
        assert info.value.element == 0

    def test_nan_facet_flagged(self):
        mesh = generate_disk_mesh(1.0, 0.3, degree=2)
        pos = mesh.node_positions.copy()
        node = mesh.boundary_elements[3, 1]
        pos[node, 1] = np.nan
        first = int(np.flatnonzero((mesh.boundary_elements == node).any(axis=1))[0])
        with pytest.raises(GeometryError) as info:
            Assembler(mesh).surface_geometry(pos)
        assert info.value.element == first

    def test_circle_boundary_mass_total(self):
        mesh = generate_disk_mesh(1.5, 0.1, degree=2)
        mass, _, _ = surface_matrices(mesh)
        ones = np.ones(mesh.n_boundary)
        assert ones @ (mass @ ones) == pytest.approx(2 * math.pi * 1.5, rel=1e-5)


class TestFacetKernel:
    """The component-major facet kernel against the element-major formulas,
    on moved positions in 2d and 3d with P1 and P2."""

    @pytest.fixture(scope="class", params=[(2, 1), (2, 2), (3, 1), (3, 2)],
                    ids=["disk-p1", "disk-p2", "ball-p1", "ball-p2"])
    def case(self, request):
        dim, degree = request.param
        if dim == 2:
            mesh = generate_disk_mesh(1.0, 0.2, degree=degree)
        else:
            mesh = generate_ball_mesh((1.0, 0.8, 0.9), 0.5, degree=degree)
        rng = np.random.default_rng(7)
        pos = mesh.node_positions + 1e-2 * rng.standard_normal(mesh.node_positions.shape)
        assembler = Assembler(mesh)
        geometry = assembler.surface_geometry(pos)
        return mesh, pos, assembler, geometry, element_major_surface(mesh, pos)

    def test_stiffness_matches_element_major(self, case):
        mesh, _, assembler, geometry, (expected, _) = case
        _, stiff = assembler.surface_matrices(geometry)
        diff = abs(stiff - expected).max()
        assert diff <= 1e-13 * abs(expected).max()
        assert (stiff != stiff.T).nnz == 0

    def test_tangential_gradient_load_matches_blocks(self, case):
        mesh, pos, assembler, geometry, (_, blocks) = case
        rng = np.random.default_rng(8)
        u = rng.standard_normal(mesh.n_boundary) + pos[: mesh.n_boundary, 0] ** 2
        load = assembler.tangential_gradient_load(u, geometry)
        assert load.shape == (mesh.n_boundary, mesh.dim)
        for column, block in zip(load.T, blocks):
            expected = block @ u
            assert np.abs(column - expected).max() <= 1e-13 * np.abs(expected).max()


class TestRobinMatrix:
    def test_constant_action_mu_zero(self):
        mesh = generate_disk_mesh(1.0, 0.25)
        mats = Assembler(mesh).system()
        ell = assemble_L(mats, alpha=1.0, mu=0.0)
        ones = np.ones(mesh.n_nodes)
        expected = np.zeros(mesh.n_nodes)
        expected[: mesh.n_boundary] = mats.mass_surf @ np.ones(mesh.n_boundary)
        assert np.allclose(ell @ ones, expected, atol=1e-12)

    def test_quadratic_form_on_constants(self):
        mesh = generate_disk_mesh(1.0, 0.25)
        mats = Assembler(mesh).system()
        ones = np.ones(mesh.n_nodes)
        perimeter = np.ones(mesh.n_boundary) @ (
            mats.mass_surf @ np.ones(mesh.n_boundary)
        )
        for alpha in (1.0, 2.0):
            ell = assemble_L(mats, alpha=alpha, mu=1.0)
            assert ones @ (ell @ ones) == pytest.approx(alpha * perimeter, rel=1e-12)

    def test_spd_via_cg(self):
        mesh = generate_disk_mesh(1.0, 0.3, degree=2)
        mats = Assembler(mesh).system()
        ell = assemble_L(mats, alpha=1.0, mu=1.0)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(mesh.n_nodes)
        x = solve_spd(ell, b)
        assert np.linalg.norm(ell @ x - b) <= 1e-10 * np.linalg.norm(b)
        # A direct solve does not need definiteness; Cholesky does.
        dense = ell.toarray()
        assert np.abs(dense - dense.T).max() <= 1e-14 * np.abs(dense).max()
        np.linalg.cholesky(dense)  # LinAlgError unless positive definite

    def test_alpha_validation(self):
        mesh = generate_disk_mesh(1.0, 0.4)
        mats = Assembler(mesh).system()
        with pytest.raises(ValidationError):
            assemble_L(mats, alpha=0.0)


@pytest.mark.parametrize("call, message", [
    (lambda: assemble_L(Assembler(single_triangle_mesh()).system(), 1.0, mu=-0.5),
     "mu must be nonnegative"),
    # Surface entry (0, 1) is not among the bulk entries, the diagonal.
    (lambda: StepLayout(sp.identity(3, format="csr"), sp.csr_matrix(np.ones((2, 2))),
                        2).surface_slots,
     "surface pattern is not contained in the bulk pattern"),
], ids=["negative-mu", "surface-pattern-outside-bulk"])
def test_rejected_inputs(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


class TestRobinLoad:
    def constant_source(self, value):
        return lambda pts, t: np.full(len(pts), value)

    def test_zero_curvature_zero_source(self):
        mesh = generate_disk_mesh(1.0, 0.3)
        mats = Assembler(mesh).system()
        f = assemble_f_u(
            mats, mesh.boundary_positions, np.zeros(mesh.n_boundary),
            beta=1.0, source=self.constant_source(0.0), time=0.0,
        )
        ones = np.ones(mesh.n_nodes)
        bulk_measure = ones @ (Assembler(mesh).bulk_mass() @ ones)
        assert ones @ f == pytest.approx(-bulk_measure, rel=1e-12)

    def test_sphere_constants(self):
        radius = 1.5
        mesh = generate_ball_mesh((radius,) * 3, 0.5, degree=2)
        mats = Assembler(mesh).system()
        m = 2
        curvature = np.full(mesh.n_boundary, m / radius)
        f = assemble_f_u(
            mats, mesh.boundary_positions, curvature,
            beta=1.0, source=self.constant_source(1.5), time=0.0,
        )
        ones = np.ones(mesh.n_nodes)
        bulk = ones @ (Assembler(mesh).bulk_mass() @ ones)
        surf = np.ones(mesh.n_boundary) @ (mats.mass_surf @ np.ones(mesh.n_boundary))
        expected = -bulk + (m / radius + 1.5) * surf
        assert ones @ f == pytest.approx(expected, rel=1e-12)

    def test_linearity_in_curvature(self):
        mesh = generate_disk_mesh(1.0, 0.3)
        mats = Assembler(mesh).system()
        rng = np.random.default_rng(3)
        h1 = rng.standard_normal(mesh.n_boundary)
        src = self.constant_source(0.7)
        beta = 1.3
        f0 = assemble_f_u(mats, mesh.boundary_positions, 0.0 * h1, beta, src, 0.0)
        f1 = assemble_f_u(mats, mesh.boundary_positions, h1, beta, src, 0.0)
        f2 = assemble_f_u(mats, mesh.boundary_positions, 2.0 * h1, beta, src, 0.0)
        assert np.allclose(f2 - f1, f1 - f0, atol=1e-12)
        expected_delta = np.zeros(mesh.n_nodes)
        expected_delta[: mesh.n_boundary] = mats.mass_surf @ (beta * h1)
        assert np.allclose(f1 - f0, expected_delta, atol=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_source_not_finite(self, value):
        mesh = generate_disk_mesh(1.0, 0.3)
        mats = Assembler(mesh).system()
        with pytest.raises(SourceError, match="t=0.25"):
            assemble_f_u(mats, mesh.boundary_positions, np.zeros(mesh.n_boundary),
                         1.0, self.constant_source(value), 0.25)


class TestCurvatureForcing:
    def test_constant_normal_gives_zero(self):
        mesh = generate_disk_mesh(1.0, 0.3, degree=2)
        n = np.tile([0.0, 1.0], (mesh.n_boundary, 1))
        f = forcing_nu(mesh, n, beta=1.0)
        assert np.allclose(f, 0.0, atol=1e-13)
        fh = forcing_H(mesh, n, np.ones(mesh.n_boundary))
        assert np.allclose(fh, 0.0, atol=1e-13)

    def test_unit_sphere_weingarten_norm(self):
        mesh = generate_ball_mesh((1.0, 1.0, 1.0), 0.35, degree=2)
        mats = Assembler(mesh).system()
        normal = mesh.boundary_positions / np.linalg.norm(
            mesh.boundary_positions, axis=1, keepdims=True
        )
        beta = 0.8
        f = forcing_nu(mesh, normal, beta=beta)
        expected = 2.0 * beta * (mats.mass_surf @ normal)
        scale = np.abs(expected).max()
        rel = np.abs(f - expected).max() / scale
        assert rel < 0.02  # |A|^2 = 2 on the unit sphere up to O(h^2)

    def test_unit_circle_weingarten_norm(self):
        mesh = generate_disk_mesh(1.0, 0.1, degree=2)
        mats = Assembler(mesh).system()
        normal = mesh.boundary_positions / np.linalg.norm(
            mesh.boundary_positions, axis=1, keepdims=True
        )
        f = forcing_nu(mesh, normal, beta=1.0)
        expected = mats.mass_surf @ normal  # |A|^2 = 1 on the unit circle
        rel = np.abs(f - expected).max() / np.abs(expected).max()
        assert rel < 1e-3

    def test_f_H_zero_speed(self):
        mesh = generate_disk_mesh(1.0, 0.3, degree=2)
        normal = mesh.boundary_positions.copy()
        fh = forcing_H(mesh, normal, np.zeros(mesh.n_boundary))
        assert np.allclose(fh, 0.0, atol=1e-14)

    def test_f_H_constant_speed_on_sphere(self):
        mesh = generate_ball_mesh((1.0, 1.0, 1.0), 0.35, degree=2)
        mats = Assembler(mesh).system()
        normal = mesh.boundary_positions / np.linalg.norm(
            mesh.boundary_positions, axis=1, keepdims=True
        )
        c = 0.6
        fh = forcing_H(mesh, normal, np.full(mesh.n_boundary, c))
        expected = -2.0 * c * (mats.mass_surf @ np.ones(mesh.n_boundary))
        rel = np.abs(fh - expected).max() / np.abs(expected).max()
        assert rel < 0.02

    def test_f_H_linear_in_speed(self):
        mesh = generate_disk_mesh(1.0, 0.25, degree=2)
        rng = np.random.default_rng(5)
        normal = rng.standard_normal((mesh.n_boundary, 2))
        v1 = rng.standard_normal(mesh.n_boundary)
        v2 = rng.standard_normal(mesh.n_boundary)
        f1 = forcing_H(mesh, normal, v1)
        f2 = forcing_H(mesh, normal, v2)
        f12 = forcing_H(mesh, normal, v1 + 2.0 * v2)
        assert np.allclose(f12, f1 + 2.0 * f2, atol=1e-11)


class TestStepMatrices:
    """The step matrices built from the pattern layout equal their sparse
    algebra: each entry of L is the same single addition, the blocks are
    the same entries, the pencil is the same combination."""

    @pytest.fixture(scope="class", params=["disk", "ball"])
    def mats(self, request):
        if request.param == "disk":
            mesh = generate_disk_mesh(1.0, 0.2, degree=2)
        else:
            mesh = generate_ball_mesh((1.0, 1.0, 1.0), 0.5, degree=2)
        rng = np.random.default_rng(2)
        pos = mesh.node_positions + 1e-4 * rng.standard_normal(mesh.node_positions.shape)
        return Assembler(mesh).system(pos)

    @staticmethod
    def assert_bitwise(a, b):
        assert a.shape == b.shape
        assert (a != b).nnz == 0

    @pytest.mark.parametrize("mu", [0.0, 0.4])
    def test_robin_matrix(self, mats, mu):
        alpha = 1.7
        surf = alpha * mats.mass_surf
        if mu != 0.0:
            surf = surf + mu * mats.stiff_surf
        expected = mats.stiff_bulk + embed_boundary_block(surf, mats.n_nodes)
        self.assert_bitwise(assemble_L(mats, alpha, mu), expected)

    def test_stiffness_blocks(self, mats):
        ng = mats.n_boundary
        a_ii, a_ib = mats.stiffness_blocks()
        self.assert_bitwise(a_ii, mats.stiff_bulk[ng:, ng:])
        self.assert_bitwise(a_ib, mats.stiff_bulk[ng:, :ng])

    def test_surface_pencil(self, mats):
        a, b = 1500.0, 0.8
        expected = a * mats.mass_surf + b * mats.stiff_surf
        self.assert_bitwise(mats.surface_pencil(a, b), expected)


class TestSystemBundle:
    def test_partition_shapes(self):
        mesh = generate_disk_mesh(1.0, 0.3)
        mats = Assembler(mesh).system()
        n, ng = mesh.n_nodes, mesh.n_boundary
        assert mats.n_boundary == ng
        assert mats.volume_load.shape == (n,)
        assert mats.stiff_bulk.shape == (n, n)
        assert mats.mass_surf.shape == mats.stiff_surf.shape == (ng, ng)
        assert mats.surface.wmeasure.shape[1] == mesh.boundary_elements.shape[0]

    def test_embed_boundary_block(self):
        mesh = generate_disk_mesh(1.0, 0.4)
        mats = Assembler(mesh).system()
        emb = embed_boundary_block(mats.mass_surf, mesh.n_nodes)
        dense = emb.toarray()
        ng = mesh.n_boundary
        assert np.allclose(dense[:ng, :ng], mats.mass_surf.toarray())
        assert np.abs(dense[ng:, :]).max() == 0.0
        assert np.abs(dense[:, ng:]).max() == 0.0

    def test_mass_totals_match_measures(self):
        mesh = generate_ball_mesh((1.0, 1.0, 1.0), 0.55, degree=2)
        from bulkgrow.mesh import boundary_element_measures, bulk_element_measures

        assembler = Assembler(mesh)
        mats = assembler.system()
        ones_b = np.ones(mesh.n_nodes)
        ones_s = np.ones(mesh.n_boundary)
        assert ones_b @ (assembler.bulk_mass() @ ones_b) == pytest.approx(
            bulk_element_measures(mesh).sum(), rel=1e-12
        )
        assert ones_s @ (mats.mass_surf @ ones_s) == pytest.approx(
            boundary_element_measures(mesh).sum(), rel=1e-12
        )
