import math

import numpy as np
import pytest

from ablatesim import fem_core, linalg, verify
from ablatesim.fem_core import (EDGE_T, EDGE_W, P1_REF_GRADS, P1_VALS, TRI_RULE,
                                assemble_advection, assemble_boundary_load,
                                assemble_mass,
                                assemble_scalar_load, assemble_stiffness,
                                assemble_vector_load, bubble_values, dofmap_for,
                                integrate_qp, p1_at_qp, p1_gradients,
                                velocity_at_qp, velocity_grad_at_qp)
from ablatesim.mesh import GAMMA5, GeometrySpec, generate_channel_mesh
from mini_reference import assemble_mini_blocks, assemble_mini_mass


def boundary_mass(mesh, tags):
    """P1 mass on the edges with the given tags, from the edge kernel (w = 1)."""
    edges = fem_core.boundary_edges(mesh, tags)
    return fem_core._p1_pattern(mesh).matrix(edges.mass(edges.wts))


def exact_bary_integral(p, q, r):
    """Reference-triangle integral of l1^p l2^q l3^r (factorial formula)."""
    return (math.factorial(p) * math.factorial(q) * math.factorial(r)
            / math.factorial(p + q + r + 2))


class TestQuadrature:
    def test_weights_sum_to_reference_area(self):
        assert TRI_RULE.weights.sum() == pytest.approx(0.5, abs=1e-15)
        assert EDGE_W.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("p,q,r", [
        (p, q, r) for p in range(7) for q in range(7) for r in range(7)
        if p + q + r <= 6
    ])
    def test_degree6_exactness(self, p, q, r):
        bary = TRI_RULE.points
        val = np.sum(TRI_RULE.weights * bary[:, 0] ** p * bary[:, 1] ** q
                     * bary[:, 2] ** r)
        assert val == pytest.approx(exact_bary_integral(p, q, r), rel=1e-12)

    def test_bubble_square_integral(self):
        bub = bubble_values(TRI_RULE.points)
        val = float(np.sum(TRI_RULE.weights * bub ** 2))
        # 729 * integral(l1^2 l2^2 l3^2) = 729 * 8/8!
        assert val == pytest.approx(729.0 * 8.0 / math.factorial(8), rel=1e-12)

    def test_lam_lam_bubble_integral(self):
        bary = TRI_RULE.points
        bub = bubble_values(bary)
        val = float(np.sum(TRI_RULE.weights * bary[:, 0] * bary[:, 1] * bub))
        assert val == pytest.approx(27.0 * 4.0 / math.factorial(7), rel=1e-12)

    def test_edge_rule_cubic_exact(self):
        # integral of t^3 over [0,1] = 1/4
        val = float(np.sum(EDGE_W * EDGE_T ** 3))
        assert val == pytest.approx(0.25, rel=1e-14)


class TestElements:
    def test_p1_partition_of_unity(self):
        assert np.array_equal(P1_VALS, TRI_RULE.points)  # the barycentric coordinates
        assert np.allclose(P1_VALS.sum(axis=1), 1.0, atol=1e-14)

    def test_p1_delta_property(self):
        # l_a at the reference corners (0,0), (1,0), (0,1), from l(0, 0) =
        # (1, 0, 0) and the constant reference gradients.
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        vals = np.array([1.0, 0.0, 0.0]) + corners @ P1_REF_GRADS.T  # [corner, a]
        assert np.allclose(vals, np.eye(3))

    def test_bubble_vanishes_on_edges(self):
        pts = np.array([[0.0, 0.3, 0.7], [0.5, 0.0, 0.5], [0.2, 0.8, 0.0]])
        assert np.allclose(bubble_values(pts), 0.0)

    def test_bubble_centroid_value(self):
        c = np.array([1.0 / 3.0] * 3)
        assert bubble_values(c) == pytest.approx(1.0, rel=1e-14)


def dense_p1_stiffness(mesh, coeff=1.0):
    """Independent dense assembly from the closed-form P1 gradient formula."""
    nv = mesh.num_vertices
    K = np.zeros((nv, nv))
    for tri, area in zip(mesh.triangles, mesh.areas):
        x = mesh.vertices[tri, 0]
        y = mesh.vertices[tri, 1]
        b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]]) / (2 * area)
        c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]]) / (2 * area)
        for i in range(3):
            for j in range(3):
                K[tri[i], tri[j]] += coeff * area * (b[i] * b[j] + c[i] * c[j])
    return K


class TestScalarAssembly:
    def test_stiffness_hand_oracle(self, unit_square_2tri):
        A = assemble_stiffness(unit_square_2tri, 1.0).toarray()
        K = dense_p1_stiffness(unit_square_2tri)
        assert np.allclose(A, K, atol=1e-14)
        # right-angle split: 5-point stencil, zero diagonal coupling
        assert np.allclose(np.diag(A), 1.0, atol=1e-14)
        assert A[0, 2] == pytest.approx(0.0, abs=1e-14)
        assert A[0, 1] == pytest.approx(-0.5, abs=1e-14)
        assert np.abs(A.sum(axis=1)).max() < 1e-14

    def test_stiffness_linearity_in_coeff(self, unit_square_2tri):
        A1 = assemble_stiffness(unit_square_2tri, 1.0)
        A3 = assemble_stiffness(unit_square_2tri, 3.0)
        assert (abs(A3 - A1.multiply(3.0))).max() < 1e-14

    def test_constant_nullspace(self):
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=10, ny=4))
        A = assemble_stiffness(mesh, 2.5)
        assert np.abs(A @ np.ones(mesh.num_vertices)).max() < 1e-12

    def test_mass_total(self, unit_square_2tri):
        M = assemble_mass(unit_square_2tri)
        ones = np.ones(4)
        assert ones @ (M @ ones) == pytest.approx(1.0, rel=1e-13)

    def test_mass_reference_triangle(self, reference_triangle):
        M = assemble_mass(reference_triangle).toarray()
        area = 0.5
        exact = area / 12.0 * np.array([[2.0, 1.0, 1.0],
                                        [1.0, 2.0, 1.0],
                                        [1.0, 1.0, 2.0]])
        assert np.allclose(M, exact, rtol=1e-12)

    def test_boundary_mass_perimeter(self, unit_square_2tri):
        MB = boundary_mass(unit_square_2tri, (1, 2, 3, 4))
        ones = np.ones(4)
        assert ones @ (MB @ ones) == pytest.approx(4.0, rel=1e-13)

    def test_boundary_mass_gamma5_length(self):
        mesh = generate_channel_mesh(GeometrySpec(L=1.5, H=0.5, r=0.075, nx=20, ny=10))
        MB = boundary_mass(mesh, (GAMMA5,))
        ones = np.ones(mesh.num_vertices)
        assert ones @ (MB @ ones) == pytest.approx(0.15, rel=1e-13)

    def test_boundary_mass_empty_tags(self, unit_square_2tri):
        MB = boundary_mass(unit_square_2tri, ())
        assert MB.count_nonzero() == 0

    def test_boundary_mass_support(self):
        mesh = generate_channel_mesh(GeometrySpec(L=1.5, H=0.5, r=0.075, nx=20, ny=10))
        MB = boundary_mass(mesh, (GAMMA5,))
        g5 = set(mesh.boundary_vertices_with_tag(GAMMA5))
        rows = np.unique(MB.nonzero()[0])
        assert set(rows) <= g5


def p1_coeffs(mesh, vx, vy):
    """(NT, 2, 4) element coefficients of the MINI field with vertex values
    (vx, vy), scalars or per vertex, and zero bubbles."""
    coeff = np.zeros((mesh.num_triangles, 2, 4))
    for c, vals in enumerate((vx, vy)):
        coeff[:, c, :3] = np.broadcast_to(vals, (mesh.num_vertices,))[mesh.triangles]
    return coeff


class TestAdvection:
    # A uniform or linear field is exact in P1 coefficients with zero bubbles.

    def test_zero_velocity(self, unit_square_2tri):
        D = assemble_advection(unit_square_2tri, p1_coeffs(unit_square_2tri, 0.0, 0.0))
        assert abs(D).max() == 0.0

    def test_uniform_x_advection_oracle(self):
        # v = (1, 0), theta = x: (D theta)_i = integral(l_i), computed
        # independently as one third of the adjacent areas.
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=6, ny=4))
        D = assemble_advection(mesh, p1_coeffs(mesh, 1.0, 0.0))
        theta = mesh.vertices[:, 0].copy()
        got = D @ theta
        oracle = np.zeros(mesh.num_vertices)
        for tri, area in zip(mesh.triangles, mesh.areas):
            oracle[tri] += area / 3.0
        assert np.allclose(got, oracle, atol=1e-14)

    def test_constant_field_annihilated(self, unit_square_2tri):
        D = assemble_advection(unit_square_2tri, p1_coeffs(unit_square_2tri, 1.0, 1.0))
        assert np.abs(D @ np.ones(4)).max() < 1e-14

    def test_skew_symmetry_for_noflux_velocity(self):
        # v = (x, -y) is divergence free and w vanishes on the boundary, so
        # the flux (v.n) w^2 does too and w^T D w = 1/2 integral v . grad(w^2)
        # = 0; the degree-6 rule integrates it exactly, leaving round-off.
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=12, ny=6))
        x, y = mesh.vertices.T
        D = assemble_advection(mesh, p1_coeffs(mesh, x, -y))
        boundary = np.unique(mesh.boundary_edges)
        rng = np.random.default_rng(5)
        for _ in range(3):
            w = rng.standard_normal(mesh.num_vertices)
            w[boundary] = 0.0
            assert abs(w @ (D @ w)) < 1e-12 * (np.linalg.norm(w) ** 2)


class TestLoads:
    def test_zero_source(self, unit_square_2tri):
        assert np.abs(assemble_scalar_load(unit_square_2tri, 0.0)).max() == 0.0

    def test_unit_source_sums_to_area(self):
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=8, ny=4))
        load = assemble_scalar_load(mesh, 1.0)
        assert load.sum() == pytest.approx(2.0, rel=1e-13)

    def test_load_sum_equals_integral(self):
        # partition of unity: sum_i integral(s l_i) = integral(s)
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=8, ny=4))
        geo = fem_core.geometry(mesh)
        s = np.cos(geo.qp[..., 0]) * geo.qp[..., 1] ** 2
        load = assemble_scalar_load(mesh, s)
        assert load.sum() == pytest.approx(integrate_qp(mesh, s), rel=1e-13)

    def test_nonnegative_source_nonnegative_load(self):
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=8, ny=4))
        geo = fem_core.geometry(mesh)
        s = geo.qp[..., 0] ** 2 + 0.1
        assert assemble_scalar_load(mesh, s).min() >= 0.0
        f = np.stack([s, 2 * s], axis=-1)
        assert assemble_vector_load(mesh, f).min() >= 0.0

    def test_boundary_load_total(self, unit_square_2tri):
        load = assemble_boundary_load(unit_square_2tri, (1, 2, 3, 4), 2.0)
        assert load.sum() == pytest.approx(8.0, rel=1e-13)


class TestBoundaryData:
    PTS = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])

    def test_sample_binds_a_given_time(self):
        x, y = self.PTS.T
        assert np.array_equal(fem_core.sample(lambda x, y, t: x + y * t, self.PTS, 2.0),
                              x + 2.0 * y)
        vector = fem_core.sample((lambda x, y, t: x - t, 7.0), self.PTS, 0.5)
        assert np.array_equal(vector, np.column_stack([x - 0.5, np.full(3, 7.0)]))

    def test_sample_without_a_time_calls_x_y(self):
        x, y = self.PTS.T
        assert np.array_equal(fem_core.sample(lambda x, y: x * y, self.PTS), x * y)
        vector = fem_core.sample(lambda x, y: (x, 2.0 * y), self.PTS)
        assert np.array_equal(vector, np.column_stack([x, 2.0 * y]))
        assert np.array_equal(fem_core.sample(3, self.PTS, 1.0), np.full(3, 3.0))

    def test_dirichlet_vertices_cached_per_mesh_and_tag_set(self):
        mesh = generate_channel_mesh(GeometrySpec(nx=8, ny=4))
        verts = fem_core.dirichlet_vertices(mesh, (3, 1))
        assert fem_core.dirichlet_vertices(mesh, [1, 3]) is verts
        assert fem_core.dirichlet_vertices(mesh, {3: "a", 1: "b"}) is verts
        assert fem_core.dirichlet_vertices(mesh, (1,)) is not verts
        other = generate_channel_mesh(GeometrySpec(nx=8, ny=4))
        assert fem_core.dirichlet_vertices(other, (1, 3)) is not verts
        expected = np.union1d(mesh.boundary_vertices_with_tag(1),
                              mesh.boundary_vertices_with_tag(3))
        assert np.array_equal(verts.dofs, expected) and not verts.dofs.flags.writeable


class TestDofMap:
    def test_counts(self):
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=6, ny=4))
        dm = dofmap_for(mesh)
        nv, nt = mesh.num_vertices, mesh.num_triangles
        assert dm.n_velocity == 2 * (nv + nt)
        assert dm.n_flow == 2 * (nv + nt) + nv

    def test_collision_free_contiguous(self):
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=6, ny=4))
        dm = dofmap_for(mesh)
        nv, nt = dm.nv, dm.nt
        blocks = [dm.vx_vertex(np.arange(nv)), dm.vx_bubble(np.arange(nt)),
                  dm.vy_vertex(np.arange(nv)), dm.vy_bubble(np.arange(nt)),
                  dm.pressure(np.arange(nv))]
        allidx = np.concatenate(blocks)
        assert np.array_equal(np.sort(allidx), np.arange(dm.n_flow))


class TestMiniBlocks:
    def test_rigid_translation_in_viscous_kernel(self):
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=6, ny=4))
        dm = dofmap_for(mesh)
        blocks = assemble_mini_blocks(mesh, 1.0)
        v = np.zeros(dm.n_velocity)
        v[dm.vx_vertex(np.arange(dm.nv))] = 1.0
        assert np.abs(blocks["A_vv"] @ v).max() < 1e-13

    def test_divergence_of_constant_field(self):
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=6, ny=4))
        dm = dofmap_for(mesh)
        B = assemble_mini_blocks(mesh, 1.0)["B"]
        v = np.zeros(dm.n_velocity)
        v[dm.vx_vertex(np.arange(dm.nv))] = 2.0
        v[dm.vy_vertex(np.arange(dm.nv))] = -1.0
        assert np.abs(B @ v).max() < 1e-13

    def test_stokes_block_spd_after_noslip(self):
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=6, ny=3))
        dm = dofmap_for(mesh)
        A = assemble_mini_blocks(mesh, 0.7)["A_vv"]
        wall = np.unique(mesh.boundary_edges.ravel())
        dofs = np.concatenate([dm.vx_vertex(wall), dm.vy_vertex(wall)])
        Am, _ = linalg.apply_dirichlet(A, np.zeros(dm.n_velocity), dofs,
                                       np.zeros(dofs.size))
        assert (abs(Am - Am.T)).max() < 1e-13
        eigs = np.linalg.eigvalsh(Am.toarray())
        assert eigs.min() > 0.0

    def test_symmetry_without_advection(self):
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=4, ny=3))
        A = assemble_mini_blocks(mesh, 1.3)["A_vv"]
        assert (abs(A - A.T)).max() < 1e-13

    def test_mini_mass_spd_total(self):
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=4, ny=3))
        dm = dofmap_for(mesh)
        M = assemble_mini_mass(mesh)
        ones = np.zeros(dm.n_velocity)
        ones[dm.vx_vertex(np.arange(dm.nv))] = 1.0
        # integral of 1 over the domain in the x component
        assert ones @ (M @ ones) == pytest.approx(2.0, rel=1e-12)


class TestFieldEvaluation:
    def test_p1_at_qp_linear_exact(self):
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=6, ny=3))
        geo = fem_core.geometry(mesh)
        nodal = 2.0 + 3.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
        vals = p1_at_qp(mesh, nodal)
        exact = 2.0 + 3.0 * geo.qp[..., 0] - geo.qp[..., 1]
        assert np.allclose(vals, exact, atol=1e-13)
        grads = p1_gradients(mesh, nodal)
        assert np.allclose(grads, [3.0, -1.0], atol=1e-13)

    def test_velocity_evaluation_with_bubble(self):
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=4, ny=3))
        dm = dofmap_for(mesh)
        v = np.zeros(dm.n_velocity)
        v[dm.vx_bubble(0)] = 1.0  # single bubble in element 0
        vals = velocity_at_qp(mesh, v)
        bub = bubble_values(TRI_RULE.points)
        assert np.allclose(vals[0, :, 0], bub, atol=1e-14)
        assert np.abs(vals[1:]).max() == 0.0

    def test_patch_test_affine_reproduction(self):
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=8, ny=5))
        A = assemble_stiffness(mesh, 1.0)
        affine = 0.3 - 1.2 * mesh.vertices[:, 0] + 0.7 * mesh.vertices[:, 1]
        bdofs = np.unique(mesh.boundary_edges.ravel())
        Am, bm = linalg.apply_dirichlet(A, np.zeros(mesh.num_vertices), bdofs,
                                        affine[bdofs])
        sol = linalg.solve_lu(Am, bm)
        assert np.abs(sol - affine).max() <= 1e-12

    def test_velocity_gradient_consistency(self):
        # linear velocity field: gradient exact everywhere
        mesh = generate_channel_mesh(GeometrySpec(L=2.0, H=1.0, r=0.25, nx=4, ny=3))
        dm = dofmap_for(mesh)
        v = np.zeros(dm.n_velocity)
        idx = np.arange(dm.nv)
        v[dm.vx_vertex(idx)] = mesh.vertices[:, 1]      # vx = y
        v[dm.vy_vertex(idx)] = 2.0 * mesh.vertices[:, 0]  # vy = 2x
        grad = velocity_grad_at_qp(mesh, v)
        assert np.allclose(grad[..., 0, 0], 0.0, atol=1e-13)
        assert np.allclose(grad[..., 0, 1], 1.0, atol=1e-13)
        assert np.allclose(grad[..., 1, 0], 2.0, atol=1e-13)
        assert np.allclose(grad[..., 1, 1], 0.0, atol=1e-13)


REFERENCE_MESHES = {
    "mms_jiggled": lambda: verify._mms_mesh(16, 8),
    "channel_48x16": lambda: generate_channel_mesh(
        GeometrySpec(L=1.5, H=0.5, r=0.075, nx=48, ny=16)),
}


class TestReferenceMap:
    """The velocity-linear blocks by the reference map against the
    quadrature kernels that define them."""

    @staticmethod
    def field(mesh):
        geo = fem_core.geometry(mesh)
        u = np.random.default_rng(11).standard_normal(dofmap_for(mesh).n_velocity)
        return geo, fem_core.velocity_element_coeffs(mesh, u), velocity_at_qp(mesh, u)

    @pytest.mark.parametrize("name", sorted(REFERENCE_MESHES))
    @pytest.mark.parametrize("kernel, scale", [
        (fem_core._convective_local, 1.0),  # the Oseen block
        (fem_core._convective_local, 2.0),  # the Newton block: the field doubled
        (fem_core._advection_local, 1.0),  # the heat's advection
    ], ids=["convective", "newton", "advection"])
    def test_blocks_match_the_quadrature_kernel(self, name, kernel, scale):
        geo, coeff, a_qp = self.field(REFERENCE_MESHES[name]())
        got = fem_core._reference_blocks(geo, scale * coeff, kernel)
        want = kernel(geo, scale * a_qp).reshape(got.shape)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("name", sorted(REFERENCE_MESHES))
    def test_assembled_advection_matches_quadrature(self, name):
        mesh = REFERENCE_MESHES[name]()
        geo, coeff, a_qp = self.field(mesh)
        pattern = fem_core._p1_pattern(mesh)
        want = pattern.matrix(pattern.fill(fem_core._advection_local(geo, a_qp)))
        got = assemble_advection(mesh, coeff)
        assert np.abs((got - want).toarray()).max() <= 1e-14 * np.abs(want.data).max()

    def test_map_built_once_per_process(self, monkeypatch):
        calls = []
        kernel = fem_core._convective_local

        def counted(geo, a_qp):
            calls.append(len(a_qp))
            return kernel(geo, a_qp)

        monkeypatch.setattr(fem_core, "_convective_local", counted)
        for make in REFERENCE_MESHES.values():
            mesh = make()
            u = np.random.default_rng(3).standard_normal(dofmap_for(mesh).n_velocity)
            for _ in range(2):
                assemble_mini_blocks(mesh, 1.0, advect=u)
        # One batched call on the 48 unit inputs builds the map; the four
        # assemblies on two meshes reuse it.
        assert calls == [48]
        assert fem_core._reference_map(counted) is fem_core._reference_map(counted)


def add_at_stiffness_data(mesh, scale):
    """The P1 stiffness data as np.add.at filled them before the stiffness
    operator: each triangle's gradient products times its scale, scattered
    in element order."""
    g = fem_core.geometry(mesh).grad_p1
    pattern = fem_core._p1_pattern(mesh)
    data = np.zeros(pattern.nnz)
    np.add.at(data, pattern.scatter.ravel(),
              (scale[:, None, None] * (g @ g.transpose(0, 2, 1))).ravel())
    return data


class TestStiffnessOperator:
    """The per-mesh stiffness operator against the element fill it
    replaces, bit for bit."""

    @staticmethod
    def coefficients(mesh):
        rng = np.random.default_rng(11)
        nt, nq = fem_core.geometry(mesh).qw.shape
        return {"scalar": 2.5, "per_cell": rng.uniform(0.5, 2.0, nt),
                "per_point": rng.uniform(0.5, 2.0, (nt, nq))}

    @pytest.mark.parametrize("name", sorted(REFERENCE_MESHES))
    def test_stiffness_operator_equals_the_add_at_fill(self, name):
        mesh = REFERENCE_MESHES[name]()
        geo = fem_core.geometry(mesh)
        operator = fem_core._stiffness_operator(mesh)
        for kind, coeff in self.coefficients(mesh).items():
            scale = np.einsum("tq,tq->t", geo.qw, fem_core._coeff_at_qp(mesh, coeff))
            ref = add_at_stiffness_data(mesh, scale)
            assert (operator @ scale).tobytes() == ref.tobytes(), kind
            assert assemble_stiffness(mesh, coeff).data.tobytes() == ref.tobytes(), kind
            # The scale sums the quadrature in another order than the
            # element-wise sum it replaces: within 12 eps of the moduli's sum.
            terms = geo.qw * fem_core._coeff_at_qp(mesh, coeff)
            bound = 12.0 * np.finfo(float).eps * np.abs(terms).sum(axis=1)
            assert np.all(np.abs(scale - terms.sum(axis=1)) <= bound), kind

    @pytest.mark.parametrize("name", sorted(REFERENCE_MESHES))
    def test_stiffness_operator_wraps_the_p1_scatter(self, name):
        # No sort and no per-mesh copy: the operator's row indices are the
        # P1 scatter itself, its column pointer int32, its data read-only.
        mesh = REFERENCE_MESHES[name]()
        operator = fem_core._stiffness_operator(mesh)
        assert operator is fem_core._stiffness_operator(mesh)
        assert np.shares_memory(operator.indices, fem_core._p1_pattern(mesh).scatter)
        assert operator.indptr.dtype == np.int32
        assert not (operator.data.flags.writeable or operator.indptr.flags.writeable)
