import dataclasses

import numpy as np
import pytest

from ablatesim import fem_core, linalg
from ablatesim.materials import MaterialModel, TemperatureSample
from ablatesim.mesh import (GAMMA1, GAMMA2, GAMMA3, GAMMA4, GAMMA5, GeometrySpec,
                            generate_channel_mesh)
from ablatesim.potential_solver import (PotentialProblem, _neumann_load, joule_density,
                                        solve_potential)


def unit_model():
    return MaterialModel(sigma_law=lambda th: np.ones_like(th))


def unit_square_mesh(n=8):
    return generate_channel_mesh(GeometrySpec(L=1.0, H=1.0, r=0.25, nx=n, ny=n))


def joule(mesh, model, theta, phi):
    """The Joule density at the conductivity of the nodal temperature theta."""
    return joule_density(mesh, model.sigma(fem_core.p1_at_qp(mesh, theta)), phi)


def channel_problem(g=5.0, nx=20, ny=10):
    mesh = generate_channel_mesh(GeometrySpec(L=1.5, H=0.5, r=0.075, nx=nx, ny=ny))
    model = MaterialModel()
    theta = np.full(mesh.num_vertices, model.theta_b)
    return PotentialProblem(TemperatureSample(model, mesh, theta), g=g, neumann_tags=(GAMMA5,),
                            dirichlet_tags=(GAMMA1, GAMMA2, GAMMA3, GAMMA4))


class TestSolvePotential:
    def test_zero_flux_gives_zero(self):
        problem = channel_problem(g=0.0)
        phi = solve_potential(problem)
        assert np.abs(phi).max() == 0.0

    def test_linear_surrogate_exact(self):
        # sigma = 1, phi = 0 on x = 0, flux 1 on x = 1, natural elsewhere:
        # the exact solution phi = x is in the P1 space.
        mesh = unit_square_mesh()
        problem = PotentialProblem(
            TemperatureSample(unit_model(), mesh, np.full(mesh.num_vertices, 37.0)),
            g=1.0, neumann_tags=(3,), dirichlet_tags=(1,))
        phi = solve_potential(problem)
        assert np.abs(phi - mesh.vertices[:, 0]).max() < 1e-10

    def test_callable_flux_of_a_constant_gives_the_constant_load(self):
        # A callable flux is sampled at the edge points on every solve, not
        # held with the mesh; returning the constant g, it gives g's load and
        # potential byte for byte.
        constant = channel_problem(g=5.0)
        mesh = constant.temperature.mesh
        calls = []

        def flux(x, y):
            calls.append(x.shape)
            return np.full_like(x, 5.0)

        load = _neumann_load(mesh, (GAMMA5,), flux)
        assert load.tobytes() == _neumann_load(mesh, (GAMMA5,), 5.0).tobytes()
        assert _neumann_load(mesh, (GAMMA5,), flux) is not load and len(calls) == 2
        called = PotentialProblem(constant.temperature, g=flux, neumann_tags=(GAMMA5,),
                                  dirichlet_tags=constant.dirichlet_tags)
        assert solve_potential(called).tobytes() == solve_potential(constant).tobytes()

    def test_dirichlet_dofs_exact_zero(self):
        problem = channel_problem()
        phi = solve_potential(problem)
        for tag in problem.dirichlet_tags:
            verts = problem.temperature.mesh.boundary_vertices_with_tag(tag)
            assert np.abs(phi[verts]).max() == 0.0

    def test_discrete_residual_below_tol(self):
        problem = channel_problem()
        phi = solve_potential(problem)
        mesh, model = problem.temperature.mesh, problem.temperature.model
        sigma_qp = model.sigma(fem_core.p1_at_qp(mesh, problem.temperature.theta_h))
        A = fem_core.assemble_stiffness(mesh, sigma_qp)
        b = fem_core.assemble_boundary_load(mesh, (GAMMA5,), problem.g)
        dirichlet = np.unique(np.concatenate(
            [mesh.boundary_vertices_with_tag(t) for t in problem.dirichlet_tags]))
        Am, bm = linalg.apply_dirichlet(A, b, dirichlet, np.zeros(dirichlet.size))
        res = np.linalg.norm(bm - Am @ phi)
        assert res <= 10 * 1e-10 * np.linalg.norm(bm)

    def test_nonfinite_theta_rejected(self):
        problem = channel_problem()
        problem.temperature.theta_h = problem.temperature.theta_h.copy()
        problem.temperature.theta_h[3] = np.nan
        with pytest.raises(ValueError):
            solve_potential(problem)

    def test_reused_system_solves_with_other_dirichlet_tags(self):
        # A system reused for another grounded set solves with that set's
        # constraints, as a fresh system does, not with its first ones.
        first = channel_problem(nx=24, ny=8)
        phi_first = solve_potential(first)
        second = dataclasses.replace(first, dirichlet_tags=(GAMMA3,),
                                     system=linalg.LinearSystem())
        ref = solve_potential(second)
        second.system = first.system
        phi = solve_potential(second)
        assert np.abs(phi - ref).max() <= 1e-8 * np.abs(ref).max()
        assert np.abs(phi_first - ref).max() > 0.1 * np.abs(ref).max()

    def test_empty_dirichlet_rejected(self):
        problem = channel_problem()
        problem.dirichlet_tags = ()
        with pytest.raises(ValueError):
            solve_potential(problem)


class TestProperties:
    def test_linearity_in_g(self):
        p1 = channel_problem(g=2.0)
        p2 = channel_problem(g=4.0)
        phi1 = solve_potential(p1)
        phi2 = solve_potential(p2)
        assert np.abs(phi2 - 2.0 * phi1).max() <= 1e-7 * np.abs(phi1).max()

    def test_conductivity_scaling(self):
        p1 = channel_problem()
        phi1 = solve_potential(p1)
        p2 = channel_problem()
        p2.temperature.model = MaterialModel(sigma0=5.0 * 0.6)
        phi2 = solve_potential(p2)
        assert np.abs(5.0 * phi2 - phi1).max() <= 1e-7 * np.abs(phi1).max()

    def test_spd_after_elimination(self):
        problem = channel_problem()
        mesh, model = problem.temperature.mesh, problem.temperature.model
        sigma_qp = model.sigma(fem_core.p1_at_qp(mesh, problem.temperature.theta_h))
        A = fem_core.assemble_stiffness(mesh, sigma_qp)
        dirichlet = np.unique(np.concatenate(
            [mesh.boundary_vertices_with_tag(t) for t in problem.dirichlet_tags]))
        Am, _ = linalg.apply_dirichlet(A, np.zeros(mesh.num_vertices), dirichlet,
                                       np.zeros(dirichlet.size))
        rng = np.random.default_rng(9)
        for _ in range(5):
            x = rng.standard_normal(mesh.num_vertices)
            assert x @ (Am @ x) > 0.0


class TestJouleDensity:
    def test_zero_potential(self):
        problem = channel_problem()
        temperature = problem.temperature
        jd = joule(temperature.mesh, temperature.model, temperature.theta_h,
                   np.zeros(temperature.mesh.num_vertices))
        assert np.abs(jd).max() == 0.0

    def test_linear_potential_unit_sigma(self):
        mesh = unit_square_mesh(4)
        theta = np.full(mesh.num_vertices, 37.0)
        phi = mesh.vertices[:, 0].copy()
        jd = joule(mesh, unit_model(), theta, phi)
        assert np.allclose(jd, 1.0, atol=1e-13)

    def test_nonnegative_everywhere(self):
        problem = channel_problem()
        phi = solve_potential(problem)
        temperature = problem.temperature
        jd = joule(temperature.mesh, temperature.model, temperature.theta_h, phi)
        assert jd.min() >= 0.0

    def test_max_density_adjacent_to_electrode(self):
        # argmax scan oracle: the hottest cells must touch the electrode
        problem = channel_problem()
        phi = solve_potential(problem)
        mesh = problem.temperature.mesh
        jd = joule(mesh, problem.temperature.model, problem.temperature.theta_h, phi)
        cell = int(np.argmax(jd.max(axis=1)))
        g5 = set(mesh.boundary_vertices_with_tag(GAMMA5))
        assert set(mesh.triangles[cell]) & g5
