import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ablatesim import fem_core, linalg
from dirichlet_reference import apply_dirichlet_reference, assert_same_held_elimination
from ablatesim.linalg import (CooBuilder, NotConverged, SingularMatrix,
                              SolverError, apply_dirichlet, solve_cg,
                              solve_gmres, solve_lu)
from ablatesim.mesh import GeometrySpec, generate_channel_mesh


def laplacian_1d(n):
    return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1], format="csr")


class TestCooBuilder:
    def test_duplicates_sum(self):
        b = CooBuilder(2, 2)
        b.add([0, 0], [1, 1], [2.0, 3.0])
        A = b.finalize()
        assert A[0, 1] == 5.0
        assert A.nnz == 1

    def test_sorted_unique_indices(self):
        b = CooBuilder(3, 3)
        b.add([0, 0, 0], [2, 0, 1], [1.0, 1.0, 1.0])
        A = b.finalize()
        assert np.array_equal(A.indices[A.indptr[0]:A.indptr[1]], [0, 1, 2])

    def test_transpose_involution(self):
        b = CooBuilder(3, 3)
        b.add([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
        A = b.finalize()
        assert (abs(sp.csr_matrix(A.T).T - A)).max() == 0.0


class TestCG:
    def test_identity(self):
        A = sp.identity(5, format="csr")
        b = np.arange(1.0, 6.0)
        assert np.allclose(solve_cg(A, b), b, atol=1e-12)

    def test_1d_laplacian_oracle(self):
        A = laplacian_1d(4)
        b = np.ones(4)
        oracle = np.linalg.solve(A.toarray(), b)  # dense direct-solve oracle
        assert np.allclose(oracle, [2.0, 3.0, 3.0, 2.0], atol=1e-12)
        x = solve_cg(A, b, tol_rel=1e-12)
        assert np.allclose(x, oracle, atol=1e-10)

    def test_indefinite_reported(self):
        A = sp.diags([1.0, -1.0]).tocsr()
        with pytest.raises(SolverError):
            solve_cg(A, np.array([1.0, 1.0]), tol_rel=1e-12, max_iter=10)

    def test_residual_contract(self):
        rng = np.random.default_rng(3)
        A = laplacian_1d(60)
        b = rng.standard_normal(60)
        for tol in (1e-6, 1e-10):
            x = solve_cg(A, b, tol_rel=tol)
            assert np.linalg.norm(b - A @ x) <= tol * np.linalg.norm(b)

    def test_zero_rhs(self):
        x = solve_cg(laplacian_1d(5), np.zeros(5))
        assert np.array_equal(x, np.zeros(5))

    def test_not_converged_reports_iters(self):
        A = laplacian_1d(200)
        b = np.ones(200)
        with pytest.raises(NotConverged) as exc:
            solve_cg(A, b, tol_rel=1e-14, max_iter=3)
        assert exc.value.iters >= 3
        assert exc.value.residual > 0


class TestGMRES:
    def test_scaled_identity(self):
        A = 2.0 * sp.identity(6, format="csr")
        b = np.arange(6.0)
        assert np.allclose(solve_gmres(A, b), b / 2.0, atol=1e-10)

    def test_permutation(self):
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        x = solve_gmres(A, np.array([1.0, 2.0]), tol_rel=1e-12)
        assert np.allclose(x, [2.0, 1.0], atol=1e-10)

    def test_random_vs_dense_lu_oracle(self):
        rng = np.random.default_rng(11)
        n = 50
        dense = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        oracle = np.linalg.solve(dense, b)
        x = solve_gmres(sp.csr_matrix(dense), b, tol_rel=1e-12, restart=30)
        assert np.linalg.norm(x - oracle) <= 1e-8 * np.linalg.norm(oracle)


class TestLU:
    def test_identity(self):
        b = np.arange(4.0)
        assert np.allclose(solve_lu(sp.identity(4, format="csr"), b), b)

    def test_singular_zero_row(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SingularMatrix):
            solve_lu(A, np.array([1.0, 1.0]))

    def test_residual_contract_violation_raises(self):
        # SuperLU's relative residual on the 12x12 Hilbert matrix is ~1e-9,
        # above the 1e-10 contract.
        n = 12
        i = np.arange(n)
        hilbert = sp.csr_matrix(1.0 / (i[:, None] + i[None, :] + 1.0))
        with pytest.raises(SolverError, match="residual contract"):
            solve_lu(hilbert, np.ones(n))

    def test_contract_meeting_guess_returned_bitwise(self):
        A = laplacian_1d(30)
        x_true = np.linspace(-1.0, 2.0, 30)
        b = A @ x_true
        x0 = x_true + 1e-14  # within the contract, but not LU's own answer
        assert np.linalg.norm(b - A @ x0) <= 1e-10 * np.linalg.norm(b)
        x = solve_lu(A, b, x0=x0)
        assert np.array_equal(x, x0)
        assert x is not x0
        assert not np.array_equal(solve_lu(A, b), x0)

    def test_guess_missing_the_contract_is_solved(self):
        A = laplacian_1d(30)
        b = np.ones(30)
        x = solve_lu(A, b, x0=np.zeros(30))
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)


def convection_diffusion_2d(m, wind=5.0):
    """Nonsymmetric 5-point convection-diffusion matrix on an m x m grid."""
    lap = laplacian_1d(m)
    adv = sp.diags([-np.ones(m - 1), np.ones(m - 1)], [-1, 1]) * (wind / 2.0)
    eye = sp.identity(m)
    return (sp.kron(lap, eye) + sp.kron(eye, lap) + sp.kron(adv, eye)).tocsr()


def fresh_lu_reference(A, b, order):
    """The fresh LU solve as it stood before factors were held: scale by
    |diag A|^-1/2, permute into ``order``, factorize in that order."""
    n = A.shape[0]
    diag = np.abs(A.diagonal())
    d = np.ones(n)
    np.divide(1.0, np.sqrt(diag), out=d, where=diag > 0.0)
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.arange(n)
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    scaled = sp.csr_matrix((A.data * d[rows] * d[A.indices], A.indices, A.indptr),
                           shape=A.shape)[order]
    permuted = sp.csr_matrix((scaled.data, inverse[scaled.indices], scaled.indptr),
                             shape=A.shape).tocsc()
    lu = spla.splu(permuted, permc_spec="NATURAL", diag_pivot_thresh=0.1)
    y = np.empty(n)
    y[order] = lu.solve((d * b)[order])
    return d * y


class TestHeldLU:
    m = 20

    def system(self, perturbation=0.0, seed=0):
        rng = np.random.default_rng(seed)
        A = convection_diffusion_2d(self.m)
        A.data *= 1.0 + perturbation * rng.uniform(-1.0, 1.0, A.nnz)
        return A, rng.standard_normal(A.shape[0])

    def order(self):
        return np.random.default_rng(7).permutation(self.m * self.m)

    def test_without_holder_matches_the_fresh_lu_bytes(self):
        A, b = self.system()
        for order in (None, self.order()):
            ref = fresh_lu_reference(A, b, np.arange(A.shape[0]) if order is None else order)
            assert solve_lu(A, b, order=order).tobytes() == ref.tobytes()
            # The first solve of a holder is that same fresh LU.
            held = linalg.HeldLU()
            assert solve_lu(A, b, order=order, factor=held).tobytes() == ref.tobytes()
            assert held.events == ["no factor held"] and held.iterations == 0

    def test_perturbed_system_reuses_the_factor(self):
        held = linalg.HeldLU()
        A, b = self.system()
        solve_lu(A, b, order=self.order(), factor=held)
        A1, b1 = self.system(perturbation=1e-3, seed=1)
        x = solve_lu(A1, b1, order=self.order(), factor=held)
        assert np.linalg.norm(b1 - A1 @ x) <= linalg.RESIDUAL_TOL * np.linalg.norm(b1)
        assert held.events == ["no factor held"]
        assert held.krylov_solves == 1 and 0 < held.iterations <= linalg.KRYLOV_CAP
        assert held.report() == ("2 solves: 0 by the guess, 1 by GMRES on the held "
                                 "factor, 1 LU (no factor held)")

    def test_reused_solve_applies_the_factor_iterations_times(self, monkeypatch):
        # Right preconditioning applies the factor once per iteration: not to
        # b for a stopping scale, nor again to the final update.
        held = linalg.HeldLU()
        A, b = self.system()
        solve_lu(A, b, order=self.order(), factor=held)
        applies = []
        apply = linalg.HeldLU.apply

        def counted(self, r):
            applies.append(1)
            return apply(self, r)

        monkeypatch.setattr(linalg.HeldLU, "apply", counted)
        A1, b1 = self.system(perturbation=1e-3, seed=1)
        solve_lu(A1, b1, order=self.order(), factor=held)
        assert held.krylov_solves == 1 and held.iterations > 0
        assert len(applies) == held.iterations

    def test_reused_solve_from_a_guess_forms_its_residual_once(self):
        # The guess check's residual b - A x0 is also GMRES's first: one
        # product for it, one per iteration, one for the acceptance check.
        class CountingCSR(sp.csr_matrix):
            products = 0

            def _matmul_vector(self, other):
                self.products += 1
                return super()._matmul_vector(other)

        held = linalg.HeldLU()
        A, b = self.system()
        x0 = solve_lu(A, b, order=self.order(), factor=held)
        A1, b1 = self.system(perturbation=1e-3, seed=1)
        A1 = CountingCSR(A1)
        x = solve_lu(A1, b1, x0=x0, order=self.order(), factor=held)
        assert held.krylov_solves == 1 and held.iterations > 0
        assert A1.products == held.iterations + 2
        assert np.linalg.norm(b1 - A1 @ x) <= linalg.RESIDUAL_TOL * np.linalg.norm(b1)

    def test_solve_without_guess_starts_from_the_last_solution(self):
        A, b = self.system()
        A1, b1 = self.system(perturbation=1e-3, seed=1)
        b1 = b + 1e-3 * b1  # a nearby right-hand side, as from one time step to the next
        iterations = []
        for start in ("last", "zero"):
            held = linalg.HeldLU()
            solve_lu(A, b, order=self.order(), factor=held)
            assert held.last is not None
            x0 = None if start == "last" else np.zeros_like(b1)
            x = solve_lu(A1, b1, x0=x0, order=self.order(), factor=held)
            assert np.linalg.norm(b1 - A1 @ x) <= linalg.RESIDUAL_TOL * np.linalg.norm(b1)
            assert held.krylov_solves == 1 and held.last.tobytes() == x.tobytes()
            iterations.append(held.iterations)
        assert iterations[0] < iterations[1]

    def test_last_is_a_copy_the_constrained_solve_cannot_overwrite(self):
        A, b = self.system()
        system = linalg.LinearSystem()
        x = system.solve(A, b, np.arange(0, A.shape[0], 9), np.linspace(-1.0, 1.0, 45))
        x[:] = 0.0
        assert np.linalg.norm(system.factor.last) > 0.0

    def test_same_system_twice_stops_within_one_iteration(self):
        held = linalg.HeldLU()
        A, b = self.system()
        x = solve_lu(A, b, order=self.order(), factor=held)
        with np.errstate(divide="raise", invalid="raise"):
            # From the last solution the cycle accepts its start: a solve by the guess.
            again = solve_lu(A, b, order=self.order(), factor=held)
            assert held.iterations == 0 and held.krylov_solves == 0
            zero = solve_lu(A, b, x0=np.zeros_like(b), order=self.order(), factor=held)
            assert held.iterations == 1 and held.krylov_solves == 1
        assert held.events == ["no factor held"]
        assert held.report().startswith("3 solves: 1 by the guess, 1 by GMRES on the held")
        assert np.linalg.norm(again - x) <= 1e-9 * np.linalg.norm(x)
        assert np.linalg.norm(zero - x) <= 1e-9 * np.linalg.norm(x)

    def test_unchanged_system_is_solved_by_the_guess(self):
        # A constrained system solved again unchanged, as a steady flow's
        # steps are: GMRES from the held solution accepts its start after 0
        # iterations, and the report counts those solves as by the guess.
        A, b = self.system()
        constraints = (np.arange(0, A.shape[0], 9), np.linspace(-1.0, 1.0, 45), self.order())
        system = linalg.LinearSystem()
        x = system.solve(A, b, *constraints)
        for _ in range(3):
            assert system.solve(A, b, *constraints).tobytes() == x.tobytes()
        held = system.factor
        assert held.iterations == 0 and held.krylov_solves == 0
        assert held.report() == ("4 solves: 3 by the guess, 0 by GMRES on the held factor, "
                                 "1 LU (no factor held)")

    def test_happy_breakdown_divides_by_nothing(self):
        # The factor of a diagonal of powers of 4 is exact (its scaling is by
        # powers of 2), and b along a unit vector makes A M v_0 = v_0 exactly:
        # the Arnoldi vector after it is zero.
        held = linalg.HeldLU()
        A = sp.diags(4.0 ** np.arange(6), format="csr")
        solve_lu(A, np.ones(6), factor=held)
        b = 3.0 * np.eye(6)[2]
        with np.errstate(divide="raise", invalid="raise"):
            x = solve_lu(A, b, x0=np.zeros(6), factor=held)
        assert held.krylov_solves == 1 and held.iterations == 1
        assert np.array_equal(x, b / A.diagonal())

    def test_estimate_never_replaces_the_true_residual(self, monkeypatch):
        # With the identity as its preconditioner, GMRES cannot reach the
        # contract in KRYLOV_CAP iterations; the solve refactorizes and still
        # meets it.
        held = linalg.HeldLU()
        A, b = self.system()
        solve_lu(A, b, factor=held)
        cycle = linalg.HeldLU._cycle

        def unpreconditioned(self, *args):
            with monkeypatch.context() as patch:
                patch.setattr(linalg.HeldLU, "apply", lambda self, r: r.copy())
                return cycle(self, *args)

        monkeypatch.setattr(linalg.HeldLU, "_cycle", unpreconditioned)
        A1, b1 = self.system(perturbation=1e-3, seed=1)
        x = solve_lu(A1, b1, factor=held)
        assert np.linalg.norm(b1 - A1 @ x) <= linalg.RESIDUAL_TOL * np.linalg.norm(b1)
        assert len(held.events) == 2 and held.events[1].startswith("GMRES")
        assert held.krylov_solves == 0 and held.iterations == 0

    def test_far_system_refactorizes_with_its_reason(self):
        held = linalg.HeldLU()
        A, b = self.system()
        solve_lu(A, b, factor=held)
        far = (A + sp.diags(np.random.default_rng(3).uniform(0.0, 1e3, A.shape[0]))).tocsr()
        x = solve_lu(far, b, factor=held)
        assert np.linalg.norm(b - far @ x) <= linalg.RESIDUAL_TOL * np.linalg.norm(b)
        assert len(held.events) == 2 and held.events[1].startswith("GMRES")
        assert held.iterations == 0 and held.krylov_solves == 0
        # The new factor is the far system's: the next solve of it reuses it.
        solve_lu(far, 2.0 * b, factor=held)
        assert len(held.events) == 2 and held.krylov_solves == 1
        # A system of another order or shape factorizes at once.
        solve_lu(far, b, order=self.order(), factor=held)
        assert held.events[-1] == "order or shape changed"

    def test_never_two_factors_alive(self, monkeypatch):
        held = linalg.HeldLU()
        splu = spla.splu
        alive = []

        def checked_splu(*args, **kwargs):
            alive.append(held._lu is not None)
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", checked_splu)
        A, b = self.system()
        for scale in (0.0, 1e3, 0.0):
            far = (A + sp.identity(A.shape[0]) * scale).tocsr()
            solve_lu(far, b, factor=held)
        assert len(held.events) == 3 and alive == [False, False, False]

    def test_contract_meeting_guess_returned_bitwise(self):
        held = linalg.HeldLU()
        A, b = self.system()
        x = solve_lu(A, b, factor=held)
        x0 = x + 1e-15
        assert np.linalg.norm(b - A @ x0) <= linalg.RESIDUAL_TOL * np.linalg.norm(b)
        again = solve_lu(A, b, x0=x0, factor=held)
        assert again.tobytes() == x0.tobytes() and again is not x0
        assert held.solves == 2 and held.krylov_solves == 0 and len(held.events) == 1
        assert held.iterations == 0

    def test_constrained_solve_reuses_the_factor(self):
        A, b = self.system()
        dofs, vals = np.arange(0, A.shape[0], 9), np.linspace(-1.0, 1.0, 45)
        system = linalg.LinearSystem()
        system.solve(A, b, dofs, vals)
        A1, b1 = self.system(perturbation=1e-4, seed=2)
        x = system.solve(A1, b1, dofs, vals)
        assert np.array_equal(x[dofs], vals)
        ref = linalg.LinearSystem().solve(A1, b1, dofs, vals)
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)
        held = system.factor
        assert held.krylov_solves == 1 and len(held.events) == 1


class TestSingleFactor:
    """Held factors of systems with at least SINGLE_NNZ entries, with the
    threshold lowered so that a small system qualifies."""

    system, order = TestHeldLU.system, TestHeldLU.order
    m = TestHeldLU.m

    @pytest.fixture(autouse=True)
    def low_threshold(self, monkeypatch):
        monkeypatch.setattr(linalg, "SINGLE_NNZ", 1000)

    @staticmethod
    def splu_dtypes(monkeypatch):
        """The dtype of every matrix factorized from here on."""
        dtypes = []
        splu = spla.splu

        def recorded(A, *args, **kwargs):
            dtypes.append(A.dtype)
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", recorded)
        return dtypes

    def test_held_factor_is_single_and_every_solve_meets_the_contract(self, monkeypatch):
        dtypes = self.splu_dtypes(monkeypatch)
        held = linalg.HeldLU()
        for seed in range(4):
            A, b = self.system(perturbation=1e-3 * seed, seed=seed)
            assert A.nnz >= linalg.SINGLE_NNZ
            x = solve_lu(A, b, order=self.order(), factor=held)
            assert x.dtype == np.float64
            assert np.linalg.norm(b - A @ x) <= linalg.RESIDUAL_TOL * np.linalg.norm(b)
            # The first solve is a GMRES cycle on the new factor, not one application.
            assert 1 < held.iterations <= linalg.KRYLOV_CAP
        assert dtypes == [np.float32] and held._lu.dtype == np.float32
        assert held.events == ["no factor held, in single precision"]
        assert held.krylov_solves == 3 and held.factored_solves == 1
        assert held.report() == ("4 solves: 0 by the guess, 3 by GMRES on the held factor, "
                                 "1 LU (no factor held, in single precision)")
        assert held.apply(np.ones(A.shape[0])).dtype == np.float64

    def test_solves_without_a_holder_are_single_too(self, monkeypatch):
        # One precision rule for every factor: a solve_lu given no holder,
        # and a new system's first solve, factorize in single precision and
        # accept a GMRES cycle on the float64 residual.
        A, b = self.system()
        order = self.order()
        dofs, vals = np.arange(0, A.shape[0], 9), np.linspace(-1.0, 1.0, 45)
        dtypes = self.splu_dtypes(monkeypatch)
        x = solve_lu(A, b, order=order)
        assert np.linalg.norm(b - A @ x) <= linalg.RESIDUAL_TOL * np.linalg.norm(b)
        system = linalg.LinearSystem()
        x = system.solve(A, b, dofs, vals, order)
        Am, bm = apply_dirichlet(A, b, dofs, vals)
        assert Am.nnz >= linalg.SINGLE_NNZ
        assert np.linalg.norm(bm - Am @ x) <= linalg.RESIDUAL_TOL * np.linalg.norm(bm)
        assert np.array_equal(x[dofs], vals)
        assert dtypes == [np.float32, np.float32]
        assert system.factor.events == ["no factor held, in single precision"]
        assert 1 < system.factor.iterations <= linalg.KRYLOV_CAP

    def test_missed_single_cycle_refactorizes_in_double(self, monkeypatch):
        # One GMRES iteration from zero is a single-precision LU solve, about
        # 1e-6 |b| off: it misses the contract.
        monkeypatch.setattr(linalg, "KRYLOV_CAP", 1)
        A, b = self.system()
        ref = fresh_lu_reference(A, b, self.order())
        dtypes = self.splu_dtypes(monkeypatch)
        held = linalg.HeldLU()
        x = solve_lu(A, b, order=self.order(), factor=held)
        assert x.tobytes() == ref.tobytes()
        assert dtypes == [np.float32, np.float64] and held._lu.dtype == np.float64
        assert held.events[0] == "no factor held, in single precision"
        assert held.events[1].startswith("single-precision cycle cap of 1 iterations reached")
        assert held.events[1].endswith("|b|: double precision")
        assert held.iterations == 0 and held.factored_solves == 1
        assert held.report().startswith("1 solves: 0 by the guess, 0 by GMRES on the held "
                                        "factor, 2 LU (no factor held, in single precision; ")
        assert held.last.tobytes() == x.tobytes()

    def test_below_the_threshold_stays_double(self, monkeypatch):
        A, b = self.system()
        monkeypatch.setattr(linalg, "SINGLE_NNZ", A.nnz + 1)
        order = self.order()
        dofs, vals = np.arange(0, A.shape[0], 9), np.linspace(-1.0, 1.0, 45)
        ref = fresh_lu_reference(A, b, order)
        constrained = fresh_lu_reference(*apply_dirichlet(A, b, dofs, vals), order)
        constrained[dofs] = vals
        dtypes = self.splu_dtypes(monkeypatch)
        held = linalg.HeldLU()
        x = solve_lu(A, b, order=order, factor=held)
        assert x.tobytes() == ref.tobytes()
        assert dtypes == [np.float64] and held.events == ["no factor held"]
        # Without a holder, and in a new system, the solve is the same
        # double LU bit for bit, and runs no GMRES.
        assert solve_lu(A, b, order=order).tobytes() == ref.tobytes()
        system = linalg.LinearSystem()
        assert system.solve(A, b, dofs, vals, order).tobytes() == constrained.tobytes()
        assert system.factor.iterations == 0
        assert dtypes == [np.float64] * 3


class TestStalledCycle:
    def test_hopeless_cycle_ends_after_three_iterations(self, monkeypatch):
        # With the identity as its preconditioner, GMRES on the 2D
        # convection-diffusion system gains little per iteration: its cycle
        # is projected to miss after 3 of them and refactorizes.
        held = linalg.HeldLU()
        A, b = TestHeldLU().system()
        solve_lu(A, b, factor=held)
        applies = []
        monkeypatch.setattr(linalg.HeldLU, "apply", lambda self, r: applies.append(1) or r.copy())
        A1, b1 = TestHeldLU().system(perturbation=1e-3, seed=1)
        assert held._cycle(A1, b1, held.last, linalg.RESIDUAL_TOL * np.linalg.norm(b1),
                           "GMRES") == (None, 3, "GMRES projected to miss after 3 iterations")
        assert len(applies) == 3

    def test_projection_leaves_a_converging_cycle_alone(self):
        # An incomplete LU preconditioner converges fast enough that no
        # projection gives up: the cycle is the one without the rule.
        A = convection_diffusion_2d(12)
        b = np.random.default_rng(5).standard_normal(A.shape[0])
        M = spla.spilu(A.tocsc(), drop_tol=1e-2)
        stop = 1e-8 * np.linalg.norm(b)
        x, k = linalg._gmres(A, b, None, M.solve, stop, 30)
        x_rule, k_rule = linalg._gmres(A, b, None, M.solve, stop, 30, give_up=True)
        assert k_rule == k > 3 and x_rule.tobytes() == x.tobytes()


class TestFailedFactor:
    """The paths a failing factor takes, reached by a held factor whose
    application returns NaN or zeros."""

    @staticmethod
    def broken_in_cycles(monkeypatch, value):
        """Make every GMRES cycle apply a factor that returns ``value``."""
        cycle = linalg.HeldLU._cycle

        def broken(self, *args):
            with monkeypatch.context() as patch:
                patch.setattr(linalg.HeldLU, "apply", lambda self, r: np.full_like(r, value))
                return cycle(self, *args)

        monkeypatch.setattr(linalg.HeldLU, "_cycle", broken)

    def test_non_finite_double_solution_raises(self, monkeypatch):
        A, b = TestHeldLU().system()
        held = linalg.HeldLU()
        monkeypatch.setattr(linalg.HeldLU, "apply", lambda self, r: np.full_like(r, np.nan))
        with pytest.raises(linalg.SingularMatrix, match="non-finite solution"):
            solve_lu(A, b, factor=held)
        assert held.events == ["no factor held"] and held.factored_solves == 1
        assert held.last is None

    @pytest.mark.parametrize("value, reason", [
        (np.nan, "non-finite GMRES iterate after 10 iterations"),
        # A zero application breaks the Arnoldi process down at once: the
        # cycle returns its start, far above the contract.
        (0.0, "GMRES stopped after 0 iterations at residual "),
    ], ids=["nan", "zeros"])
    def test_failed_cycle_refactorizes_with_its_reason(self, monkeypatch, value, reason):
        held = linalg.HeldLU()
        A, b = TestHeldLU().system()
        solve_lu(A, b, factor=held)
        self.broken_in_cycles(monkeypatch, value)
        A1, b1 = TestHeldLU().system(perturbation=1e-3, seed=1)
        x = solve_lu(A1, b1, factor=held)
        assert np.linalg.norm(b1 - A1 @ x) <= linalg.RESIDUAL_TOL * np.linalg.norm(b1)
        assert len(held.events) == 2 and held.events[1].startswith(reason)
        assert held.factored_solves == 2 and held.krylov_solves == 0

    def test_failed_single_cycle_refactorizes_in_double(self, monkeypatch):
        monkeypatch.setattr(linalg, "SINGLE_NNZ", 1000)
        self.broken_in_cycles(monkeypatch, np.nan)
        A, b = TestHeldLU().system()
        held = linalg.HeldLU()
        x = solve_lu(A, b, factor=held)
        assert np.linalg.norm(b - A @ x) <= linalg.RESIDUAL_TOL * np.linalg.norm(b)
        assert held.events == ["no factor held, in single precision",
                               "non-finite single-precision cycle iterate after 10 iterations: "
                               "double precision"]
        assert held._lu.dtype == np.float64


class TestSolveEndings:
    """Every way a solve can end, each counted once by how it ended."""

    LU, SINGLE = "no factor held", "no factor held, in single precision"
    # (case, solves, by the guess, by GMRES, iterations, by_guess, LU event prefixes)
    ENDINGS = [
        ("guess", 2, 1, 0, 0, True, [LU]),
        ("gmres 0", 2, 1, 0, 0, True, [LU]),  # from ``last``, accepted as it is
        ("gmres k", 2, 0, 1, "k", False, [LU]),
        ("double", 1, 0, 0, 0, False, [LU]),
        ("single", 1, 0, 0, "k", False, [SINGLE]),
        ("single miss", 1, 0, 0, 0, False, [SINGLE, "single-precision cycle cap of 1"]),
    ]

    @staticmethod
    def solves(case, monkeypatch):
        """(the holder, the last solve's x, ``last`` before it, its system)."""
        A, b = TestHeldLU().system()
        held = linalg.HeldLU()
        if case.startswith("single"):
            monkeypatch.setattr(linalg, "SINGLE_NNZ", 1000)
        if case == "single miss":
            monkeypatch.setattr(linalg, "KRYLOV_CAP", 1)
        if case in ("guess", "gmres 0", "gmres k"):
            x = solve_lu(A, b, factor=held)
        last, x0 = held.last, None
        if case == "guess":
            x0 = x  # the first solve's answer meets the contract as it is
        elif case == "gmres k":
            A, b = TestHeldLU().system(perturbation=1e-3, seed=1)
        return held, solve_lu(A, b, x0=x0, factor=held), last, (A, b)

    @pytest.mark.parametrize("case, solves, guessed, krylov, iterations, by_guess, events",
                             ENDINGS, ids=[e[0] for e in ENDINGS])
    def test_each_ending_is_counted_once(self, monkeypatch, case, solves, guessed, krylov,
                                         iterations, by_guess, events):
        held, x, last, (A, b) = self.solves(case, monkeypatch)
        assert np.linalg.norm(b - A @ x) <= linalg.RESIDUAL_TOL * np.linalg.norm(b)
        assert held.report() == (f"{solves} solves: {guessed} by the guess, {krylov} by GMRES "
                                 f"on the held factor, {len(events)} LU "
                                 f"({'; '.join(held.events)})")
        assert len(held.events) == len(events)
        assert all(e.startswith(prefix) for e, prefix in zip(held.events, events))
        assert held.solves == solves and held.krylov_solves == krylov
        assert held.factored_solves == solves - guessed - krylov
        if iterations == "k":
            assert 0 < held.iterations <= linalg.KRYLOV_CAP
        else:
            assert held.iterations == iterations
        assert held.by_guess is by_guess
        if case == "guess":  # a guess returned as it is leaves ``last`` alone
            assert held.last is last and x is not last
        else:
            assert held.last is not x and held.last.tobytes() == x.tobytes()

    def test_first_single_solve_forms_its_residual_once(self, monkeypatch):
        monkeypatch.setattr(linalg, "SINGLE_NNZ", 1000)
        calls = []
        residual = linalg._residual_norm
        monkeypatch.setattr(linalg, "_residual_norm",
                            lambda *a: calls.append(1) or residual(*a))
        A, b = TestHeldLU().system()
        held = linalg.HeldLU()
        solve_lu(A, b, factor=held)
        assert held.events == ["no factor held, in single precision"] and len(calls) == 1

    def test_a_solve_failing_on_its_new_factor_counts_as_an_lu(self):
        # The 12x12 Hilbert matrix misses the contract on its LU (see
        # TestLU): the failed solve is counted once, and keeps no solution.
        i = np.arange(12)
        held = linalg.HeldLU()
        with pytest.raises(SolverError, match="residual contract"):
            solve_lu(sp.csr_matrix(1.0 / (i[:, None] + i[None, :] + 1.0)), np.ones(12),
                     factor=held)
        assert held.report() == ("1 solves: 0 by the guess, 0 by GMRES on the held factor, "
                                 "1 LU (no factor held)")
        assert held.factored_solves == 1 and held.last is None and not held.by_guess


class TestApplyDirichlet:
    def test_pin_single_dof(self):
        A = laplacian_1d(3)
        b = np.zeros(3)
        Am, bm = apply_dirichlet(A, b, [0], [1.0])
        x = solve_lu(Am, bm)
        assert x[0] == 1.0

    def test_pin_all(self):
        A = laplacian_1d(4)
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        Am, bm = apply_dirichlet(A, np.zeros(4), np.arange(4), vals)
        assert np.array_equal(solve_lu(Am, bm), vals)

    def test_spd_preserved(self):
        A = laplacian_1d(30)
        b = np.ones(30)
        Am, bm = apply_dirichlet(A, b, [0, 29], [0.5, -0.5])
        assert (abs(Am - Am.T)).max() == 0.0
        assert np.linalg.eigvalsh(Am.toarray()).min() > 0.0
        x = solve_lu(Am, bm)  # the direct path reproduces the pinned values exactly
        assert x[0] == 0.5 and x[29] == -0.5

    def test_idempotent(self):
        A = laplacian_1d(10)
        b = np.linspace(0, 1, 10)
        A1, b1 = apply_dirichlet(A, b, [2, 7], [1.5, -2.0])
        A2, b2 = apply_dirichlet(A1, b1, [2, 7], [1.5, -2.0])
        assert (abs(A2 - A1)).max() == 0.0
        assert np.array_equal(b1, b2)

    def test_no_explicit_zeros(self):
        # Input with stored zeros: entry (0, 1) and the diagonal at 5.
        A = laplacian_1d(6).tocsr()
        A.data[1] = 0.0
        A.data[-1] = 0.0
        assert A.nnz > np.count_nonzero(A.data)
        for dofs in ([1, 4], [5], []):
            Am, _ = apply_dirichlet(A, np.ones(6), dofs, np.ones(len(dofs)))
            assert Am.nnz == np.count_nonzero(Am.data)
            assert Am.has_canonical_format

    def test_idempotent_spd_without_explicit_zeros(self):
        A = laplacian_1d(12) + sp.diags(np.linspace(0.1, 1.0, 12), format="csr")
        b = np.cos(np.arange(12.0))
        A1, b1 = apply_dirichlet(A, b, [0, 5, 11], [1.0, -1.0, 2.0])
        A2, b2 = apply_dirichlet(A1, b1, [0, 5, 11], [1.0, -1.0, 2.0])
        assert A1.nnz == np.count_nonzero(A1.data)
        assert np.array_equal(A1.indptr, A2.indptr)
        assert np.array_equal(A1.indices, A2.indices)
        assert np.array_equal(A1.data, A2.data)
        assert np.array_equal(b1, b2)
        assert (abs(A1 - A1.T)).max() == 0.0
        assert np.linalg.eigvalsh(A1.toarray()).min() > 0.0

    def test_constrained_row_without_diagonal(self):
        # Saddle-type matrix: the constrained dof 2 stores no diagonal, and
        # the elimination adds none; with its zero diagonal stored, it is
        # eliminated.
        A = sp.csr_matrix(np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 0.0]]))
        with pytest.raises(ValueError, match="^constrained row 2 stores no diagonal$"):
            apply_dirichlet(A, np.array([1.0, 1.0, 0.0]), [2], [3.0])
        A = sp.csr_matrix((np.array([2.0, 1.0, 2.0, 1.0, 1.0, 1.0, 0.0]),
                           np.array([0, 2, 1, 2, 0, 1, 2]), np.array([0, 2, 4, 7])), shape=(3, 3))
        Am, bm = apply_dirichlet(A, np.array([1.0, 1.0, 0.0]), [2], [3.0])
        assert Am.nnz == np.count_nonzero(Am.data)
        assert np.array_equal(Am.toarray(), [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(bm, [-2.0, -2.0, 3.0])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            apply_dirichlet(laplacian_1d(3), np.zeros(3), [5], [0.0])

    def test_duplicate_dofs_rejected(self):
        with pytest.raises(ValueError):
            apply_dirichlet(laplacian_1d(3), np.zeros(3), [1, 1], [0.0, 0.0])


class TestSolveConstrained:
    """The constrained solve: :meth:`LinearSystem.solve` of a new system."""

    @staticmethod
    def system():
        n = 30
        A = (laplacian_1d(n) + sp.diags([0.3 * np.ones(n - 1)], [1])).tocsr()  # nonsymmetric
        return (A, np.linspace(0.0, 1.0, n), np.array([0, 17, 29]),
                np.array([1.0 / 3.0, -0.1, 0.7]))

    def test_contract_and_exact_constrained_entries(self):
        A, b, dofs, vals = self.system()
        x = linalg.LinearSystem().solve(A, b, dofs, vals)
        assert np.array_equal(x[dofs], vals)
        Am, bm = apply_dirichlet(A, b, dofs, vals)
        assert np.linalg.norm(bm - Am @ x) <= 1e-10 * np.linalg.norm(bm)

    def test_contract_meeting_guess_returned_bitwise(self):
        A, b, dofs, vals = self.system()
        x0 = linalg.LinearSystem().solve(A, b, dofs, vals)
        x0[np.setdiff1d(np.arange(b.size), dofs)] += 1e-14  # not LU's own answer
        Am, bm = apply_dirichlet(A, b, dofs, vals)
        assert np.linalg.norm(bm - Am @ x0) <= 1e-10 * np.linalg.norm(bm)
        guess = x0.copy()
        x = linalg.LinearSystem().solve(A, b, dofs, vals, x0=x0)
        assert np.array_equal(x, guess)
        assert x is not x0 and np.array_equal(x0, guess)


class TestLinearSystem:
    @staticmethod
    def matrices(count, seed=0):
        """Nonsymmetric matrices on one CSR pattern with stored zeros: the
        entries (0, 1) and (3, 4), and the whole diagonal block of dof 6."""
        rng = np.random.default_rng(seed)
        A = (laplacian_1d(12) + sp.diags([0.3 * np.ones(11)], [1])).tocsr()
        for _ in range(count):
            B = A.copy()
            B.data = B.data * rng.uniform(0.5, 1.5, B.nnz)
            B.data[[1, 10]] = 0.0
            yield B, rng.standard_normal(12)

    def test_held_elimination_matches_the_reference_bytes(self):
        dofs, vals = np.array([11, 0, 5]), np.array([2.0, -1.0, 0.5])
        system = linalg.LinearSystem()
        for A, b in self.matrices(4):
            got = system.eliminate(A, b, dofs, vals)
            assert_same_held_elimination(got, apply_dirichlet_reference(A, b, dofs, vals), A)
            assert got[0].nnz == A.nnz and got[0].nnz > np.count_nonzero(got[0].data)
        assert system.builds == 1

    def test_structure_holds_only_constrained_positions(self):
        # The positions zeroed are those of the constrained rows and
        # columns, and the unit ones the constrained diagonals: no array of
        # the size of A's pattern is held.
        dofs = np.array([11, 0, 5])
        system = linalg.LinearSystem()
        (A, b), = self.matrices(1)
        system.eliminate(A, b, dofs, np.ones(3))
        rows = np.repeat(np.arange(12), np.diff(A.indptr))
        constrained = np.isin(rows, dofs) | np.isin(A.indices, dofs)
        assert np.array_equal(system._zero, np.flatnonzero(constrained))
        assert np.array_equal(np.sort(system._diag),
                              np.flatnonzero(np.isin(rows, dofs) & (rows == A.indices)))
        assert system._zero.size < A.nnz // 2

    def test_not_rebuilt_when_a_zero_turns_nonzero(self):
        dofs, vals = [5], [1.0]
        system = linalg.LinearSystem()
        (A, b), (A1, b1) = self.matrices(2)
        system.eliminate(A, b, dofs, vals)
        A1.data[1] = 0.25  # a stored zero turns nonzero
        assert_same_held_elimination(system.eliminate(A1, b1, dofs, vals),
                                     apply_dirichlet_reference(A1, b1, dofs, vals), A1)
        assert system.builds == 1

    def test_not_rebuilt_when_a_kept_entry_turns_zero(self):
        dofs, vals = [5], [1.0]
        system = linalg.LinearSystem()
        (A, b), (A1, b1) = self.matrices(2)
        system.eliminate(A, b, dofs, vals)
        A1.data[2] = 0.0
        assert_same_held_elimination(system.eliminate(A1, b1, dofs, vals),
                                     apply_dirichlet_reference(A1, b1, dofs, vals), A1)
        assert system.builds == 1

    def test_rebuilt_on_another_pattern(self):
        def circulant(shift, n=8):  # row i holds columns i and (i + shift) % n
            return (2.0 * sp.identity(n) - sp.eye(n, k=shift) - sp.eye(n, k=shift - n)).tocsr()

        system = linalg.LinearSystem()
        # The same shape, row lengths and values on other columns; then
        # another shape.
        for A in (circulant(1), circulant(2), laplacian_1d(9)):
            b = np.ones(A.shape[0])
            assert_same_held_elimination(system.eliminate(A, b, [0], [1.0]),
                                         apply_dirichlet_reference(A, b, [0], [1.0]), A)
        assert system.builds == 3

    def test_non_canonical_matrix_is_rejected(self):
        # Row 0 holds column 0 twice and its columns unsorted; row 1 stores
        # no diagonal although its dof is constrained.  The elimination
        # works on A's own pattern, so it takes no copy to mend either.
        A = sp.csr_matrix((np.array([1.0, 2.0, 4.0, -1.0, 3.0, 5.0]),
                           np.array([1, 0, 0, 2, 0, 2]), np.array([0, 3, 5, 6])), shape=(3, 3))
        assert not A.has_canonical_format
        b = np.array([1.0, 2.0, 3.0])
        for dofs, vals in (([1], [0.5]), ([], [])):
            with pytest.raises(ValueError, match="must be canonical"):
                linalg.LinearSystem().eliminate(A, b, dofs, vals)
        A.sum_duplicates()
        system = linalg.LinearSystem()
        with pytest.raises(ValueError, match="^constrained row 1 stores no diagonal$"):
            system.eliminate(A, b, [1], [0.5])
        assert system.builds == 0

    def test_zero_values_fold_nothing_into_b(self):
        # All-zero constrained values fold nothing into b: it is bit for bit
        # b - A x_fix of the reference, signed zeros included.
        dofs = np.array([0, 5, 11])
        system = linalg.LinearSystem()
        for A, b in self.matrices(2):
            b[[1, 4, 6]] = -0.0
            got = system.eliminate(A, b, dofs, np.zeros(3))
            assert_same_held_elimination(got, apply_dirichlet_reference(A, b, dofs, np.zeros(3)),
                                         A)
            assert np.signbit(got[1][[1, 4, 6]]).all() and got[1] is not b

    def test_unconstrained_system_passes_the_matrix_through(self):
        system = linalg.LinearSystem()
        A, b = laplacian_1d(8), np.ones(8)
        A_e, b_e = system.eliminate(A, b, [], [])
        assert A_e is A and np.array_equal(b_e, b) and system.builds == 0
        x = system.solve(A, b, [], [])
        assert np.linalg.norm(b - A @ x) <= linalg.RESIDUAL_TOL * np.linalg.norm(b)
        # A stored zero passes through too: only the factor drops it.
        A.data[1] = 0.0
        got = system.eliminate(A, b, [], [])
        assert got[0] is A and system.builds == 0
        assert_same_held_elimination(got, apply_dirichlet_reference(A, b, [], []), A)

    def test_values_given_at_each_solve(self):
        # A caller whose data move with time gives each solve its values;
        # they are imposed exactly, on one elimination structure.
        A, b = laplacian_1d(10), np.zeros(10)
        system = linalg.LinearSystem()
        for t in (1.0, 3.0):
            x = system.solve(A, b, [0, 9], np.array([t, 2.0 * t]))
            assert x[0] == t and x[9] == 2.0 * t
            assert np.allclose(x, np.linspace(t, 2.0 * t, 10), rtol=1e-12, atol=0.0)
        assert system.builds == 1 and system.factor.krylov_solves == 1

    def test_index_arrays_compared_by_identity_then_values(self, monkeypatch):
        # Matrices refilled on one per-mesh pattern hold its own index
        # arrays: they are the same at once, with no comparison of values.
        # Other arrays, views of one array among them, are compared by
        # their values and then by their sign bits: two comparisons when
        # the values are equal, one when they differ.
        compared = []
        array_equal = np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda a, b: compared.append(1) or array_equal(a, b))
        pattern = fem_core._mini_pattern(generate_channel_mesh(GeometrySpec(nx=6, ny=3)))
        B = pattern.matrix(np.full(pattern.nnz, 2.0))
        C = pattern.matrix(np.full(pattern.nnz, 3.0))
        for x, y in ((B.indices, C.indices), (B.indptr, C.indptr), (B.indices, pattern.indices)):
            assert linalg._same(x, y)
        assert compared == []
        A = laplacian_1d(8)
        D = sp.csr_matrix((2.0 * A.data, A.indices, A.indptr), shape=A.shape)
        assert linalg._same(A.indices, D.indices) and len(compared) == 2
        x = np.arange(10, dtype=np.int32)
        assert linalg._same(x, x.copy()) and len(compared) == 4
        assert not linalg._same(x[1:], x[:-1])  # one base, other starts
        assert not linalg._same(x[::-1], x)  # one base, other strides
        assert len(compared) == 6
        assert linalg._same(x[::2], x[::2].copy())
        assert linalg._same(x.view(np.uint32), x)  # another dtype, equal values
        assert len(compared) == 10

    def test_dofs_checked_when_they_change(self):
        A, b = laplacian_1d(12), np.zeros(12)
        system = linalg.LinearSystem()
        with pytest.raises(ValueError, match="unique"):
            system.eliminate(A, b, [1, 1], [0.0, 0.0])
        with pytest.raises(IndexError):
            system.eliminate(A, b, [-1], [0.0])
        with pytest.raises(IndexError):
            system.eliminate(A, b, [12], [0.0])
        with pytest.raises(ValueError, match="equal length"):
            system.eliminate(A, b, [1, 2], [0.0])
        # Valid dofs build the structure once; dofs equal to them by value
        # are not checked or built again, and other dofs are.
        system.eliminate(A, b, np.array([1, 2]), [0.0, 1.0])
        system.eliminate(A, b, [1, 2], [3.0, 1.0])
        assert system.builds == 1
        with pytest.raises(ValueError, match="unique"):
            system.eliminate(A, b, [2, 2], [0.0, 1.0])
        system.eliminate(A, b, [2, 3], [0.0, 1.0])
        assert system.builds == 2 and np.array_equal(system.dofs, [2, 3])

    def test_non_finite_right_hand_side_raises_before_factorizing(self):
        system = linalg.LinearSystem()
        A, b = laplacian_1d(6), np.ones(6)
        system.solve(A, b, [0], [1.0])
        with pytest.raises(SolverError, match="non-finite right-hand side"):
            system.solve(A, b, [0], [np.nan])
        assert system.factor.events == ["no factor held"] and system.factor.solves == 1


class TestFixedPoint:
    @staticmethod
    def contraction(n=40, rate=0.8):
        """x -> C x + c with C symmetric, spectrum in [0, rate]."""
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        C = Q @ np.diag(np.linspace(0.0, rate, n)) @ Q.T
        c = rng.standard_normal(n)
        return C, c

    def test_fixed_start_returned_bitwise_after_one_call(self):
        x0 = np.array([1.0 / 3.0, -2.0, 7.5])
        calls = []

        def step(x):
            calls.append(x)
            return x.copy(), "aux"

        g, aux = linalg.fixed_point(step, x0, 1e-12, 5)
        assert len(calls) == 1 and aux == "aux"
        assert np.array_equal(g, x0)

    def test_depth_zero_is_the_plain_iteration_bit_for_bit(self):
        C, c = self.contraction()
        inputs = []

        def step(x):
            inputs.append(x)
            return C @ x + c, len(inputs)

        g, calls = linalg.fixed_point(step, np.zeros_like(c), 1e-10, 500)
        x = np.zeros_like(c)
        for x_k in inputs:
            assert np.array_equal(x_k, x)
            x = C @ x + c
        assert calls == len(inputs) > 1 and np.array_equal(g, x)

    def test_missed_tolerance_raises(self):
        C, c = self.contraction()
        with pytest.raises(SolverError, match=r"in 3 steps: last increment .* >= tol 1\.0e-10"):
            linalg.fixed_point(lambda x: (C @ x + c, None), np.zeros_like(c), 1e-10, 3)

    def test_max_iter_below_one_rejected_before_any_map(self):
        calls = []

        def step(x):
            calls.append(x)
            return x, None

        with pytest.raises(ValueError, match="max_iter"):
            linalg.fixed_point(step, np.zeros(3), 1e-10, 0)
        assert not calls
