"""Sparse storage, assembly builder, and linear solvers.

Matrices are scipy CSR; vectors are 1-D numpy arrays.  Every system is a
:class:`LinearSystem`, the one home of its solve state: its constrained dofs
and their values (plain arrays), its fill-reducing order
(:func:`fem_core.vertex_order`), the structure of its Dirichlet elimination
and its :class:`HeldLU`.  Its solve is the one sequence of elimination,
:func:`solve_lu` under the residual contract ||b - Ax|| <= 1e-10 ||b|| (a
miss raises, with no retry in another order) and exact constrained entries.
:func:`solve_lu` is :meth:`HeldLU.solve`: the held factor, single precision
for a large system, preconditions GMRES (:func:`_gmres`), only a miss
factorizes again, recording why, and each solve is counted by how it ended
in one place.  The Jacobi-preconditioned Krylov solvers :func:`solve_cg` and
:func:`solve_gmres` and :class:`CooBuilder` serve no code of the package;
they stay only because the benchmark tracer (``benchmark/tracer.py``) and
``tests/test_linalg.py`` use them.  :func:`fixed_point`, the plain iteration
x = g(x), runs both stationary solves (the heat's Picard and the flow's
Newton iteration); it raises when it misses its tolerance.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SparseMatrix = sp.csr_matrix
FieldVector = np.ndarray


class SolverError(RuntimeError):
    """Base class for linear solver failures."""


class NotConverged(SolverError):
    def __init__(self, method: str, iters: int, residual: float):
        self.method = method
        self.iters = iters
        self.residual = residual
        super().__init__(f"{method} did not converge: iters={iters}, residual={residual:.3e}")


class SingularMatrix(SolverError):
    pass


RESIDUAL_TOL = 1e-10  # relative residual bound of every solve_lu return
# GMRES iterations of one held-factor solve before it refactorizes.  Reused
# solves took 1-8 iterations on the test1 preset (48x16) and at 96x32, 2-7 at
# 192x64; a system 10 iterations do not reach is cheaper to factorize.
KRYLOV_CAP = 10
# Stored entries of an eliminated matrix from which every factor is single
# precision (HeldLU.solve).  Timed on the systems of a cold
# test1-physics step, one BLAS thread: a float32 factor application took as
# long as a float64 one for the potential and the heat at 192x64 (60-87 k
# entries), 8% less for the flow at 96x32 (187 k), ~1 ms of a ~39 ms step,
# and 18% less for the flow at 192x64 (759 k), whose factorization also fell
# 21%; reused solves took the same GMRES iterations in both precisions.
SINGLE_NNZ = 500_000


class CooBuilder:
    """Triplet accumulator; duplicate (i, j) entries sum on finalization."""

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self._rows: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []

    def add(self, rows, cols, values) -> None:
        self._rows.append(np.asarray(rows, dtype=np.int64).ravel())
        self._cols.append(np.asarray(cols, dtype=np.int64).ravel())
        self._vals.append(np.asarray(values, dtype=float).ravel())

    def finalize(self) -> SparseMatrix:
        if self._rows:
            rows = np.concatenate(self._rows)
            cols = np.concatenate(self._cols)
            vals = np.concatenate(self._vals)
        else:
            rows = cols = np.empty(0, dtype=np.int64)
            vals = np.empty(0)
        A = sp.coo_matrix((vals, (rows, cols)), shape=(self.nrows, self.ncols)).tocsr()
        A.sum_duplicates()
        A.sort_indices()
        return A


def _residual_norm(A, x, b) -> float:
    return float(np.linalg.norm(b - A @ x))


def _check_contract(method, A, x, b, tol_rel, iters):
    if not np.all(np.isfinite(x)):
        raise NotConverged(method, iters, float("inf"))
    bnorm = float(np.linalg.norm(b))
    res = _residual_norm(A, x, b)
    if res > tol_rel * bnorm and bnorm > 0.0:
        raise NotConverged(method, iters, res)
    return x


def solve_cg(A: SparseMatrix, b: FieldVector, tol_rel: float = 1e-10,
             max_iter: int = 5000, x0: FieldVector | None = None,
             info: dict | None = None) -> FieldVector:
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    ``info``, when given, receives {"iterations": n} on return.
    """
    b = np.asarray(b, dtype=float)
    if np.linalg.norm(b) == 0.0:
        if info is not None:
            info["iterations"] = 0
        return np.zeros_like(b)
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        # Jacobi needs a positive diagonal; fall back to the identity.
        M = None
    else:
        inv = 1.0 / diag
        M = spla.LinearOperator(A.shape, matvec=lambda v: inv * v)
    iters = 0

    def cb(_xk):
        nonlocal iters
        iters += 1

    with np.errstate(divide="ignore", invalid="ignore"):  # breakdown is caught below
        x, flag = spla.cg(A, b, x0=x0, rtol=tol_rel, atol=0.0, maxiter=max_iter,
                          M=M, callback=cb)
    if info is not None:
        info["iterations"] = iters
    if flag != 0:
        raise NotConverged("cg", iters, _residual_norm(A, x, b))
    return _check_contract("cg", A, x, b, tol_rel, iters)


def solve_gmres(A: SparseMatrix, b: FieldVector, tol_rel: float = 1e-8,
                restart: int = 50, max_iter: int = 2000,
                x0: FieldVector | None = None,
                info: dict | None = None) -> FieldVector:
    """Restarted GMRES (:func:`_gmres`) with diagonal (Jacobi) scaling."""
    b = np.asarray(b, dtype=float)
    if np.linalg.norm(b) == 0.0:
        if info is not None:
            info["iterations"] = 0
        return np.zeros_like(b)
    diag = A.diagonal()
    inv = np.ones_like(diag) if np.any(diag == 0.0) else 1.0 / diag
    stop = tol_rel * float(np.linalg.norm(b))
    x, iters = x0, 0
    for _ in range(max(1, max_iter // restart)):
        x, k = _gmres(A, b, x, lambda v: inv * v, stop, restart)
        iters += k
        if not np.all(np.isfinite(x)) or _residual_norm(A, x, b) <= stop:
            break
    if info is not None:
        info["iterations"] = iters
    return _check_contract("gmres", A, x, b, tol_rel, iters)


def _gmres(A: SparseMatrix, b: FieldVector, x0: FieldVector | None, precondition,
           stop: float, cap: int, r0: FieldVector | None = None, give_up: bool = False):
    """(x, iterations) of one GMRES cycle on A x = b from ``x0`` (zero when
    None), right-preconditioned by M = ``precondition``: x = x0 + Z y with
    z_k = M v_k, so the estimate |g_k| is the residual of x itself, not of
    M (b - Ax) (Saad, Iterative Methods for Sparse Linear Systems, 2nd ed.,
    9.3.2), and each iteration applies M once.  The Arnoldi basis v_k comes
    from modified Gram-Schmidt, and Givens rotations keep the Hessenberg
    matrix upper triangular.  Stops once |g_k| <= ``stop``, after ``cap``
    iterations, or on a breakdown.  ``r0``, when given, is b - A x0, which
    the caller has already formed.  With ``give_up``, a cycle projected to
    miss returns (None, k) after k >= 3 iterations: at the mean reduction
    per iteration so far, rho = (|g_k| / |g_0|)^(1/k), the estimate
    |g_k| rho^(cap - k) at the cap would still be above ``stop``.  Plain
    numpy, so no LAPACK routine is loaded."""
    x = np.zeros(b.size) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x if r0 is None else r0
    beta = float(np.linalg.norm(r))
    if beta <= stop:
        return x, 0
    H, g, rot = np.zeros((cap + 1, cap)), np.zeros(cap + 1), np.zeros((cap, 2))
    g[0] = beta
    V, Z = [r / beta], []
    k = 0
    while k < cap:
        Z.append(precondition(V[k]))
        w = A @ Z[k]
        for i, v in enumerate(V):
            H[i, k] = v @ w
            w -= H[i, k] * v
        h = float(np.linalg.norm(w))
        for i, (c, s) in enumerate(rot[:k]):
            H[i, k], H[i + 1, k] = c * H[i, k] + s * H[i + 1, k], c * H[i + 1, k] - s * H[i, k]
        rho = float(np.hypot(H[k, k], h))
        if rho == 0.0:  # A M is singular on the basis: keep the k columns so far
            break
        c, s = rot[k] = H[k, k] / rho, h / rho
        H[k, k] = rho
        g[k], g[k + 1] = c * g[k], -s * g[k]
        k += 1
        if abs(g[k]) <= stop:  # also on a happy breakdown: h = 0 gives g[k] = 0
            break
        if give_up and 3 <= k < cap and abs(g[k]) * (abs(g[k]) / beta) ** (cap / k - 1) > stop:
            return None, k
        V.append(w / h)
    y = np.zeros(k)
    for i in reversed(range(k)):
        y[i] = (g[i] - H[i, i + 1:k] @ y[i + 1:]) / H[i, i]
    for yi, z in zip(y, Z):
        x += yi * z
    return x, k


def solve_lu(A: SparseMatrix, b: FieldVector, x0: FieldVector | None = None,
             order: np.ndarray | None = None,
             factor: HeldLU | None = None) -> FieldVector:
    """Sparse LU solve under the residual contract.

    Returns x with ||b - Ax|| <= RESIDUAL_TOL * ||b||.  A guess ``x0`` that
    already meets the contract is returned unchanged (as a copy), without a
    factorization, so a fixed point stays bit-for-bit fixed.  Raises
    SolverError on a non-finite ||b||, before any GMRES or factorization,
    SingularMatrix on rank deficiency or a non-finite solution and
    SolverError when the solution misses the contract.

    ``order`` is a fill-reducing permutation of the unknowns (such as
    :func:`fem_core.vertex_order`); None is the natural order.  The matrix
    is scaled symmetrically by D = |diag A|^-1/2 (1 where the diagonal is
    zero), permuted symmetrically, and factorized in that order with
    threshold pivoting (a diagonal pivot is kept while it is at least 0.1
    of its column), so the pivots stay where the order put them; x = D y.
    The scaling keeps small diagonals, such as the condensed pressure
    block's ~h^2/nu, from losing their pivots to the coupling entries.  The
    contract is checked on the unscaled A and b.

    ``factor`` is the :class:`HeldLU` of the system across its solves (a
    throwaway one when None); the solve is its :meth:`HeldLU.solve`.
    """
    return (factor or HeldLU()).solve(A, b, x0, order)


class _ScaledLU:
    """The SuperLU factor of P D A D P^T, P taking row order[i] to row i, in
    the natural order with threshold pivoting, stored in ``dtype``."""

    def __init__(self, A: SparseMatrix, order: np.ndarray, dtype):
        n = A.shape[0]
        diag = np.abs(A.diagonal())
        d = np.ones(n)
        np.divide(1.0, np.sqrt(diag), out=d, where=diag > 0.0)
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.arange(n)
        # Scale in place of A's entries, gather the rows in the new order and
        # renumber the columns; the CSC conversion sorts the row indices.
        scaled = sp.csr_matrix(((A.data * np.repeat(d, np.diff(A.indptr)) * d[A.indices])
                                .astype(dtype, copy=False), A.indices, A.indptr),
                               shape=A.shape)[order]
        permuted = sp.csr_matrix((scaled.data, inverse[scaled.indices], scaled.indptr),
                                 shape=A.shape).tocsc()
        del scaled  # freed before SuperLU allocates the factor
        self.lu = spla.splu(permuted, permc_spec="NATURAL", diag_pivot_thresh=0.1)
        self.d, self.order, self.shape, self.dtype = d, order, A.shape, dtype

    def solve(self, r: FieldVector) -> FieldVector:
        """D P^T (LU)^-1 P D r, in float64; r is cast to the factor's dtype."""
        y = np.empty(self.d.size)
        y[self.order] = self.lu.solve((self.d * r)[self.order].astype(self.dtype, copy=False))
        return self.d * y


class HeldLU:
    """The sparse LU of one system, kept across its solves, and the record
    of how each of them ended.

    A later system of the same order and shape is solved by GMRES, in one
    cycle of at most KRYLOV_CAP iterations, right-preconditioned by the held
    factor: the lagged preconditioner of Knoll & Keyes, "Jacobian-free
    Newton-Krylov methods", J. Comput. Phys. 193 (2004).  Each iteration
    applies the factor once.  GMRES starts from the caller's guess, else from
    ``last``, and stops once its residual estimate is at most half the
    contract.  A cycle whose estimate is projected to miss that stop, at its
    mean reduction per iteration so far, by the end of KRYLOV_CAP iterations
    ends after 3 of them (:func:`_gmres`).  A solve is accepted on its true
    residual, ||b - Ax|| <= RESIDUAL_TOL ||b||, never on the estimate; any
    miss factorizes the new system instead, and every factorization is
    recorded with its reason in ``events``.  At most one factor is alive:
    the old one is released before the new one is built.

    A system with at least SINGLE_NNZ stored entries is factorized in single
    precision, and its first solve is then a GMRES cycle on the new factor,
    accepted on the float64 residual: GMRES-based iterative refinement
    (Carson & Higham, SIAM J. Sci. Comput. 40, 2018; Arioli & Duff, ETNA 33,
    2009).  A first cycle that misses factorizes the system again in double
    precision, and records why.

    :meth:`solve` is the one sequence of a solve.  Each solve past the check
    of b ends in :meth:`_end`, the one writer of the record: by the guess
    (its start met the contract, or GMRES accepted it after 0 iterations),
    by GMRES on the held factor, or on a new factor (also when it raised
    there).  ``last``, a copy of the last solution, is kept after GMRES or a
    new factor, never after a guess returned as it is.
    """

    def __init__(self):
        self._lu: _ScaledLU | None = None
        self._counts = dict.fromkeys(("guess", "gmres", "lu"), 0)  # solves by ending
        self._ended: tuple = (None, 0)  # the last solve's ending and GMRES iterations
        self.last: FieldVector | None = None  # copy of the last solution kept
        self.events: list[str] = []  # the reason of each factorization, in order

    solves = property(lambda self: sum(self._counts.values()))
    krylov_solves = property(lambda self: self._counts["gmres"])
    factored_solves = property(lambda self: self._counts["lu"])
    iterations = property(lambda self: self._ended[1])  # 0 after a double LU
    by_guess = property(lambda self: self._ended[0] == "guess")

    def solve(self, A: SparseMatrix, b: FieldVector, x0: FieldVector | None = None,
              order: np.ndarray | None = None) -> FieldVector:
        """:func:`solve_lu` on this holder, the one sequence of a solve."""
        b = np.asarray(b, dtype=float)
        bnorm = float(np.linalg.norm(b))
        if not np.isfinite(bnorm):
            raise SolverError(f"non-finite right-hand side: |b| = {bnorm}")
        limit = RESIDUAL_TOL * bnorm
        r0 = None if x0 is None else b - A @ x0  # the guess's residual, also GMRES's first
        if r0 is not None and np.linalg.norm(r0) <= limit:
            self._end("guess")
            return np.array(x0, dtype=float)
        order = np.arange(A.shape[0]) if order is None else np.asarray(order)
        if self._lu is None:
            reason = "no factor held"
        elif A.shape != self._lu.shape or not _same(order, self._lu.order):
            reason = "order or shape changed"
        else:
            x, k, reason = self._cycle(A, b, self.last if x0 is None else x0, limit, "GMRES", r0)
            if x is not None:  # after 0 iterations it accepted its start: by the guess
                return self._end("gmres" if k else "guess", k, x)
        A = sp.csr_matrix(A)
        try:
            if A.nnz >= SINGLE_NNZ:
                self.factorize(A, order, reason, single=True)
                x, k, miss = self._cycle(A, b, None, limit, "single-precision cycle")
                if x is not None:
                    return self._end("lu", k, x)
                reason = f"{miss}: double precision"
            self.factorize(A, order, reason)
            x = self.apply(b)
            if not np.all(np.isfinite(x)):
                raise SingularMatrix("LU produced non-finite solution")
            res = _residual_norm(A, x, b)
            if res > limit:
                raise SolverError(f"LU residual contract violated: |b - Ax| = {res:.3e} "
                                  f"> {RESIDUAL_TOL:.0e} |b| = {limit:.3e}")
        except SolverError:
            self._end("lu")
            raise
        return self._end("lu", 0, x)

    def _end(self, ended: str, iterations: int = 0, x: FieldVector | None = None):
        """End a solve: count it by how it ``ended`` and keep its GMRES
        ``iterations``; return its solution ``x`` and keep a copy as ``last``."""
        self._counts[ended] += 1
        self._ended = (ended, iterations)
        if x is not None:
            self.last = x.copy()
        return x

    def repeat(self) -> None:
        """Count a solve that its caller did not do again because it repeats
        the last one, whose result was its guess: a solve by the guess."""
        self._end("guess")

    def factorize(self, A: SparseMatrix, order: np.ndarray, reason: str,
                  single: bool = False) -> None:
        """Factor A (:class:`_ScaledLU`), in single precision when ``single``,
        in place of the held factor; SingularMatrix when SuperLU fails."""
        self._lu = None
        self.events.append(f"{reason}, in single precision" if single else reason)
        try:
            self._lu = _ScaledLU(A, order, np.float32 if single else np.float64)
        except RuntimeError as exc:
            raise SingularMatrix(str(exc)) from exc

    def apply(self, r: FieldVector) -> FieldVector:
        """D P^T (LU)^-1 P D r: the solve with the held factor."""
        return self._lu.solve(r)

    def _cycle(self, A, b, x0, limit, name, r0=None):
        """(x, iters, None) when one GMRES cycle on the held factor from ``x0``
        (residual ``r0`` when given) meets ``limit`` on its true residual in
        ``iters`` iterations; otherwise (None, iters, why ``name`` missed)."""
        x, iters = _gmres(A, b, x0, self.apply, 0.5 * limit, KRYLOV_CAP, r0, give_up=True)
        if x is None:
            return None, iters, f"{name} projected to miss after {iters} iterations"
        if not np.all(np.isfinite(x)):
            return None, iters, f"non-finite {name} iterate after {iters} iterations"
        res = _residual_norm(A, x, b)
        if res <= limit:
            return x, iters, None
        miss = f"at residual {res / np.linalg.norm(b):.1e} |b|"
        if iters >= KRYLOV_CAP:
            return None, iters, f"{name} cap of {KRYLOV_CAP} iterations reached {miss}"
        return None, iters, f"{name} stopped after {iters} iterations {miss}"

    def report(self) -> str:
        """One line: how the solves were done, and why each LU was built."""
        return (f"{self.solves} solves: {self._counts['guess']} by the guess, "
                f"{self.krylov_solves} by GMRES on the held factor, "
                f"{len(self.events)} LU ({'; '.join(self.events)})")


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two index arrays are equal: at once when they view the same
    memory alike, as the index arrays of matrices refilled on one per-mesh
    pattern do (scipy wraps them in views of their own)."""
    def layout(x):
        return x.__array_interface__["data"][0], x.shape, x.strides, x.dtype

    return layout(a) == layout(b) or np.array_equal(a, b)


def fixed_point(step, x0: FieldVector, tol: float, max_iter: int):
    """Plain fixed-point iteration x_{k+1} = g(x_k).

    ``step(x)`` returns ``(g, aux)``.  The iteration stops at the first map
    output with ||g - x|| / max(1, ||g||) < ``tol`` and returns that
    ``(g, aux)``, so a start that is already a fixed point returns after one
    call, bit for bit; after ``max_iter`` map calls without one it raises
    SolverError naming the last increment.  A ``max_iter`` below 1 raises
    ValueError before any map call.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    x = np.asarray(x0, dtype=float)
    for _ in range(max_iter):
        g, aux = step(x)
        incr = np.linalg.norm(g - x) / max(1.0, np.linalg.norm(g))
        if incr < tol:
            return g, aux
        x = g
    raise SolverError(f"fixed-point iteration missed its tolerance in {max_iter} "
                      f"steps: last increment {incr:.3e} >= tol {tol:.1e}")


class LinearSystem:
    """One system's solve state: the constrained ``dofs`` and their
    ``values``, arrays (a caller whose data move sets the values before each
    solve), the fill-reducing ``order``, the :class:`HeldLU` ``factor`` kept
    across its solves and the structure of the Dirichlet elimination.

    The eliminated matrix stores exactly its nonzero entries: A's off the
    constrained rows and columns, and a unit diagonal on each constrained
    row.  Its structure, a mask of the kept entries of A's pattern with the
    eliminated matrix's indices, is built at the first elimination
    (``builds`` counts the builds); a later A on the same pattern only has
    its kept entries gathered, and the structure is rebuilt when the pattern
    changes, a dropped free entry is nonzero or a kept one is zero.  A
    system without constraints passes a canonical A without zero entries
    through untouched.

    ``fixed`` is free for the system's caller: the inputs and the result of
    its last step when that step returned its input, so that a step on the
    same inputs returns the same result without a solve.
    """

    def __init__(self, dofs=None, values=(), order=None):
        self.dofs = self.values = self.order = self._pattern = None
        self.factor = HeldLU()
        self.builds = 0
        self.fixed = None
        if dofs is not None:
            self.constrain(dofs, values, order)

    def constrain(self, dofs, values, order=None) -> None:
        """Set the dofs (checked here and at each build), values and order."""
        dofs = np.asarray(dofs, dtype=np.int64)
        if dofs.size != np.unique(dofs).size:
            raise ValueError("Dirichlet dofs must be unique")
        if dofs.size and dofs.min() < 0:
            raise IndexError("Dirichlet dof out of range")
        self.dofs, self.order, self._pattern = dofs, order, None
        self.values = np.asarray(values, dtype=float)

    def solve(self, A: SparseMatrix, b: FieldVector, x0: FieldVector | None = None) -> FieldVector:
        """:func:`solve_lu` of the eliminated system with the held factor,
        from the guess ``x0``; x[dofs] is set to the values exactly."""
        x = solve_lu(*self.eliminate(A, b), x0=x0, order=self.order, factor=self.factor)
        x[self.dofs] = self.values
        return x

    def eliminate(self, A: SparseMatrix, b: FieldVector):
        """(A, b) with the constraints eliminated symmetrically, so an SPD A
        stays SPD: constrained rows become identity rows with b[d] = value,
        and the constrained columns are folded into b (b - A x_fix on the
        free rows) and dropped."""
        dofs, values = self.dofs, self.values
        if values.size != dofs.size:
            raise ValueError("dofs and values must have equal length")
        A = A if A.format == "csr" else sp.csr_matrix(A)
        b = np.asarray(b, dtype=float)
        if not dofs.size and A.has_canonical_format and A.data.all():
            return A, b
        data = self._gather(A) if self._on_pattern(A) else None
        if data is None or not data.all() or A.data[self._zeros].any():
            A = self._build(A)
            data = self._gather(A)
        fixed = np.zeros(A.shape[0])
        fixed[dofs] = values
        b = b - A @ fixed if dofs.size else b.copy()
        b[dofs] = values
        return sp.csr_matrix((data, self._indices, self._indptr), shape=A.shape), b

    def _on_pattern(self, A: SparseMatrix) -> bool:
        """Whether the structure was built on A's shape and CSR pattern."""
        return self._pattern is not None and A.shape == self._pattern[0] and all(
            _same(a, p) for a, p in zip((A.indptr, A.indices), self._pattern[1:]))

    def _gather(self, A: SparseMatrix) -> np.ndarray:
        """The eliminated matrix's data: A's kept entries, unit diagonals."""
        data = A.data[self._keep]
        data[self._diag] = 1.0
        return data

    def _build(self, A: SparseMatrix) -> SparseMatrix:
        """Build the structure of A's elimination.  It keeps the nonzero free
        entries of A and the diagonal entries of the constrained rows, so
        each constrained row holds its unit diagonal alone.  Returns A, or,
        when A is not canonical or a constrained row stores no diagonal, the
        canonical copy with zero diagonals added that it is built on."""
        self._pattern = self._keep = self._indices = None  # freed before the new one is built
        n, dofs = A.shape[0], self.dofs
        if dofs.size and dofs.max() >= n:
            raise IndexError("Dirichlet dof out of range")
        fixed = np.zeros(n, dtype=bool)
        fixed[dofs] = True
        rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(A.indptr))
        diag = fixed[rows] & (A.indices == rows)
        if not A.has_canonical_format or np.count_nonzero(diag) < dofs.size:
            return self._build(sp.csr_matrix(
                (np.concatenate([A.data, np.zeros(dofs.size)]),
                 (np.concatenate([rows, dofs]), np.concatenate([A.indices, dofs]))),
                shape=A.shape))
        free = ~(fixed[rows] | fixed[A.indices])
        del rows
        nonzero = A.data != 0.0
        self._zeros = np.flatnonzero(free & ~nonzero).astype(np.int32)
        self._keep = free & nonzero | diag
        del free, nonzero, diag
        kept = np.zeros(A.nnz + 1, dtype=np.int32)  # kept entries before each entry
        np.cumsum(self._keep, out=kept[1:])
        self._indptr, self._indices = kept[A.indptr], A.indices[self._keep]
        del kept
        for arr in (self._indptr, self._indices):  # shared by every eliminated matrix
            arr.setflags(write=False)
        self._diag = self._indptr[dofs]
        self._pattern = (A.shape, A.indptr, A.indices)
        self.builds += 1
        return A


def apply_dirichlet(A: SparseMatrix, b: FieldVector, dofs, values):
    """Eliminate Dirichlet dofs symmetrically; returns new (A, b), with no
    explicit zero in A: :meth:`LinearSystem.eliminate` on a fresh system."""
    return LinearSystem(dofs, values).eliminate(A, b)

