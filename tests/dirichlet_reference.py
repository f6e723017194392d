"""The Dirichlet elimination as a masked copy and a sparse sum, as it stood
before ``linalg.LinearSystem`` held its structure: the reference that the
held elimination must match bit for bit."""

import numpy as np
import scipy.sparse as sp


def apply_dirichlet_reference(A, b, dofs, values):
    """Eliminate Dirichlet dofs symmetrically; returns new (A, b).

    Constrained rows become identity rows with b[d] = value.  The coupling
    columns are folded into b (b -= A[:, d] * value on unconstrained rows) and
    zeroed; the sparse sum drops every zero, so no explicit zero remains.
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    n = A.shape[0]
    b = np.array(b, dtype=float, copy=True)
    A = sp.csr_matrix(A)
    constrained = np.zeros(n, dtype=bool)
    constrained[dofs] = True

    xfix = np.zeros(n)
    xfix[dofs] = values
    correction = A @ xfix
    b[~constrained] -= correction[~constrained]
    b[dofs] = values

    masked = np.where(np.repeat(constrained, np.diff(A.indptr)) | constrained[A.indices],
                      0.0, A.data)
    A_mod = (sp.csr_matrix((masked, A.indices, A.indptr), shape=A.shape)
             + sp.diags(constrained.astype(float), format="csr"))
    A_mod.sort_indices()
    return A_mod, b


def assert_same_elimination(got, ref):
    """The two (A, b) pairs are equal bit for bit: indptr, indices, data, b."""
    (A, b), (A_ref, b_ref) = got, ref
    assert np.array_equal(A.indptr, A_ref.indptr)
    assert np.array_equal(A.indices, A_ref.indices)
    assert A.data.tobytes() == A_ref.data.tobytes()
    assert np.asarray(b, dtype=float).tobytes() == b_ref.tobytes()


def assert_same_held_elimination(got, ref, A):
    """``got``, an elimination on A's own index arrays whose zeroed entries
    stay stored, equals ``ref`` bit for bit once the stored zeros of a copy
    are dropped."""
    E, b = got
    assert E.indices is A.indices and E.indptr is A.indptr
    kept = E.copy()
    kept.eliminate_zeros()
    assert_same_elimination((kept, b), ref)
