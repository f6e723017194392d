"""The per-mesh nested-dissection order and the scaled, ordered LU."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ablatesim import fem_core, linalg, verify
from ablatesim.coupler import SimState, Simulation
from ablatesim.mesh import GeometrySpec, generate_channel_mesh
from ablatesim.sim_cli import preset

MESHES = {
    "channel": lambda: generate_channel_mesh(GeometrySpec(nx=48, ny=16)),
    "mms": lambda: verify._mms_mesh(32, 16),
    # Its top cut takes the separator from the lower side (10 vertices
    # against 11); on the two above the sides tie.
    "mms16x8": lambda: verify._mms_mesh(16, 8),
}


def adjacency(mesh):
    pattern = fem_core._p1_pattern(mesh)
    return sp.csr_matrix((np.ones(pattern.nnz), pattern.indices, pattern.indptr),
                         shape=pattern.shape)


@pytest.mark.parametrize("name", sorted(MESHES))
class TestOrder:
    def test_is_a_permutation(self, name):
        mesh = MESHES[name]()
        nv = mesh.num_vertices
        order = fem_core.vertex_order(mesh)
        assert np.array_equal(np.sort(order), np.arange(nv))
        flow = fem_core.vertex_order(mesh, 3)
        assert np.array_equal(np.sort(flow), np.arange(3 * nv))
        # [vx, vy, p] of one vertex stay together, in the vertex order.
        assert np.array_equal(flow.reshape(nv, 3), order[:, None] + nv * np.arange(3))

    def test_top_split_halves_are_uncoupled(self, name):
        # The top cut's separator is the smaller of the lower vertices
        # adjacent to the upper half and the upper ones adjacent to the lower
        # half, the upper on a tie; it is numbered last, after the rest of
        # the lower half and then the rest of the upper half.
        mesh = MESHES[name]()
        nv = mesh.num_vertices
        xy = mesh.vertices
        c = xy[:, np.argmax(np.ptp(xy, axis=0))]  # coordinate of the longer extent
        lower = c < np.sort(c)[nv // 2]
        A = adjacency(mesh)
        up, down = ~lower & (A @ lower > 0), lower & (A @ ~lower > 0)
        sep = down if down.sum() < up.sum() else up
        order = fem_core.vertex_order(mesh)
        rest = lower & ~sep
        n_lower, n_sep = int(rest.sum()), int(sep.sum())
        assert 0 < n_lower < nv - n_sep
        assert np.array_equal(np.sort(order[:n_lower]), np.flatnonzero(rest))
        assert np.array_equal(np.sort(order[nv - n_sep:]), np.flatnonzero(sep))
        upper = order[n_lower:nv - n_sep]
        assert A[order[:n_lower]][:, upper].nnz == 0


def nested_dissection_by_unique(xy, pattern):
    """The reference order: ``fem_core._nested_dissection`` with each level's
    live sets labelled by a sort (``np.unique``)."""
    nv = xy.shape[0]
    rows = np.repeat(np.arange(nv), np.diff(pattern.indptr))
    cols = pattern.indices
    key = np.zeros(nv, dtype=np.int64)
    live = np.full(nv, nv > fem_core.ND_LEAF)
    while live.any():
        v = np.flatnonzero(live)
        _, s, count = np.unique(key[v], return_inverse=True, return_counts=True)
        first = np.cumsum(count) - count
        pts = xy[v[np.argsort(s, kind="stable")]]
        extent = np.maximum.reduceat(pts, first) - np.minimum.reduceat(pts, first)
        c = xy[v, np.argmax(extent, axis=1)[s]]
        median = c[np.lexsort((c, s))[first + count // 2]][s]
        lower = c < median
        lower |= (np.bincount(s[lower], minlength=count.size) == 0)[s] & (c == median)
        half = np.zeros(nv, dtype=np.int64)
        half[v] = 2 * s + 2 - lower
        row_half, col_half = half[rows], half[cols]
        # Upper vertices adjacent to the lower half and lower ones adjacent
        # to the upper half; the separator is the smaller, upper on a tie.
        up, down = np.zeros(nv, dtype=bool), np.zeros(nv, dtype=bool)
        up[rows[(row_half == col_half + 1) & ((row_half & 1) == 0)]] = True
        down[rows[(row_half == col_half - 1) & ((row_half & 1) == 1)]] = True
        up, down = up[v], down[v]
        from_lower = (np.bincount(s[down], minlength=count.size)
                      < np.bincount(s[up], minlength=count.size))
        sep = np.where(from_lower[s], down, up)
        n_lower = np.bincount(s[lower & ~sep], minlength=count.size)[s]
        n_upper = count[s] - n_lower - np.bincount(s[sep], minlength=count.size)[s]
        key[v] += np.where(sep, n_lower + n_upper, np.where(lower, 0, n_lower))
        live[v] = ~sep & (np.where(lower, n_lower, n_upper) > fem_core.ND_LEAF)
    return np.argsort(key, kind="stable")


@pytest.mark.parametrize("make", [
    lambda: generate_channel_mesh(GeometrySpec(nx=48, ny=16)),
    lambda: generate_channel_mesh(GeometrySpec(nx=96, ny=32)),
    lambda: generate_channel_mesh(GeometrySpec(nx=192, ny=64)),
    lambda: verify._mms_mesh(64, 32),
], ids=["48x16", "96x32", "192x64", "mms64x32"])
def test_order_matches_the_sorted_relabelling(make):
    mesh = make()
    nv = mesh.num_vertices
    ref = nested_dissection_by_unique(mesh.vertices, fem_core._p1_pattern(mesh))
    assert np.array_equal(fem_core.vertex_order(mesh, 1), ref)
    assert np.array_equal(fem_core.vertex_order(mesh, 3),
                          (ref[:, None] + nv * np.arange(3)).ravel())


class TestCache:
    def test_built_lazily_cached_and_read_only(self):
        cfg = preset("test1")
        cfg.geometry.nx, cfg.geometry.ny = 24, 8
        sim = Simulation(cfg)
        ops = fem_core.geometry(sim.mesh).operators
        assert not any("vertex_order" in str(key) for key in ops)
        order = fem_core.vertex_order(sim.mesh)
        assert fem_core.vertex_order(sim.mesh) is order
        assert fem_core.vertex_order(sim.mesh, 3) is fem_core.vertex_order(sim.mesh, 3)
        with pytest.raises(ValueError):
            order[0] = 1

    def test_not_built_by_geometry(self):
        mesh = generate_channel_mesh(GeometrySpec(nx=12, ny=4))
        assert fem_core.geometry(mesh).operators == {}


def recorded_systems(monkeypatch, run):
    """(A, b, order) of every solve_lu call made by ``run()``."""
    solve_lu = linalg.solve_lu
    systems = []

    def recording(A, b, **kwargs):
        systems.append((A, b, kwargs.get("order")))
        return solve_lu(A, b, **kwargs)

    monkeypatch.setattr(linalg, "solve_lu", recording)
    run()
    monkeypatch.setattr(linalg, "solve_lu", solve_lu)
    return systems


class TestOrderedSolve:
    def test_matches_unordered_splu(self, monkeypatch):
        cfg = preset("test1")
        cfg.geometry.nx, cfg.geometry.ny = 24, 8
        sim = Simulation(cfg)
        nv, dm = sim.mesh.num_vertices, sim.dofmap
        state = SimState(t=0.0, n=0, v=np.zeros(dm.n_velocity), P=np.zeros(nv),
                         theta=np.full(nv, sim.model.theta_b), phi=np.zeros(nv),
                         theta_prev=None)
        state = sim.advance(state)  # the second step has flow and heating
        systems = recorded_systems(monkeypatch, lambda: sim.advance(state))
        mms = verify._mms_mesh(16, 8)
        systems += recorded_systems(
            monkeypatch, lambda: verify.solve_oseen_case(verify.oseen_case(), 16, 8))
        orders = sorted(A.shape[0] for A, _, _ in systems)
        assert orders == sorted([nv, nv, 3 * nv, 3 * mms.num_vertices])
        for A, b, order in systems:
            assert order is not None
            x = linalg.solve_lu(A, b, order=order)
            ref = spla.splu(sp.csc_matrix(A)).solve(b)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_hilbert_misses_the_contract(self):
        # The ordered path keeps the contract on the unscaled system: the
        # 12x12 Hilbert matrix still leaves a relative residual above 1e-10.
        n = 12
        i = np.arange(n)
        hilbert = sp.csr_matrix(1.0 / (i[:, None] + i[None, :] + 1.0))
        with pytest.raises(linalg.SolverError, match="residual contract"):
            linalg.solve_lu(hilbert, np.ones(n), order=i)

    def test_zero_diagonal_is_left_unscaled(self):
        A = sp.csr_matrix(np.array([[0.0, 2.0], [3.0, 4.0]]))
        b = np.array([2.0, 7.0])
        assert np.allclose(linalg.solve_lu(A, b, order=np.array([1, 0])), [1.0, 1.0])

    def test_scaling_keeps_oseen_fill_at_most_colamd(self, monkeypatch):
        # nu = 1 makes the condensed pressure diagonal ~h^2, below a tenth of
        # its column's coupling entries; unscaled, threshold pivoting leaves
        # the order and the factor grows several times over COLAMD's.
        systems = []
        sizes = factor_sizes(monkeypatch, lambda: systems.extend(recorded_systems(
            monkeypatch, lambda: verify.solve_oseen_case(verify.oseen_case(), 64, 32))))
        (A, _, _), = systems
        (_, nnz), = sizes
        assert nnz <= spla.splu(sp.csc_matrix(A)).nnz


def factor_sizes(monkeypatch, run):
    """(order, SuperLU entries) of every factorization made by ``run()``."""
    sizes = []
    probe = linalg.spla

    class Probe:
        def __getattr__(self, name):
            return getattr(probe, name)

        def splu(self, A, *args, **kwargs):
            lu = probe.splu(A, *args, **kwargs)
            sizes.append((A.shape[0], lu.nnz))
            return lu

    monkeypatch.setattr(linalg, "spla", Probe())
    run()
    monkeypatch.setattr(linalg, "spla", probe)
    return sizes


def test_factor_sizes_are_pinned(monkeypatch):
    # Exact SuperLU entries with 4-vertex leaves and each separator from the
    # smaller side of its cut.  32-vertex leaves with upper separators held
    # 229,048 (the test1 flow) and 21,746 (its potential), and 878,832 (the
    # MMS 64x32 Oseen system).
    sim = Simulation(preset("test1"))
    nv = sim.mesh.num_vertices
    sizes = factor_sizes(monkeypatch, sim.initialize)
    assert sorted(n for n, _ in sizes) == [nv, 3 * nv, 3 * nv]
    for n, nnz in sizes:
        assert nnz <= (198_222 if n == 3 * nv else 19_032), n
    (_, nnz), = factor_sizes(
        monkeypatch, lambda: verify.solve_oseen_case(verify.oseen_case(), 64, 32))
    assert nnz <= 771_052
