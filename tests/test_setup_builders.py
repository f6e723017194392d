"""The per-mesh set-up builders against the forms they replaced
(tests/setup_reference.py), byte for byte, zero signs included, and the
element blocks of the reference maps against the quadrature forms
(tests/mini_reference.py) within their stated round-off bound: on channel
meshes, on the jiggled MMS meshes and on random Delaunay meshes of the 2 x 1
box with their vertices and triangles renumbered."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import Phase, Verbosity, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

import mini_reference
import setup_reference as ref
from ablatesim import fem_core, verify
from ablatesim.coupler import Simulation
from ablatesim.mesh import (GAMMA1, GAMMA2, GAMMA3, GAMMA4, GeometrySpec, Mesh2D,
                            channel_mesh_arrays, generate_channel_mesh, span_counts)
from ablatesim.sim_cli import preset

CHANNELS = {"48x16": GeometrySpec(nx=48, ny=16), "96x32": GeometrySpec(nx=96, ny=32),
            "47x7": GeometrySpec(nx=47, ny=7)}  # odd spans: 21, 5 and 21 cells
MMS_LEVELS = verify.DEFAULT_LEVELS[:3]


def assert_same_bytes(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_pattern(got, want, what):
    """The rows of ``got`` byte for byte, and its positions by value (a
    blocked pattern forms them as intp): over the whole mesh and formed in
    ranges split at FILL_BLOCK, at quarter ranges and at 97 elements."""
    assert got.shape == want.shape, what
    for attr in ("indptr", "indices"):
        assert_same_bytes(getattr(got, attr), getattr(want, attr), f"{what}.{attr}")
    positions = want.positions()
    assert got.positions().dtype.kind == "i" and np.array_equal(got.positions(), positions), what
    for step in (fem_core.FILL_BLOCK, fem_core.FILL_BLOCK // 4, 97):
        assert np.array_equal(ref.positions_in_ranges(got, step), positions), f"{what}, {step}"


def delaunay_box(seed):
    """A Delaunay mesh of [0, 2] x [0, 1] with random interior points, its
    vertices, triangles and corner orders shuffled; edges tagged by side."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    bx, by = np.linspace(0.0, 2.0, 2 * n + 1), np.linspace(0.0, 1.0, n + 1)[1:-1]
    points = np.concatenate([
        np.column_stack([bx, np.zeros_like(bx)]), np.column_stack([bx, np.ones_like(bx)]),
        np.column_stack([np.zeros_like(by), by]), np.column_stack([np.full_like(by, 2.0), by]),
        rng.uniform([0.05, 0.05], [1.95, 0.95], size=(int(rng.integers(20, 200)), 2))])
    tri = Delaunay(points).simplices
    d1, d2 = points[tri[:, 1]] - points[tri[:, 0]], points[tri[:, 2]] - points[tri[:, 0]]
    clockwise = d1[:, 0] * d2[:, 1] < d1[:, 1] * d2[:, 0]
    tri[clockwise] = tri[clockwise][:, ::-1]
    new_of = rng.permutation(len(points))
    vertices = np.empty_like(points)
    vertices[new_of] = points
    tri = new_of[tri]
    shift = rng.integers(0, 3, size=len(tri))
    tri = tri[np.arange(len(tri))[:, None], (np.arange(3) + shift[:, None]) % 3]
    tri = tri[rng.permutation(len(tri))]
    edges = np.sort(tri[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    uniq, uses = np.unique(edges, axis=0, return_counts=True)
    boundary = uniq[uses == 1]
    mid = vertices[boundary].mean(axis=1)
    tags = np.select([mid[:, 1] == 0.0, mid[:, 0] == 0.0, mid[:, 0] == 2.0],
                     [GAMMA2, GAMMA1, GAMMA3], GAMMA4)
    return Mesh2D(vertices, tri, boundary, tags)


def check_builders(mesh, label=""):
    """Every rewritten builder of ``mesh`` against its reference form; a
    failure's message starts with ``label``."""
    for name, got, want in zip(("areas", "h", "owners"),
                               (mesh.areas, mesh.h, mesh.boundary_edge_owners()),
                               ref.mesh_checks(mesh)):
        assert_same_bytes(got, want, label + name)
    geo = fem_core.geometry(mesh)
    want = ref.geometry(mesh)
    for name, got, w in zip(("det", "qp", "grad_p1", "inv"),
                            (geo.det, fem_core.quadrature_points(mesh), geo.grad_p1, geo.inv),
                            want):
        assert_same_bytes(got, w, label + name)
    assert_same_bytes(geo.bubble_grads(), ref.combine(fem_core.BUBBLE_REF_GRADS, want[3]),
                      label + "grad_bubble")
    nv, t = mesh.num_vertices, mesh.triangles
    p1 = fem_core._p1_pattern(mesh)
    assert_same_pattern(p1, ref.sorted_pattern(t, t, (nv, nv)), label + "p1")
    bubbles = fem_core._Pattern.with_bubbles(p1, t)
    assert_same_pattern(bubbles, ref.with_bubbles(p1, t), label + "with_bubbles")
    mini, dofs = fem_core._mini_pattern(mesh), ref.velocity_element_dofs(mesh)
    assert_same_pattern(mini, ref.blocked(ref.with_bubbles(p1, t), 2), label + "mini")
    assert_same_pattern(mini, ref.sorted_pattern(dofs, dofs, mini.shape), label + "mini, sorted")
    assert_same_bytes(fem_core.vertex_order(mesh), ref.nested_dissection(mesh.vertices, p1),
                      label + "vertex_order")
    layout, want = fem_core._CondensedLayout(mesh), ref.condensed_maps(mesh)
    assert_same_pattern(layout.pattern, want.pop("pattern"), label + "condensed")
    elem = np.concatenate([t, nv + t, 2 * nv + t], axis=1)
    assert_same_pattern(layout.pattern, ref.sorted_pattern(elem, elem, layout.pattern.shape),
                        label + "condensed, sorted")
    for name, w in want.items():
        assert_same_bytes(getattr(layout, name), w, label + name)


def check_element_blocks(mesh, label=""):
    """The velocity block and the divergence by their reference maps against
    the quadrature forms, within the bound of tests/mini_reference.py at
    every data position: a uniform viscosity alone; with convection and its
    surface term on GAMMA3; with a mass term too; and a viscosity that
    varies over the quadrature points, with both."""
    rng = np.random.default_rng(5)
    v = rng.standard_normal(fem_core.dofmap_for(mesh).n_velocity)
    nq = fem_core.TRI_RULE.weights.size
    varying = 0.002 + 1e-4 * rng.uniform(size=(mesh.num_triangles, nq))
    for viscosity, advect, mass_coeff in ((0.0021, None, 0.0), (1.0, v, 0.0), (0.0021, v, 20.0),
                                          (varying, v, 20.0)):
        args = (mesh, viscosity, advect, (GAMMA3,), mass_coeff)
        got = mini_reference.velocity_data(*args)
        miss = np.abs(got - mini_reference.velocity_block(*args))
        bound = mini_reference.velocity_block_bound(*args)
        assert np.all(miss <= bound), f"{label}velocity block, mass {mass_coeff}: {miss.max()}"
    miss = np.abs(fem_core.assemble_divergence(mesh).data - mini_reference.divergence_data(mesh))
    assert np.all(miss <= mini_reference.divergence_bound(mesh)), f"{label}divergence"


@pytest.mark.parametrize("make", [
    *(lambda spec=spec: generate_channel_mesh(spec) for spec in CHANNELS.values()),
    *(lambda nx=nx, ny=ny: verify._mms_mesh(nx, ny) for nx, ny in MMS_LEVELS)],
    ids=[*CHANNELS, *(f"mms{nx}x{ny}" for nx, ny in MMS_LEVELS)])
def test_element_blocks_within_their_roundoff_bound(make):
    check_element_blocks(make())


@settings(max_examples=12, deadline=None, database=None, derandomize=True,
          phases=(Phase.generate,), verbosity=Verbosity.quiet)
@given(st.integers(0, 2**32 - 1))
def test_element_blocks_within_their_roundoff_bound_on_renumbered_delaunay_meshes(seed):
    check_element_blocks(delaunay_box(seed), f"seed {seed}: ")


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_channel_meshes(name):
    spec = CHANNELS[name]
    assert_same_bytes(channel_mesh_arrays(spec)[0], ref.channel_vertices(spec), "vertices")
    check_builders(generate_channel_mesh(spec))


def test_odd_spans():
    assert span_counts(CHANNELS["47x7"]) == (21, 5, 21)


@pytest.mark.parametrize("nx, ny", MMS_LEVELS, ids=[f"{nx}x{ny}" for nx, ny in MMS_LEVELS])
def test_mms_meshes(nx, ny):
    mesh = verify._mms_mesh(nx, ny)
    verts, tris = ref.mms_mesh_arrays(nx, ny)
    assert_same_bytes(mesh.vertices, verts, "vertices")
    assert_same_bytes(mesh.triangles, tris, "triangles")
    check_builders(mesh)


# Hypothesis picks the seeds, the same ones on every run; a failure names its
# seed in the message, so the quiet run needs no shrinking and writes no
# example database or patch.
@settings(max_examples=12, deadline=None, database=None, derandomize=True,
          phases=(Phase.generate,), verbosity=Verbosity.quiet)
@given(st.integers(0, 2**32 - 1))
def test_renumbered_delaunay_meshes(seed):
    check_builders(delaunay_box(seed), f"seed {seed}: ")


def assert_every_separator_separates(mesh, label=""):
    """Walk the nested dissection behind ``vertex_order(mesh)``, level by
    level.  Each set of more than ND_LEAF vertices is a range of the order,
    cut at the median coordinate of its longer extent.  The separator ends
    the range: the vertices of one side of the cut, each adjacent to the
    other side.  Before it come the rest of the lower half, then the rest
    of the upper half, and no P1 edge joins those two.  The separator is the
    smaller of the two sides' adjacent sets, the upper on a tie.  A leaf
    keeps its vertices in index order."""
    order = fem_core.vertex_order(mesh)
    p1 = fem_core._p1_pattern(mesh)
    adjacency = sp.csr_matrix((np.ones(p1.nnz), p1.indices, p1.indptr), shape=p1.shape)
    sets = [(0, order.size)]
    while sets:
        start, stop = sets.pop()
        members = order[start:stop]
        if members.size <= fem_core.ND_LEAF:
            assert np.all(np.diff(members) > 0), f"{label}leaf at {start}"
            continue
        xy = mesh.vertices[members]
        c = xy[:, np.argmax(np.ptp(xy, axis=0))]
        median = np.sort(c)[members.size // 2]
        lower = c < median
        if not lower.any():
            lower = c == median
        within = adjacency[members][:, members]
        reaches_lower = within @ lower.astype(float) > 0
        reaches_upper = within @ (~lower).astype(float) > 0
        down, up = lower & reaches_upper, ~lower & reaches_lower
        # The separator's side is its last vertex's; it runs back to the
        # first vertex that is on the other side or not adjacent to it.
        side = lower[-1]
        in_sep = (lower == side) & (down if side else up)
        n_sep = members.size - (np.flatnonzero(~in_sep)[-1] + 1 if not in_sep.all() else 0)
        rest = lower[:members.size - n_sep]
        n_lower = int(rest.sum())
        what = f"{label}set [{start}, {stop})"
        assert rest[:n_lower].all() and not rest[n_lower:].any(), what + ": halves"
        assert within[:n_lower][:, n_lower:rest.size].nnz == 0, what + ": an edge joins the halves"
        assert n_sep == min(down.sum(), up.sum()), what + ": not the smaller side"
        assert n_sep == 0 or side == (down.sum() < up.sum()), what + ": side"
        sets += [(start, start + n_lower), (start + n_lower, start + rest.size)]


@pytest.mark.parametrize("make", [
    *(lambda spec=spec: generate_channel_mesh(spec) for spec in CHANNELS.values()),
    *(lambda nx=nx, ny=ny: verify._mms_mesh(nx, ny) for nx, ny in MMS_LEVELS)],
    ids=[*CHANNELS, *(f"mms{nx}x{ny}" for nx, ny in MMS_LEVELS)])
def test_every_separator_separates(make):
    assert_every_separator_separates(make())


@settings(max_examples=12, deadline=None, database=None, derandomize=True,
          phases=(Phase.generate,), verbosity=Verbosity.quiet)
@given(st.integers(0, 2**32 - 1))
def test_every_separator_separates_on_renumbered_delaunay_meshes(seed):
    assert_every_separator_separates(delaunay_box(seed), f"seed {seed}: ")


def test_signed_zeros_of_the_geometry():
    # A renumbered Delaunay mesh with rotated corners gives -0.0 in the
    # strided sums; the rewritten sums must give the same signs.
    mesh = delaunay_box(7)
    geo = fem_core.geometry(mesh)
    zeros = geo.grad_p1 == 0.0
    assert zeros.any()
    assert_same_bytes(np.signbit(geo.grad_p1[zeros]),
                      np.signbit(ref.geometry(mesh)[2][zeros]), "signs")


def test_one_bubble_pattern_per_mesh(monkeypatch):
    # The MINI pattern is built from the P1 pattern with bubbles, and no
    # mesh holds a MINI mass on a pattern of its own: a time step of the
    # flow builds it once.
    builds = []
    with_bubbles = fem_core._Pattern.with_bubbles.__func__

    def counted(cls, *args):
        builds.append(args)
        return with_bubbles(cls, *args)

    monkeypatch.setattr(fem_core._Pattern, "with_bubbles", classmethod(counted))
    cfg = preset("test3")
    cfg.geometry.nx, cfg.geometry.ny = 24, 8
    sim = Simulation(cfg)
    sim.advance(sim.initialize())
    operators = fem_core.geometry(sim.mesh).operators
    assert "mini_pattern" in operators and "mini_mass_block" not in operators
    assert len(builds) == 1
