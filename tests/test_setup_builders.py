"""The per-mesh set-up builders against the forms they replaced
(tests/setup_reference.py), byte for byte, zero signs included: on channel
meshes, on the jiggled MMS meshes and on random Delaunay meshes of the 2 x 1
box with their vertices and triangles renumbered."""

import numpy as np
import pytest
from hypothesis import Phase, Verbosity, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

import setup_reference as ref
from ablatesim import fem_core, verify
from ablatesim.mesh import (GAMMA1, GAMMA2, GAMMA3, GAMMA4, GeometrySpec, Mesh2D,
                            channel_mesh_arrays, generate_channel_mesh, span_counts)

CHANNELS = {"48x16": GeometrySpec(nx=48, ny=16), "96x32": GeometrySpec(nx=96, ny=32),
            "47x7": GeometrySpec(nx=47, ny=7)}  # odd spans: 21, 5 and 21 cells
MMS_LEVELS = verify.DEFAULT_LEVELS[:3]


def assert_same_bytes(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_pattern(got, want, what):
    assert got.shape == want.shape, what
    for attr in ("indptr", "indices", "scatter"):
        assert_same_bytes(getattr(got, attr), getattr(want, attr), f"{what}.{attr}")


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
    for name, got, w in zip(("det", "qw", "qp", "grad_p1", "inv"),
                            (geo.det, geo.qw, geo.qp, geo.grad_p1, geo.inv), want):
        assert_same_bytes(got, w, label + name)
    assert_same_bytes(geo.grad_bubble, ref.combine(fem_core.BUBBLE_REF_GRADS, want[4]),
                      label + "grad_bubble")
    nv, t = mesh.num_vertices, mesh.triangles
    p1 = fem_core._p1_pattern(mesh)
    assert_same_pattern(p1, ref.sorted_pattern(t, t, (nv, nv)), label + "p1")
    bubbles = fem_core._Pattern.with_bubbles(p1, t)
    assert_same_pattern(bubbles, ref.with_bubbles(p1, t), label + "with_bubbles")
    assert_same_pattern(fem_core._mini_pattern(mesh), ref.blocked(ref.with_bubbles(p1, t), 2),
                        label + "mini")
    assert_same_bytes(fem_core.vertex_order(mesh), ref.nested_dissection(mesh.vertices, p1),
                      label + "vertex_order")
    layout, want = fem_core._CondensedLayout(mesh), ref.condensed_maps(mesh)
    assert_same_pattern(layout.pattern, want.pop("pattern"), label + "condensed")
    for name, w in want.items():
        assert_same_bytes(getattr(layout, name), w, label + name)


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


def test_signed_zeros_of_the_geometry():
    # A renumbered Delaunay mesh with rotated corners gives -0.0 in the
    # strided sums; the rewritten sums must give the same signs.
    mesh = delaunay_box(7)
    geo = fem_core.geometry(mesh)
    zeros = geo.grad_p1 == 0.0
    assert zeros.any()
    assert_same_bytes(np.signbit(geo.grad_p1[zeros]),
                      np.signbit(ref.geometry(mesh)[3][zeros]), "signs")
