import math

import numpy as np
import pytest

from ablatesim.mesh import (ALL_TAGS, GAMMA1, GAMMA4, GAMMA5, TAG_NAMES,
                            GeometrySpec, Mesh2D, MeshError,
                            channel_mesh_arrays, check_tag_roles, generate_channel_mesh,
                            load_mesh, save_mesh, span_counts)
from mesh_queries import boundary_edges_with_tag, mesh_quality_report


def channel_spec(nx=20, ny=10):
    return GeometrySpec(L=1.5, H=0.5, r=0.075, nx=nx, ny=ny)


class TestGenerate:
    def test_channel_mesh_counts(self):
        mesh = generate_channel_mesh(channel_spec())
        assert mesh.num_vertices == 231  # (20+1)*(10+1)
        assert mesh.num_triangles == 400  # 2*20*10

    def test_channel_mesh_gamma5_span(self):
        mesh = generate_channel_mesh(channel_spec())
        verts = mesh.boundary_vertices_with_tag(GAMMA5)
        xs = np.sort(mesh.vertices[verts, 0])
        assert xs[0] == pytest.approx(0.675, abs=1e-14)
        assert xs[-1] == pytest.approx(0.825, abs=1e-14)
        assert np.all(mesh.vertices[verts, 1] == 0.5)

    def test_uniform_grid_arithmetic(self):
        # 4x4 unit square with the electrode spanning [0.25, 0.75]: fully
        # uniform cells of area 1/32.
        mesh = generate_channel_mesh(GeometrySpec(L=1.0, H=1.0, r=0.25, nx=4, ny=4))
        assert mesh.num_vertices == 25
        assert mesh.num_triangles == 32
        assert np.allclose(mesh.areas, 0.03125, rtol=1e-14)

    def test_too_coarse_for_electrode_rejected(self):
        with pytest.raises(MeshError, match="no grid line"):
            generate_channel_mesh(channel_spec(nx=3, ny=2))

    def test_criterion_mesh_48x16_builds(self):
        mesh = generate_channel_mesh(channel_spec(nx=48, ny=16))
        assert mesh.num_vertices == 49 * 17
        assert mesh.num_triangles == 2 * 48 * 16
        verts = mesh.boundary_vertices_with_tag(GAMMA5)
        xs = np.sort(mesh.vertices[verts, 0])
        assert xs[0] == 0.675 and xs[-1] == 0.825

    def test_span_counts_channel(self):
        assert span_counts(channel_spec()) == (9, 2, 9)

    def test_electrode_tags_match_the_coordinate_rule(self):
        # The G5 edges are the cells of span_counts' electrode span; the
        # reference is the rule that compared the cells' x ends with
        # L/2 -+ r within 1e-12.
        checked = 0
        for L, H, r in ((1.5, 0.5, 0.075), (2.0, 1.0, 0.25), (1.0, 1.0, 0.1), (3.0, 0.7, 0.33)):
            for nx in range(2, 400):
                spec = GeometrySpec(L=L, H=H, r=r, nx=nx, ny=2)
                try:
                    _, _, _, tags = channel_mesh_arrays(spec)
                except MeshError:
                    continue
                x = spec.x_grid()
                inside = (x[:-1] >= 0.5 * L - r - 1e-12) & (x[1:] <= 0.5 * L + r + 1e-12)
                assert np.array_equal(tags[-nx:], np.where(inside, GAMMA5, GAMMA4)), (L, r, nx)
                checked += 1
        assert checked == 1585

    @pytest.mark.parametrize("bad", [
        GeometrySpec(L=-1.0, H=0.5, r=0.075, nx=20, ny=10),
        GeometrySpec(L=1.5, H=0.5, r=0.8, nx=20, ny=10),  # 2r >= L
        GeometrySpec(L=1.5, H=0.5, r=0.075, nx=1, ny=10),
    ])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(MeshError):
            generate_channel_mesh(bad)


class TestInvariants:
    @pytest.mark.parametrize("spec", [channel_spec(), channel_spec(nx=48, ny=16),
                                      GeometrySpec(L=1.0, H=1.0, r=0.25, nx=4, ny=4)])
    def test_area_and_perimeter_identities(self, spec):
        mesh = generate_channel_mesh(spec)
        assert mesh.areas.sum() == pytest.approx(spec.L * spec.H, rel=1e-12)
        e = mesh.boundary_edges
        perim = np.linalg.norm(mesh.vertices[e[:, 1]] - mesh.vertices[e[:, 0]],
                               axis=1).sum()
        assert perim == pytest.approx(2 * (spec.L + spec.H), rel=1e-12)

    def test_edge_sharing_counts(self):
        mesh = generate_channel_mesh(channel_spec())
        counts = mesh._edge_use_counts()
        boundary = {(int(min(a, b)), int(max(a, b))) for a, b in mesh.boundary_edges}
        for key, c in counts.items():
            assert c == (1 if key in boundary else 2)

    def test_h_is_longest_edge(self):
        mesh = generate_channel_mesh(channel_spec())
        p = mesh.vertices
        for k in (0, 17, 399):
            tri = mesh.triangles[k]
            lengths = [np.linalg.norm(p[tri[i]] - p[tri[(i + 1) % 3]]) for i in range(3)]
            assert mesh.h[k] == pytest.approx(max(lengths), rel=1e-15)

    def test_positive_areas_enforced(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(MeshError, match="area"):
            Mesh2D(vertices, [[0, 1, 2]], [[0, 1]], [1])

    def test_boundary_coverage_enforced(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="boundary"):
            Mesh2D(vertices, [[0, 1, 2]], [[0, 1], [1, 2]], [1, 2])  # edge (2,0) untagged

    def test_missing_boundary_edge_counted(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match=r"\(missing 1, spurious 0\)"):
            Mesh2D(vertices, [[0, 1, 2]], [[0, 1], [1, 2]], [1, 2])

    def test_non_manifold_edge_rejected(self):
        # Three triangles above the edge (0, 1) share it.
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, 3.0]])
        triangles = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
        edges = [[1, 2], [2, 0], [1, 3], [3, 0], [1, 4], [4, 0]]
        with pytest.raises(MeshError, match="non-manifold edge: shared by more than 2 triangles"):
            Mesh2D(vertices, triangles, edges, [1] * len(edges))

    def test_edge_tagged_twice_rejected(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match=r"edge \(0, 1\) tagged more than once"):
            Mesh2D(vertices, [[0, 1, 2]], [[0, 1], [1, 2], [2, 0], [1, 0]], [1, 2, 3, 4])

    def test_unknown_tag_on_edge_rejected(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match=r"unknown boundary tag 9 on edge \(0, 2\)"):
            Mesh2D(vertices, [[0, 1, 2]], [[0, 1], [1, 2], [2, 0]], [1, 2, 9])

    def test_spurious_interior_edge_rejected(self):
        # The unit square's diagonal (0, 2) is interior, so tagging it is spurious.
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        edges = [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]]
        with pytest.raises(MeshError, match=r"\(missing 0, spurious 1\)"):
            Mesh2D(vertices, [[0, 1, 2], [0, 2, 3]], edges, [1, 2, 3, 4, 5])


class TestTagQueries:
    def test_gamma1_edges(self):
        mesh = generate_channel_mesh(channel_spec())
        edges = boundary_edges_with_tag(mesh, GAMMA1)
        assert len(edges) == 10
        for a, b in edges:
            assert mesh.vertices[a, 0] == 0.0 and mesh.vertices[b, 0] == 0.0
        mids = [0.5 * (mesh.vertices[a, 1] + mesh.vertices[b, 1]) for a, b in edges]
        assert mids == sorted(mids)

    def test_gamma5_coverage(self):
        mesh = generate_channel_mesh(channel_spec())
        edges = boundary_edges_with_tag(mesh, GAMMA5)
        xs = sorted(set(float(mesh.vertices[v, 0]) for e in edges for v in e))
        assert xs[0] == pytest.approx(0.675, abs=1e-14)
        assert xs[-1] == pytest.approx(0.825, abs=1e-14)

    def test_unit_square_gamma5(self):
        mesh = generate_channel_mesh(GeometrySpec(L=1.0, H=1.0, r=0.25, nx=4, ny=4))
        edges = boundary_edges_with_tag(mesh, GAMMA5)
        xs = sorted(set(float(mesh.vertices[v, 0]) for e in edges for v in e))
        assert xs[0] == 0.25 and xs[-1] == 0.75
        assert all(mesh.vertices[v, 1] == 1.0 for e in edges for v in e)

    def test_unknown_tag(self):
        mesh = generate_channel_mesh(channel_spec())
        with pytest.raises(MeshError):
            boundary_edges_with_tag(mesh, 9)

    @pytest.mark.parametrize("keys", [ALL_TAGS, tuple(TAG_NAMES)], ids=["tags", "names"])
    def test_one_role_per_tag_accepted(self, keys):
        check_tag_roles(dict.fromkeys(keys, "r"), "flow")

    @pytest.mark.parametrize("keys", [
        (1, 2, 4, 5), ("G1", "G2", "G4", "G5"), ALL_TAGS + (6,),
        tuple(TAG_NAMES) + ("G6",), (1, "G2", 3, 4, 5),
    ], ids=["missing_tag", "missing_name", "extra_tag", "extra_name", "mixed"])
    def test_tag_coverage_rejected(self, keys):
        with pytest.raises(ValueError, match="each of G1..G5 needs exactly one heat role"):
            check_tag_roles(dict.fromkeys(keys, "r"), "heat")

    def test_tag_partition_of_boundary(self):
        mesh = generate_channel_mesh(channel_spec())
        total = sum(len(boundary_edges_with_tag(mesh, t)) for t in range(1, 6))
        assert total == mesh.boundary_edges.shape[0]


class TestQuality:
    def test_square_cells_min_angle_45(self):
        mesh = generate_channel_mesh(GeometrySpec(L=1.0, H=1.0, r=0.25, nx=4, ny=4))
        rep = mesh_quality_report(mesh)
        assert rep["min_angle"] == pytest.approx(45.0, abs=1e-9)

    def test_channel_mesh_min_angle(self):
        # dx = 0.075, dy = 0.05: direct trigonometry oracle
        mesh = generate_channel_mesh(channel_spec())
        rep = mesh_quality_report(mesh)
        expected = math.degrees(math.atan(0.05 / 0.075))
        assert rep["min_angle"] == pytest.approx(expected, abs=1e-9)
        assert rep["h_min"] == pytest.approx(rep["h_max"], rel=1e-12)  # uniform cells
        assert rep["max_aspect"] == pytest.approx(
            math.hypot(0.075, 0.05) / 0.05, rel=1e-12)


class TestIO:
    def test_roundtrip(self, tmp_path):
        mesh = generate_channel_mesh(channel_spec(nx=10, ny=4))
        path = tmp_path / "channel.mesh"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.boundary_edges, mesh.boundary_edges)
        assert np.array_equal(back.boundary_tags, mesh.boundary_tags)

    def test_header_format(self, tmp_path):
        mesh = generate_channel_mesh(channel_spec(nx=10, ny=4))
        path = tmp_path / "channel.mesh"
        save_mesh(mesh, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "MESH2D v1"
        assert lines[1] == f"NV {mesh.num_vertices}"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("MESH3D v9\n")
        with pytest.raises(MeshError):
            load_mesh(path)

    def _saved_lines(self, tmp_path):
        path = tmp_path / "channel.mesh"
        save_mesh(generate_channel_mesh(channel_spec(nx=10, ny=4)), path)
        return path, path.read_text().splitlines()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.mesh"
        path.write_text("")
        with pytest.raises(MeshError, match="header"):
            load_mesh(path)

    def test_truncated_file_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        nt_line = next(i for i, ln in enumerate(lines) if ln.startswith("NT "))
        path.write_text("\n".join(lines[:nt_line + 3]) + "\n")
        with pytest.raises(MeshError, match="NT section"):
            load_mesh(path)

    def test_non_integer_count_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        path.write_text("\n".join("NT x" if ln.startswith("NT ") else ln for ln in lines))
        with pytest.raises(MeshError, match="NT count"):
            load_mesh(path)

    def test_out_of_range_vertex_index_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        nt_line = next(i for i, ln in enumerate(lines) if ln.startswith("NT "))
        lines[nt_line + 1] = "0 1 1000"
        path.write_text("\n".join(lines))
        with pytest.raises(MeshError, match=r"triangle 0 \[0, 1, 1000\] .* outside \[0, 55\)"):
            load_mesh(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        lines[-1] = lines[-1].rsplit(" ", 1)[0]  # a boundary edge without its tag
        path.write_text("\n".join(lines))
        with pytest.raises(MeshError, match="NB row"):
            load_mesh(path)
