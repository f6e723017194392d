"""Mesh queries that only the tests use: tagged edges in arclength order and
a quality report."""

import numpy as np

from ablatesim.mesh import ALL_TAGS, Mesh2D, MeshError


def boundary_edges_with_tag(mesh: Mesh2D, tag: int) -> list[tuple[int, int]]:
    """Edges carrying ``tag``, ordered by increasing arclength along their side."""
    if tag not in ALL_TAGS:
        raise MeshError(f"unknown tag {tag}")
    sel = mesh.boundary_tags == tag
    edges = [tuple(int(v) for v in e) for e in mesh.boundary_edges[sel]]
    p = mesh.vertices

    def midpoint_key(edge):
        m = 0.5 * (p[edge[0]] + p[edge[1]])
        return (m[0], m[1])

    return sorted(edges, key=midpoint_key)


def mesh_quality_report(mesh: Mesh2D) -> dict:
    """Min angle (degrees), max edge-length aspect ratio, h_min, h_max."""
    p = mesh.vertices
    t = mesh.triangles
    corners = p[t]  # (NT, 3, 2)
    min_angle = np.inf
    max_aspect = 0.0
    for k in range(3):
        a = corners[:, k]
        b = corners[:, (k + 1) % 3]
        c = corners[:, (k + 2) % 3]
        u = b - a
        v = c - a
        cosang = np.einsum("ij,ij->i", u, v) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        min_angle = min(min_angle, float(ang.min()))
    lengths = np.stack(
        [
            np.linalg.norm(corners[:, 1] - corners[:, 0], axis=1),
            np.linalg.norm(corners[:, 2] - corners[:, 1], axis=1),
            np.linalg.norm(corners[:, 0] - corners[:, 2], axis=1),
        ]
    )
    max_aspect = float((lengths.max(axis=0) / lengths.min(axis=0)).max())
    return {
        "min_angle": float(min_angle),
        "max_aspect": max_aspect,
        "h_min": float(mesh.h.min()),
        "h_max": float(mesh.h.max()),
    }
