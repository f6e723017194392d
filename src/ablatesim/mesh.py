"""Structured triangle mesh of the ablation channel with tagged boundary edges.

The computational domain is the rectangle [0, L] x [0, H].  Boundary tags:

    G1 = left side   (x = 0)         inflow
    G2 = bottom side (y = 0)         wall
    G3 = right side  (x = L)         outlet
    G4 = top side outside electrode  wall
    G5 = top side, L/2 - r <= x <= L/2 + r   electrode segment

The electrode is modeled as a flat segment of length 2r on the top edge
(negligible thickness), so a structured grid with grid lines at L/2 +- r
resolves it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GAMMA1, GAMMA2, GAMMA3, GAMMA4, GAMMA5 = 1, 2, 3, 4, 5
ALL_TAGS = (GAMMA1, GAMMA2, GAMMA3, GAMMA4, GAMMA5)
TAG_NAMES = {"G1": GAMMA1, "G2": GAMMA2, "G3": GAMMA3, "G4": GAMMA4, "G5": GAMMA5}


def check_tag_roles(roles, kind: str) -> None:
    """Raise ValueError unless ``roles`` gives each boundary tag exactly one
    ``kind`` role; its keys are the tags themselves or their names G1..G5."""
    if set(roles) not in (set(ALL_TAGS), set(TAG_NAMES)):
        raise ValueError(f"each of G1..G5 needs exactly one {kind} role, "
                         f"got keys {sorted(map(str, roles))}")


class MeshError(ValueError):
    """Invalid mesh or geometry specification."""


@dataclass
class GeometrySpec:
    """Channel geometry: lengths L, H, electrode half-width r, subdivisions."""

    L: float = 1.5
    H: float = 0.5
    r: float = 0.075
    nx: int = 48
    ny: int = 16

    def validate(self) -> None:
        if not (self.L > 0 and self.H > 0):
            raise MeshError(f"L and H must be positive, got L={self.L}, H={self.H}")
        if not (0 < 2 * self.r < self.L):
            raise MeshError(f"need 0 < 2r < L, got r={self.r}, L={self.L}")
        if self.nx < 2 or self.ny < 2:
            raise MeshError(f"nx, ny must be >= 2, got nx={self.nx}, ny={self.ny}")
        span_counts(self)

    def x_grid(self) -> np.ndarray:
        """x grid lines with L/2 +- r placed exactly.

        The three spans [0, L/2-r], the electrode, and [L/2+r, L] are each
        uniform with cell counts rounded from the target spacing L/nx; the
        total stays exactly nx.  When the uniform grid already aligns (e.g.
        nx=20 for the default channel geometry) this is the uniform grid up
        to round-off.
        """
        n1, n2, n3 = span_counts(self)
        xe_lo = 0.5 * self.L - self.r
        xe_hi = 0.5 * self.L + self.r
        return np.concatenate([
            np.linspace(0.0, xe_lo, n1 + 1)[:-1],
            np.linspace(xe_lo, xe_hi, n2 + 1)[:-1],
            np.linspace(xe_hi, self.L, n3 + 1),
        ])


def span_counts(spec: GeometrySpec) -> tuple[int, int, int]:
    """Cells per x span (left wall, electrode, right wall), summing to nx.

    Rejects specs whose target spacing is too coarse to register the
    electrode (its proportional cell count rounds to zero), i.e. no grid
    line can be placed at L/2 - r without distorting the grid beyond the
    per-span rounding rule.
    """
    prop = 2.0 * spec.r * spec.nx / spec.L  # electrode cells at uniform spacing
    n2 = int(round(prop))
    if n2 == 0:
        raise MeshError(
            f"no grid line at x={0.5 * spec.L - spec.r:.6g} for nx={spec.nx}; "
            "increase nx so the electrode segment is resolved"
        )
    if (spec.nx - n2) % 2 != 0:
        candidates = [n for n in (n2 - 1, n2 + 1) if n >= 1 and n <= spec.nx - 2]
        if not candidates:
            raise MeshError(f"cannot split nx={spec.nx} cells around the electrode")
        n2 = min(candidates, key=lambda n: abs(n - prop))
    if n2 > spec.nx - 2:
        raise MeshError(
            f"nx={spec.nx} leaves no cells for the wall spans beside the electrode"
        )
    n1 = (spec.nx - n2) // 2
    return n1, n2, n1


class Mesh2D:
    """Immutable conforming triangle mesh with tagged boundary edges.

    Attributes:
        vertices: (NV, 2) float array of coordinates.
        triangles: (NT, 3) int array, counterclockwise vertex indices.
        boundary_edges: (NB, 2) int array of vertex pairs.
        boundary_tags: (NB,) int array, one tag per boundary edge.
        areas: (NT,) positive triangle areas.
        h: (NT,) per-triangle diameter = longest edge.
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_tags):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.boundary_edges = np.asarray(boundary_edges, dtype=np.int64)
        self.boundary_tags = np.asarray(boundary_tags, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must have shape (NV, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must have shape (NT, 3)")
        if self.boundary_edges.shape[0] != self.boundary_tags.shape[0]:
            raise MeshError("one tag per boundary edge required")
        nv = self.vertices.shape[0]
        for kind, rows in (("triangle", self.triangles), ("boundary edge", self.boundary_edges)):
            bad = np.flatnonzero(np.any((rows < 0) | (rows >= nv), axis=-1))
            if bad.size:
                raise MeshError(f"{kind} {bad[0]} {rows[bad[0]].tolist()} has a vertex index "
                                f"outside [0, {nv})")

        corners = self.vertices[self.triangles]  # (NT, 3, 2)
        d1 = corners[:, 1] - corners[:, 0]
        d2 = corners[:, 2] - corners[:, 0]
        self.areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(self.areas <= 0.0):
            bad = int(np.argmin(self.areas))
            raise MeshError(
                f"triangle {bad} has non-positive area {self.areas[bad]:.3e} "
                "(degenerate or clockwise orientation)"
            )
        # Edge lengths sqrt(dx^2 + dy^2) of (v0, v1), (v1, v2), (v2, v0).
        d3 = corners[:, 2] - corners[:, 1]
        self.h = np.sqrt(np.maximum(np.maximum((d1 * d1).sum(axis=1), (d3 * d3).sum(axis=1)),
                                    (d2 * d2).sum(axis=1)))

        self._owners = self._validate_boundary()
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)
        self.boundary_edges.setflags(write=False)
        self.boundary_tags.setflags(write=False)
        self._owners.setflags(write=False)
        self._normals = None

    # -- topology ------------------------------------------------------------

    def _edge_keys(self, edges: np.ndarray) -> np.ndarray:
        """One integer per undirected edge: min * NV + max."""
        a, b = edges[..., 0], edges[..., 1]
        return np.minimum(a, b) * self.num_vertices + np.maximum(a, b)

    def _triangle_edge_keys(self) -> np.ndarray:
        """(3 NT,) keys of the triangle edges, triangle-major."""
        return self._edge_keys(self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2))

    def _edge_use_counts(self) -> dict:
        keys, counts = np.unique(self._triangle_edge_keys(), return_counts=True)
        nv = self.num_vertices
        return {(a, b): c for a, b, c in
                zip((keys // nv).tolist(), (keys % nv).tolist(), counts.tolist())}

    def _validate_boundary(self) -> np.ndarray:
        """Check the tagged edges against the triangle edges and return the
        owner triangle of each tagged edge, all from one sort of the
        triangle-edge keys."""
        keys = self._triangle_edge_keys()
        order = np.argsort(keys, kind="stable")
        # The sorted keys, closed by a sentinel above every key.
        sorted_keys = np.append(keys[order], np.iinfo(np.int64).max)
        if np.any(sorted_keys[2:-1] == sorted_keys[:-3]):
            raise MeshError("non-manifold edge: shared by more than 2 triangles")
        bkeys = self._edge_keys(self.boundary_edges)
        _, first = np.unique(bkeys, return_index=True)
        repeated = np.ones(bkeys.size, dtype=bool)
        repeated[first] = False
        bad_tag = ~np.isin(self.boundary_tags, ALL_TAGS)
        bad = repeated | bad_tag
        if np.any(bad):  # report the first offending edge, in input order
            k = int(np.argmax(bad))
            key = (int(bkeys[k] // self.num_vertices), int(bkeys[k] % self.num_vertices))
            if repeated[k]:
                raise MeshError(f"edge {key} tagged more than once")
            raise MeshError(f"unknown boundary tag {int(self.boundary_tags[k])} on edge {key}")
        # A topological boundary edge is used once: its sorted key differs
        # from both neighbours.  The tagged keys are distinct by now.
        step = sorted_keys[1:] != sorted_keys[:-1]
        single = np.append(step & np.append(True, step[:-1]), False)
        pos = np.searchsorted(sorted_keys, bkeys)
        covered = single[pos] & (sorted_keys[pos] == bkeys)
        extra = int(bkeys.size - covered.sum())
        missing = int(single.sum() - covered.sum())
        if missing or extra:
            raise MeshError(
                f"tagged edges must cover the topological boundary exactly "
                f"(missing {missing}, spurious {extra})"
            )
        return order[pos] // 3

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    def boundary_edge_owners(self) -> np.ndarray:
        """Index of the unique triangle adjacent to each boundary edge (read-only)."""
        return self._owners

    def boundary_outward_normals(self) -> np.ndarray:
        """(NB, 2) unit outward normals, away from the owner triangle (cached, read-only)."""
        if self._normals is None:
            owners = self.boundary_edge_owners()
            p = self.vertices
            e0 = p[self.boundary_edges[:, 0]]
            e1 = p[self.boundary_edges[:, 1]]
            tang = e1 - e0
            nrm = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
            nrm /= np.linalg.norm(nrm, axis=1)[:, None]
            centroids = p[self.triangles[owners]].mean(axis=1)
            mids = 0.5 * (e0 + e1)
            flip = np.einsum("ij,ij->i", nrm, centroids - mids) > 0.0
            nrm[flip] *= -1.0
            nrm.setflags(write=False)
            self._normals = nrm
        return self._normals

    def boundary_vertices_with_tag(self, tag: int) -> np.ndarray:
        """Sorted unique vertex indices lying on edges of the given tag."""
        sel = self.boundary_tags == tag
        return np.unique(self.boundary_edges[sel].ravel())


def generate_channel_mesh(spec: GeometrySpec) -> Mesh2D:
    """Build the structured nx-by-ny channel mesh of the rectangle [0,L]x[0,H].

    Each grid cell is split into two counterclockwise triangles; the x grid
    places vertices exactly at the electrode endpoints L/2 +- r (see
    :meth:`GeometrySpec.x_grid`), so the G5 tag aligns with element edges.
    """
    return Mesh2D(*channel_mesh_arrays(spec))


def channel_mesh_arrays(spec: GeometrySpec):
    """The arrays of :func:`generate_channel_mesh`, before the mesh checks them."""
    spec.validate()
    nx, ny = spec.nx, spec.ny

    x = spec.x_grid()
    y = np.linspace(0.0, spec.H, ny + 1)

    xx, yy = np.meshgrid(x, y, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # Two triangles per cell, row by row: (v00, v10, v11), (v00, v11, v01).
    v00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)[None, :]).ravel()
    v10, v01, v11 = v00 + 1, v00 + nx + 1, v00 + nx + 2
    triangles = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)

    # Left/right columns interleaved row by row, then the bottom row, then the
    # top row split into the electrode segment (the cells of the electrode
    # span of :func:`span_counts`) and the remaining wall.
    left = np.arange(ny) * (nx + 1)
    sides = np.stack([left, left + nx + 1, left + nx, left + 2 * nx + 1], axis=1)
    bottom = np.stack([np.arange(nx), np.arange(1, nx + 1)], axis=1)
    top = bottom + ny * (nx + 1)
    n1, n2, _ = span_counts(spec)
    top_tags = np.full(nx, GAMMA4)
    top_tags[n1:n1 + n2] = GAMMA5
    edges = np.concatenate([sides.reshape(-1, 2), bottom, top])
    tags = np.concatenate([np.tile([GAMMA1, GAMMA3], ny), np.full(nx, GAMMA2), top_tags])

    return vertices, triangles, edges, tags


# -- plain-text mesh format ---------------------------------------------------
#
#   MESH2D v1
#   NV <n>      followed by n lines "x y"
#   NT <m>      followed by m lines "i j k"
#   NB <p>      followed by p lines "i j tag"
#
# Indices are 0-based; tags are the integers 1..5 for G1..G5.


def save_mesh(mesh: Mesh2D, path) -> None:
    lines = ["MESH2D v1", f"NV {mesh.num_vertices}"]
    lines += [f"{repr(float(x))} {repr(float(y))}" for x, y in mesh.vertices]
    lines.append(f"NT {mesh.num_triangles}")
    lines += [f"{a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"NB {mesh.boundary_edges.shape[0]}")
    lines += [
        f"{a} {b} {tag}"
        for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags)
    ]
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def load_mesh(path) -> Mesh2D:
    """Read a file written by :func:`save_mesh`; a malformed file raises
    MeshError naming the section at fault."""
    with open(path, "r", encoding="ascii") as f:
        lines = iter([ln for ln in f.read().split("\n") if ln.strip()])

    def next_line(section):
        line = next(lines, None)
        if line is None:
            raise MeshError(f"mesh file ends in the {section} section")
        return line

    header = next_line("header").strip()
    if header != "MESH2D v1":
        raise MeshError(f"bad mesh file header: {header!r}")

    def section(kw, width, kind):
        """(n, width) array of the n rows that follow the count line 'kw n'."""
        head = next_line(kw).split()
        if head[0] != kw:
            raise MeshError(f"expected {kw} section, got {head[0]!r}")
        if len(head) != 2 or not head[1].isdigit():
            raise MeshError(f"{kw} count must be a nonnegative integer, got {head[1:]}")
        rows = [next_line(kw).split() for _ in range(int(head[1]))]
        for row in rows:
            if len(row) != width:
                raise MeshError(f"{kw} row {row} has {len(row)} fields, expected {width}")
        try:
            return np.array([[kind(w) for w in row] for row in rows], dtype=kind).reshape(-1, width)
        except ValueError as exc:
            raise MeshError(f"{kw} section: {exc}") from None

    vertices = section("NV", 2, float)
    triangles = section("NT", 3, int)
    boundary = section("NB", 3, int)
    return Mesh2D(vertices, triangles, boundary[:, :2], boundary[:, 2])
