import numpy as np
import pytest

from ablatesim import linalg
from ablatesim.mesh import Mesh2D


@pytest.fixture()
def unit_square_2tri() -> Mesh2D:
    """Unit square split along the main diagonal into two triangles."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    triangles = np.array([[0, 1, 2], [0, 2, 3]])
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    tags = np.array([2, 3, 4, 1])
    return Mesh2D(vertices, triangles, edges, tags)


@pytest.fixture()
def reference_triangle() -> Mesh2D:
    """Single triangle (0,0)-(1,0)-(0,1); all edges tagged."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    triangles = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    tags = np.array([2, 3, 1])
    return Mesh2D(vertices, triangles, edges, tags)


@pytest.fixture()
def fixed_point_maps(monkeypatch) -> list:
    """Map calls of each :func:`linalg.fixed_point` call, in call order."""
    maps = []
    fixed_point = linalg.fixed_point

    def spy(step, *args):
        maps.append(0)

        def counted(x):
            maps[-1] += 1
            return step(x)

        return fixed_point(counted, *args)

    monkeypatch.setattr(linalg, "fixed_point", spy)
    return maps
