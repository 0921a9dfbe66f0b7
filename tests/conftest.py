import numpy as np
import pytest

from vcsfm.geometry import CameraIntrinsics, SE3Pose, so3_exp
from vcsfm.mesh import TriangleMesh


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_rotation(rng, max_angle=np.pi):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return so3_exp(axis * rng.uniform(0.0, max_angle))


def random_pose(rng, t_scale=1.0):
    return SE3Pose(random_rotation(rng), rng.normal(size=3) * t_scale)


def random_intrinsics(rng):
    return CameraIntrinsics(
        fx=rng.uniform(80.0, 400.0),
        fy=rng.uniform(80.0, 400.0),
        cx=rng.uniform(100.0, 400.0),
        cy=rng.uniform(80.0, 300.0),
    )


def looking_at_origin_pose(center, up=(0.0, 1.0, 0.0)):
    """World-to-camera pose of a camera at `center` looking at the origin."""
    center = np.asarray(center, dtype=np.float64)
    fwd = -center / np.linalg.norm(center)
    up = np.asarray(up, dtype=np.float64)
    right = np.cross(fwd, up)
    if np.linalg.norm(right) < 1e-9:
        right = np.cross(fwd, np.array([1.0, 0.0, 0.0]))
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    R = np.stack([right, down, fwd])  # rows: camera axes in world coords
    return SE3Pose(R, -R @ center)


def seen_from(mesh, origin):
    """`mesh` in the frame of a point `origin`: the library casts every ray
    from the origin of the mesh's frame, so a cast from `origin` is a cast on
    this copy. Depths, faces and barycentric weights carry over."""
    return mesh.transformed(SE3Pose(np.eye(3), -np.asarray(origin, dtype=np.float64)))


def entry_index(dsm, pixels):
    """Position of each (u, v) pixel's entry in `dsm`'s entry arrays, -1
    where the pixel is unmapped; `pixels` is (..., 2)."""
    pixels = np.asarray(pixels, dtype=np.int64)
    flat = pixels[..., 1] * dsm.width + pixels[..., 0]
    index = dsm.index
    at = np.searchsorted(index, flat)
    return np.where(np.append(index, -1)[at] == flat, at, -1)


def unit_square_mesh():
    """Unit square in the z=0 plane, split along the (0,0)-(1,1) diagonal."""
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    f = np.array([[0, 1, 2], [0, 2, 3]])
    return TriangleMesh(v, f)


def cube_mesh(side=1.0, center=(0.0, 0.0, 0.0)):
    """Axis-aligned watertight cube, 12 triangles."""
    c = np.asarray(center, dtype=np.float64)
    h = side / 2.0
    corners = np.array(
        [
            [-h, -h, -h], [h, -h, -h], [h, h, -h], [-h, h, -h],
            [-h, -h, h], [h, -h, h], [h, h, h], [-h, h, h],
        ]
    ) + c
    quads = [
        (0, 3, 2, 1),  # z-
        (4, 5, 6, 7),  # z+
        (0, 1, 5, 4),  # y-
        (2, 3, 7, 6),  # y+
        (1, 2, 6, 5),  # x+
        (0, 4, 7, 3),  # x-
    ]
    faces = []
    for a, b, cc, d in quads:
        faces.append([a, b, cc])
        faces.append([a, cc, d])
    return TriangleMesh(corners, np.array(faces))


def icosphere_mesh(subdivisions=2, radius=1.0):
    """Watertight sphere from a subdivided icosahedron."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=np.float64,
    )
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [v / np.linalg.norm(v) for v in verts]
    cache = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = (np.asarray(verts[i]) + np.asarray(verts[j])) / 2.0
            verts.append(m / np.linalg.norm(m))
            cache[key] = len(verts) - 1
        return cache[key]

    for _ in range(subdivisions):
        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return TriangleMesh(np.array(verts) * radius, np.array(faces))
