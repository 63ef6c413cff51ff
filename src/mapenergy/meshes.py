"""Triangle meshes on the unit 2-sphere.

Meshes are subdivided icosahedra.  Subdivision normalizes edge midpoints,
so every level keeps the exact antipodal symmetry of the icosahedron;
vertex quadrature weights come from spherical triangle areas and sum to
4*pi up to roundoff.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tables


@dataclass
class SphereMesh:
    vertices: np.ndarray  # (V, 3) unit
    triangles: np.ndarray  # (T, 3) int
    level: int

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def edges(self):
        return mesh_edges(self.triangles)


def icosahedron():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    v = []
    for a, b in [(1.0, phi), (-1.0, phi), (1.0, -phi), (-1.0, -phi)]:
        v.append((a, b, 0.0))
        v.append((0.0, a, b))
        v.append((b, 0.0, a))
    v = np.array(v)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    # faces by nearest-neighbor adjacency of the 12 vertices
    d = v @ v.T
    adj = d > 0.3
    np.fill_diagonal(adj, False)
    faces = set()
    for i in range(12):
        for j in range(i + 1, 12):
            if not adj[i, j]:
                continue
            for k in range(j + 1, 12):
                if adj[i, k] and adj[j, k]:
                    faces.add((i, j, k))
    faces = np.array(sorted(faces))
    # orient faces outward
    for f in faces:
        a, b, c = v[f]
        if np.dot(np.cross(b - a, c - a), a + b + c) < 0:
            f[1], f[2] = f[2], f[1]
    return v, faces


def _subdivide(vertices, faces):
    verts = [tuple(p) for p in vertices]
    cache = {}

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key in cache:
            return cache[key]
        p = vertices[i] + vertices[j]
        p = p / np.linalg.norm(p)
        verts.append(tuple(p))
        cache[key] = len(verts) - 1
        return cache[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.array(verts), np.array(out)


@lru_cache(maxsize=None)
def icosphere(level):
    """Icosahedral mesh after `level` rounds of midpoint subdivision."""
    v, f = icosahedron()
    for _ in range(level):
        v, f = _subdivide(v, f)
    return SphereMesh(vertices=v, triangles=f, level=level)


def spherical_triangle_areas(vertices, triangles):
    """Areas of the geodesic triangles (Oosterom-Strackee solid angle)."""
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    num = np.abs(np.einsum("ij,ij->i", a, np.cross(b, c)))
    den = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c) + np.einsum("ij,ij->i", a, c)
    return 2.0 * np.arctan2(num, den)


def vertex_areas(mesh):
    """Lumped vertex weights: one third of each incident spherical triangle."""
    areas = spherical_triangle_areas(mesh.vertices, mesh.triangles)
    w = np.zeros(len(mesh.vertices))
    for k in range(3):
        np.add.at(w, mesh.triangles[:, k], areas / 3.0)
    return w


def mesh_edges(triangles):
    e = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    e = np.sort(e, axis=1)
    return np.unique(e, axis=0)


def geodesic_edge_lengths(vertices, pairs):
    c = np.clip(np.einsum("ij,ij->i", vertices[pairs[:, 0]], vertices[pairs[:, 1]]), -1.0, 1.0)
    return np.arccos(c)


def cotangent_weights(mesh):
    """Per-edge cotangent weights from intrinsic (geodesic) edge lengths.

    Each triangle is flattened to the Euclidean triangle with the same
    geodesic side lengths; every edge receives half the cotangent of the
    opposite angle from each adjacent triangle.
    """
    tri = mesh.triangles
    # a is opposite vertex 0, b opposite vertex 1, c opposite vertex 2
    a, b, c = (geodesic_edge_lengths(mesh.vertices, tri[:, p]) for p in ([1, 2], [2, 0], [0, 1]))

    def cot_opposite(opp, s1, s2):
        cos_a = (s1**2 + s2**2 - opp**2) / (2.0 * s1 * s2)
        cos_a = np.clip(cos_a, -1.0, 1.0)
        return cos_a / np.sqrt(np.maximum(1.0 - cos_a**2, 1e-300))

    cots = np.concatenate([cot_opposite(a, b, c), cot_opposite(b, c, a), cot_opposite(c, a, b)])
    sides = np.sort(np.concatenate([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]]), axis=1)
    pairs, index = np.unique(sides, axis=0, return_inverse=True)
    # each edge borders two triangles, and a sum of two terms has no order to depend on
    return pairs, np.bincount(index.reshape(-1), weights=0.5 * cots, minlength=len(pairs))


def antipodal_permutation(mesh):
    """Index permutation sending each vertex to its exact antipode."""
    v = mesh.vertices
    perm = np.empty(len(v), dtype=int)
    # the k-th vertex in lexicographic order has the k-th of -v as antipode
    perm[np.lexsort(v.T)] = np.lexsort(-v.T)
    if not np.array_equal(v[perm], -v):
        raise ValueError("mesh is not antipodally symmetric")
    return perm


def mesh_to_csv(mesh, path):
    meta = {"vertices": len(mesh.vertices), "triangles": len(mesh.triangles), "level": mesh.level}
    blocks = [(["vx", "vy", "vz"], mesh.vertices), (["i", "j", "k"], mesh.triangles)]
    tables.write_table(path, blocks, meta)


def mesh_from_csv(path):
    meta, [(_, verts), (_, tris)] = tables.read_table(path)
    return SphereMesh(vertices=verts, triangles=tris.astype(int), level=int(meta["level"]))
