"""Triangle meshes on the unit 2-sphere.

Meshes are subdivided icosahedra.  Subdivision normalizes edge midpoints,
so every level keeps the exact antipodal symmetry of the icosahedron;
vertex quadrature weights come from spherical triangle areas and sum to
4*pi up to roundoff.

A `SphereMesh` owns the arrays derived from it (cotangent weights,
vertex areas, the antipodal permutation, flattened triangles): each is
computed on the first call for a mesh object, kept on it and returned
read-only.  Meshes compare by identity, and `icosphere` keeps one mesh
per level.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tables
from .manifolds import sphere

# side products and determinants below this count as degenerate
DEGENERATE_GUARD = 1e-12


@dataclass(eq=False)
class SphereMesh:
    vertices: np.ndarray  # (V, 3) unit
    triangles: np.ndarray  # (T, 3) int
    level: int
    derived: dict = field(default_factory=dict, init=False, repr=False)

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
    # faces: sorted triples of pairwise nearest neighbors, oriented outward
    adj = v @ v.T > 0.3
    np.fill_diagonal(adj, False)
    i, j, k = np.nonzero(adj[:, :, None] & adj[:, None, :] & adj[None, :, :])
    faces = np.stack([i, j, k], axis=1)[(i < j) & (j < k)]
    a, b, c = v[faces].transpose(1, 0, 2)
    inward = np.einsum("ij,ij->i", np.cross(b - a, c - a), a + b + c) < 0
    faces[inward] = faces[inward][:, [0, 2, 1]]
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


@functools.lru_cache(maxsize=None)
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


def kept(cache, key, derive):
    """`cache[key]`, set to the read-only arrays of `derive()` on first use."""
    if key not in cache:
        value = derive()
        for array in value if isinstance(value, tuple) else (value,):
            array.flags.writeable = False
        cache[key] = value
    return cache[key]


def _derived(derive):
    """`derive(mesh)`, computed once per mesh object and kept on the mesh."""
    @functools.wraps(derive)
    def get(mesh):
        return kept(mesh.derived, derive.__name__, lambda: derive(mesh))
    return get


@_derived
def vertex_areas(mesh):
    """Lumped vertex weights: one third of each incident spherical triangle."""
    thirds = spherical_triangle_areas(mesh.vertices, mesh.triangles) / 3.0
    # corner by corner, in triangle order
    return np.bincount(mesh.triangles.T.ravel(), np.tile(thirds, 3), len(mesh.vertices))


def mesh_edges(triangles):
    e = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    e = np.sort(e, axis=1)
    return np.unique(e, axis=0)


def geodesic_edge_lengths(vertices, pairs):
    c = np.clip(np.einsum("ij,ij->i", vertices[pairs[:, 0]], vertices[pairs[:, 1]]), -1.0, 1.0)
    return np.arccos(c)


def law_of_cosines(opp, s1, s2):
    """Cosine of the angle between sides s1 and s2, opposite the side opp."""
    return (s1**2 + s2**2 - opp**2) / np.maximum(2.0 * s1 * s2, DEGENERATE_GUARD)


@_derived
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
        cos_a = np.clip(law_of_cosines(opp, s1, s2), -1.0, 1.0)
        return cos_a / np.sqrt(np.maximum(1.0 - cos_a**2, 1e-300))

    cots = np.concatenate([cot_opposite(a, b, c), cot_opposite(b, c, a), cot_opposite(c, a, b)])
    sides = np.sort(np.concatenate([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]]), axis=1)
    pairs, index = np.unique(sides, axis=0, return_inverse=True)
    # each edge borders two triangles, and a sum of two terms has no order to depend on
    return pairs, np.bincount(index.reshape(-1), weights=0.5 * cots, minlength=len(pairs))


@_derived
def antipodal_permutation(mesh):
    """Index permutation sending each vertex to its exact antipode."""
    v = mesh.vertices
    perm = np.empty(len(v), dtype=int)
    # the k-th vertex in lexicographic order has the k-th of -v as antipode
    perm[np.lexsort(v.T)] = np.lexsort(-v.T)
    if not np.array_equal(v[perm], -v):
        raise ValueError("mesh is not antipodally symmetric")
    return perm


def triangle_sides(points, triangles, space):
    """Distances in `space` along the sides ab, bc, ca of each triangle."""
    a, b, c = points[triangles[:, 0]], points[triangles[:, 1]], points[triangles[:, 2]]
    return space.distance(a, b), space.distance(b, c), space.distance(c, a)


def plant_triangles(l_ab, l_bc, l_ca):
    """Side matrices, columns ab and ac, of the Euclidean triangles with the
    given side lengths, and where the lengths violate the triangle inequality."""
    cos_a = law_of_cosines(l_bc, l_ab, l_ca)
    bad = np.abs(cos_a) > 1.0 + 1e-9
    cos_a = np.clip(cos_a, -1.0, 1.0)
    sin_a = np.sqrt(np.maximum(1.0 - cos_a**2, 0.0))
    e1 = np.stack([l_ab, np.zeros_like(l_ab)], axis=-1)
    e2 = np.stack([l_ca * cos_a, l_ca * sin_a], axis=-1)
    return np.stack([e1, e2], axis=-1), bad


@_derived
def flat_triangles(mesh):
    """(inverses, degenerate, areas) of the triangles flattened by their sides.

    Sides are geodesic lengths on the unit sphere.  `inverses` holds the
    inverse of each side matrix, or its adjugate where `degenerate` flags
    a failed flattening or |det| below the guard; `areas` holds the
    spherical areas.
    """
    P, bad = plant_triangles(*triangle_sides(mesh.vertices, mesh.triangles, sphere(2)))
    det = P[..., 0, 0] * P[..., 1, 1] - P[..., 0, 1] * P[..., 1, 0]
    degenerate = bad | (np.abs(det) < DEGENERATE_GUARD)
    adjugate = np.stack([P[..., 1, 1], -P[..., 0, 1], -P[..., 1, 0], P[..., 0, 0]], axis=-1)
    inverses = adjugate.reshape(-1, 2, 2) / np.where(degenerate, 1.0, det)[:, None, None]
    return inverses, degenerate, spherical_triangle_areas(mesh.vertices, mesh.triangles)


def mesh_to_csv(mesh, path):
    meta = {"vertices": len(mesh.vertices), "triangles": len(mesh.triangles), "level": mesh.level}
    blocks = [(["vx", "vy", "vz"], mesh.vertices), (["i", "j", "k"], mesh.triangles)]
    tables.write_table(path, blocks, meta)


def mesh_from_csv(path):
    meta, [(_, verts), (_, tris)] = tables.read_table(path)
    return SphereMesh(vertices=verts, triangles=tris.astype(int), level=int(meta["level"]))
