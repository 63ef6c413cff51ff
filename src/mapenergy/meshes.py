"""Triangle meshes on the unit 2-sphere.

Meshes are subdivided icosahedra.  Subdivision normalizes edge midpoints,
so every level keeps the exact antipodal symmetry of the icosahedron;
vertex quadrature weights come from spherical triangle areas and sum to
4*pi up to roundoff.  One round of subdivision is a few array operations
over all faces at once, and `icosphere` builds each level from the kept
mesh one level below, so its first vertices are those of that mesh.

A `SphereMesh` owns what is derived from it (its edges, cotangent
weights, vertex areas, the antipodal permutation, flattened triangles, a
spanning tree, the systole's chord graph and the flow's factored H^1
matrix): each is computed on the first call for a mesh object, kept on
it and, where it is an array, returned read-only.  The edges are found
once, by one unique pass over integer keys; the cotangent weights and
the spanning tree locate a side's edge in them by bisection.  Meshes
compare by identity, and `icosphere` keeps one mesh per level, its
vertices and triangles read-only as well.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .manifolds import sphere

# side products and determinants below this count as degenerate
DEGENERATE_GUARD = 1e-12


@dataclass(eq=False)
class SphereMesh:
    vertices: np.ndarray  # (V, 3) unit
    triangles: np.ndarray  # (T, 3) int
    derived: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def edges(self):
        """Sorted unique vertex pairs of the triangle sides, kept on the mesh."""
        return kept(self.derived, "edges", lambda: mesh_edges(self.triangles))


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
    """One round of midpoint subdivision, as array operations.

    The sides ab, bc, ca of each face, in face order, get midpoints
    numbered by first occurrence after the old vertices; each face
    becomes (a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca).
    """
    n = len(vertices)
    sides = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    _, first, inverse = np.unique(edge_keys(sides, n), return_index=True, return_inverse=True)
    # np.unique sorts the keys; renumber them by first occurrence
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ends = sides[first[order]]
    p = vertices[ends[:, 0]] + vertices[ends[:, 1]]
    # sqrt(p . p) through the dot kernel, as np.linalg.norm takes it for one row
    p = p / np.sqrt((p[:, None, :] @ p[:, :, None])[:, 0, 0])[:, None]
    ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
    a, b, c = faces.T
    children = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1)
    return np.concatenate([vertices, p]), children.reshape(-1, 3)


@functools.lru_cache(maxsize=None)
def icosphere(level):
    """Icosahedral mesh after `level` rounds of midpoint subdivision, each
    level subdivided from the kept mesh one level below; the vertices and
    triangles are read-only, since every caller shares them."""
    if level > 0:
        below = icosphere(level - 1)
        v, f = _subdivide(below.vertices, below.triangles)
    else:
        v, f = icosahedron()
    v.flags.writeable = False
    f.flags.writeable = False
    return SphereMesh(vertices=v, triangles=f)


def spherical_triangle_areas(vertices, triangles):
    """Areas of the geodesic triangles (Oosterom-Strackee solid angle)."""
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    num = np.abs(np.einsum("ij,ij->i", a, np.cross(b, c)))
    den = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c) + np.einsum("ij,ij->i", a, c)
    return 2.0 * np.arctan2(num, den)


def kept(cache, key, derive):
    """`cache[key]`, set to `derive()` on first use.

    The value is an array, a tuple, or an object that is not an array
    (such as a sparse factor); each array in it is made read-only, and
    other objects are kept as they are.
    """
    if key not in cache:
        value = derive()
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                item.flags.writeable = False
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


def edge_keys(pairs, n):
    """min * n + max of each vertex pair (..., 2) of a mesh of n vertices:
    the keys, in int64 whatever the pairs' dtype, sort as the pairs
    (min, max) sort lexicographically."""
    pairs = np.asarray(pairs, dtype=np.int64)
    return np.min(pairs, axis=-1) * n + np.max(pairs, axis=-1)


def mesh_edges(triangles):
    """Sorted unique vertex pairs (min, max) of the triangle sides."""
    n = int(np.max(triangles, initial=-1)) + 1
    keys = np.unique(edge_keys(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), n))
    return np.stack(np.divmod(keys, n), axis=1)


def edge_index(mesh, pairs):
    """Index in `mesh.edges` of the edge of each vertex pair (..., 2), by
    bisection on the sorted keys of the edges."""
    n = len(mesh.vertices)
    return np.searchsorted(edge_keys(mesh.edges, n), edge_keys(pairs, n))


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
    pairs = mesh.edges
    index = edge_index(mesh, np.concatenate([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]]))
    # each edge borders two triangles, and a sum of two terms has no order to depend on
    return pairs, np.bincount(index, weights=0.5 * cots, minlength=len(pairs))


@_derived
def spanning_tree(mesh):
    """(parent, edge) of a breadth-first spanning tree from vertex 0.

    `parent[v]` is the predecessor of v and `edge[v]` the index, among
    `mesh.edges` (the pairs of `cotangent_weights`), of the edge
    {v, parent[v]}.  A root (vertex 0, and any vertex it does not reach)
    is its own parent, with edge -1.
    """
    pairs = mesh.edges
    n = len(mesh.vertices)
    graph = csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), (n, n))
    parent = breadth_first_order(graph, 0, directed=False, return_predecessors=True)[1]
    vertex = np.arange(n)
    root = parent < 0
    parent[root] = vertex[root]
    edge = np.where(root, -1, edge_index(mesh, np.stack([vertex, parent], axis=1)))
    return parent, edge


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
