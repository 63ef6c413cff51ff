import math

import numpy as np
import pytest

from mapenergy import meshes, report


def test_icosphere_counts():
    for level, nv in [(0, 12), (1, 42), (2, 162), (3, 642), (4, 2562)]:
        m = meshes.icosphere(level)
        assert len(m.vertices) == nv
        assert len(m.triangles) == 20 * 4**level
        np.testing.assert_allclose(np.linalg.norm(m.vertices, axis=-1), 1.0, atol=1e-14)


def _subdivide_by_face_loop(vertices, faces):
    """Reference: midpoints numbered face by face through a dict, each
    normalized by np.linalg.norm of its own row."""
    verts = [tuple(p) for p in vertices]
    cache = {}

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in cache:
            p = vertices[i] + vertices[j]
            verts.append(tuple(p / np.linalg.norm(p)))
            cache[key] = len(verts) - 1
        return cache[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.array(verts), np.array(out)


def test_icosphere_matches_the_face_loop_bit_for_bit():
    v, f = meshes.icosahedron()
    for level in range(7):
        m = meshes.icosphere(level)
        assert m.vertices.dtype == v.dtype and m.triangles.dtype == f.dtype
        assert m.vertices.tobytes() == v.tobytes(), level
        assert m.triangles.tobytes() == f.tobytes(), level
        if level:
            below = meshes.icosphere(level - 1).vertices
            assert m.vertices[: len(below)].tobytes() == below.tobytes()
        v, f = _subdivide_by_face_loop(v, f)


def test_vertex_areas_tile_the_sphere():
    for level in (1, 3):
        m = meshes.icosphere(level)
        w = meshes.vertex_areas(m)
        assert np.all(w > 0)
        np.testing.assert_allclose(w.sum(), 4 * math.pi, rtol=1e-12)


def test_antipodal_symmetry():
    for level in range(6):
        m = meshes.icosphere(level)
        perm = meshes.antipodal_permutation(m)
        assert np.all(perm[perm] == np.arange(len(m.vertices)))
        assert np.all(perm != np.arange(len(m.vertices)))
        assert np.all(m.vertices[perm] == -m.vertices)


def test_antipodal_permutation_rejects_a_nudged_vertex():
    m = meshes.icosphere(2)
    vertices = m.vertices.copy()
    vertices[7, 0] = np.nextafter(vertices[7, 0], 2.0)
    with pytest.raises(ValueError, match="antipodally symmetric"):
        meshes.antipodal_permutation(meshes.SphereMesh(vertices, m.triangles))


def _cotangents(mesh):
    """Cotangents of the angles opposite the sides bc, ca, ab of each triangle."""
    tri = mesh.triangles
    a, b, c = (meshes.geodesic_edge_lengths(mesh.vertices, tri[:, p])
               for p in ([1, 2], [2, 0], [0, 1]))

    def cot_opposite(opp, s1, s2):
        cos_a = np.clip((s1**2 + s2**2 - opp**2) / (2.0 * s1 * s2), -1.0, 1.0)
        return cos_a / np.sqrt(np.maximum(1.0 - cos_a**2, 1e-300))

    return [cot_opposite(a, b, c), cot_opposite(b, c, a), cot_opposite(c, a, b)]


def _cotangent_weights_by_edge_loop(mesh):
    """Reference: accumulate the half-cotangents edge by edge in a dict."""
    tri = mesh.triangles
    cots = _cotangents(mesh)
    weights = {}
    for k, (i, j) in enumerate([(1, 2), (2, 0), (0, 1)]):
        p = np.sort(np.stack([tri[:, i], tri[:, j]], axis=1), axis=1)
        for (pi, pj), ct in zip(p, cots[k]):
            weights[(pi, pj)] = weights.get((pi, pj), 0.0) + 0.5 * ct
    pairs = np.array(sorted(weights))
    return pairs, np.array([weights[tuple(q)] for q in pairs])


def _cotangent_weights_by_row_unique(mesh):
    """Reference: the edges found by np.unique(axis=0) over the sorted
    sides, and the half-cotangents summed through its inverse."""
    tri = mesh.triangles
    sides = np.sort(np.concatenate([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]]), axis=1)
    pairs, index = np.unique(sides, axis=0, return_inverse=True)
    half = 0.5 * np.concatenate(_cotangents(mesh))
    return pairs, np.bincount(index.reshape(-1), weights=half, minlength=len(pairs))


def test_cotangent_weights_match_the_edge_loop_bit_for_bit():
    for level in range(4):
        m = meshes.icosphere(level)
        pairs, w = meshes.cotangent_weights(m)
        ref_pairs, ref_w = _cotangent_weights_by_edge_loop(m)
        np.testing.assert_array_equal(pairs, ref_pairs)
        np.testing.assert_array_equal(pairs, meshes.mesh_edges(m.triangles))
        assert w.tobytes() == ref_w.tobytes()


def test_edges_and_cotangent_weights_match_a_row_unique_bit_for_bit():
    for level in range(7):
        m = meshes.icosphere(level)
        pairs, w = meshes.cotangent_weights(m)
        ref_pairs, ref_w = _cotangent_weights_by_row_unique(m)
        assert pairs is m.edges
        for got in (pairs, meshes.mesh_edges(m.triangles)):
            assert got.dtype == ref_pairs.dtype and got.shape == ref_pairs.shape
            assert got.tobytes() == ref_pairs.tobytes(), level
        assert w.tobytes() == ref_w.tobytes(), level


def test_mesh_edges_of_int32_triangles_and_of_no_triangles():
    # min * n + max passes 2**31 here, so the keys must not be int32
    tri = np.array([[49999, 50000, 50001]], dtype=np.int32)
    np.testing.assert_array_equal(meshes.mesh_edges(tri),
                                  [[49999, 50000], [49999, 50001], [50000, 50001]])
    assert meshes.mesh_edges(np.empty((0, 3), dtype=np.int64)).shape == (0, 2)


def test_cotangent_weights_positive():
    m = meshes.icosphere(2)
    pairs, w = meshes.cotangent_weights(m)
    assert len(pairs) == len(meshes.mesh_edges(m.triangles))
    assert np.all(w > 0)  # icosahedral triangles are acute


def test_discrete_identity_energy_close_to_area():
    # 1/2 sum_e w_e len_e^2 approximates the smooth Dirichlet energy of the
    # identity, which equals the sphere area
    m = meshes.icosphere(4)
    pairs, w = meshes.cotangent_weights(m)
    ell = meshes.geodesic_edge_lengths(m.vertices, pairs)
    energy = 0.5 * np.sum(w * ell**2)
    np.testing.assert_allclose(energy, 4 * math.pi, rtol=1e-2)


def test_mesh_geometry_is_computed_once_and_read_only():
    m = meshes.icosphere(2)
    report.systole_rp2(1.0, level=2)
    for derive in (meshes.cotangent_weights, meshes.vertex_areas, meshes.antipodal_permutation,
                   meshes.flat_triangles, meshes.spanning_tree, lambda m: m.edges,
                   lambda m: m.derived["chord_graph"]):
        first, second = derive(m), derive(m)
        assert second is first
        for array in first if isinstance(first, tuple) else (first,):
            with pytest.raises(ValueError):
                array[0] = array[0]
    # every caller shares the mesh itself
    assert meshes.icosphere(2) is m
    for array in (m.vertices, m.triangles):
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_kept_holds_values_that_are_not_arrays():
    cache, factor = {}, object()
    value = meshes.kept(cache, "factor", lambda: (np.zeros(2), factor))
    assert meshes.kept(cache, "factor", lambda: None) is value
    assert value[1] is factor and not value[0].flags.writeable


def test_spanning_tree_joins_each_vertex_to_its_parent():
    m = meshes.icosphere(2)
    parent, edge = meshes.spanning_tree(m)
    pairs = meshes.cotangent_weights(m)[0]
    v = np.arange(len(m.vertices))
    assert parent[0] == 0 and list(v[edge < 0]) == [0]
    np.testing.assert_array_equal(pairs[edge[1:]], np.sort(np.stack([v, parent], 1)[1:], axis=1))
    # every vertex reaches the root
    up = parent
    for _ in range(len(v)):
        up = up[up]
    assert np.all(up == 0)


def test_a_separately_built_mesh_gets_its_own_geometry():
    m = meshes.icosphere(1)
    back = meshes.SphereMesh(m.vertices.copy(), m.triangles.copy())
    assert back != m and meshes.icosphere(1) is m
    for derive in (meshes.cotangent_weights, meshes.vertex_areas, meshes.antipodal_permutation):
        mine, theirs = derive(back), derive(m)
        assert mine is not theirs
        for a, b in zip(*(x if isinstance(x, tuple) else (x,) for x in (mine, theirs))):
            assert a.tobytes() == b.tobytes()
    # a mesh that shares triangles with a symmetric one is checked afresh
    meshes.antipodal_permutation(m)
    vertices = m.vertices.copy()
    vertices[7, 0] = np.nextafter(vertices[7, 0], 2.0)
    with pytest.raises(ValueError, match="antipodally symmetric"):
        meshes.antipodal_permutation(meshes.SphereMesh(vertices, m.triangles))
