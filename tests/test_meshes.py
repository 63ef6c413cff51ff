import math

import numpy as np
import pytest

from mapenergy import meshes


def test_icosphere_counts():
    for level, nv in [(0, 12), (1, 42), (2, 162), (3, 642), (4, 2562)]:
        m = meshes.icosphere(level)
        assert m.n_vertices == nv
        assert len(m.triangles) == 20 * 4**level
        np.testing.assert_allclose(np.linalg.norm(m.vertices, axis=-1), 1.0, atol=1e-14)


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
        assert np.all(perm[perm] == np.arange(m.n_vertices))
        assert np.all(perm != np.arange(m.n_vertices))
        assert np.all(m.vertices[perm] == -m.vertices)


def test_antipodal_permutation_rejects_a_nudged_vertex():
    m = meshes.icosphere(2)
    vertices = m.vertices.copy()
    vertices[7, 0] = np.nextafter(vertices[7, 0], 2.0)
    with pytest.raises(ValueError, match="antipodally symmetric"):
        meshes.antipodal_permutation(meshes.SphereMesh(vertices, m.triangles, m.level))


def _cotangent_weights_by_edge_loop(mesh):
    """Reference: accumulate the half-cotangents edge by edge in a dict."""
    tri = mesh.triangles
    a, b, c = (meshes.geodesic_edge_lengths(mesh.vertices, tri[:, p])
               for p in ([1, 2], [2, 0], [0, 1]))

    def cot_opposite(opp, s1, s2):
        cos_a = np.clip((s1**2 + s2**2 - opp**2) / (2.0 * s1 * s2), -1.0, 1.0)
        return cos_a / np.sqrt(np.maximum(1.0 - cos_a**2, 1e-300))

    cots = [cot_opposite(a, b, c), cot_opposite(b, c, a), cot_opposite(c, a, b)]
    weights = {}
    for k, (i, j) in enumerate([(1, 2), (2, 0), (0, 1)]):
        p = np.sort(np.stack([tri[:, i], tri[:, j]], axis=1), axis=1)
        for (pi, pj), ct in zip(p, cots[k]):
            weights[(pi, pj)] = weights.get((pi, pj), 0.0) + 0.5 * ct
    pairs = np.array(sorted(weights))
    return pairs, np.array([weights[tuple(q)] for q in pairs])


def test_cotangent_weights_match_the_edge_loop_bit_for_bit():
    for level in range(4):
        m = meshes.icosphere(level)
        pairs, w = meshes.cotangent_weights(m)
        ref_pairs, ref_w = _cotangent_weights_by_edge_loop(m)
        np.testing.assert_array_equal(pairs, ref_pairs)
        np.testing.assert_array_equal(pairs, meshes.mesh_edges(m.triangles))
        assert w.tobytes() == ref_w.tobytes()


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


def test_mesh_csv_round_trip(tmp_path):
    m = meshes.icosphere(1)
    path = tmp_path / "mesh.csv"
    meshes.mesh_to_csv(m, path)
    back = meshes.mesh_from_csv(path)
    np.testing.assert_array_equal(back.vertices, m.vertices)
    np.testing.assert_array_equal(back.triangles, m.triangles)
    assert back.level == 1


def test_mesh_geometry_is_computed_once_and_read_only():
    m = meshes.icosphere(2)
    for derive in (meshes.cotangent_weights, meshes.vertex_areas,
                   meshes.antipodal_permutation, meshes.flat_triangles):
        first, second = derive(m), derive(m)
        assert second is first
        for array in first if isinstance(first, tuple) else (first,):
            with pytest.raises(ValueError):
                array[0] = array[0]


def test_a_separately_built_mesh_gets_its_own_geometry(tmp_path):
    m = meshes.icosphere(1)
    path = tmp_path / "mesh.csv"
    meshes.mesh_to_csv(m, path)
    back = meshes.mesh_from_csv(path)
    assert back != m and meshes.icosphere(1) is m
    for derive in (meshes.cotangent_weights, meshes.vertex_areas, meshes.antipodal_permutation):
        mine, theirs = derive(back), derive(m)
        assert mine is not theirs
        for a, b in zip(*(x if isinstance(x, tuple) else (x,) for x in (mine, theirs))):
            assert a.tobytes() == b.tobytes()
    # a mesh that shares level and triangles with a symmetric one is checked afresh
    meshes.antipodal_permutation(m)
    vertices = m.vertices.copy()
    vertices[7, 0] = np.nextafter(vertices[7, 0], 2.0)
    with pytest.raises(ValueError, match="antipodally symmetric"):
        meshes.antipodal_permutation(meshes.SphereMesh(vertices, m.triangles, m.level))
