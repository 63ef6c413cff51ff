import math

import numpy as np
import pytest

from mapenergy import make_rng
from mapenergy.manifolds import (
    complex_projective,
    product,
    real_projective,
    sphere,
    sphere_volume,
)
from mapenergy import maps
from mapenergy.maps import (
    build_grid,
    compose,
    cp1_from_sphere,
    cp1_to_sphere,
    differential_columns,
    energy_density,
    frame_at,
    grid_frames,
    grid_from_csv,
    grid_to_csv,
    homothety_map,
    identity_map,
    normalized_linear_map,
    pullback_gram,
    random_frames,
    unit_tangent_quadrature,
    unitary_frames,
)


def test_random_frames_orthonormal():
    rng = make_rng(3)
    for M in (sphere(3), real_projective(2), complex_projective(2)):
        x = M.random_point(rng, 40)
        fr = random_frames(M, x, rng)
        assert fr.shape == (40, M.dim, M.ambient_dim)
        G = np.einsum("kia,kja->kij", fr.conj(), fr).real
        np.testing.assert_allclose(G, np.broadcast_to(np.eye(M.dim), G.shape), atol=1e-12)
        # tangency
        if M.kind == "complex_projective":
            np.testing.assert_allclose(np.einsum("ka,kia->ki", x.conj(), fr), 0.0, atol=1e-12)
        else:
            np.testing.assert_allclose(np.einsum("ka,kia->ki", x, fr), 0.0, atol=1e-12)


def test_unitary_frames_pairing():
    M = complex_projective(2)
    rng = make_rng(9)
    x = M.random_point(rng, 10)
    fr = unitary_frames(M, x, rng)
    np.testing.assert_allclose(fr[:, 1::2], 1j * fr[:, 0::2], atol=1e-14)
    G = np.einsum("kia,kja->kij", fr.conj(), fr).real
    np.testing.assert_allclose(G, np.broadcast_to(np.eye(4), G.shape), atol=1e-12)


def test_identity_gram_is_identity():
    for M in (sphere(2), real_projective(3), complex_projective(2)):
        rng = make_rng(17)
        x = M.random_point(rng, 25)
        fr = random_frames(M, x, rng)
        G, ok = pullback_gram(identity_map(M), x, fr)
        assert ok.all()
        np.testing.assert_allclose(G, np.broadcast_to(np.eye(M.dim), G.shape), atol=1e-12)
        np.testing.assert_allclose(energy_density(G), M.dim, atol=1e-12)


def test_finite_difference_matches_analytic_o_h2():
    # slope 2 +/- 0.2 on log-log over h in {1e-2 ... 1e-4}
    M = sphere(2)
    A = np.array([[1.0, 0.3, 0.0], [0.0, 1.1, -0.2], [0.1, 0.0, 0.9]])
    F = normalized_linear_map(M, M, A)
    rng = make_rng(5)
    x = M.random_point(rng, 20)
    fr = random_frames(M, x, rng)
    exact = F.differential(np.broadcast_to(x[:, None, :], fr.shape), fr)
    F_fd = maps.MapObject(M, M, F.evaluator)
    hs = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
    errs = []
    for h in hs:
        cols, ok = differential_columns(F_fd, x, fr, h=h)
        assert ok.all()
        errs.append(np.max(np.abs(cols - exact)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.2


def test_fd_matches_analytic_on_complex_projective():
    M = complex_projective(2)
    rng = make_rng(11)
    A = np.diag([2.0, 1.0 + 0.5j, 0.7])
    F = normalized_linear_map(M, M, A)
    x = M.random_point(rng, 15)
    fr = random_frames(M, x, rng)
    exact = F.differential(np.broadcast_to(x[:, None, :], fr.shape), fr)
    F_fd = maps.MapObject(M, M, F.evaluator)
    cols, ok = differential_columns(F_fd, x, fr, h=1e-4)
    assert ok.all()
    np.testing.assert_allclose(cols, exact, atol=1e-7)


def test_frame_independence_of_gram_invariants():
    M = complex_projective(2)
    A = np.diag([1.5, 1.0, 0.5 + 0.1j])
    F = normalized_linear_map(M, M, A)
    rng = make_rng(23)
    x = M.random_point(rng, 30)
    f1 = random_frames(M, x, make_rng(1))
    f2 = random_frames(M, x, make_rng(2))
    G1, _ = pullback_gram(F, x, f1)
    G2, _ = pullback_gram(F, x, f2)
    np.testing.assert_allclose(energy_density(G1), energy_density(G2), atol=1e-8)
    np.testing.assert_allclose(np.linalg.det(G1), np.linalg.det(G2), atol=1e-8)


def test_homothety_distance_ratio_oracle():
    # doubling homothety: singular values all 2, checked against distance ratios
    F = homothety_map(sphere(2, 1.0), sphere(2, 2.0))
    rng = make_rng(31)
    M = F.domain
    x = M.random_point(rng, 10)
    fr = random_frames(M, x, rng)
    G, _ = pullback_gram(F, x, fr)
    np.testing.assert_allclose(np.sqrt(maps.gram_eigenvalues(G)), 2.0, atol=1e-6)
    # homothety sends geodesics to geodesics, so the ratio is exact for any
    # step; 1e-3 keeps the arccos in distance() well conditioned
    v = M.random_unit_tangent(rng, x)
    h = 1e-3
    ratio = F.codomain.distance(F(x), F(M.exp(x, h * v))) / h
    np.testing.assert_allclose(ratio, 2.0, atol=1e-6)


def test_inclusion_is_isometric():
    A = np.zeros((4, 3))
    A[:3, :3] = np.eye(3)
    F = normalized_linear_map(real_projective(2), real_projective(3), A)
    rng = make_rng(37)
    x = F.domain.random_point(rng, 10)
    fr = random_frames(F.domain, x, rng)
    G, _ = pullback_gram(F, x, fr)
    np.testing.assert_allclose(G, np.broadcast_to(np.eye(2), G.shape), atol=1e-10)


def test_double_cover_local_isometry():
    s2, rp2 = sphere(2), real_projective(2)
    F = normalized_linear_map(s2, rp2, np.eye(3), name="double_cover")
    rng = make_rng(41)
    x = s2.random_point(rng, 50)
    y = s2.random_point(rng, 50)
    d = s2.distance(x, y)
    np.testing.assert_allclose(rp2.distance(F(x), F(y)), np.minimum(d, math.pi - d), atol=1e-12)
    fr = random_frames(s2, x, rng)
    G, _ = pullback_gram(F, x, fr)
    np.testing.assert_allclose(G, np.broadcast_to(np.eye(2), G.shape), atol=1e-10)


def test_product_identity_gram():
    P = product(complex_projective(1), sphere(2, 0.5))
    rng = make_rng(43)
    x = P.random_point(rng, 10)
    fr = random_frames(P, x, rng)
    G, ok = pullback_gram(identity_map(P), x, fr)
    assert ok.all()
    np.testing.assert_allclose(G, np.broadcast_to(np.eye(4), G.shape), atol=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_unit_tangent_design_moments(d):
    # exact constants and second moments: int u_i u_j = delta_ij sigma(d-1)/d
    coeffs, w = maps._design_coefficients(d, 3 if d != 3 else 5)
    sigma = sphere_volume(d - 1)
    np.testing.assert_allclose(w.sum(), sigma, rtol=1e-13)
    M2 = np.einsum("j,ja,jb->ab", w, coeffs, coeffs)
    np.testing.assert_allclose(M2, sigma / d * np.eye(d), atol=1e-12)
    np.testing.assert_allclose(np.einsum("j,ja->a", w, coeffs), 0.0, atol=1e-12)


def test_unit_tangent_quadrature_on_manifold():
    M = real_projective(3)
    x = M.random_point(make_rng(47))
    dirs, w = unit_tangent_quadrature(M, x, order=3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.einsum("ja,a->j", dirs, x), 0.0, atol=1e-12)
    np.testing.assert_allclose(w.sum(), sphere_volume(2), rtol=1e-13)


def test_grid_masses():
    assert abs(build_grid(sphere(2), 500, seed=1).total_mass - 4 * math.pi) < 1e-9
    assert abs(build_grid(real_projective(3), 500, seed=1).total_mass - math.pi**2) < 1e-9
    assert abs(build_grid(complex_projective(2), 500, seed=1).total_mass - math.pi**2 / 2) < 1e-9
    m = build_grid(sphere(2), 3, scheme="mesh")
    np.testing.assert_allclose(m.total_mass, 4 * math.pi, rtol=1e-12)
    m = build_grid(real_projective(2), 3, scheme="mesh")
    np.testing.assert_allclose(m.total_mass, 2 * math.pi, rtol=1e-12)
    m = build_grid(complex_projective(1), 3, scheme="mesh")
    np.testing.assert_allclose(m.total_mass, math.pi, rtol=1e-12)
    P = product(sphere(2), sphere(2, 0.5))
    g = build_grid(P, 40, scheme="product_angles", seed=2)
    np.testing.assert_allclose(g.total_mass, P.volume, rtol=1e-9)


def test_grid_determinism_and_frames():
    M = complex_projective(2)
    g1 = build_grid(M, 100, seed=9)
    g2 = build_grid(M, 100, seed=9)
    np.testing.assert_array_equal(g1.nodes, g2.nodes)
    f1 = grid_frames(g1, salt=4)
    f2 = grid_frames(g2, salt=4)
    np.testing.assert_array_equal(f1, f2)


def test_grid_frames_are_drawn_once_per_salt_and_read_only():
    g = build_grid(complex_projective(2), 50, seed=9)
    f = grid_frames(g, salt=4)
    assert grid_frames(g, salt=4) is f
    with pytest.raises(ValueError):
        f[0, 0, 0] = 0.0
    other = grid_frames(g, salt=5)
    assert other is not f and not np.array_equal(other, f)
    unitary = grid_frames(g, salt=4, unitary=True)
    assert unitary is not f and grid_frames(g, salt=4, unitary=True) is unitary


def test_hopf_chart_round_trip_and_isometry():
    M = complex_projective(1)
    rng = make_rng(53)
    z = M.random_point(rng, 60)
    p = cp1_to_sphere(z)
    np.testing.assert_allclose(np.linalg.norm(p, axis=-1), 1.0, atol=1e-12)
    back = cp1_from_sphere(p)
    np.testing.assert_allclose(np.abs(np.sum(back.conj() * z, axis=-1)), 1.0, atol=1e-12)
    # the chart halves distances: CP^1 is the radius-1/2 round sphere
    w = M.random_point(rng, 60)
    dc = M.distance(z, w)
    ds = np.arccos(np.clip(np.einsum("ka,ka->k", p, cp1_to_sphere(w)), -1, 1))
    np.testing.assert_allclose(2 * dc, ds, atol=1e-9)


def test_grid_csv_round_trip(tmp_path):
    for M, resolution, scheme in ((sphere(2), 20, "monte_carlo"),
                                  (complex_projective(2), 20, "monte_carlo"),
                                  (real_projective(2), 2, "mesh"),
                                  (real_projective(2, 1.5), 1, "mesh")):
        g = build_grid(M, resolution, scheme, seed=3)
        path = tmp_path / "grid.csv"
        grid_to_csv(g, path)
        back = grid_from_csv(M, path)
        np.testing.assert_array_equal(back.nodes, g.nodes)
        np.testing.assert_array_equal(back.weights, g.weights)
        assert back.scheme == g.scheme and back.seed == g.seed
    lines = path.read_bytes().split(b"\n")
    assert lines[:2] == [b"# scheme mesh resolution 1 seed 3", b"x0,x1,x2,weight"]
    assert lines[2] == b",".join(b"%.17g" % v for v in [*g.nodes[0], g.weights[0]])


def test_compose_chains_differentials():
    M = complex_projective(1)
    F = normalized_linear_map(M, M, np.diag([2.0, 1.0]))
    Gm = normalized_linear_map(M, M, np.array([[0.0, 1.0], [1.0, 0.0]]))
    C = compose(F, Gm)
    assert C.differential is not None
    rng = make_rng(59)
    x = M.random_point(rng, 8)
    fr = random_frames(M, x, rng)
    cols_a = C.differential(np.broadcast_to(x[:, None, :], fr.shape), fr)
    C_fd = maps.MapObject(M, M, C.evaluator)
    cols_f, _ = differential_columns(C_fd, x, fr)
    np.testing.assert_allclose(cols_a, cols_f, atol=1e-7)
