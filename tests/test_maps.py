import dataclasses
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from mapenergy import energy, make_rng
from mapenergy.constructions import (
    MAP_CATALOG,
    conjugation_map,
    make_capped_theta,
    make_projective_dilation,
    make_theta,
    perturbed_identity,
    random_curve,
    standard_maps,
)
from mapenergy.manifolds import (
    GeometryError,
    complex_projective,
    real_projective,
    sphere,
    sphere_volume,
)
from mapenergy import constructions, maps
from mapenergy.intgeo import sample_lines, sample_rp2_planes
from mapenergy.maps import (
    build_grid,
    compose,
    cp1_from_sphere,
    cp1_to_sphere,
    differential_columns,
    grid_frames,
    homothety_map,
    identity_map,
    normalized_linear_map,
    pullback_gram,
    tangent_frames,
    unit_tangent_quadrature,
)

from fd_oracle import evaluator_map, fd_map
from traced import traced_peak


def _hard_points(M):
    """Unit vectors where the reflection's pivot is hard: +-e_k, ties
    |x_0| = |x_1|, a negative largest coordinate, and on CP^N the same
    with phased largest coordinates."""
    amb = M.ambient_dim
    tie = np.zeros((2, amb))
    tie[:, :2] = [[1.0, 1.0], [1.0, -1.0]]
    negative = np.full(amb, 0.3)
    negative[-1] = -0.9
    points = np.concatenate([np.eye(amb), -np.eye(amb), tie, negative[None]])
    points /= np.linalg.norm(points, axis=-1, keepdims=True)
    if not M.is_complex:
        return points
    phased_tie = np.zeros(amb, dtype=complex)
    phased_tie[:2] = [1.0, 1j]
    return np.concatenate([points, 1j * points, np.exp(0.7j) * points,
                           phased_tie[None] / math.sqrt(2.0)])


def test_tangent_frames_orthonormal_and_horizontal():
    rng = make_rng(3)
    for M in (sphere(3), real_projective(2), real_projective(3),
              complex_projective(1), complex_projective(2), complex_projective(3)):
        x = np.concatenate([M.random_point(rng, 2000), _hard_points(M)])
        fr = tangent_frames(M, x)
        assert fr.shape == (len(x), M.dim, M.ambient_dim)
        G = np.einsum("kia,kja->kij", fr.conj(), fr).real
        np.testing.assert_allclose(G, np.broadcast_to(np.eye(M.dim), G.shape), rtol=0, atol=1e-15)
        # tangent to the sphere; on CP^N horizontal, orthogonal to the complex span of x
        np.testing.assert_allclose(np.einsum("ka,kia->ki", x.conj(), fr), 0.0, rtol=0, atol=1e-15)
        single = tangent_frames(M, x[0])
        assert single.shape == (M.dim, M.ambient_dim)
        np.testing.assert_allclose(single, fr[0], rtol=0, atol=1e-15)


def test_identity_gram_is_identity():
    for M in (sphere(2), real_projective(3), complex_projective(2)):
        rng = make_rng(17)
        x = M.random_point(rng, 25)
        fr = tangent_frames(M, x)
        G = pullback_gram(identity_map(M), x, fr)
        np.testing.assert_allclose(G, np.broadcast_to(np.eye(M.dim), G.shape), atol=1e-12)
        np.testing.assert_allclose(np.trace(G, axis1=-2, axis2=-1), M.dim, atol=1e-12)


def test_finite_difference_matches_analytic_o_h2():
    # slope 2 +/- 0.2 on log-log over h in {1e-2 ... 1e-4}
    M = sphere(2)
    A = np.array([[1.0, 0.3, 0.0], [0.0, 1.1, -0.2], [0.1, 0.0, 0.9]])
    F = normalized_linear_map(M, M, A)
    rng = make_rng(5)
    x = M.random_point(rng, 20)
    fr = tangent_frames(M, x)
    exact = F.differential(np.broadcast_to(x[:, None, :], fr.shape), fr)
    hs = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
    errs = []
    for h in hs:
        cols = differential_columns(fd_map(F, h), x, fr)
        errs.append(np.max(np.abs(cols - exact)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.2


def test_fd_matches_analytic_on_complex_projective():
    M = complex_projective(2)
    rng = make_rng(11)
    A = np.diag([2.0, 1.0 + 0.5j, 0.7])
    F = normalized_linear_map(M, M, A)
    x = M.random_point(rng, 15)
    fr = tangent_frames(M, x)
    exact = F.differential(np.broadcast_to(x[:, None, :], fr.shape), fr)
    cols = differential_columns(fd_map(F, 1e-4), x, fr)
    np.testing.assert_allclose(cols, exact, atol=1e-7)


@pytest.mark.parametrize("h", [0, 0.0, -1e-4, math.nan, math.inf])
def test_a_finite_difference_step_is_a_finite_real_above_zero(h):
    # the step lives in the oracle now; a bad one would turn its columns into nan
    M = complex_projective(2)
    with pytest.raises(GeometryError, match="finite-difference step"):
        fd_map(identity_map(M), h)
    with pytest.raises(GeometryError, match="finite-difference step"):
        evaluator_map(M, M, lambda y: y, "bare", h)


def _rule(x, v):
    return x, v


@pytest.mark.parametrize("ev, rule, part", [
    (lambda y: y, None, "fused"),
    (lambda y: y, np.eye(3), "fused"),
    (lambda y: y, "rule", "fused"),
    (None, _rule, "evaluator"),
    (np.eye(3), _rule, "evaluator"),
], ids=["rule-none", "rule-array", "rule-string", "evaluator-none", "evaluator-array"])
def test_a_map_without_a_callable_evaluator_or_rule_is_refused_when_built(ev, rule, part):
    # a map is its rule: there is no map first-order calculus could meet without one
    M = complex_projective(2)
    with pytest.raises(GeometryError, match=f"map 'bare' needs a callable {part}, got"):
        maps.MapObject(M, M, ev, rule, "bare")
    with pytest.raises(GeometryError, match=f"map 'bare' needs a callable {part}, got"):
        maps.MapObject(M, M, evaluator=ev, fused=rule, name="bare")


def test_a_map_needs_its_rule_to_be_built():
    M = complex_projective(2)
    with pytest.raises(TypeError, match="fused"):
        maps.MapObject(M, M, lambda y: y, name="bare")
    # the benchmark's tracer tells analytic calls by this reading False
    assert identity_map(M).differential is not None


@pytest.mark.parametrize("dom, cod, A, message", [
    (complex_projective(2), complex_projective(2), np.eye(2), r"shape \(3, 3\), got \(2, 2\)"),
    (complex_projective(1), complex_projective(2), np.eye(2, 3), r"shape \(3, 2\), got \(2, 3\)"),
    (real_projective(3), real_projective(3), np.eye(3), r"shape \(4, 4\), got \(3, 3\)"),
    (real_projective(3), real_projective(3), np.ones(4), r"shape \(4, 4\), got \(4,\)"),
    (real_projective(3), real_projective(3), (1 + 1j) * np.eye(4), "needs a real matrix"),
    (sphere(2), real_projective(2), np.eye(3, dtype=complex), "needs a real matrix"),
    (real_projective(2), real_projective(3), 1j * np.eye(4, 3), "needs a real matrix"),
], ids=["cp2-2x2", "cp1-cp2-transposed", "rp3-3x3", "rp3-vector", "rp3-complex",
        "s2-rp2-complex-dtype", "rp2-rp3-complex"])
def test_a_linear_map_refuses_a_matrix_of_another_shape_or_a_complex_one_into_a_real_space(
        dom, cod, A, message):
    with pytest.raises(GeometryError, match=f"map 'linear' .*{message}"):
        normalized_linear_map(dom, cod, A, "linear")


def test_frame_independence_of_gram_invariants():
    M = complex_projective(2)
    A = np.diag([1.5, 1.0, 0.5 + 0.1j])
    F = normalized_linear_map(M, M, A)
    rng = make_rng(23)
    x = M.random_point(rng, 30)
    f1 = tangent_frames(M, x)
    q, _ = np.linalg.qr(make_rng(2).standard_normal((M.dim, M.dim)))
    f2 = np.einsum("ij,kja->kia", q, f1)
    G1 = pullback_gram(F, x, f1)
    G2 = pullback_gram(F, x, f2)
    np.testing.assert_allclose(np.trace(G1, axis1=-2, axis2=-1), np.trace(G2, axis1=-2, axis2=-1),
                               atol=1e-8)
    np.testing.assert_allclose(np.linalg.det(G1), np.linalg.det(G2), atol=1e-8)


def test_homothety_distance_ratio_oracle():
    # doubling homothety: singular values all 2, checked against distance ratios
    F = homothety_map(sphere(2, 1.0), sphere(2, 2.0))
    rng = make_rng(31)
    M = F.domain
    x = M.random_point(rng, 10)
    fr = tangent_frames(M, x)
    G = pullback_gram(F, x, fr)
    np.testing.assert_allclose(np.sqrt(np.maximum(np.linalg.eigvalsh(G), 0.0)), 2.0, atol=1e-6)
    # homothety sends geodesics to geodesics, so the ratio is exact for any
    # step; 1e-3 keeps the arccos in distance() well conditioned
    v = M.random_unit_tangent(rng, x)
    h = 1e-3
    ratio = F.codomain.distance(F(x), F(M.exp(x, h * v))) / h
    np.testing.assert_allclose(ratio, 2.0, atol=1e-6)


def test_normalized_maps_scale_tangent_lengths_by_the_radius_ratio():
    # the identity on unit representatives from radius 2 to radius 1 halves
    # every length: |dF|^2 = 2 / 4 over the area 16 pi gives E_2 = 4 pi;
    # from radius 1 to radius 2, |dF|^2 = 2 * 4 over 4 pi gives 16 pi
    def energy_on_mesh(F):
        return energy.p_energy(F, build_grid(F.domain, 3, "mesh")).value

    down = normalized_linear_map(sphere(2, 2.0), sphere(2), np.eye(3))
    assert energy_on_mesh(down) == pytest.approx(4 * np.pi, rel=1e-12)
    up = energy_on_mesh(normalized_linear_map(sphere(2), sphere(2, 2.0), np.eye(3)))
    assert up == pytest.approx(16 * np.pi, rel=1e-12)
    assert up == pytest.approx(energy_on_mesh(homothety_map(sphere(2), sphere(2, 2.0))), rel=1e-12)


def test_inclusion_is_isometric():
    A = np.zeros((4, 3))
    A[:3, :3] = np.eye(3)
    F = normalized_linear_map(real_projective(2), real_projective(3), A)
    rng = make_rng(37)
    x = F.domain.random_point(rng, 10)
    fr = tangent_frames(F.domain, x)
    G = pullback_gram(F, x, fr)
    np.testing.assert_allclose(G, np.broadcast_to(np.eye(2), G.shape), atol=1e-10)


def test_double_cover_local_isometry():
    s2, rp2 = sphere(2), real_projective(2)
    F = normalized_linear_map(s2, rp2, np.eye(3), name="double_cover")
    rng = make_rng(41)
    x = s2.random_point(rng, 50)
    y = s2.random_point(rng, 50)
    d = s2.distance(x, y)
    np.testing.assert_allclose(rp2.distance(F(x), F(y)), np.minimum(d, math.pi - d), atol=1e-12)
    fr = tangent_frames(s2, x)
    G = pullback_gram(F, x, fr)
    np.testing.assert_allclose(G, np.broadcast_to(np.eye(2), G.shape), atol=1e-10)


def _old_normalized_linear_closures(cod, A):
    """The evaluator and differential `normalized_linear_map` built before
    normalized maps shared one builder."""
    A = np.asarray(A)

    def ev(x):
        y = np.einsum("ij,...j->...i", A, x)
        n = maps._norm(y)[..., None]
        if np.any(n < 1e-12):
            raise GeometryError("linear map vanishes on a representative")
        return cod.canonicalize(y / n)

    def diff(x, v):
        y = np.einsum("ij,...j->...i", A, x)
        n = maps._norm(y)[..., None]
        yc, f = cod.canonicalize_with_factor(y / n)
        w = cod.project_tangent(y / n, np.einsum("ij,...j->...i", A, v) / n)
        return f[..., None] * w

    return ev, diff


@pytest.mark.parametrize("dom, cod, A", [
    (sphere(2), sphere(2), np.diag([1.0, 1.3, 0.8])),
    (sphere(2), real_projective(2), np.eye(3)),
    (real_projective(2), real_projective(3), np.eye(4, 3)),
    (complex_projective(2), complex_projective(2), np.diag([2.0, 2.0, 1.0]).astype(complex)),
    (complex_projective(1), complex_projective(3), make_rng(3).standard_normal((4, 2)) + 0.5j),
], ids=["stretch-s2", "double-cover", "inclusion-rp", "dilation-cp2", "line-cp3"])
def test_normalized_linear_map_matches_its_old_closures_bit_for_bit(dom, cod, A):
    ev, diff = _old_normalized_linear_closures(cod, A)
    F = normalized_linear_map(dom, cod, A)
    x = dom.random_point(make_rng(33), 64)
    fr = tangent_frames(dom, x)
    assert F(x).tobytes() == ev(x).tobytes()
    assert F.differential(x[..., None, :], fr).tobytes() == diff(x[..., None, :], fr).tobytes()
    assert F.differential(x, fr[..., 0, :]).tobytes() == diff(x, fr[..., 0, :]).tobytes()


def test_normalized_maps_reject_a_vanishing_image():
    F = normalized_linear_map(sphere(2), sphere(2), np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(GeometryError, match="vanishes on a representative"):
        F(np.array([[0.0, 0.0, 1.0]]))


def test_a_normalized_pushforward_refuses_a_vanishing_representative():
    # P = diag(1, 1, 0) vanishes at e_2, which the geodesic through e_0 and e_2 crosses
    M = real_projective(2)
    F = normalized_linear_map(M, M, np.diag([1.0, 1.0, 0.0]), name="flatten")
    e2 = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(GeometryError, match="map 'flatten' vanishes"):
        differential_columns(F, e2, tangent_frames(M, e2))
    with pytest.raises(GeometryError, match="map 'flatten' vanishes"):
        energy.croke_density(F, e2)
    with pytest.raises(GeometryError, match="map 'flatten' vanishes"):
        energy.curve_length(F, np.eye(3)[:, [0, 2]])


@pytest.mark.parametrize("outer", [complex_projective(2), real_projective(2), sphere(2, 2.0)],
                         ids=["cp2", "rp2", "s2r2"])
def test_compose_refuses_an_inner_codomain_other_than_the_outer_domain(outer):
    # each shares its ambient dimension with S^2; the homothety lands in the outer domain
    with pytest.raises(GeometryError, match="cannot compose"):
        compose(identity_map(outer), identity_map(sphere(2)))
    if outer.kind == "sphere":
        compose(identity_map(outer), homothety_map(sphere(2), outer))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_fixed_rotation_matches_its_old_formula_bit_for_bit(d):
    g = make_rng(7 * d + 1).standard_normal((d, d))
    q, r = np.linalg.qr(g)
    rotation = q * np.sign(np.diag(r))
    # the design is the cross-polytope of the rotation's rows in every dimension
    coeffs, _ = maps._design_coefficients(d)
    assert coeffs.tobytes() == np.concatenate([rotation, -rotation]).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_unit_tangent_design_moments(d):
    # exact constants and second moments: int u_i u_j = delta_ij sigma(d-1)/d
    coeffs, w = maps._design_coefficients(d)
    sigma = sphere_volume(d - 1)
    np.testing.assert_allclose(w.sum(), sigma, rtol=1e-13)
    M2 = np.einsum("j,ja,jb->ab", w, coeffs, coeffs)
    np.testing.assert_allclose(M2, sigma / d * np.eye(d), atol=1e-12)
    np.testing.assert_allclose(np.einsum("j,ja->a", w, coeffs), 0.0, atol=1e-12)


def test_unit_tangent_quadrature_on_manifold():
    M = real_projective(3)
    x = M.random_point(make_rng(47))
    dirs, w = unit_tangent_quadrature(M, x)
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
    assert len(build_grid(sphere(2), 0, scheme="mesh")) == 12
    assert len(build_grid(sphere(2), np.int64(7), seed=1)) == 7
    assert len(build_grid(sphere(2), np.int32(2), scheme="mesh")) == 162
    # a node count is an integer >= 1, a mesh level an integer >= 0
    for resolution in (2.7, 2.0, True, 0, -3, None, "5"):
        with pytest.raises(GeometryError, match="monte_carlo grid needs an integer"):
            build_grid(sphere(2), resolution)
    for level in (-1, 1.5, False):
        with pytest.raises(GeometryError, match="mesh grid needs an integer"):
            build_grid(sphere(2), level, "mesh")
    for scheme in ("product_angles", "Mesh"):
        with pytest.raises(GeometryError, match="unknown grid scheme"):
            build_grid(sphere(2), 4, scheme)


def test_a_grid_cannot_go_stale_under_its_kept_frames():
    M = complex_projective(2)
    F = make_projective_dilation(2, 4.0)
    grid = build_grid(M, 2000, seed=1)
    first = energy.p_energy(F, grid).value
    other = M.random_point(make_rng(2), 2000)
    with pytest.raises(ValueError, match="read-only"):
        grid.nodes[:] = other
    with pytest.raises(ValueError, match="read-only"):
        grid.weights[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.nodes = other
    assert energy.p_energy(F, grid).value == first


def test_grids_compare_by_identity():
    g1, g2 = build_grid(sphere(2), 20, seed=1), build_grid(sphere(2), 20, seed=1)
    assert g1 == g1 and g1 != g2 and len({g1, g2}) == 2


# (nodes, weights, message) of grids of CP^2 refused where they are built
_CP2_NODES = complex_projective(2).random_point(make_rng(3), 1000)
REJECTED_GRIDS = {
    "five-weights": (_CP2_NODES, np.ones(5), "one weight per node"),
    "weight-matrix": (_CP2_NODES, np.ones((1000, 1)), "one weight per node"),
    "scalar-weight": (_CP2_NODES, np.float64(1.0), "one weight per node"),
    "nan-weight": (_CP2_NODES, np.r_[np.ones(999), np.nan], "finite reals >= 0"),
    "inf-weight": (_CP2_NODES, np.r_[np.ones(999), np.inf], "finite reals >= 0"),
    "negative-weight": (_CP2_NODES, np.r_[np.ones(999), -1e-9], "finite reals >= 0"),
    "complex-weights": (_CP2_NODES, np.ones(1000, dtype=complex), "finite reals >= 0"),
    "flat-nodes": (_CP2_NODES.ravel(), np.ones(3000), r"nodes of shape \(n, 3\)"),
    "wrong-ambient": (_CP2_NODES[:, :2], np.ones(1000), r"nodes of shape \(n, 3\)"),
}


@pytest.mark.parametrize("case", REJECTED_GRIDS)
def test_a_grid_needs_one_finite_nonnegative_weight_per_node(case):
    nodes, weights, message = REJECTED_GRIDS[case]
    with pytest.raises(GeometryError, match=message):
        maps.QuadratureGrid(complex_projective(2), nodes, weights, "monte_carlo")


def test_grid_determinism_and_frames():
    M = complex_projective(2)
    g1 = build_grid(M, 100, seed=9)
    g2 = build_grid(M, 100, seed=9)
    np.testing.assert_array_equal(g1.nodes, g2.nodes)
    f1 = grid_frames(g1)
    f2 = grid_frames(g2)
    assert f1 is not f2
    np.testing.assert_array_equal(f1, f2)


def test_grid_frames_are_kept_once_per_grid_and_read_only():
    g = build_grid(complex_projective(2), 50, seed=9)
    f = grid_frames(g)
    assert grid_frames(g) is f
    with pytest.raises(ValueError):
        f[0, 0, 0] = 0.0


@pytest.mark.parametrize("n", [50, 2 * maps.NODE_BLOCK + 700], ids=["one-block", "pooled"])
@pytest.mark.parametrize("M", [complex_projective(1), complex_projective(2), real_projective(3), sphere(2)],
                         ids=["cp1", "cp2", "rp3", "s2"])
def test_a_grid_keeps_its_frames_frame_axis_first_and_half_of_them_on_cpn(M, n):
    g = build_grid(M, n, seed=9)
    kept, full = grid_frames(g), np.moveaxis(tangent_frames(M, g.nodes), -2, 0)
    k = M.N if M.is_complex else M.dim
    assert kept.shape == (k, n, M.ambient_dim)
    assert kept.flags.c_contiguous and not kept.flags.writeable
    # the kept columns h of the frame (h, i h) on CP^N, the whole frame elsewhere
    np.testing.assert_array_equal(kept, full[:k])
    if M.is_complex:
        np.testing.assert_array_equal(1j * kept, full[k:])
    assert (2 if M.is_complex else 1) * kept.nbytes == full.nbytes


@pytest.mark.parametrize("M", [complex_projective(2), real_projective(3)], ids=["cp2", "rp3"])
def test_grid_frames_never_hold_a_second_grid_sized_frame_array(monkeypatch, M):
    # two CPUs: the pool runs at most two blocks ahead of the copy
    monkeypatch.setattr(maps.os, "sched_getaffinity", lambda pid: {0, 1})
    grid = build_grid(M, 24 * maps.NODE_BLOCK, seed=9)
    peak = traced_peak(grid_frames, grid)
    kept = grid_frames(grid)
    # the kept frames, each block written into them as it arrives, plus
    # the temporaries of the blocks in flight; a transposed or second copy
    # of the frames would double the peak
    assert kept.nbytes <= peak < 1.5 * kept.nbytes


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


def test_compose_chains_differentials():
    M = complex_projective(1)
    F = normalized_linear_map(M, M, np.diag([2.0, 1.0]))
    Gm = normalized_linear_map(M, M, np.array([[0.0, 1.0], [1.0, 0.0]]))
    C = compose(F, Gm)
    assert C.differential is not None
    rng = make_rng(59)
    x = M.random_point(rng, 8)
    fr = tangent_frames(M, x)
    cols_a = C.differential(np.broadcast_to(x[:, None, :], fr.shape), fr)
    cols_f = differential_columns(fd_map(C), x, fr)
    np.testing.assert_allclose(cols_a, cols_f, atol=1e-7)


# ---------------------------------------------------------------------------
# The differential contract: one base point per node


def _analytic_case(name):
    if name in COMPOSITE_CASES:
        return compose(*_composite_parts(name))
    cp2 = complex_projective(2)
    return {
        "identity-cp2": lambda: identity_map(cp2),
        "identity-rp3": lambda: identity_map(real_projective(3)),
        "stretch-s2": lambda: normalized_linear_map(sphere(2), sphere(2), np.diag([1.0, 1.3, 0.8])),
        "homothety": lambda: homothety_map(sphere(2), sphere(2, 1.7)),
        "dilation": lambda: make_projective_dilation(2, 2.0),
        "curve": lambda: random_curve(2, 3, seed=1),
        "theta": lambda: make_theta(4.0),
        "capped-theta": lambda: make_capped_theta(2.0),
        "conjugation": lambda: conjugation_map(2),
        "inclusion-rp": lambda: standard_maps("inclusion_rp", k=2, n=3),
        "inclusion-cp": lambda: standard_maps("inclusion_cp", k=1, N=2),
        "perturbed-generic-s2": lambda: perturbed_identity(sphere(2, 1.7), 0.2, seed=1),
        "perturbed-generic-rp3": lambda: perturbed_identity(real_projective(3), 0.2, seed=1),
        "perturbed-squeeze-cp2": lambda: perturbed_identity(cp2, 0.2, "squeeze", seed=1),
    }[name]()


def _composite_parts(name):
    """(outer, inner) of a composite case: the line and plane families'
    restrictions, the squeeze's dilations and its reference line, and a
    composite as the inner map of another."""
    cp1, cp2, rp2, rp3 = complex_projective(1), complex_projective(2), real_projective(2), real_projective(3)
    squeeze = perturbed_identity(cp2, 0.2, "squeeze", seed=1)

    def line():
        return normalized_linear_map(cp1, cp2, sample_lines(2, 1, seed=5)[0][0], name="line")

    def plane():
        return normalized_linear_map(rp2, rp3, sample_rp2_planes(3, 1, seed=5)[0][0], name="plane")

    return {
        "compose": lambda: (conjugation_map(2), make_projective_dilation(2, 2.0)),
        "squeeze-after-dilation": lambda: (squeeze, make_projective_dilation(2, 4.0)),
        "squeeze-after-dilation-16": lambda: (squeeze, make_projective_dilation(2, 16.0)),
        "squeeze-on-line": lambda: (squeeze, standard_maps("inclusion_cp", k=1, N=2)),
        "identity-on-line": lambda: (identity_map(cp2), line()),
        "dilation-on-line": lambda: (make_projective_dilation(2, 4.0), line()),
        "identity-on-plane": lambda: (identity_map(rp3), plane()),
        "squeeze-on-dilated-line": lambda: (squeeze, compose(make_projective_dilation(2, 4.0), line())),
    }[name]()


COMPOSITE_CASES = [
    "compose", "squeeze-after-dilation", "squeeze-after-dilation-16", "squeeze-on-line",
    "identity-on-line", "dilation-on-line", "identity-on-plane", "squeeze-on-dilated-line",
]

ANALYTIC_CASES = [
    "identity-cp2", "identity-rp3", "stretch-s2", "homothety", "dilation", "curve", "theta",
    "capped-theta", "conjugation", "inclusion-rp", "inclusion-cp",
    "perturbed-generic-s2", "perturbed-generic-rp3", "perturbed-squeeze-cp2",
] + COMPOSITE_CASES


@pytest.mark.parametrize("name", ANALYTIC_CASES)
def test_a_per_node_base_gives_the_broadcast_base_columns_bit_for_bit(name):
    F = _analytic_case(name)
    M = F.domain
    x = M.random_point(make_rng(61), 40)
    fr = tangent_frames(M, x)
    broadcast = F.differential(np.broadcast_to(x[:, None, :], fr.shape), fr)
    per_node = F.differential(x[:, None, :], fr)
    assert per_node.shape == broadcast.shape == fr.shape[:-1] + (F.codomain.ambient_dim,)
    assert np.array_equal(per_node, broadcast)
    cols = differential_columns(F, x, fr)
    assert np.array_equal(cols, per_node)


@pytest.mark.parametrize("name", COMPOSITE_CASES)
def test_a_composite_differential_is_the_outer_one_at_the_inner_value_bit_for_bit(name):
    # the reference is the chain rule with the inner map evaluated twice
    outer, inner = _composite_parts(name)
    F = compose(outer, inner)
    M = F.domain
    x = M.random_point(make_rng(67), 40)[:, None, :]
    fr = tangent_frames(M, x[:, 0])
    want = outer.differential(inner(x), inner.differential(x, fr))
    assert np.array_equal(F.differential(x, fr), want)
    value, cols = F.fused(x, fr)
    assert np.array_equal(value, F(x)) and np.array_equal(cols, want)


# keyword arguments of one map of each MAP_CATALOG key
CATALOG_ARGS = {
    "identity": {"manifold": complex_projective(2)},
    "inclusion_rp": {"k": 2, "n": 3},
    "inclusion_cp": {"k": 1, "N": 2},
    "double_cover": {},
    "homothety": {"kappa": 1.7},
    "conjugation": {"N": 2},
}


def test_every_catalog_key_has_arguments_for_the_fused_contract():
    assert sorted(CATALOG_ARGS) == sorted(MAP_CATALOG)


@pytest.mark.parametrize("name", ANALYTIC_CASES + [f"catalog:{key}" for key in sorted(CATALOG_ARGS)])
def test_a_fused_rule_gives_the_evaluator_and_the_differential_bit_for_bit(name):
    key = name.removeprefix("catalog:")
    F = standard_maps(key, **CATALOG_ARGS[key]) if key != name else _analytic_case(name)
    M = F.domain
    x = M.random_point(make_rng(71), 40)[:, None, :]
    fr = tangent_frames(M, x[:, 0])
    value, cols = F.fused(x, fr)
    want = F(x)
    assert value.shape == want.shape and value.tobytes() == want.tobytes()
    assert F.differential(x, fr).tobytes() == cols.tobytes()


def test_a_composite_differential_evaluates_each_normalized_layer_once(monkeypatch):
    seen = []
    original = maps.normalized_map

    def counting(dom, cod, P, dP, name):
        def counted(x):
            seen.append((name, x.shape))
            return P(x)
        return original(dom, cod, counted, dP, name)

    # normalized_linear_map's dP applies its P to the vectors, not the counted one;
    # the dilation builds its normalized map from the constructions namespace
    monkeypatch.setattr(maps, "normalized_map", counting)
    monkeypatch.setattr(constructions, "normalized_map", counting)
    cp1, cp2 = complex_projective(1), complex_projective(2)
    line = normalized_linear_map(cp1, cp2, sample_lines(2, 1, seed=5)[0][0], name="line")
    x = cp1.random_point(make_rng(69), 10)
    fr = tangent_frames(cp1, x)
    # P of each layer sees its base points once, one per node, on the
    # frame axis's place
    line_base, dilation_base = ("line", (1, 10, 2)), ("dilation-4", (1, 10, 3))
    for outer, want in ((identity_map(cp2), [line_base]),
                        (make_projective_dilation(2, 4.0), [line_base, dilation_base])):
        seen.clear()
        differential_columns(compose(outer, line), x, fr)
        assert seen == want


@pytest.mark.parametrize("M", [sphere(2), sphere(2, 1.7), real_projective(2), real_projective(3),
                               complex_projective(1), complex_projective(2)],
                         ids=["s2", "s2r1.7", "rp2", "rp3", "cp1", "cp2"])
@pytest.mark.parametrize("flavor", ["generic", "squeeze"])
def test_perturbed_identity_differential_matches_finite_differences(M, flavor):
    F = perturbed_identity(M, 0.2, flavor, seed=1)
    x = M.random_point(make_rng(63), 200)
    fr = tangent_frames(M, x)
    exact = differential_columns(F, x, fr)
    fd = differential_columns(fd_map(F), x, fr)
    np.testing.assert_allclose(exact, fd, rtol=0, atol=1e-7)


def test_squeeze_perturbation_differential_is_the_identity_on_the_reference_line():
    # the field and its first derivative vanish on the line, so P(x) = x and
    # dP(x, v) = v there, and the pushforward is the frame vector itself
    M = complex_projective(2)
    F = perturbed_identity(M, 0.2, "squeeze", seed=1)
    line = standard_maps("inclusion_cp", k=1, N=2)
    grid = build_grid(complex_projective(1), 3, "mesh")
    x = line(grid.nodes)
    fr = differential_columns(line, grid.nodes, tangent_frames(grid.manifold, grid.nodes))
    cols = differential_columns(F, x, fr)
    want = differential_columns(identity_map(M), x, fr)
    np.testing.assert_allclose(cols, want, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# Batches in node blocks on the thread pool

ROOT = Path(__file__).resolve().parents[1]

# three blocks: two full ones and a partial one
BLOCKED_NODES = 2 * maps.NODE_BLOCK + 3616


@pytest.fixture
def pooled(monkeypatch):
    """Takes the blocked path as on two CPUs; lists each use of the pool."""
    monkeypatch.setattr(maps.os, "sched_getaffinity", lambda pid: {0, 1})
    uses = []
    pool = maps._pool
    monkeypatch.setattr(maps, "_pool", lambda: uses.append(os.getpid()) or pool())
    return uses


def _single_blocks(fn, n):
    """fn(start, stop) over the node blocks of n nodes, each a single-block call,
    concatenated along the node axis."""
    return np.concatenate([fn(s, s + maps.NODE_BLOCK) for s in range(0, n, maps.NODE_BLOCK)])


def _in_a_child(fn, timeout=120.0):
    """Exit status of a forked child that runs fn() and exits 0 when it returns
    True; a child still running after `timeout` seconds is killed."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if fn() else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail(f"the child did not finish in {timeout} s")


BLOCKED_CASES = ["fd-squeeze", "dilation", "theta", "identity-rp3"]


def _blocked_case(name):
    """A map and a grid on its domain: BLOCKED_NODES Monte Carlo nodes, or for
    "line" the one-block CP^1 mesh under a line of CP^2 that line averages use."""
    if name == "line":
        F = compose(make_projective_dilation(2, 4.0), standard_maps("inclusion_cp", k=1, N=2))
        return F, build_grid(F.domain, 3, "mesh")
    if name == "fd-squeeze":
        M = complex_projective(2)
        squeeze = compose(perturbed_identity(M, 0.2, "squeeze"), make_projective_dilation(2, 1.5))
        F = fd_map(squeeze)
    elif name == "dilation":
        F = make_projective_dilation(2, 2.0)
    elif name == "theta":
        F = make_theta(4.0)
    else:
        F = identity_map(real_projective(3))
    return F, build_grid(F.domain, BLOCKED_NODES, seed=3)


@pytest.mark.parametrize("name", BLOCKED_CASES + ["line"])
def test_blocked_batches_equal_single_block_calls_bit_for_bit(pooled, name):
    F, grid = _blocked_case(name)
    x, fr = grid.nodes, tangent_frames(F.domain, grid.nodes)
    n = len(grid)

    cols = differential_columns(F, x, fr)
    want_cols = _single_blocks(lambda a, b: differential_columns(F, x[a:b], fr[a:b]), n)
    assert np.array_equal(cols, want_cols)

    G = pullback_gram(F, x, fr)
    want_G = _single_blocks(lambda a, b: pullback_gram(F, x[a:b], fr[a:b]), n)
    assert np.array_equal(G, want_G)

    for p in (2.0, 3.0):
        got = energy.p_energy(F, grid, p=p)
        want = energy._integrate(
            grid, 0.5 * np.trace(want_G, axis1=-2, axis2=-1) ** (p / 2.0), "p_energy")
        assert (got.value, got.stderr) == (want.value, want.stderr)

    # sqrt(det G) as the product of the clamped eigenvalues of the whole grid's G
    eigenvalues = np.maximum(np.linalg.eigvalsh(want_G), 0.0)
    volume = energy._integrate(grid, np.sqrt(np.prod(eigenvalues, axis=-1)), "pullback_volume")
    assert energy.pullback_volume(F, grid) == volume.value
    assert bool(pooled) == (n >= 2 * maps.NODE_BLOCK)


def _traced_peak_and_column_bytes(monkeypatch, functional):
    """The tracemalloc peak of `functional` of the identity of CP^2 on an
    8-block grid whose frames are kept, and the bytes of that grid's columns."""
    # one CPU runs the blocks one after another, so the peak does not
    # depend on how the pool's blocks overlap
    monkeypatch.setattr(maps.os, "sched_getaffinity", lambda pid: {0})
    M = complex_projective(2)
    F = identity_map(M)
    grid = build_grid(M, 8 * maps.NODE_BLOCK, seed=1)
    functional(F, grid)
    peak = traced_peak(functional, F, grid)
    # the columns of the identity are its full frames, one (dim, amb)
    # complex block per node: twice the kept half
    column_bytes = len(grid) * M.dim * M.ambient_dim * np.dtype(complex).itemsize
    assert column_bytes == 2 * grid_frames(grid).nbytes
    return peak, column_bytes


def test_p_energy_builds_no_grid_sized_column_array(monkeypatch):
    peak, column_bytes = _traced_peak_and_column_bytes(monkeypatch, energy.p_energy)
    assert peak < column_bytes / 2


def test_pullback_volume_builds_no_grid_sized_column_array(monkeypatch):
    # a block's Gram products, (4096, dim, dim, amb) complex, are 3.0 MiB
    peak, column_bytes = _traced_peak_and_column_bytes(monkeypatch, energy.pullback_volume)
    assert peak < column_bytes


@pytest.mark.parametrize("case", ["fd-squeeze", "dilation", "line"])
def test_functionals_call_differential_columns_once_on_the_grid_nodes(monkeypatch, case):
    # the names perfbench traces are bound in every module that imports them
    original, seen = maps.differential_columns, []

    def counted(F, x, *args, **kwargs):
        seen.append((x, kwargs.get("reduce")))
        return original(F, x, *args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("mapenergy") and \
                getattr(module, "differential_columns", None) is original:
            monkeypatch.setattr(module, "differential_columns", counted)
    F, grid = _blocked_case(case)
    grid_frames(grid)
    for functional in (energy.p_energy, energy.pullback_volume):
        seen.clear()
        functional(F, grid)
        # each node block is reduced to its density as it is computed
        assert len(seen) == 1 and seen[0][0] is grid.nodes and seen[0][1] is not None


@pytest.mark.parametrize("name", BLOCKED_CASES)
def test_pullback_gram_is_exactly_symmetric(name):
    F, grid = _blocked_case(name)
    G = pullback_gram(F, grid.nodes, tangent_frames(F.domain, grid.nodes))
    assert np.array_equal(G, np.swapaxes(G, -1, -2))


def test_on_one_cpu_blocks_run_serially_without_a_pool(monkeypatch):
    monkeypatch.setattr(maps.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(maps, "_POOLS", {})
    dilation = make_projective_dilation(2, 2.0)
    seen = []

    def fused(x, v):
        # the base x[None] holds a block's nodes on its second axis
        seen.append(x.shape[1])
        return dilation.fused(x, v)

    F = maps.MapObject(dilation.domain, dilation.codomain, dilation.evaluator, fused)
    grid = build_grid(F.domain, BLOCKED_NODES, seed=3)
    x, fr = grid.nodes, tangent_frames(F.domain, grid.nodes)
    n = len(grid)
    cols = differential_columns(F, x, fr)
    assert seen == [maps.NODE_BLOCK, maps.NODE_BLOCK, n - 2 * maps.NODE_BLOCK]
    want_cols = _single_blocks(lambda a, b: differential_columns(F, x[a:b], fr[a:b]), n)
    assert np.array_equal(cols, want_cols)
    G = pullback_gram(F, x, fr)
    want_G = _single_blocks(lambda a, b: pullback_gram(F, x[a:b], fr[a:b]), n)
    assert np.array_equal(G, want_G)
    assert maps._POOLS == {}


@pytest.mark.parametrize("M", [complex_projective(2), real_projective(3), sphere(3)],
                         ids=["cp2", "rp3", "s3"])
def test_blocked_tangent_frames_equal_one_serial_pass(pooled, M):
    x = M.random_point(make_rng(1), BLOCKED_NODES)
    assert np.array_equal(tangent_frames(M, x), np.moveaxis(maps._completed(M, maps._reflection_frames(x)), 0, -2))
    assert pooled


def test_the_pool_runs_at_most_one_block_per_worker_ahead():
    started = []

    def block(start):
        started.append(start)
        if start == 50:
            raise GeometryError("block 50")
        return start

    for k, value in enumerate(maps._pooled(block, range(20), 2)):
        assert value == k
        assert len(started) <= k + 3
    started.clear()
    with pytest.raises(GeometryError, match="block 50"):
        list(maps._pooled(block, range(50, 70), 2))
    # blocks 51 and 52 were submitted; the rest were never
    assert len(started) <= 3


def test_an_error_in_a_later_block_propagates_from_p_energy(pooled):
    M = sphere(2)
    grid = build_grid(M, BLOCKED_NODES, seed=4)
    marked = grid.nodes[-1]

    def fused(x, v):
        if np.any(np.all(x == marked, axis=-1)):
            raise GeometryError("the marked node")
        return x, v

    with pytest.raises(GeometryError, match="the marked node"):
        energy.p_energy(maps.MapObject(M, M, lambda x: x, fused), grid)
    assert pooled


def test_a_differential_that_calls_differential_columns_finishes(pooled):
    # each worker passes its one block on, which runs inline; a larger
    # batch would wait on the pool whose threads are all busy with it
    M = complex_projective(2)
    inner = identity_map(M)

    def fused(x, v):
        return x, differential_columns(inner, x[..., 0, :], v)

    F = maps.MapObject(M, M, lambda x: x, fused)
    grid = build_grid(M, BLOCKED_NODES, seed=5)
    x, fr = grid.nodes, tangent_frames(M, grid.nodes)

    def nested_equals_direct():
        before = len(pooled)
        nested, direct = differential_columns(F, x, fr), differential_columns(inner, x, fr)
        # one pool use each for the two whole batches, none for the blocks
        return np.array_equal(nested, direct) and len(pooled) == before + 2

    assert _in_a_child(nested_equals_direct) == 0


def test_a_forked_child_makes_its_own_pool(pooled):
    F = make_projective_dilation(2, 2.0)
    M = F.domain
    want = energy.p_energy(F, build_grid(M, BLOCKED_NODES, seed=6))
    assert os.getpid() in maps._POOLS

    def child_energy_equals_the_parents():
        return energy.p_energy(F, build_grid(M, BLOCKED_NODES, seed=6)) == want

    assert _in_a_child(child_energy_equals_the_parents) == 0


def test_concurrent_first_callers_share_one_pool(monkeypatch):
    def slow_executor(**kwargs):
        # widens the window between looking for the pool and storing it
        time.sleep(1e-3)
        return executor(**kwargs)

    executor = maps.ThreadPoolExecutor
    monkeypatch.setattr(maps, "ThreadPoolExecutor", slow_executor)
    callers = 4
    barrier = threading.Barrier(callers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(maps, "_POOLS", {})
            got = []

            def call():
                barrier.wait(timeout=60)
                got.append(maps._pool())

            threads = [threading.Thread(target=call) for _ in range(callers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            # a lost update hands two callers different pools
            assert len(got) == callers and len({id(pool) for pool in got}) == 1
    finally:
        sys.setswitchinterval(interval)


def test_importing_mapenergy_starts_no_thread():
    # a pool made at import would be copied into every fork without its threads
    code = "import threading, mapenergy; print(threading.active_count())"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "1"
