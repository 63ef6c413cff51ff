import math

import numpy as np
import pytest

from mapenergy import intgeo, make_rng
from mapenergy.constructions import (
    make_projective_dilation,
    perturbed_identity,
    squeeze_limit,
    standard_maps,
)
from mapenergy.energy import CURVE_STEPS, curve_length, p_energy
from mapenergy.intgeo import (
    _restricted_line_energies,
    e1_geodesic_bound,
    geodesic_space_mass,
    line_energy_average,
    line_energy_spread,
    line_space_mass,
    restriction_energies,
    rp2_family_average,
    rp2_family_mass,
    sample_geodesics,
    sample_lines,
    sample_rp2_planes,
)
from mapenergy.manifolds import (
    GeometryError,
    complex_projective,
    real_projective,
    sphere_volume,
)
from mapenergy.maps import (
    MapObject,
    build_grid,
    compose,
    identity_map,
    normalized_linear_map,
    pullback_gram,
    tangent_frames,
)

from fd_oracle import evaluator_map, fd_map
from support import constant_map


# ---------------------------------------------------------------------------
# geodesic frames


def test_geodesic_loop_closes_and_has_unit_speed():
    # curve_length pushes the loop's points and velocities through the
    # differential; record them there
    M = real_projective(3)
    seen = []

    def record(x, v):
        seen.append((x[0], v[0]))
        return x, v

    F = MapObject(M, M, lambda x: x, record, name="recorder")
    frames, _ = sample_geodesics(3, 4, seed=1)
    for frame in frames:
        seen.clear()
        assert curve_length(F, frame) == pytest.approx(np.pi, abs=1e-12)
        (x, v), = seen
        # canonical representatives are unique, so compare them directly
        assert np.linalg.norm(x[0] - x[-1]) < 1e-12
        np.testing.assert_allclose(np.linalg.norm(v, axis=-1), 1.0, atol=1e-10)
        # velocity is tangent at the canonical representative
        np.testing.assert_allclose(np.sum(x * v, axis=-1), 0.0, atol=1e-10)
        # distances along a geodesic are exact for any step size
        step = np.pi / CURVE_STEPS
        np.testing.assert_allclose(M.distance(x[:-1], x[1:]) / step, 1.0, atol=1e-6)


def test_curve_length_checks_its_geodesic_frame():
    F = identity_map(real_projective(2))
    x = np.array([1.0, 0.0, 0.0])
    with pytest.raises(GeometryError, match="tangent at the base"):
        curve_length(F, np.stack([x, np.array([1.0, 0.0, 0.0])], axis=-1))
    with pytest.raises(GeometryError, match="unit vector"):
        curve_length(F, np.stack([x, np.array([0.0, 2.0, 0.0])], axis=-1))


_E0, _E1 = np.eye(4)[0], np.eye(4)[1]


@pytest.mark.parametrize("frame, message", [
    (np.stack([2.0 * _E0, _E1], axis=-1), "base point and direction must be unit vectors"),
    (np.stack([_E0, _E1, np.eye(4)[2]], axis=-1), r"got float64 of shape \(4, 3\)"),
    (np.eye(3), r"got float64 of shape \(3, 3\)"),
    (np.stack([_E0[:3], _E1[:3]], axis=-1), r"got float64 of shape \(3, 2\)"),
    (_E0, r"got float64 of shape \(4,\)"),
    (np.stack([_E0, 1j * _E1], axis=-1), r"got complex128 of shape \(4, 2\)"),
    (np.stack([_E0, _E1], axis=-1).astype(complex), r"got complex128 of shape \(4, 2\)"),
], ids=["base-2e0", "frame-4x3", "frame-3x3", "frame-3x2", "vector", "complex", "complex-dtype"])
def test_curve_length_refuses_a_frame_that_is_not_one_geodesic_of_its_domain(frame, message):
    F = identity_map(real_projective(3))
    with pytest.raises(GeometryError, match=message):
        curve_length(F, frame)


def test_fubini_over_geodesics():
    # integrating arclength over the geodesic space gives pi * mass,
    # the volume of the unit tangent bundle
    for n in (2, 3):
        frames, weight = sample_geodesics(n, 11, seed=2)
        F = identity_map(real_projective(n))
        total = sum(weight * curve_length(F, frame) for frame in frames)
        want = sphere_volume(n) * sphere_volume(n - 1) / 2.0
        assert total == pytest.approx(want, rel=1e-12)


def test_geodesic_mass():
    assert geodesic_space_mass(3) == pytest.approx(4.0 * np.pi**2, rel=1e-12)
    assert geodesic_space_mass(2) == pytest.approx(4.0 * np.pi, rel=1e-12)
    frames, weight = sample_geodesics(3, 7, seed=3)
    assert len(frames) * weight == pytest.approx(geodesic_space_mass(3), rel=1e-12)


# ---------------------------------------------------------------------------
# line embeddings


def test_line_embedding_is_isometric():
    rng = make_rng(5)
    cp1 = complex_projective(1)
    M = complex_projective(2)
    for A in sample_lines(2, 3, seed=5)[0]:
        emb = normalized_linear_map(cp1, M, A)
        x = cp1.random_point(rng, 20)
        G = pullback_gram(emb, x, tangent_frames(cp1, x))
        np.testing.assert_allclose(G, np.broadcast_to(np.eye(2), G.shape), atol=1e-8)


def test_line_through_point_and_direction():
    M = complex_projective(2)
    rng = make_rng(6)
    x = M.random_point(rng)
    u = M.random_unit_tangent(rng, x)
    cp1 = complex_projective(1)
    line = normalized_linear_map(cp1, M, np.stack([x, u], axis=-1))
    origin = cp1.canonicalize(np.array([1.0 + 0j, 0.0]))
    assert np.linalg.norm(line(origin) - M.canonicalize(x)) < 1e-12
    # the pushed-forward tangent plane contains u and i*u; expand in the
    # real-orthonormal frame with real coefficients
    fr = tangent_frames(cp1, origin)
    cols = line.differential(np.broadcast_to(origin, fr.shape), fr)
    for target in (u, 1j * u):
        coeff = np.array([np.sum((c.conj() * target).real) for c in cols])
        recon = np.tensordot(coeff, cols, axes=(0, 0))
        assert np.linalg.norm(recon - target) < 1e-9


def test_line_mass_and_determinism():
    assert line_space_mass(2) == pytest.approx(np.pi**2 / 2.0, rel=1e-12)
    assert line_space_mass(1) == pytest.approx(1.0, rel=1e-12)
    a, weight = sample_lines(2, 5, seed=9)
    b, _ = sample_lines(2, 5, seed=9)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (5, 3, 2)
    # each frame is a complex-orthonormal pair
    gram = np.einsum("kai,kaj->kij", a.conj(), a)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(2), gram.shape), atol=1e-12)
    assert 5 * weight == pytest.approx(line_space_mass(2), rel=1e-12)


def test_samplers_take_an_integer_count_of_at_least_one():
    # each of the K samples weighs mass / K, so only a whole K >= 1 keeps the total mass
    for sample, dim, mass in ((sample_lines, 2, line_space_mass(2)),
                              (sample_geodesics, 3, geodesic_space_mass(3)),
                              (sample_rp2_planes, 3, rp2_family_mass(3))):
        for K in (2.5, 2.0, 0, -1, True, None, "3"):
            with pytest.raises(GeometryError, match="integer >= 1"):
                sample(dim, K)
        frames, weight = sample(dim, np.int64(3))
        assert frames.shape[0] == 3
        assert 3 * weight == pytest.approx(mass, rel=1e-12)
    F = identity_map(complex_projective(2))
    with pytest.raises(GeometryError, match="integer >= 1"):
        line_energy_average(F, K=2.5)
    assert line_energy_average(F, K=np.int64(3)) == line_energy_average(F, K=3)


# ---------------------------------------------------------------------------
# the restriction rule


def _restriction_loop(F, sub, frames, level):
    """The restricted energies as one explicit compose-and-p_energy per frame."""
    grid = build_grid(sub, level, "mesh")
    return [p_energy(compose(F, normalized_linear_map(sub, F.domain, A)), grid, p=2.0).value
            for A in frames]


@pytest.mark.parametrize("case", ["identity-cp2-lines", "dilation-cp2-lines", "identity-rp3-planes",
                                  "squeeze-rp3-planes"])
def test_restriction_energies_are_the_explicit_loop_bit_for_bit(case):
    cp2, rp3 = complex_projective(2), real_projective(3)
    F, sub, frames = {
        "identity-cp2-lines": lambda: (identity_map(cp2), complex_projective(1),
                                       sample_lines(2, 6, seed=3)[0]),
        "dilation-cp2-lines": lambda: (make_projective_dilation(2, 4.0), complex_projective(1),
                                       sample_lines(2, 6, seed=3)[0]),
        "identity-rp3-planes": lambda: (identity_map(rp3), real_projective(2),
                                        sample_rp2_planes(3, 5, seed=4)[0]),
        "squeeze-rp3-planes": lambda: (perturbed_identity(rp3, 0.2, "squeeze", seed=1),
                                       real_projective(2), sample_rp2_planes(3, 5, seed=4)[0]),
    }[case]()
    got = restriction_energies(F, frames, 3)
    assert got.shape == (len(frames),)
    np.testing.assert_array_equal(got, _restriction_loop(F, sub, frames, 3))


def _nearly_parallel_line():
    # two unit columns 1e-6 apart: a line frame whose span is nearly degenerate
    second = np.array([1.0, 1e-6, 0.0])
    return np.stack([np.eye(3)[0], second / np.linalg.norm(second)], axis=-1)[None]


# (domain, frame stack, message) of stacks refused where they enter
REJECTED_FRAMES = {
    "no-stack-axis": (complex_projective(2), np.eye(3, 2), "stack, got shape"),
    "empty-stack": (complex_projective(2), np.zeros((0, 3, 2)), "stack, got shape"),
    "wrong-ambient": (complex_projective(2), np.zeros((3, 4, 2)), r"\(K >= 1, 3, k >= 2\) stack"),
    "one-column": (complex_projective(2), np.eye(3, 1)[None], "stack, got shape"),
    "nearly-parallel": (complex_projective(2), _nearly_parallel_line(), "orthonormal columns"),
    "stretched": (complex_projective(2), 2.0 * np.eye(3, 2)[None], "orthonormal columns"),
    "too-many-columns": (real_projective(3), np.eye(4, 5)[None], "orthonormal columns"),
    "nan": (real_projective(3), np.full((1, 4, 3), np.nan), "orthonormal columns"),
    "complex-on-rp3": (real_projective(3), 1j * np.eye(4, 3)[None], "needs a real matrix"),
}


@pytest.mark.parametrize("case", REJECTED_FRAMES)
def test_restriction_energies_refuse_a_bad_frame_stack_before_any_energy(monkeypatch, case):
    M, frames, message = REJECTED_FRAMES[case]
    monkeypatch.setattr(intgeo, "p_energy", lambda *args, **kwargs: pytest.fail("an energy was computed"))
    with pytest.raises(GeometryError, match=message):
        restriction_energies(identity_map(M), frames, 2)


def test_restriction_energies_take_real_frames_on_a_complex_domain():
    # the squeeze restricts to the span of the first two coordinate axes
    F = identity_map(complex_projective(2))
    assert restriction_energies(F, np.eye(3, 2)[None], 3)[0] == pytest.approx(np.pi, rel=1e-12)


def test_the_squeeze_restriction_is_the_coordinate_line_inclusion():
    # the squeeze's one float frame is the catalog's inclusion of CP^1 as the
    # span of the first two coordinate axes
    M = complex_projective(2)
    F = perturbed_identity(M, 0.2, "squeeze", seed=2)
    line = standard_maps("inclusion_cp", k=1, N=2)
    want = p_energy(compose(F, line), build_grid(complex_projective(1), 4, "mesh"), p=2.0).value
    assert restriction_energies(F, np.eye(3, 2)[None], 4)[0] == want
    _, restricted = squeeze_limit(F, build_grid(M, 50, "monte_carlo", seed=1), (2.0,))
    assert restricted == want


# ---------------------------------------------------------------------------
# line-energy averaging


def test_line_average_identity_cp2():
    F = identity_map(complex_projective(2))
    val = line_energy_average(F, K=30, seed=11)
    assert val == pytest.approx(np.pi**2, rel=1e-9)


def test_line_average_constant():
    M = complex_projective(2)
    F = constant_map(M, [1.0 + 0j, 0.0, 0.0])
    assert line_energy_average(F, K=10, seed=12) == pytest.approx(0.0, abs=1e-12)


def test_line_average_projective_linear():
    # projective-linear maps are holomorphic of degree 1: every line
    # energy equals pi and the total equals the identity energy
    M = complex_projective(2)
    F = normalized_linear_map(M, M, np.diag([3.0, 1.0, 1.0]).astype(complex), name="T3")
    val = line_energy_average(F, K=40, seed=13)
    assert val == pytest.approx(np.pi**2, rel=2e-3)
    direct = p_energy(F, build_grid(M, 4000, "monte_carlo", seed=14), p=2.0)
    assert abs(val - direct.value) <= 3.0 * direct.stderr + 0.01 * direct.value


def _line_average_with_sigma(F, K, seed):
    vals, w = _restricted_line_energies(F, K, 4, seed)
    fac = math.factorial(F.domain.N) / np.pi ** (F.domain.N - 1)
    est = fac * float(np.sum(w * vals))
    sigma = fac * w * len(vals) * float(np.std(vals, ddof=1)) / np.sqrt(len(vals))
    return est, sigma


def _warp_map(M, mag=1.2):
    """Non-holomorphic push of the identity along a fixed gradient-like field."""
    S = np.diag([1.0, -0.4, 0.1])

    def ev(x):
        v = M.project_tangent(x, np.einsum("ij,...j->...i", S.astype(complex), x))
        return M.exp(x, mag * v)

    return evaluator_map(M, M, ev, "warp")


def test_line_average_isometry_equivariance():
    M = complex_projective(2)
    F = _warp_map(M)
    g = make_rng(17).standard_normal((3, 3)) + 1j * make_rng(18).standard_normal((3, 3))
    q, _ = np.linalg.qr(g)
    U = normalized_linear_map(M, M, q, name="unitary")
    a, sa = _line_average_with_sigma(F, 40, seed=19)
    b, sb = _line_average_with_sigma(compose(F, U), 40, seed=19)
    assert abs(a - b) <= 3.0 * (sa + sb)


def test_line_spread_flags_non_holomorphic_maps():
    M = complex_projective(2)
    mean_id, dev_id = line_energy_spread(identity_map(M), K=20, seed=21)
    assert dev_id < 0.01 * mean_id
    mean_w, dev_w = line_energy_spread(_warp_map(M), K=20, seed=21)
    assert dev_w > 0.05 * mean_w


def test_line_spread_takes_the_average_parameter_order():
    F = _warp_map(complex_projective(2))
    assert line_energy_spread(F, 5, 3, 2) == line_energy_spread(F, K=5, line_resolution=3, seed=2)


# ---------------------------------------------------------------------------
# geodesic length bound


def test_e1_bound_identity_rp3():
    F = identity_map(real_projective(3))
    val = e1_geodesic_bound(F, K=25, seed=23)
    assert val == pytest.approx(np.sqrt(3.0) * np.pi**2 / 2.0, rel=1e-9)
    E1 = p_energy(F, build_grid(real_projective(3), 2000, "monte_carlo", seed=24), p=1.0)
    assert val == pytest.approx(E1.value, rel=0.01)


def test_e1_bound_identity_rp2():
    F = identity_map(real_projective(2))
    assert e1_geodesic_bound(F, K=25, seed=25) == pytest.approx(
        np.sqrt(2.0) * np.pi, rel=1e-9
    )


def test_e1_bound_constant():
    M = real_projective(3)
    F = constant_map(M, [1.0, 0.0, 0.0, 0.0])
    assert e1_geodesic_bound(F, K=10, seed=26) == pytest.approx(0.0, abs=1e-12)


def test_geodesic_bound_and_plane_average_need_radius_one(monkeypatch):
    # their masses and the unit RP^2 mesh hold only at radius 1, so the
    # domain is checked before anything is sampled
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the radius check")

    monkeypatch.setattr(intgeo, "sample_geodesics", no_sampling)
    monkeypatch.setattr(intgeo, "sample_rp2_planes", no_sampling)
    F = identity_map(real_projective(3, 2.0))
    for average in (e1_geodesic_bound, rp2_family_average):
        with pytest.raises(GeometryError, match="radius 1, got 2.0"):
            average(F)


# ---------------------------------------------------------------------------
# plane-family averaging


def test_plane_embeddings_isometric():
    rp2 = real_projective(2)
    rng = make_rng(27)
    M = real_projective(3)
    for A in sample_rp2_planes(3, 3, seed=27)[0]:
        x = rp2.random_point(rng, 10)
        G = pullback_gram(normalized_linear_map(rp2, M, A), x, tangent_frames(rp2, x))
        np.testing.assert_allclose(G, np.broadcast_to(np.eye(2), G.shape), atol=1e-10)


def test_rp2_family_identity_rp3():
    F = identity_map(real_projective(3))
    val = rp2_family_average(F, K=12, seed=28)
    assert val == pytest.approx(1.5 * np.pi**2, rel=1e-9)


def test_rp2_family_mass_values():
    assert rp2_family_mass(3) == pytest.approx(3.0 * np.pi / 4.0, rel=1e-12)
    assert rp2_family_mass(4) == pytest.approx(sphere_volume(4) / (2.0 * np.pi), rel=1e-12)
    frames, weight = sample_rp2_planes(4, 9, seed=29)
    assert frames.shape == (9, 5, 3)
    assert 9 * weight == pytest.approx(rp2_family_mass(4), rel=1e-12)


def test_rp2_family_constant():
    M = real_projective(3)
    F = constant_map(M, [1.0, 0.0, 0.0, 0.0])
    assert rp2_family_average(F, K=6, seed=30) == pytest.approx(0.0, abs=1e-12)


def test_rp2_family_needs_dimension_three():
    with pytest.raises(GeometryError):
        sample_rp2_planes(2, 4, seed=0)


def test_plane_frames_match_one_factorization_per_plane():
    # one draw of K Gaussian blocks and one batched QR give the frames of
    # K successive draws and factorizations on the same stream, bit for bit
    for n, K in ((3, 1), (3, 7), (4, 64)):
        frames, _ = sample_rp2_planes(n, K, seed=31)
        rng = make_rng(31)
        for A in frames:
            q, _ = np.linalg.qr(rng.standard_normal((n + 1, 3)))
            np.testing.assert_array_equal(A, q)


# ---------------------------------------------------------------------------
# golden family values: each identity is one sampled family evaluated
# element by element, so these pin its sampling and summation order


def test_family_values_are_pinned():
    Frp3 = perturbed_identity(real_projective(3), 0.2, seed=1)
    fd = fd_map(Frp3)
    Fcp2 = perturbed_identity(complex_projective(2), 0.2, seed=2)
    assert e1_geodesic_bound(Frp3, K=60, seed=0) == 8.547604040017564
    assert e1_geodesic_bound(fd, K=60, seed=0) == 8.547604040010134
    assert rp2_family_average(Frp3, K=16, seed=0) == 14.913984073292156
    assert line_energy_average(Fcp2, K=40, seed=0) == 9.871182707604069
    assert line_energy_spread(Fcp2, K=30, seed=2) == (3.142219082163226, 0.0006816447512840718)
