import numpy as np
import pytest

from mapenergy.constructions import (
    conic_curve,
    conjugation_map,
    line_curve,
    make_projective_dilation,
    make_rational_curve,
    perturbed_identity,
    reference_line,
    standard_maps,
    veronese_curve,
)
from mapenergy import harmonic
from mapenergy.energy import EnergyValue, p_energy, surface_area
from mapenergy.harmonic import (
    VARIATION_STEP,
    fundamental_form_line_integral,
    hermitian_residual,
    index_trace_over_symmetries,
    jacobi_identity_check,
    pluriharmonic_residual,
    pushforward_field,
    rank_profile,
    second_fundamental_form,
    second_variation,
    tension,
)
from mapenergy.intgeo import sample_lines
from mapenergy.manifolds import (
    CutLocusError,
    GeometryError,
    complex_projective,
    real_projective,
    sphere,
    su_basis,
)
from mapenergy.maps import MapObject, build_grid, compose, frame_at, identity_map
from mapenergy.rand import make_rng


def _constant_map(M, rep):
    q = M.canonicalize(np.asarray(rep, dtype=M.dtype))
    return MapObject(
        M, M, lambda x: np.broadcast_to(q, x.shape).copy(),
        differential=lambda x, v: np.zeros_like(v), name="constant",
    )


# ---------------------------------------------------------------------------
# second fundamental form


def test_second_form_symmetric_and_typed():
    cp1, cp2 = complex_projective(1), complex_projective(2)
    F = make_rational_curve(veronese_curve())
    x = cp1.random_point(make_rng(1), 20)
    fr = frame_at(cp1, x)
    v, w = fr[..., 0, :], fr[..., 1, :]
    a = second_fundamental_form(F, x, v, w)
    b = second_fundamental_form(F, x, w, v)
    np.testing.assert_allclose(a, b, atol=1e-12)
    assert a.shape == (20, 3)
    assert np.max(cp2.norm(a)) > 1e-3  # the curve is not totally geodesic


def test_inclusion_is_totally_geodesic():
    F = standard_maps("inclusion_cp", k=1, N=2)
    cp1 = complex_projective(1)
    x = cp1.random_point(make_rng(2), 100)
    fr = frame_at(cp1, x)
    worst = 0.0
    for i in range(2):
        for j in range(2):
            s = second_fundamental_form(F, x, fr[..., i, :], fr[..., j, :])
            worst = max(worst, float(np.max(F.codomain.norm(s))))
    assert worst < 1e-5


def test_double_cover_is_totally_geodesic():
    F = standard_maps("double_cover")
    s2 = sphere(2)
    x = s2.random_point(make_rng(3), 100)
    fr = frame_at(s2, x)
    worst = 0.0
    for i in range(2):
        s = second_fundamental_form(F, x, fr[..., i, :], fr[..., i, :])
        worst = max(worst, float(np.max(F.codomain.norm(s))))
    assert worst < 1e-5


def test_sampled_line_embeddings_are_totally_geodesic():
    cp1 = complex_projective(1)
    x = cp1.random_point(make_rng(4), 20)
    fr = frame_at(cp1, x)
    for sample in sample_lines(2, 5, seed=5):
        F = sample.element.embedding
        for i in range(2):
            s = second_fundamental_form(F, x, fr[..., i, :], fr[..., i, :])
            assert float(np.max(F.codomain.norm(s))) < 1e-5


def test_second_form_cut_locus_raises():
    s2 = sphere(2)
    p = np.array([0.0, 0.0, 1.0])

    def ev(x):
        out = np.broadcast_to(p, x.shape).copy()
        flip = x[..., 0] < 0.0
        out[flip] = -p
        return out

    F = MapObject(s2, s2, ev, smoothness="lipschitz", name="two-level")
    x = s2.canonicalize(np.array([1e-5, 1.0, 0.0]))[None]
    v = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(CutLocusError):
        second_fundamental_form(F, x, v, v, h=1e-3)


# ---------------------------------------------------------------------------
# tension


def test_tension_vanishes_for_identity_and_curves():
    cp2 = complex_projective(2)
    x = cp2.random_point(make_rng(6), 30)
    t = tension(identity_map(cp2), x)
    assert np.max(cp2.norm(t)) < 1e-6

    cp1 = complex_projective(1)
    z = cp1.random_point(make_rng(7), 50)
    for spec in (line_curve(), conic_curve(), veronese_curve()):
        F = make_rational_curve(spec)
        assert np.max(F.codomain.norm(tension(F, z))) < 1e-4


def test_tension_is_frame_independent():
    cp1 = complex_projective(1)
    F = make_rational_curve(conic_curve())
    x = cp1.random_point(make_rng(8), 10)
    fr = frame_at(cp1, x)
    q = np.linalg.qr(make_rng(9).standard_normal((2, 2)))[0]
    mixed = np.einsum("ij,...ja->...ia", q, fr)
    t1 = tension(F, x, frame=fr)
    t2 = tension(F, x, frame=mixed)
    np.testing.assert_allclose(t1, t2, atol=1e-5)


# ---------------------------------------------------------------------------
# pluriharmonic / Hermitian residuals


def test_residuals_small_on_holomorphic_corpus():
    cp1 = complex_projective(1)
    z = cp1.random_point(make_rng(10), 30)
    for F in (make_rational_curve(conic_curve()), make_rational_curve(line_curve())):
        assert np.max(pluriharmonic_residual(F, z)) < 1e-3
        assert np.max(hermitian_residual(F, z)) < 1e-5
    cp2 = complex_projective(2)
    x = cp2.random_point(make_rng(11), 15)
    T4 = make_projective_dilation(2, 4.0)
    assert np.max(pluriharmonic_residual(T4, x)) < 1e-3
    assert np.max(hermitian_residual(conjugation_map(1), z)) < 1e-5


def test_residuals_flag_non_pluriharmonic_maps():
    cp2 = complex_projective(2)
    x = cp2.random_point(make_rng(12), 20)
    P = perturbed_identity(cp2, magnitude=0.2, seed=0)
    assert np.max(pluriharmonic_residual(P, x)) > 1e-2
    assert np.max(hermitian_residual(P, x)) > 1e-3

    C = _constant_map(cp2, np.array([1.0, 0.0, 0.0], dtype=complex))
    np.testing.assert_allclose(pluriharmonic_residual(C, x), 0.0, atol=1e-12)

    with pytest.raises(GeometryError):
        pluriharmonic_residual(identity_map(sphere(2)), np.array([0.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# second variation


def test_second_variation_neutral_along_symmetry_directions():
    cp1 = complex_projective(1)
    grid = build_grid(cp1, 4, "mesh")
    F = identity_map(cp1)
    for a in su_basis(2):
        W = pushforward_field(F, lambda x, a=a: 1j * cp1.killing_field(a, x))
        wn = W(grid.nodes)
        scale = float(np.sum(grid.weights * np.sum((wn.conj() * wn).real, axis=-1)))
        assert abs(second_variation(F, W, grid)) < 1e-3 * scale


def test_second_variation_neutral_for_sphere_conformal_field():
    # the identity of the 2-sphere minimizes energy in its degree class,
    # so conformal gradient directions are second-order neutral
    s2 = sphere(2)
    grid = build_grid(s2, 4, "mesh")

    def W(x):
        return s2.project_tangent(x, np.broadcast_to(np.array([0.0, 0.0, 1.0]), x.shape).copy())

    assert abs(second_variation(identity_map(s2), W, grid)) < 1e-6


def test_second_variation_negative_for_unstable_sphere_identity():
    # gradient of a first harmonic destabilizes the identity of S^3;
    # the closed-form value of the Hessian there is -3 pi^2 / 2
    s3 = sphere(3)
    grid = build_grid(s3, 30000, "monte_carlo", seed=11)

    def W(x):
        return s3.project_tangent(x, np.broadcast_to(np.array([0.0, 0.0, 0.0, 1.0]), x.shape).copy())

    sv = second_variation(identity_map(s3), W, grid)
    assert sv < 0.0
    assert sv == pytest.approx(-1.5 * np.pi**2, rel=0.02)


def test_second_variation_zero_field_and_evenness():
    cp1 = complex_projective(1)
    grid = build_grid(cp1, 4, "mesh")
    F = make_rational_curve(veronese_curve())

    def zero(x):
        return np.zeros(x.shape[:-1] + (3,), dtype=complex)

    assert abs(second_variation(F, zero, grid)) < 1e-9

    a = su_basis(2)[0]
    W = pushforward_field(F, lambda x: 1j * cp1.killing_field(a, x))

    def Wneg(x):
        return -W(x)

    s1 = second_variation(F, W, grid)
    s2 = second_variation(F, Wneg, grid)
    assert s1 == pytest.approx(s2, abs=1e-9)


def test_second_variation_halves_the_step_after_a_non_finite_energy(monkeypatch):
    s2 = sphere(2)
    grid = build_grid(s2, 3, "mesh")

    def W(x):
        return s2.project_tangent(x, np.broadcast_to(np.array([0.0, 0.0, 1.0]), x.shape).copy())

    F = identity_map(s2)
    expected = second_variation(F, W, grid, tau=VARIATION_STEP / 2)
    calls = []

    def first_energy_not_finite(Ft, grid, p):
        calls.append(p)
        if len(calls) == 1:
            return EnergyValue(p, float("nan"), grid.scheme, grid.resolution, grid.seed)
        return p_energy(Ft, grid, p=p)

    monkeypatch.setattr(harmonic, "p_energy", first_energy_not_finite)
    assert second_variation(F, W, grid) == expected
    assert len(calls) == 6


def test_second_variation_warns_for_non_harmonic_map():
    cp2 = complex_projective(2)
    grid = build_grid(cp2, 500, "monte_carlo", seed=13)
    P = perturbed_identity(cp2, magnitude=0.2, seed=0)
    with pytest.warns(UserWarning):
        second_variation(P, np.zeros_like, grid)


# ---------------------------------------------------------------------------
# Jacobi identity and the symmetry trace


def test_jacobi_identity_on_degree_two_curve():
    cp1 = complex_projective(1)
    grid = build_grid(cp1, 4, "mesh")
    F = make_rational_curve(veronese_curve())
    floor = 1e-3 * p_energy(F, grid, p=2.0).value
    for a in su_basis(2)[:2]:
        lhs, rhs = jacobi_identity_check(F, a, grid)
        assert abs(lhs - rhs) <= 0.05 * max(abs(lhs), abs(rhs), floor)


def test_jacobi_identity_trivial_cases():
    cp1 = complex_projective(1)
    grid = build_grid(cp1, 4, "mesh")
    lhs, rhs = jacobi_identity_check(identity_map(cp1), su_basis(2)[1], grid)
    assert abs(lhs) < 1e-6 and abs(rhs) < 1e-6
    lhs0, rhs0 = jacobi_identity_check(
        make_rational_curve(veronese_curve()), np.zeros((2, 2)), grid
    )
    assert abs(lhs0) < 1e-9 and rhs0 == 0.0


def test_symmetry_trace_vanishes():
    cp1 = complex_projective(1)
    grid = build_grid(cp1, 4, "mesh")
    basis = su_basis(2)
    for F in (identity_map(cp1), make_rational_curve(veronese_curve())):
        scale = p_energy(F, grid, p=2.0).value
        assert abs(index_trace_over_symmetries(F, grid, basis)) < 1e-3 * scale
    C = _constant_map(cp1, np.array([1.0, 0.0], dtype=complex))
    assert index_trace_over_symmetries(C, grid, basis) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# fundamental 2-form line integrals and rank


def test_fundamental_form_integral_equals_line_area():
    cp2 = complex_projective(2)
    grid = build_grid(complex_projective(1), 4, "mesh")
    line = reference_line(2)
    for F in (identity_map(cp2), make_projective_dilation(2, 2.0)):
        val = fundamental_form_line_integral(F, line, grid)
        assert val == pytest.approx(np.pi, rel=5e-3)
        area = surface_area(compose(F, line.embedding), grid)
        assert val == pytest.approx(area, rel=1e-9)
    C = _constant_map(cp2, np.array([1.0, 0.0, 0.0], dtype=complex))
    assert fundamental_form_line_integral(C, line, grid) == pytest.approx(0.0, abs=1e-12)


def test_fundamental_form_integral_warns_off_corpus():
    cp2 = complex_projective(2)
    grid = build_grid(complex_projective(1), 3, "mesh")
    P = perturbed_identity(cp2, magnitude=0.2, seed=0)
    with pytest.warns(UserWarning):
        fundamental_form_line_integral(P, reference_line(2), grid)


def test_rank_profile():
    cp2 = complex_projective(2)
    grid = build_grid(cp2, 500, "monte_carlo", seed=14)
    full = rank_profile(identity_map(cp2), grid)
    assert full[-1] == len(grid.nodes) and np.sum(full[:-1]) == 0
    t8 = rank_profile(make_projective_dilation(2, 8.0), grid)
    assert t8[-1] == len(grid.nodes)
    C = _constant_map(cp2, np.array([1.0, 0.0, 0.0], dtype=complex))
    flat = rank_profile(C, grid)
    assert flat[0] == len(grid.nodes) and np.sum(flat[1:]) == 0
