import re

import numpy as np
import pytest

from mapenergy.constructions import (
    conic_curve,
    conjugation_map,
    line_curve,
    make_projective_dilation,
    perturbed_identity,
    random_curve,
    standard_maps,
    veronese_curve,
)
from mapenergy import harmonic
from mapenergy.energy import croke_density, p_energy
from mapenergy.harmonic import (
    hermitian_residual,
    index_trace_over_symmetries,
    jacobi_identity_check,
    pluriharmonic_residual,
    second_fundamental_form,
    second_variation,
    symmetry_variation,
    tension,
)
from mapenergy.intgeo import sample_lines
from mapenergy.manifolds import (
    CutLocusError,
    GeometryError,
    complex_projective,
    real_inner,
    real_projective,
    sphere,
    su_basis,
)
from mapenergy.maps import (
    MapObject,
    build_grid,
    differential_columns,
    identity_map,
    normalized_linear_map,
    normalized_map,
    pullback_gram,
    tangent_frames,
)
from mapenergy.rand import make_rng

from fd_oracle import evaluator_map
from support import constant_map


# ---------------------------------------------------------------------------
# points of another space

# (functional, domain of the identity, space the points are drawn on)
FOREIGN_POINTS = {
    "hermitian-cp3-on-cp2": (hermitian_residual, complex_projective(3), complex_projective(2)),
    "tension-cp1-on-rp3": (tension, complex_projective(1), real_projective(3)),
    "croke-cp3-on-cp2": (croke_density, complex_projective(3), complex_projective(2)),
    "pluriharmonic-cp3-on-cp2": (pluriharmonic_residual, complex_projective(3), complex_projective(2)),
    "tension-s1-on-cp1": (tension, sphere(1), complex_projective(1)),
}


@pytest.mark.parametrize("case", FOREIGN_POINTS)
def test_pointwise_functionals_refuse_points_of_another_space(case):
    functional, M, other = FOREIGN_POINTS[case]
    calls = []

    def rule(x, v):
        calls.append(x.shape)
        return x, v

    F = MapObject(M, M, lambda x: calls.append(x.shape) or x, rule, "identity")
    x = other.random_point(make_rng(1), 4)
    with pytest.raises(GeometryError, match=(f"^{functional.__name__}: {x.dtype} points of shape \\(4, "
                                             f"{other.ambient_dim}\\) are not points of the domain "
                                             f"{re.escape(repr(M))} of map 'identity'$")):
        functional(F, x)
    assert calls == []


# ---------------------------------------------------------------------------
# second fundamental form


def test_second_form_symmetric_and_typed():
    cp1, cp2 = complex_projective(1), complex_projective(2)
    F = veronese_curve()
    x = cp1.random_point(make_rng(1), 20)
    fr = tangent_frames(cp1, x)
    v, w = fr[0], fr[1]
    a = second_fundamental_form(F, x, v, w)
    b = second_fundamental_form(F, x, w, v)
    np.testing.assert_allclose(a, b, atol=1e-12)
    assert a.shape == (20, 3)
    assert np.max(cp2.norm(a)) > 1e-3  # the curve is not totally geodesic


def test_inclusion_is_totally_geodesic():
    F = standard_maps("inclusion_cp", k=1, N=2)
    cp1 = complex_projective(1)
    x = cp1.random_point(make_rng(2), 100)
    fr = tangent_frames(cp1, x)
    worst = 0.0
    for i in range(2):
        for j in range(2):
            s = second_fundamental_form(F, x, fr[i], fr[j])
            worst = max(worst, float(np.max(F.codomain.norm(s))))
    assert worst < 1e-5


def test_double_cover_is_totally_geodesic():
    F = standard_maps("double_cover")
    s2 = sphere(2)
    x = s2.random_point(make_rng(3), 100)
    fr = tangent_frames(s2, x)
    worst = 0.0
    for i in range(2):
        s = second_fundamental_form(F, x, fr[i], fr[i])
        worst = max(worst, float(np.max(F.codomain.norm(s))))
    assert worst < 1e-5


def test_sampled_line_embeddings_are_totally_geodesic():
    cp1 = complex_projective(1)
    x = cp1.random_point(make_rng(4), 20)
    fr = tangent_frames(cp1, x)
    cp2 = complex_projective(2)
    for A in sample_lines(2, 5, seed=5)[0]:
        F = normalized_linear_map(cp1, cp2, A)
        for i in range(2):
            s = second_fundamental_form(F, x, fr[i], fr[i])
            assert float(np.max(F.codomain.norm(s))) < 1e-5


def test_second_form_cut_locus_raises():
    s2 = sphere(2)
    p = np.array([0.0, 0.0, 1.0])

    def ev(x):
        out = np.broadcast_to(p, x.shape).copy()
        flip = x[..., 0] < 0.0
        out[flip] = -p
        return out

    F = evaluator_map(s2, s2, ev, "two-level")
    x = s2.canonicalize(np.array([1e-5, 1.0, 0.0]))[None]
    v = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(CutLocusError):
        second_fundamental_form(F, x, v, v)


# ---------------------------------------------------------------------------
# tension


def test_tension_vanishes_for_identity_and_curves():
    cp2 = complex_projective(2)
    x = cp2.random_point(make_rng(6), 30)
    t = tension(identity_map(cp2), x)
    assert np.max(cp2.norm(t)) < 1e-6

    cp1 = complex_projective(1)
    z = cp1.random_point(make_rng(7), 50)
    for F in (line_curve(), conic_curve(), veronese_curve()):
        assert np.max(F.codomain.norm(tension(F, z))) < 1e-4


def test_tension_is_frame_independent(monkeypatch):
    cp1 = complex_projective(1)
    F = conic_curve()
    x = cp1.random_point(make_rng(8), 10)
    fr = tangent_frames(cp1, x)
    q = np.linalg.qr(make_rng(9).standard_normal((2, 2)))[0]
    mixed = np.einsum("ij,j...->i...", q, fr)
    t1 = tension(F, x)
    monkeypatch.setattr(harmonic, "tangent_frames", lambda M, y: mixed)
    t2 = tension(F, x)
    np.testing.assert_allclose(t1, t2, atol=1e-5)


# ---------------------------------------------------------------------------
# pluriharmonic / Hermitian residuals


def test_residuals_small_on_holomorphic_corpus():
    cp1 = complex_projective(1)
    z = cp1.random_point(make_rng(10), 30)
    for F in (conic_curve(), line_curve()):
        assert np.max(pluriharmonic_residual(F, z)) < 1e-3
        assert np.max(hermitian_residual(F, z)) < 1e-5
    cp2 = complex_projective(2)
    x = cp2.random_point(make_rng(11), 15)
    T4 = make_projective_dilation(2, 4.0)
    assert np.max(pluriharmonic_residual(T4, x)) < 1e-3
    assert np.max(hermitian_residual(conjugation_map(1), z)) < 1e-5


def _old_pluriharmonic_residual(F, x):
    """`pluriharmonic_residual` as a double loop over frame pairs, as it was
    before the pairs shared one batch axis."""
    M = F.domain
    fr = tangent_frames(M, x)
    best = np.zeros(x.shape[:-1])
    for i in range(M.dim):
        for j in range(i, M.dim):
            ei, ej = fr[i], fr[j]
            combo = (second_fundamental_form(F, x, 1j * ei, 1j * ej)
                     + second_fundamental_form(F, x, ei, ej))
            best = np.maximum(best, F.codomain.norm(combo))
    return best


_RESIDUAL_MAPS = {
    "conic": conic_curve,
    "cubic": lambda: random_curve(2, 3, seed=6),
    "perturbed-cp2": lambda: perturbed_identity(complex_projective(2), magnitude=0.2, seed=0),
    "conjugation-cp2": lambda: conjugation_map(2),
}


@pytest.mark.parametrize("key", ["conic", "cubic", "perturbed-cp2"])
def test_pluriharmonic_residual_matches_the_double_loop_bit_for_bit(key):
    F = _RESIDUAL_MAPS[key]()
    x = F.domain.random_point(make_rng(13), 25)
    for points in (x, x[7]):
        new = np.asarray(pluriharmonic_residual(F, points))
        old = np.asarray(_old_pluriharmonic_residual(F, points))
        assert new.shape == old.shape == points.shape[:-1]
        assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("key", sorted(_RESIDUAL_MAPS))
def test_hermitian_residual_reads_the_one_gram_formula(key):
    F = _RESIDUAL_MAPS[key]()
    M = F.domain
    x = M.random_point(make_rng(14), 25)
    fr = tangent_frames(M, x)
    G = pullback_gram(F, x, np.concatenate([fr, 1j * fr]))
    d = M.dim
    blocks = np.max(np.abs(G[..., d:, d:] - G[..., :d, :d]), axis=(-2, -1))
    residual = hermitian_residual(F, x)
    assert residual.tobytes() == blocks.tobytes()
    # the einsum Gram matrices the residual used to build
    c0 = differential_columns(F, x, fr)
    cJ = differential_columns(F, x, 1j * fr)
    g0 = np.einsum("i...a,j...a->...ij", c0.conj(), c0).real
    gj = np.einsum("i...a,j...a->...ij", cJ.conj(), cJ).real
    np.testing.assert_allclose(residual, np.max(np.abs(gj - g0), axis=(-2, -1)), rtol=0, atol=1e-14)


def _counting(F):
    """F with an evaluator that keeps a copy of every batch it is called on."""
    calls = []

    def ev(x):
        calls.append(np.array(x))
        return F(x)

    return MapObject(F.domain, F.codomain, ev, F.fused, F.name), calls


def test_tension_evaluates_the_base_point_once_per_richardson_pair():
    M = complex_projective(2)
    F, calls = _counting(make_projective_dilation(2, 2.0))
    x = M.random_point(make_rng(15), 6)
    tension(F, x)
    base = x[None]
    at_base = [c for c in calls if c.shape == base.shape and np.array_equal(c, base)]
    assert len(at_base) == 1
    # the base point, and the two probes at each of two steps on one leading axis
    assert len(calls) == 2
    assert calls[1].shape == (4, M.dim) + x.shape


def test_pluriharmonic_residual_calls_do_not_grow_with_the_dimension():
    counts = {}
    for F in (conic_curve(), perturbed_identity(complex_projective(2), 0.2),
              perturbed_identity(complex_projective(3), 0.2)):
        F, calls = _counting(F)
        pluriharmonic_residual(F, F.domain.random_point(make_rng(16), 4))
        counts[F.domain.dim] = len(calls)
    # two second fundamental forms, each one acceleration of two F calls
    assert counts == {2: 4, 4: 4, 6: 4}


def test_residuals_flag_non_pluriharmonic_maps():
    cp2 = complex_projective(2)
    x = cp2.random_point(make_rng(12), 20)
    P = perturbed_identity(cp2, magnitude=0.2, seed=0)
    assert np.max(pluriharmonic_residual(P, x)) > 1e-2
    assert np.max(hermitian_residual(P, x)) > 1e-3

    C = constant_map(cp2, np.array([1.0, 0.0, 0.0], dtype=complex))
    np.testing.assert_allclose(pluriharmonic_residual(C, x), 0.0, atol=1e-12)

    with pytest.raises(GeometryError):
        pluriharmonic_residual(identity_map(sphere(2)), np.array([0.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# second variation


def test_second_variation_neutral_along_symmetry_directions():
    # on CP^1 the flow of J K is conformal and the 2-energy of a surface map
    # is conformally invariant, so each second variation is zero up to rounding
    cp1 = complex_projective(1)
    grid = build_grid(cp1, 4, "mesh")
    for F in (identity_map(cp1), veronese_curve()):
        for a in su_basis(2):
            assert abs(second_variation(symmetry_variation(F, a), grid)) < 1e-9


@pytest.mark.parametrize("F", [veronese_curve(), conjugation_map(2)],
                         ids=["veronese-cp1", "conjugation-cp2"])
def test_the_symmetry_family_starts_along_the_pushforward_of_j_k(F):
    M, cod = F.domain, F.codomain
    x = M.random_point(make_rng(20), 30)
    y, t = F(x), 1e-5
    for a in su_basis(M.N + 1):
        family = symmetry_variation(F, a)
        ahead, _ = cod.log_masked(y, family(t)(x))
        behind, _ = cod.log_masked(y, family(-t)(x))
        want = differential_columns(F, x, (1j * M.killing_field(a, x))[None])[0]
        np.testing.assert_allclose((ahead - behind) / (2.0 * t), want, rtol=0, atol=1e-8)


def _boosts(M):
    """The conformal boosts of the unit sphere M along its last axis: rapidity
    s gives x -> P(x) / |P(x)| with the affine P(x) = a x + b, where
    a = diag(1, ..., 1, cosh s) and b = sinh s e_n; the first-order field
    at s = 0 is the conformal field e_n - x_n x."""
    n = M.ambient_dim

    def boost(s):
        a = np.ones(n)
        a[-1] = np.cosh(s)
        b = np.zeros(n)
        b[-1] = np.sinh(s)
        return normalized_map(M, M, lambda x: a * x + b, lambda x, v: a * v, f"boost-{s:g}")

    return boost


def test_second_variation_neutral_for_sphere_conformal_field():
    # the identity of the 2-sphere minimizes energy in its degree class,
    # so conformal directions are second-order neutral
    s2 = sphere(2)
    assert abs(second_variation(_boosts(s2), build_grid(s2, 4, "mesh"))) < 1e-6


def test_second_variation_negative_for_unstable_sphere_identity():
    # the conformal field of a first harmonic destabilizes the identity of
    # S^3; the closed-form value of the Hessian there is -3 pi^2 / 2
    s3 = sphere(3)
    grid = build_grid(s3, 30000, "monte_carlo", seed=11)
    sv = second_variation(_boosts(s3), grid)
    assert sv < 0.0
    assert sv == pytest.approx(-1.5 * np.pi**2, rel=0.02)


def test_second_variation_zero_field_and_evenness():
    cp1 = complex_projective(1)
    grid = build_grid(cp1, 4, "mesh")
    F = veronese_curve()

    # a constant family has the zero field
    assert abs(second_variation(lambda t: F, grid)) < 1e-9

    family = symmetry_variation(F, su_basis(2)[0])
    s1 = second_variation(family, grid)
    s2 = second_variation(lambda t: family(-t), grid)
    assert s1 == pytest.approx(s2, abs=1e-9)


def test_second_variation_warns_for_non_harmonic_map():
    cp2 = complex_projective(2)
    grid = build_grid(cp2, 500, "monte_carlo", seed=13)
    P = perturbed_identity(cp2, magnitude=0.2, seed=0)
    with pytest.warns(UserWarning):
        second_variation(lambda t: P, grid)


# ---------------------------------------------------------------------------
# Jacobi identity and the symmetry trace


def test_jacobi_identity_on_degree_two_curve():
    cp1 = complex_projective(1)
    grid = build_grid(cp1, 4, "mesh")
    F = veronese_curve()
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
        veronese_curve(), np.zeros((2, 2)), grid
    )
    assert abs(lhs0) < 1e-9 and rhs0 == 0.0


def _trace_form_one_vector_at_a_time(F, generator, grid):
    """The trace-form integral of `jacobi_identity_check` with a loop over
    the frame vectors, as it was computed before they shared one batch axis."""
    M, a, x = F.domain, np.asarray(generator, dtype=complex), grid.nodes
    w_vals = differential_columns(F, x, (1j * M.killing_field(a, x))[None])[0]
    fr = tangent_frames(M, x)
    total = np.zeros_like(w_vals)
    for i in range(M.dim):
        ei = fr[i]
        grad = 1j * M.killing_derivative(a, x, ei)
        total = total + second_fundamental_form(F, x, grad, ei)
    return float(np.sum(grid.weights * (-2.0 * real_inner(total, w_vals))))


@pytest.mark.parametrize("N", [1, 2], ids=["cp1", "cp2"])
def test_jacobi_check_puts_its_frame_vectors_on_one_batch_axis(monkeypatch, N):
    if N == 1:
        F, grid = veronese_curve(), build_grid(complex_projective(1), 3, "mesh")
    else:
        F, grid = conjugation_map(2), build_grid(complex_projective(2), 300, seed=5)
    a = su_basis(N + 1)[1]
    want = (second_variation(symmetry_variation(F, a), grid),
            _trace_form_one_vector_at_a_time(F, a, grid))
    original, calls = harmonic._acceleration, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(harmonic, "_acceleration", counted)
    assert jacobi_identity_check(F, a, grid) == want
    # one for the tension check, and one for both polarized directions of
    # the second fundamental form at every frame vector at once
    assert len(calls) == 2
    # the trace form in blocks of 100 nodes: the same numbers, one acceleration per block
    calls.clear()
    monkeypatch.setattr(harmonic, "TRACE_FORM_BLOCK", 100)
    assert jacobi_identity_check(F, a, grid) == want
    assert len(calls) == 1 + -(-len(grid) // 100)


def test_symmetry_trace_vanishes():
    cp1 = complex_projective(1)
    grid = build_grid(cp1, 4, "mesh")
    basis = su_basis(2)
    for F in (identity_map(cp1), veronese_curve()):
        scale = p_energy(F, grid, p=2.0).value
        assert abs(index_trace_over_symmetries(F, grid, basis)[0]) < 1e-3 * scale
    C = constant_map(cp1, np.array([1.0, 0.0], dtype=complex))
    assert index_trace_over_symmetries(C, grid, basis)[0] == pytest.approx(0.0, abs=1e-12)
