import warnings

import numpy as np
import pytest

from mapenergy.constructions import (
    conic_curve,
    conjugation_map,
    line_curve,
    make_capped_theta,
    make_projective_dilation,
    make_rational_curve,
    make_theta,
    perturbed_identity,
    random_curve,
    squeeze_limit,
    standard_maps,
    veronese_curve,
)
from mapenergy.constructions import _homogeneous_eval
from mapenergy.energy import p_energy, surface_area
from mapenergy.manifolds import (
    GeometryError,
    _norm,
    complex_projective,
    real_projective,
    sphere,
)
from mapenergy.maps import (
    _normalization,
    build_grid,
    differential_columns,
    homothety_map,
    identity_map,
    normalized_linear_map,
    pullback_gram,
    tangent_frames,
)
from mapenergy.rand import make_rng

from fd_oracle import fd_map
from support import constant_map


# ---------------------------------------------------------------------------
# rational curves


@pytest.mark.parametrize("coefficients, match", [
    ([[1.0, np.nan], [0.0, 1.0]], "must be finite"),
    ([[1.0, np.inf], [0.0, 1.0]], "must be finite"),
    ([[1.0, complex(0.0, np.nan)], [0.0, 1.0]], "must be finite"),
    ([1.0, 2.0, 3.0], "matrix"),
    (np.ones((1, 3)), "matrix"),
    (np.ones((3, 1)), "matrix"),
    (np.zeros((3, 3)), "all zero"),
    ([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "share a zero"),
    (np.ones((2, 2)), "share a zero"),
], ids=["nan", "inf", "complex-nan", "1-d", "1xk", "kx1", "all-zero", "shared-zero",
        "shared-zero-line"])
def test_make_rational_curve_rejects_bad_coefficients(coefficients, match):
    # rejected where the matrix enters, with no warning from np.roots
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match=f"curve (coefficients|polynomials) .*{match}"):
            make_rational_curve(coefficients)


def _old_homogeneous_derivative(c, z, v):
    """The hand-written monomial table of the curve derivative that the
    shifted coefficient tuples replaced."""
    d = c.shape[1] - 1
    a, b = z[..., 0], z[..., 1]
    va, vb = v[..., 0], v[..., 1]
    zero = np.zeros_like(a)
    mono_a = np.stack(
        [(d - k) * a ** (d - k - 1) * b**k if k < d else zero for k in range(d + 1)],
        axis=-1,
    )
    mono_b = np.stack(
        [k * a ** (d - k) * b ** (k - 1) if k > 0 else zero for k in range(d + 1)],
        axis=-1,
    )
    return np.einsum("nk,...k->...n", c, mono_a * va[..., None] + mono_b * vb[..., None])


def _old_curve_closures(c):
    """The evaluator and differential `make_rational_curve` built before
    normalized maps shared one builder."""
    cod = complex_projective(c.shape[0] - 1)

    def ev(z):
        y = _homogeneous_eval(c, z)
        n = np.linalg.norm(y, axis=-1, keepdims=True)
        return cod.canonicalize(y / n)

    def diff(z, v):
        y = _homogeneous_eval(c, z)
        n = np.linalg.norm(y, axis=-1, keepdims=True)
        yh = y / n
        dy = _old_homogeneous_derivative(c, z, v)
        w = cod.project_tangent(yh, dy / n)
        _, f = cod.canonicalize_with_factor(yh)
        return f[..., None] * w

    return ev, diff


_LINE3 = np.eye(4, 2, dtype=complex)
_CONIC = np.array([[1.0, 0.0, -1.0], [1j, 0.0, 1j], [0.0, 2.0, 0.0]], dtype=complex)
_VERONESE = np.diag([1.0, np.sqrt(2.0), 1.0]).astype(complex)


@pytest.mark.parametrize("build, c", [
    (lambda: line_curve(3), _LINE3),
    (conic_curve, _CONIC),
    (veronese_curve, _VERONESE),
    (lambda: random_curve(2, 3, seed=4), complex_projective(2).gaussian(make_rng(4), (3, 4))),
    (lambda: random_curve(4, 5, seed=9), complex_projective(4).gaussian(make_rng(9), (5, 6))),
], ids=["line", "conic", "veronese", "cubic", "quintic"])
def test_rational_curve_matches_its_old_closures(build, c):
    # each builder is the curve of its matrix, values and differentials bit
    # for bit; the values equal the old closure's bit for bit, and the
    # differentials, now from the shifted coefficient tuples, the old
    # monomial table's to rounding
    cp1 = complex_projective(1)
    z = cp1.random_point(make_rng(31), 64)
    fr = tangent_frames(cp1, z)
    F, G = build(), make_rational_curve(c)
    assert [(M.kind, M.N) for M in (F.domain, F.codomain)] == \
        [("complex_projective", 1), ("complex_projective", c.shape[0] - 1)]
    assert F.name == f"curve-deg{c.shape[1] - 1}"
    assert F(z).tobytes() == G(z).tobytes()
    assert differential_columns(F, z, fr).tobytes() == differential_columns(G, z, fr).tobytes()
    ev, diff = _old_curve_closures(c)
    assert F(z).tobytes() == ev(z).tobytes()
    base = z[..., None, :]
    for x, v in ((base, fr), (z, fr[..., 0, :])):
        new, old = F.differential(x, v), diff(x, v)
        assert new.shape == old.shape
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-14 * np.max(np.abs(old)))


@pytest.mark.parametrize("build", [
    lambda: standard_maps("inclusion_cp", k=1.9, N=2.2),
    lambda: standard_maps("inclusion_cp", k=1, N=2.0),
    lambda: standard_maps("inclusion_rp", k=True, n=3),
    lambda: standard_maps("inclusion_rp", k=0, n=3),
    lambda: standard_maps("conjugation", N=2.7),
    lambda: standard_maps("conjugation", N=0),
    lambda: standard_maps("homothety", kappa=2.0, n=2.5),
    lambda: standard_maps("homothety", kappa="2", n=2),
    lambda: make_projective_dilation(2.5, 2.0),
    lambda: make_projective_dilation(0, 2.0),
    lambda: make_projective_dilation(True, 2.0),
    lambda: random_curve(2, True),
    lambda: make_rational_curve(np.eye(3, 1)),
    lambda: random_curve(2, 2.5),
    lambda: random_curve(2.0, 1),
    lambda: random_curve(2, 1.0),
    lambda: random_curve(2, 0),
    lambda: random_curve(True, 2),
    lambda: line_curve(2.0),
], ids=["inclusion-cp-floats", "inclusion-cp-float-N", "inclusion-rp-bool-k",
        "inclusion-rp-k0", "conjugation-float", "conjugation-0", "homothety-float-n",
        "homothety-str-kappa", "dilation-float-N", "dilation-N0", "dilation-bool-N",
        "curve-bool-degree", "curve-degree-0", "curve-float-degree", "curve-float-N",
        "random-curve-float-degree", "random-curve-degree-0", "random-curve-bool-N",
        "line-float-N"])
def test_dimension_and_degree_arguments_must_be_integers_at_least_one(build):
    with pytest.raises(GeometryError):
        build()


def test_curve_energies_match_degree_times_pi():
    grid = build_grid(complex_projective(1), 4, "mesh")
    for F, d in (
        (line_curve(), 1),
        (conic_curve(), 2),
        (veronese_curve(), 2),
        (random_curve(2, 3, seed=4), 3),
    ):
        E = p_energy(F, grid, p=2.0).value
        A = surface_area(F, grid)
        assert E == pytest.approx(d * np.pi, rel=5e-3)
        # conformality: energy equals area for holomorphic curves
        assert E == pytest.approx(A, rel=5e-3)


def test_curve_differential_matches_finite_differences():
    F = random_curve(2, 3, seed=4)
    cp1 = complex_projective(1)
    z = cp1.random_point(make_rng(8), 25)
    fr = tangent_frames(cp1, z)
    exact = differential_columns(F, z, fr)
    approx = differential_columns(fd_map(F), z, fr)
    np.testing.assert_allclose(exact, approx, atol=1e-6)


def test_holomorphy_witness():
    # dF(iv) = i dF(v) for curves and dilations
    rng = make_rng(9)
    F = conic_curve()
    cp1 = complex_projective(1)
    z = cp1.random_point(rng, 20)
    v = cp1.random_unit_tangent(rng, z)
    res = F.differential(z, 1j * v) - 1j * F.differential(z, v)
    assert np.max(np.linalg.norm(res, axis=-1)) < 1e-6

    M = complex_projective(2)
    T = make_projective_dilation(2, 4.0)
    z2 = M.random_point(rng, 20)
    v2 = M.random_unit_tangent(rng, z2)
    res2 = T.differential(z2, 1j * v2) - 1j * T.differential(z2, v2)
    assert np.max(np.linalg.norm(res2, axis=-1)) < 1e-6


# ---------------------------------------------------------------------------
# projective dilations


def test_dilation_parameter_one_is_identity():
    M = complex_projective(2)
    T = make_projective_dilation(2, 1.0)
    z = M.random_point(make_rng(10), 200)
    assert np.max(np.linalg.norm(T(z) - z, axis=-1)) < 1e-12


def test_dilation_rejects_nonpositive_parameter():
    with pytest.raises(GeometryError):
        make_projective_dilation(2, 0.0)
    with pytest.raises(GeometryError):
        make_projective_dilation(2, -2.0)


@pytest.mark.parametrize("build", [
    lambda: make_theta(float("nan")),
    lambda: make_theta(float("inf")),
    lambda: make_theta(True),
    lambda: make_capped_theta(float("nan")),
    lambda: make_projective_dilation(2, float("nan")),
    lambda: make_projective_dilation(2, float("inf")),
    lambda: perturbed_identity(sphere(2), magnitude=float("nan")),
    lambda: perturbed_identity(sphere(2), magnitude=float("inf")),
], ids=["theta-nan", "theta-inf", "theta-bool", "capped-theta-nan", "dilation-nan",
        "dilation-inf", "perturbed-nan", "perturbed-inf"])
def test_constructors_reject_non_finite_parameters(build):
    with pytest.raises(GeometryError):
        build()


def test_dilation_energy_is_constant_pi_squared():
    # degree-1 holomorphic maps all carry the identity energy
    M = complex_projective(2)
    grid = build_grid(M, 200000, "monte_carlo", seed=12)
    for lam in (1.0, 2.0, 4.0, 8.0):
        E = p_energy(make_projective_dilation(2, lam), grid, p=2.0)
        assert E.value == pytest.approx(np.pi**2, rel=0.01)


def test_dilation_multiplies_as_its_diagonal_matrix_bit_for_bit():
    # the elementwise scale is the dense diagonal map, values and differentials,
    # signed zeros too: random points and points with zero coordinates
    M = complex_projective(2)
    axes = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [complex(1, -0.0), -0.0, 0], [0.6, -0.8j, 0]])
    x = np.concatenate([M.random_point(make_rng(31), 2000), M.canonicalize(axes)])
    fr = tangent_frames(M, x)
    for lam in (0.25, 1.0, 4.0, 16.0):
        scale = np.array([lam, lam, 1.0], dtype=complex)
        T = make_projective_dilation(2, lam)
        dense = normalized_linear_map(M, M, np.diag(scale))
        assert T(x).tobytes() == dense(x).tobytes()
        assert differential_columns(T, x, fr).tobytes() == differential_columns(dense, x, fr).tobytes()


def test_dilation_fixes_reference_line_pointwise():
    M = complex_projective(2)
    line = standard_maps("inclusion_cp", k=1, N=2)
    cp1 = complex_projective(1)
    z = cp1.random_point(make_rng(13), 100)
    pts = line(z)
    T = make_projective_dilation(2, 8.0)
    assert np.max(np.linalg.norm(T(pts) - pts, axis=-1)) < 1e-12


LAMBDAS = (1.0, 2.0, 4.0, 8.0, 16.0)


def test_squeeze_limit_identity():
    M = complex_projective(2)
    grid = build_grid(M, 20000, "monte_carlo", seed=14)
    energies, restricted = squeeze_limit(identity_map(M), grid, LAMBDAS)
    assert restricted == pytest.approx(np.pi, rel=1e-9)
    np.testing.assert_allclose([ev.value for ev in energies], np.pi**2, rtol=0.01)
    assert all(ev.stderr > 0 for ev in energies)


def test_squeeze_limit_constant_map():
    M = complex_projective(2)
    F = constant_map(M, [1.0, 0.0, 0.0])
    grid = build_grid(M, 2000, "monte_carlo", seed=15)
    energies, restricted = squeeze_limit(F, grid, LAMBDAS)
    np.testing.assert_allclose([ev.value for ev in energies], 0.0, atol=1e-12)
    assert restricted == pytest.approx(0.0, abs=1e-12)


def test_squeeze_limit_perturbed_identity():
    M = complex_projective(2)
    F = perturbed_identity(M, magnitude=0.2, flavor="squeeze", seed=2)
    grid = build_grid(M, 100000, "monte_carlo", seed=16)
    energies, restricted = squeeze_limit(F, grid, LAMBDAS)
    target = np.pi * restricted
    assert abs(energies[-1].value - target) < 0.02 * target


# ---------------------------------------------------------------------------
# conformal dilations of the 3-sphere


def test_theta_parameter_one_is_identity():
    S3 = sphere(3)
    x = S3.random_point(make_rng(17), 200)
    F = make_theta(1.0)
    assert np.max(np.linalg.norm(F(x) - x, axis=-1)) < 1e-12
    with pytest.raises(GeometryError):
        make_theta(0.5)


def test_theta_energy_decreasing_and_matches_quadrature():
    S3 = sphere(3)
    grid = build_grid(S3, 30000, "monte_carlo", seed=18)
    vals = []
    for t in (1.0, 2.0, 4.0, 8.0):
        E = p_energy(make_theta(t), grid, p=2.0)
        vals.append(E)
    assert vals[0].value == pytest.approx(3.0 * np.pi**2, rel=5e-3)
    seq = [v.value for v in vals]
    assert seq[0] > seq[1] > seq[2] > seq[3]
    # each entry sits within 3 sigma of the conformal-factor integral
    for t, E in zip((1.0, 2.0, 4.0, 8.0), vals):
        direct = 12.0 * np.pi**2 * t / (t + 1.0) ** 2
        assert abs(E.value - direct) <= max(3.0 * E.stderr, 1e-9)


def test_theta_is_conformal():
    S3 = sphere(3)
    x = S3.random_point(make_rng(19), 30)
    F = make_theta(4.0)
    G = pullback_gram(F, x, tangent_frames(S3, x))
    ev = np.linalg.eigvalsh(G)
    assert np.max(ev[..., -1] - ev[..., 0]) < 1e-6


def _assert_matches_reference(F, x, ev, diff, rtol=1e-14):
    """F's values and differential columns at the points x agree with the
    hand-written rules ev(x) and diff(x, v) to 1e-14 (values are unit
    vectors) and to `rtol` relative to each node's largest column entry."""
    fr = tangent_frames(F.domain, x)
    cols = differential_columns(F, x, fr)
    np.testing.assert_allclose(F(x), ev(x), rtol=0, atol=1e-14)
    want = diff(x[:, None, :], fr)
    scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
    assert np.max(np.abs(cols - want) / scale) < rtol


# the conformal dilation as it was written out before it became a normalized map:
# P(x) / D(x) with the conformal denominator D, and the quotient rule for its derivative


def _old_theta_eval(t, x):
    xp, xw = x[..., :3], x[..., 3:]
    D = (1.0 + t * t) + (1.0 - t * t) * xw
    return np.concatenate([2.0 * t * xp, (1.0 + xw) - t * t * (1.0 - xw)], axis=-1) / D


def _old_theta_diff(t, x, v):
    xp, xw = x[..., :3], x[..., 3:]
    vp, vw = v[..., :3], v[..., 3:]
    D = (1.0 + t * t) + (1.0 - t * t) * xw
    dD = (1.0 - t * t) * vw
    num_w = (1.0 + xw) - t * t * (1.0 - xw)
    dnum_w = (1.0 + t * t) * vw
    dy_p = 2.0 * t * vp / D - 2.0 * t * xp * dD / D**2
    dy_w = dnum_w / D - num_w * dD / D**2
    return np.concatenate([dy_p, dy_w], axis=-1)


@pytest.mark.parametrize("t", [1.0, 2.0, 4.0, 8.0, 16.0])
def test_theta_matches_its_hand_written_rules(t):
    S3 = sphere(3)
    x = S3.random_point(make_rng(24), 500)
    _assert_matches_reference(
        make_theta(t), x, lambda x: _old_theta_eval(t, x),
        lambda x, v: S3.project_tangent(_old_theta_eval(t, x), _old_theta_diff(t, x, v)))


# ---------------------------------------------------------------------------
# capped dilations of projective 3-space


def test_capped_theta_parameter_one_is_identity():
    M = real_projective(3)
    x = M.random_point(make_rng(20), 300)
    F = make_capped_theta(1.0)
    assert np.max(np.linalg.norm(F(x) - x, axis=-1)) < 1e-12


def test_capped_theta_seam_continuity():
    t = 4.0
    M = real_projective(3)
    F = make_capped_theta(t)
    c = (t * t - 1.0) / (t * t + 1.0)
    g = make_rng(21).standard_normal((1000, 3))
    g /= np.linalg.norm(g, axis=-1, keepdims=True)

    def ring(level):
        s = np.sqrt(1.0 - level**2)
        col = np.full((len(g), 1), level)
        return M.canonicalize(np.concatenate([s * g, col], axis=-1))

    eps = 1e-9
    for above, below in ((c + eps, c - eps), (eps, eps / 2.0)):
        ya, yb = F(ring(above)), F(ring(below))
        align = np.sign(np.sum(ya * yb, axis=-1, keepdims=True))
        assert np.max(np.linalg.norm(ya - align * yb, axis=-1)) < 1e-8


def test_capped_theta_differential_matches_finite_differences():
    M = real_projective(3)
    t = 4.0
    F = make_capped_theta(t)
    c = (t * t - 1.0) / (t * t + 1.0)
    x = M.random_point(make_rng(22), 60)
    # stay away from the two seams where the map is only Lipschitz
    keep = (np.abs(np.abs(x[..., 3]) - c) > 1e-2) & (np.abs(x[..., 3]) > 1e-2)
    x = x[keep]
    fr = tangent_frames(M, x)
    exact = differential_columns(F, x, fr)
    approx = differential_columns(fd_map(F), x, fr)
    np.testing.assert_allclose(exact, approx, atol=1e-6)


def test_capped_theta_collar_is_the_normalized_pushforward():
    t = 4.0
    M = real_projective(3)
    F = make_capped_theta(t)
    c = (t * t - 1.0) / (t * t + 1.0)
    x = M.random_point(make_rng(23), 400)
    x = x[np.abs(x[..., 3]) < c - 1e-3]
    fr = tangent_frames(M, x)
    cols = F.differential(x[:, None, :], fr)
    # the collar projects the representative with x_3 >= 0 radially onto x_3 = 0
    s = np.where(x[:, None, 3:] >= 0.0, 1.0, -1.0)
    xr, vr = s * x[:, None, :], s * fr
    xr[..., 3], vr[..., 3] = 0.0, 0.0
    assert np.array_equal(cols, _normalization(M, xr, "collar")[1](vr))
    # the hand-written rule it replaced, (v - <x^, v> x^) / |x| with x^ = x / |x|, to rounding
    n = np.linalg.norm(xr, axis=-1, keepdims=True)
    _, f = M.canonicalize_with_factor(xr / n)
    old = f[..., None] * (vr - np.sum(xr / n * vr, axis=-1, keepdims=True) * xr / n) / n
    np.testing.assert_allclose(cols, old, rtol=0, atol=1e-14)


def test_capped_theta_differential_is_finite_without_warnings_at_the_poles():
    t = 4.0
    M = real_projective(3)
    # the pole of the cap, and a point whose |x_p|^2 underflows to 0
    x = M.canonicalize(np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0], [1e-200, 0.0, 0.0, 1.0]]))
    fr = tangent_frames(M, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cols = make_capped_theta(t).differential(x[:, None, :], fr)
    # the dilation stretches the pole's tangent space by t
    np.testing.assert_allclose(cols, t * fr, rtol=0, atol=1e-12)


def _old_capped_rules(t):
    """The capped dilation's evaluator and differential as they were written
    out by hand: the cap through the conformal rules above, the collar as
    (x_p, 0) / |x_p| with the derivative (v - <y, v> y) / |x_p| at y."""
    M = real_projective(3)
    c = (t * t - 1.0) / (t * t + 1.0)

    def rep(x):
        s = np.where(x[..., 3:] >= 0.0, 1.0, -1.0)
        return s * x, s, s * x[..., 3:] > c

    def collar(u, n):
        return np.concatenate([u[..., :3], np.zeros_like(u[..., 3:])], axis=-1) / n

    def ev(x):
        xr, _, cap = rep(x)
        n = np.linalg.norm(xr[..., :3], axis=-1, keepdims=True)
        return M.canonicalize(np.where(cap, _old_theta_eval(t, xr), collar(xr, n)))

    def diff(x, v):
        xr, s, cap = rep(x)
        vr = s * v
        _, f = M.canonicalize_with_factor(_old_theta_eval(t, xr))
        n = np.linalg.norm(xr[..., :3], axis=-1, keepdims=True)
        y, dy = collar(xr, n), collar(vr, n)
        _, g = M.canonicalize_with_factor(y)
        w_collar = g[..., None] * (dy - np.sum(y * dy, axis=-1, keepdims=True) * y)
        return np.where(cap, f[..., None] * _old_theta_diff(t, xr, vr), w_collar)

    return ev, diff


@pytest.mark.parametrize("t", [1.0, 2.0, 4.0, 8.0, 16.0])
def test_capped_theta_matches_its_hand_written_rules(t):
    M = real_projective(3)
    c = (t * t - 1.0) / (t * t + 1.0)
    # x_w uniform in (-1, 1), so that even the thin cap of t = 16 holds points
    rng = make_rng(25)
    w = rng.uniform(-1.0, 1.0, (2000, 1))
    g = rng.standard_normal((2000, 3))
    x = M.canonicalize(np.concatenate(
        [np.sqrt(1.0 - w * w) * g / np.linalg.norm(g, axis=-1, keepdims=True), w], axis=-1))
    if t > 1.0:
        # both pieces hold points; at t = 1 the collar is the equator plane
        assert 5 <= np.count_nonzero(np.abs(x[:, 3]) > c) < len(x) - 5
    # near the pole P_w = (1 - t^2) + (1 + t^2) x_w cancels, so either rule's
    # columns carry a relative rounding error of order t^2 eps there: at
    # t = 16 the two differ by up to 1.8e-14 on these points, and at the
    # nodes where they differ most each is within 1e-14 of a 40-digit evaluation
    rtol = 1e-14 * max(1.0, (t / 8.0) ** 2)
    _assert_matches_reference(make_capped_theta(t), x, *_old_capped_rules(t), rtol=rtol)


def test_capped_theta_energy_extrapolates_to_plane_energy():
    M = real_projective(3)
    grid = build_grid(M, 30000, "monte_carlo", seed=23)
    vals = {t: p_energy(make_capped_theta(t), grid, p=2.0).value for t in (8.0, 16.0)}
    richardson = 2.0 * vals[16.0] - vals[8.0]
    assert richardson == pytest.approx(2.0 * np.pi**2, rel=0.02)


# ---------------------------------------------------------------------------
# standard catalog


def test_inclusion_cp_is_isometric():
    F = standard_maps("inclusion_cp", k=1, N=2)
    grid = build_grid(complex_projective(1), 4, "mesh")
    assert p_energy(F, grid, p=2.0).value == pytest.approx(np.pi, rel=1e-9)
    cp1 = complex_projective(1)
    z = cp1.random_point(make_rng(24), 15)
    G = pullback_gram(F, z, tangent_frames(cp1, z))
    np.testing.assert_allclose(G, np.broadcast_to(np.eye(2), G.shape), atol=1e-10)


def test_inclusion_rp_is_isometric():
    F = standard_maps("inclusion_rp", k=2, n=3)
    grid = build_grid(real_projective(2), 4, "mesh")
    assert p_energy(F, grid, p=2.0).value == pytest.approx(2.0 * np.pi, rel=1e-9)


def test_double_cover_energy_and_area():
    F = standard_maps("double_cover")
    grid = build_grid(sphere(2), 4, "mesh")
    E = p_energy(F, grid, p=2.0).value
    A = surface_area(F, grid)
    assert E == pytest.approx(4.0 * np.pi, rel=1e-9)
    assert A == pytest.approx(4.0 * np.pi, rel=1e-9)


def test_homothety_catalog():
    F = standard_maps("homothety", n=2, kappa=2.0)
    grid = build_grid(sphere(2), 4, "mesh")
    assert p_energy(F, grid, p=2.0).value == pytest.approx(16.0 * np.pi, rel=1e-9)


def test_conjugation_is_isometric():
    M = complex_projective(2)
    F = conjugation_map(2)
    z = M.random_point(make_rng(25), 15)
    G = pullback_gram(F, z, tangent_frames(M, z))
    np.testing.assert_allclose(G, np.broadcast_to(np.eye(4), G.shape), atol=1e-10)
    # antiholomorphic: dF(iv) = -i dF(v)
    v = M.random_unit_tangent(make_rng(26), z)
    res = F.differential(z, 1j * v) + 1j * F.differential(z, v)
    assert np.max(np.linalg.norm(res, axis=-1)) < 1e-12


def test_catalog_rejects_unknown_keys():
    for key in ("moebius", "product_lift"):
        with pytest.raises(GeometryError, match="unknown catalog key"):
            standard_maps(key)
    with pytest.raises(GeometryError):
        standard_maps("inclusion_rp", k=3, n=3)


@pytest.mark.parametrize("N", [1, 2])
def test_conjugation_matches_its_hand_written_rules(N):
    M = complex_projective(N)

    def ev(z):
        return M.canonicalize(np.conj(z))

    def diff(z, v):
        _, f = M.canonicalize_with_factor(np.conj(z))
        return f[..., None] * np.conj(v)

    _assert_matches_reference(conjugation_map(N), M.random_point(make_rng(26), 500), ev, diff)


@pytest.mark.parametrize("dom,cod", [
    (sphere(2), sphere(2, 1.7)),
    (sphere(2, 2.0), sphere(2)),
    (real_projective(3), real_projective(3, 2.0)),
    (complex_projective(2), complex_projective(2)),
], ids=["s2-up", "s2-down", "rp3", "cp2"])
def test_homothety_matches_its_hand_written_rules(dom, cod):
    scale = cod.radius / dom.radius

    def diff(x, v):
        _, f = cod.canonicalize_with_factor(x)
        return scale * f[..., None] * v

    _assert_matches_reference(homothety_map(dom, cod), dom.random_point(make_rng(27), 500),
                              cod.canonicalize, diff)


# ---------------------------------------------------------------------------
# perturbed identities


def test_perturbed_identity_is_deterministic_and_small():
    M = complex_projective(2)
    F = perturbed_identity(M, magnitude=0.2, seed=3)
    G = perturbed_identity(M, magnitude=0.2, seed=3)
    z = M.random_point(make_rng(27), 50)
    np.testing.assert_array_equal(F(z), G(z))
    assert np.max(M.distance(F(z), z)) <= 0.2 + 1e-12


def test_squeeze_flavor_fixes_reference_line():
    M = complex_projective(2)
    F = perturbed_identity(M, magnitude=0.3, flavor="squeeze", seed=4)
    cp1 = complex_projective(1)
    pts = standard_maps("inclusion_cp", k=1, N=2)(cp1.random_point(make_rng(28), 40))
    assert np.max(np.linalg.norm(F(pts) - pts, axis=-1)) < 1e-12


def _perturbation_field(M, flavor, seed):
    """The tangent field V of `perturbed_identity`, written out: P_x(S x)
    for a seeded S of unit spectral norm, times |x_N|^2 for the squeeze."""
    amb = M.ambient_dim
    rng = make_rng(seed)
    S = rng.standard_normal((amb, amb))
    if M.dtype == np.complex128:
        S = S + 1j * rng.standard_normal((amb, amb))
    S = (S / np.linalg.norm(S, 2)).astype(M.dtype)

    def field(x):
        v = M.project_tangent(x, np.einsum("ij,...j->...i", S, x))
        if flavor == "squeeze":
            v = v * (np.abs(x[..., -1]) ** 2)[..., None]
        return v

    return field


def _old_exponential_push(M, magnitude, flavor, seed):
    """The evaluator `perturbed_identity` had before it became a normalized
    map: the exponential push x -> exp_x(m V(x))."""
    field = _perturbation_field(M, flavor, seed)
    return lambda x: M.exp(x, magnitude * field(x))


@pytest.mark.parametrize("M", [complex_projective(2), real_projective(3), sphere(2, 2.0)],
                         ids=repr)
@pytest.mark.parametrize("flavor", ["generic", "squeeze"])
def test_perturbed_identity_is_the_normalized_retraction_bit_for_bit(M, flavor):
    F = perturbed_identity(M, magnitude=0.3, flavor=flavor, seed=5)
    field = _perturbation_field(M, flavor, 5)
    x = M.random_point(make_rng(32), 64)
    x[0] = M.canonicalize(np.eye(M.ambient_dim, dtype=M.dtype)[0])  # a zero of the squeeze field
    y = x + 0.3 * field(x)
    assert F(x).tobytes() == M.canonicalize(y / _norm(y)[..., None]).tobytes()


@pytest.mark.parametrize("M", [complex_projective(2), real_projective(3), sphere(2)], ids=repr)
@pytest.mark.parametrize("flavor", ["generic", "squeeze"])
def test_perturbed_identity_leaves_the_exponential_push_at_third_order(M, flavor):
    # both pushes move x along the same geodesic, by arctan(m |V|) and by m |V|
    x = M.random_point(make_rng(33), 200)
    gaps = [np.max(M.distance(perturbed_identity(M, m, flavor, seed=5)(x),
                              _old_exponential_push(M, m, flavor, 5)(x)))
            for m in (0.1, 0.05, 0.025)]
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert np.all((ratios > 7.5) & (ratios < 8.5)), ratios


def test_perturbed_identity_unknown_flavor():
    with pytest.raises(GeometryError):
        perturbed_identity(complex_projective(2), flavor="swirl")
