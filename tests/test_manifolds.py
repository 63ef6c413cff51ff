import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mapenergy import make_rng
from mapenergy.constructions import perturbed_identity, random_curve
from mapenergy.intgeo import sample_rp2_planes
from mapenergy.manifolds import (
    CUT_GUARD,
    GeometryError,
    _norm,
    _sum_last,
    complex_projective,
    real_projective,
    sphere,
    sphere_volume,
    su_basis,
)
from mapenergy.rand import spawn

MODELS = [
    sphere(2),
    sphere(3),
    sphere(2, 0.5),
    real_projective(2),
    real_projective(3),
    complex_projective(1),
    complex_projective(2),
]


def test_sphere_volumes():
    np.testing.assert_allclose(sphere_volume(1), 2 * math.pi, rtol=1e-14)
    np.testing.assert_allclose(sphere_volume(2), 4 * math.pi, rtol=1e-14)
    np.testing.assert_allclose(sphere_volume(3), 2 * math.pi**2, rtol=1e-14)
    np.testing.assert_allclose(sphere_volume(4), 8 * math.pi**2 / 3, rtol=1e-14)
    np.testing.assert_allclose(sphere_volume(2, 2.0), 16 * math.pi, rtol=1e-14)


def test_model_volumes():
    np.testing.assert_allclose(real_projective(2).volume, 2 * math.pi, rtol=1e-14)
    np.testing.assert_allclose(real_projective(3).volume, math.pi**2, rtol=1e-14)
    np.testing.assert_allclose(complex_projective(1).volume, math.pi, rtol=1e-14)
    np.testing.assert_allclose(complex_projective(2).volume, math.pi**2 / 2, rtol=1e-14)
    np.testing.assert_allclose(complex_projective(3).volume, math.pi**3 / 6, rtol=1e-14)


def test_distance_reference_points():
    s2 = sphere(2)
    e = np.eye(3)
    np.testing.assert_allclose(s2.distance(e[0], -e[0]), math.pi, atol=1e-15)
    np.testing.assert_allclose(s2.distance(e[0], e[1]), math.pi / 2, atol=1e-15)

    rp = real_projective(3)
    x = rp.random_point(make_rng(5))
    np.testing.assert_allclose(rp.distance(x, rp.canonicalize(-x)), 0.0, atol=1e-15)

    cp = complex_projective(2)
    z = np.array([1.0, 0, 0], dtype=complex)
    w = np.array([0, 1.0, 0], dtype=complex)
    np.testing.assert_allclose(cp.distance(z, w), math.pi / 2, atol=1e-15)
    # phase changes of the representative do not move the point
    np.testing.assert_allclose(cp.distance(z, np.exp(0.7j) * z), 0.0, atol=1e-12)


def test_tiny_sphere_distances_keep_full_relative_precision():
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([0.0, 1.66e-8, 1.0])
    np.testing.assert_allclose(sphere(2, 1.7).distance(x, y), 1.7 * 1.66e-8, rtol=1e-12)
    np.testing.assert_allclose(real_projective(2, 1.7).distance(x, -y), 1.7 * 1.66e-8, rtol=1e-12)


def test_tiny_cp_distances_keep_full_relative_precision():
    cp = complex_projective(2)
    z = np.array([1.0, 0.0, 0.0], dtype=complex)
    w = np.array([np.cos(3e-9), 1j * np.sin(3e-9), 0.0])
    np.testing.assert_allclose(cp.distance(z, w), 3e-9, rtol=1e-12)


@pytest.mark.parametrize("M", MODELS, ids=repr)
def test_unit_norm_and_canonical_form(M):
    rng = make_rng(11)
    x = M.random_point(rng, 200)
    np.testing.assert_allclose(np.linalg.norm(x, axis=-1), 1.0, atol=1e-12)
    xc = M.canonicalize(x)
    np.testing.assert_allclose(xc, M.canonicalize(xc), atol=1e-15)
    if M.kind == "real_projective":
        piv = xc[np.arange(len(xc)), np.argmax(np.abs(xc) > 1e-8, axis=-1)]
        assert np.all(piv > 0)
    if M.kind == "complex_projective":
        piv = xc[np.arange(len(xc)), np.argmax(np.abs(xc) > 1e-8, axis=-1)]
        assert np.all(piv.real > 0)
        np.testing.assert_allclose(piv.imag, 0.0, atol=1e-12)


@pytest.mark.parametrize("M", MODELS, ids=repr)
def test_exp_log_round_trip(M):
    rng = make_rng(23)
    K = 1000
    x = M.random_point(rng, K)
    v = M.random_unit_tangent(rng, x)
    lengths = rng.uniform(1e-3, 0.99 * (M.cut_distance - 1e-5), K)
    w = lengths[:, None] * v
    y = M.exp(x, w)
    np.testing.assert_allclose(np.linalg.norm(y, axis=-1), 1.0, atol=1e-10)
    back, ok = M.log_masked(x, y)
    assert np.all(ok)
    np.testing.assert_allclose(back, w, atol=1e-9)
    np.testing.assert_allclose(M.distance(x, y), lengths, atol=1e-9)


def _aligned_chord(z, y):
    """Ambient distance after the optimal unit-scalar alignment of representatives."""
    h = np.sum(z.conj() * y, axis=-1)
    a = np.abs(h)
    phase = np.where(a > 1e-300, h / np.where(a > 1e-300, a, 1.0), 1.0)
    return np.linalg.norm(phase[..., None].conj() * y - z, axis=-1)


@pytest.mark.parametrize("M", MODELS, ids=repr)
def test_log_then_exp(M):
    rng = make_rng(31)
    K = 500
    x = M.random_point(rng, K)
    y = M.random_point(rng, K)
    ok = M.distance(x, y) < M.cut_distance - 1e-3
    x, y = x[ok], y[ok]
    v, ok = M.log_masked(x, y)
    assert np.all(ok)
    z = M.exp(x, v)
    if M.kind == "sphere":
        err = np.linalg.norm(z - y, axis=-1)
    else:
        err = _aligned_chord(z, y)
    np.testing.assert_allclose(err, 0.0, atol=1e-9)


def test_log_masked_is_false_at_cut_locus():
    s2 = sphere(2)
    x = np.array([1.0, 0.0, 0.0])
    assert not s2.log_masked(x, -x)[1]
    cp = complex_projective(1)
    z = np.array([1.0, 0.0], dtype=complex)
    w = np.array([0.0, 1.0], dtype=complex)
    assert not cp.log_masked(z, w)[1]


def test_exp_at_cut_distance_cp():
    # |v| = pi/2 reaches the point [u], at maximal distance pi/2
    cp = complex_projective(2)
    rng = make_rng(3)
    z = cp.random_point(rng)
    u = cp.random_unit_tangent(rng, z)
    y = cp.exp(z, (math.pi / 2) * u)
    np.testing.assert_allclose(cp.distance(z, y), math.pi / 2, atol=1e-12)
    np.testing.assert_allclose(cp.distance(y, cp.canonicalize(u)), 0.0, atol=1e-12)


@pytest.mark.parametrize("M", MODELS, ids=repr)
def test_distance_isometry_invariance(M):
    rng = make_rng(47)
    x = M.random_point(rng, 300)
    y = M.random_point(rng, 300)
    q = M.random_isometry(rng)
    d0 = M.distance(x, y)
    d1 = M.distance(M.canonicalize(x @ q.T), M.canonicalize(y @ q.T))
    np.testing.assert_allclose(d1, d0, atol=1e-12)


def _old_random_isometry(M, rng):
    """The per-class formulas `random_isometry` had before the model spaces
    shared one."""
    shape = (M.ambient_dim, M.ambient_dim)
    if not M.is_complex:
        q, r = np.linalg.qr(rng.standard_normal(shape))
        return q * np.sign(np.diag(r))
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d.conj() / np.abs(d))


@pytest.mark.parametrize("M", [sphere(1), sphere(2), sphere(3), real_projective(2),
                               complex_projective(1), complex_projective(2)], ids=repr)
@pytest.mark.parametrize("seed", range(5))
def test_random_isometry_matches_the_old_formulas_bit_for_bit(M, seed):
    q = M.random_isometry(make_rng(seed))
    assert q.dtype == M.dtype
    assert q.tobytes() == _old_random_isometry(M, make_rng(seed)).tobytes()


def _old_gaussian(M, rng, shape):
    """The complex Gaussian draw each sampler wrote inline before
    `ModelManifold.gaussian`: real part first, then the imaginary part."""
    g = rng.standard_normal(shape)
    if M.dtype == np.complex128:
        g = g + 1j * rng.standard_normal(shape)
    return g


@pytest.mark.parametrize("M", [sphere(1), sphere(2), sphere(3), real_projective(2),
                               real_projective(3), complex_projective(1),
                               complex_projective(2)], ids=repr)
@pytest.mark.parametrize("seed", range(5))
def test_samplers_keep_their_gaussian_draws_bit_for_bit(M, seed):
    amb = M.ambient_dim
    g = _old_gaussian(M, make_rng(seed), (7, amb))
    assert M.gaussian(make_rng(seed), (7, amb)).tobytes() == g.tobytes()
    point = M.canonicalize(g / _norm(g)[..., None])
    assert M.random_point(make_rng(seed), 7).tobytes() == point.tobytes()

    q, r = np.linalg.qr(_old_gaussian(M, make_rng(seed), (amb, amb)))
    d = np.diag(r)
    isometry = q * (d.conj() / np.abs(d))
    assert M.random_isometry(make_rng(seed)).tobytes() == isometry.tobytes()

    x = M.random_point(make_rng(seed + 100), 7)
    v = M.project_tangent(x, _old_gaussian(M, make_rng(seed), x.shape))
    tangent = v / _norm(v)[..., None]
    assert M.random_unit_tangent(make_rng(seed), x).tobytes() == tangent.tobytes()

    S = _old_gaussian(M, make_rng(seed), (amb, amb))
    S = (S / np.linalg.norm(S, 2)).astype(M.dtype)
    # S sits in the closure of the field derivative inside the fused rule
    closure = perturbed_identity(M, seed=seed).fused
    for name in ("dP", "dfield"):
        closure = inspect.getclosurevars(closure).nonlocals[name]
    assert inspect.getclosurevars(closure).nonlocals["S"].tobytes() == S.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_curve_and_plane_samplers_keep_their_gaussian_draws_bit_for_bit(seed):
    for N, degree in ((1, 1), (2, 3), (3, 2)):
        rng = make_rng(seed)
        shape = (N + 1, degree + 1)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # c sits in the closure of the polynomial tuple inside the evaluator
        P = inspect.getclosurevars(random_curve(N, degree, seed=seed).evaluator).nonlocals["P"]
        assert inspect.getclosurevars(P).nonlocals["c"].tobytes() == c.tobytes()
    for n, K in ((3, 5), (4, 17)):
        q, _ = np.linalg.qr(make_rng(seed).standard_normal((K, n + 1, 3)))
        assert sample_rp2_planes(n, K, seed=seed)[0].tobytes() == q.tobytes()


def test_tangent_projection_orthogonality():
    rng = make_rng(7)
    for M in MODELS:
        x = M.random_point(rng, 50)
        g = rng.standard_normal(x.shape)
        if M.is_complex:
            g = g + 1j * rng.standard_normal(x.shape)
        v = M.project_tangent(x, g)
        if M.kind == "complex_projective":
            # horizontal: complex-orthogonal to the representative
            h = np.sum(x.conj() * v, axis=-1)
            np.testing.assert_allclose(h, 0.0, atol=1e-12)
        else:
            np.testing.assert_allclose(np.sum((x.conj() * v).real, axis=-1), 0.0, atol=1e-12)


def test_geodesic_unit_speed():
    rng = make_rng(13)
    for M in MODELS:
        x = M.random_point(rng)
        v = M.random_unit_tangent(rng, x)
        h = 1e-3
        d = M.distance(M.exp(x, h * v), M.exp(x, 2 * h * v))
        np.testing.assert_allclose(d, h, rtol=1e-9)


def test_submersion_distance_consistency():
    # horizontal-lift geodesic length equals the arccos distance formula
    cp = complex_projective(2)
    rng = make_rng(19)
    z = cp.random_point(rng, 200)
    w = cp.random_point(rng, 200)
    keep = cp.distance(z, w) < cp.cut_distance - 1e-4
    z, w = z[keep], w[keep]
    v, ok = cp.log_masked(z, w)
    assert np.all(ok)
    np.testing.assert_allclose(np.linalg.norm(v, axis=-1), cp.distance(z, w), atol=1e-10)


def test_lie_algebra_bases():
    for m in (2, 3):
        B = su_basis(m)
        assert len(B) == m * m - 1
        for a in B:
            np.testing.assert_allclose(a + a.conj().T, 0.0, atol=1e-15)
            np.testing.assert_allclose(np.trace(a), 0.0, atol=1e-15)
        G = np.array([[np.trace(a @ b.conj().T).real for b in B] for a in B])
        np.testing.assert_allclose(G, np.eye(len(B)), atol=1e-14)


def _killing_derivative_fd(cp, a, z, w, h=1e-4):
    """Central difference of the Killing field along the horizontal lift through z."""

    def field(c):
        az = a @ c
        return az - np.sum(c.conj() * az) * c

    c_plus = np.cos(h) * z + np.sin(h) * w
    c_minus = np.cos(h) * z - np.sin(h) * w
    diff = (field(c_plus) - field(c_minus)) / (2 * h)
    return cp.project_tangent(z, diff)


def test_killing_derivative_matches_fd_oracle():
    for N in (1, 2):
        cp = complex_projective(N)
        rng = make_rng(61 + N)
        for a in su_basis(N + 1):
            z = cp.random_point(rng)
            w = cp.random_unit_tangent(rng, z)
            analytic = cp.killing_derivative(a, z, w)
            fd = _killing_derivative_fd(cp, a, z, w)
            np.testing.assert_allclose(analytic, fd, atol=1e-6)


def _sum_last_inputs(length, dtype):
    """Arrays with a last axis of `length`: C-ordered, the real part of a
    complex array, a moveaxis-ed view and a broadcast product, each with
    magnitudes over 30 decades and a row of signed zeros."""
    rng = make_rng(length)

    def draw(shape):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-15, 15, size=shape)
        if dtype is complex:
            a = a + 1j * rng.standard_normal(shape)
        a[0] = -0.0
        return a

    c = draw((6, 5, length))
    yield "C-ordered", c
    yield "real part", c.astype(complex).real
    yield "moveaxis", np.moveaxis(c, 0, -2)
    yield "broadcast", draw((6, 1, length)) * draw((1, 5, length))


@pytest.mark.parametrize("length, dtype", [(k, float) for k in range(1, 8)]
                         + [(k, complex) for k in range(1, 4)])
def test_sum_last_is_numpys_short_axis_sum_bit_for_bit(length, dtype):
    for label, a in _sum_last_inputs(length, dtype):
        got, want = _sum_last(a), np.sum(a, axis=-1)
        assert got.dtype == want.dtype and got.strides == want.strides, label
        assert got.tobytes() == want.tobytes(), label


def test_random_point_determinism():
    for M in MODELS:
        a = M.random_point(make_rng(123), 17)
        b = M.random_point(make_rng(123), 17)
        np.testing.assert_array_equal(a, b)


def test_constructors_need_an_integer_dimension_and_a_finite_positive_radius():
    for n in (2.5, 2.0, 0, -1, True, None, "3", np.float64(2.0)):
        for make in (sphere, real_projective, complex_projective):
            with pytest.raises(GeometryError, match="integer"):
                make(n)
    for r in (float("nan"), float("inf"), 0.0, -1.0, True, None, "1"):
        for make in (sphere, real_projective):
            with pytest.raises(GeometryError, match="finite radius"):
                make(2, r)
    assert sphere(np.int64(2), np.float64(0.5)).volume == sphere(2, 0.5).volume
    assert complex_projective(np.int64(2)).volume == complex_projective(2).volume


def test_seeds_are_integers_in_the_philox_key_range():
    for seed in (2.5, 2.0, True, None, "3", -1, 2**64, np.float64(1.0)):
        with pytest.raises(GeometryError, match="integer in"):
            make_rng(seed)
        with pytest.raises(GeometryError, match="integer in"):
            spawn(seed, 0)
        with pytest.raises(GeometryError, match="integer in"):
            spawn(0, seed)
    for seed in (0, np.int64(5), np.uint64(2**64 - 1), 2**64 - 1):
        a = make_rng(seed).standard_normal(3)
        np.testing.assert_array_equal(a, make_rng(int(seed)).standard_normal(3))
        b = spawn(seed, 1).standard_normal(3)
        np.testing.assert_array_equal(b, spawn(int(seed), 1).standard_normal(3))


# ---------------------------------------------------------------------------
# properties of the shared sphere / antipodal-quotient model

QUOTIENT_MODELS = [sphere(2, 1.7), sphere(3, 0.6), real_projective(2, 2.5), real_projective(3, 0.8)]
PROPERTY = settings(derandomize=True, deadline=None)


@st.composite
def unit_vectors(draw, dim):
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    assume(np.linalg.norm(v) > 0.1)
    return v / np.linalg.norm(v)


@st.composite
def point_pairs(draw):
    """A model, a canonical point x, and a representative (either one on the
    quotient) of a point y at a drawn fraction of the cut distance from x."""
    M = draw(st.sampled_from(QUOTIENT_MODELS))
    x = M.canonicalize(draw(unit_vectors(M.ambient_dim)))
    u = M.project_tangent(x, draw(unit_vectors(M.ambient_dim)))
    assume(np.linalg.norm(u) > 0.1)
    u = u / np.linalg.norm(u)
    y = M.exp(x, draw(st.floats(0.0, 1.0)) * M.cut_distance * u)
    if M.kind == "real_projective" and draw(st.booleans()):
        y = -y
    return M, x, y


@PROPERTY
@given(point_pairs())
def test_exp_of_log_returns_the_point_inside_the_cut_guard(case):
    M, x, y = case
    v, ok = M.log_masked(x, y)
    if M.distance(x, y) < M.cut_distance - 2 * CUT_GUARD:
        assert ok
    if ok:
        np.testing.assert_allclose(np.dot(x, v), 0.0, atol=1e-12 * M.radius)
        np.testing.assert_allclose(M.norm(v), M.distance(x, y), atol=1e-12 * M.radius)
        np.testing.assert_allclose(M.exp(x, v), M.canonicalize(y), atol=1e-8 * M.radius)


@PROPERTY
@given(point_pairs(), st.integers(0, 2**32 - 1))
def test_outputs_are_canonical_and_canonicalize_is_idempotent(case, seed):
    M, x, y = case
    c = M.canonicalize(y)
    np.testing.assert_array_equal(M.canonicalize(c), c)
    rng = make_rng(seed)
    for p in (M.random_point(rng, 3), M.canonicalize(x @ M.random_isometry(rng).T),
              M.exp(x, M.random_unit_tangent(rng, x))):
        np.testing.assert_array_equal(M.canonicalize(p), p)


@PROPERTY
@given(point_pairs())
def test_quotient_distance_is_the_nearer_lift(case):
    M, x, y = case
    S = sphere(M.n, M.radius)
    expected = S.distance(x, y)
    if M.kind == "real_projective":
        expected = min(expected, S.distance(x, -y))
    np.testing.assert_allclose(M.distance(x, y), expected, atol=1e-12 * M.radius)


@PROPERTY
@given(point_pairs(), st.integers(0, 2**32 - 1))
def test_distance_is_invariant_under_random_isometries(case, seed):
    M, x, y = case
    q = M.random_isometry(make_rng(seed))
    moved = M.distance(M.canonicalize(x @ q.T), M.canonicalize(y @ q.T))
    np.testing.assert_allclose(moved, M.distance(x, y), atol=1e-12 * M.radius)
