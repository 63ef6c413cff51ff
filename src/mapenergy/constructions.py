"""Explicit map families used as the test corpus for every functional.

Rational curves, each built by `make_rational_curve` from its coefficient
matrix, whose shape gives the target CP^N and the degree and whose value
and derivative come from one monomial rule; projective dilations that
squeeze a complex projective space onto the line of its first two
coordinates, where `intgeo.restriction_energies` gives the squeeze
limit; conformal dilations of the 3-sphere and their capped projective
quotient variant, a catalog of standard maps, and
reproducible non-holomorphic perturbations of the identity.  Dimensions
and degrees are integers >= 1, checked where they enter.

Every map here except the identity is of the form x -> P(x) / |P(x)|
(curves, dilations of both kinds, conjugation, the perturbed identities)
and is a `normalized_map` of its P and dP, so it takes its fused rule
from the one pushforward through y -> y / |y|; none writes a
differential of its own.
"""

from __future__ import annotations

import numpy as np

from .manifolds import (
    ComplexProjective,
    GeometryError,
    _dot,
    complex_projective,
    is_finite_real,
    is_integer,
    real_projective,
    sphere,
)
from .maps import (
    compose,
    homothety_map,
    identity_map,
    normalized_linear_map,
    normalized_map,
)
from .energy import p_energy
from .intgeo import restriction_energies
from .rand import make_rng


# ---------------------------------------------------------------------------
# rational curves


def make_rational_curve(coefficients):
    """The holomorphic curve [a : b] -> [p_0 : ... : p_N] of CP^1 into CP^N.

    N and the degree d are read off the (N + 1, d + 1) shape of the
    complex `coefficients`, each at least 1: p_i = sum_k c[i, k]
    a^(d-k) b^k.  The polynomials must be finite, not all zero, and have
    no common zero, checked at 10^3 random probe points plus the roots of
    the best-conditioned component (any common zero must be among them)
    after normalizing coefficients.  The value and the derivative come
    from one monomial rule: the partials in a and b are the degree-(d-1)
    tuples of the shifted coefficients c[i, k] (d - k) and c[i, k] k.
    """
    c = np.asarray(coefficients, dtype=complex)
    if c.ndim != 2 or min(c.shape) < 2:
        raise GeometryError("curve coefficients must be an (N + 1, degree + 1) matrix "
                            f"with N, degree >= 1, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise GeometryError("curve coefficients must be finite")
    scale = np.max(np.abs(c))
    if scale == 0:
        raise GeometryError("curve coefficients are all zero")
    z = complex_projective(1).random_point(make_rng(0), 1000)
    probes = np.concatenate([z, _candidate_zeros(c)], axis=0)
    if np.min(np.linalg.norm(_homogeneous_eval(c, probes), axis=-1)) / scale < 1e-8:
        raise GeometryError("curve polynomials share a zero")
    d = c.shape[1] - 1
    k = np.arange(d + 1)
    ca, cb = (c * (d - k))[:, :-1], (c * k)[:, 1:]

    def dP(z, v):
        return _homogeneous_eval(ca, z) * v[..., :1] + _homogeneous_eval(cb, z) * v[..., 1:]

    return normalized_map(complex_projective(1), complex_projective(c.shape[0] - 1),
                          lambda z: _homogeneous_eval(c, z), dP, f"curve-deg{d}")


def _curve_shape(N, degree):
    """(N + 1, degree + 1); GeometryError unless both are integers >= 1."""
    if not all(is_integer(k) and k >= 1 for k in (N, degree)):
        raise GeometryError(f"a curve needs integers N, degree >= 1, got {N!r}, {degree!r}")
    return (N + 1, degree + 1)


def _candidate_zeros(c):
    """Points where the component with the largest coefficient vanishes."""
    row = c[np.argmax(np.max(np.abs(c), axis=1))]
    pts = [np.array([1.0 + 0j, 0.0]), np.array([0.0 + 0j, 1.0])]
    for a in np.roots(row):
        q = np.array([a, 1.0 + 0j])
        pts.append(q / np.linalg.norm(q))
    return np.stack(pts, axis=0)


def _homogeneous_eval(c, z):
    """The tuple of degree-d polynomials with (N + 1, d + 1) coefficients c at z."""
    d = c.shape[1] - 1
    a, b = z[..., 0], z[..., 1]
    mono = np.stack([a ** (d - k) * b**k for k in range(d + 1)], axis=-1)
    return np.einsum("nk,...k->...n", c, mono)


def line_curve(N=2):
    """The degree-1 curve [a : b] -> [a : b : 0 : ...]."""
    c = np.zeros(_curve_shape(N, 1), dtype=complex)
    c[0, 0] = 1.0
    c[1, 1] = 1.0
    return make_rational_curve(c)


def conic_curve():
    """The plane conic [a : b] -> [a^2 - b^2 : i(a^2 + b^2) : 2ab].

    Its components satisfy p0^2 + p1^2 + p2^2 = 0 identically.
    """
    return make_rational_curve([[1.0, 0.0, -1.0], [1j, 0.0, 1j], [0.0, 2.0, 0.0]])


def veronese_curve():
    """The quadric Veronese curve [a^2 : sqrt(2) ab : b^2]."""
    return make_rational_curve(np.diag([1.0, np.sqrt(2.0), 1.0]))


def random_curve(N, degree, seed=0):
    """A random curve with Gaussian coefficients (no common zero a.s.)."""
    shape = _curve_shape(N, degree)
    return make_rational_curve(complex_projective(N).gaussian(make_rng(seed), shape))


# ---------------------------------------------------------------------------
# projective dilations (squeeze toward the reference line)


def make_projective_dilation(N, lam):
    """[z0 : z1 : z2 : ...] -> [lam z0 : lam z1 : z2 : ...] on CP^N.

    Holomorphic for every lam > 0, the identity at lam = 1, and fixes
    the reference line pointwise.
    """
    if not (is_finite_real(lam) and lam > 0):
        raise GeometryError(f"the dilation parameter must be a finite real > 0, got {lam!r}")
    M = complex_projective(N)
    scale = np.ones(N + 1, dtype=complex)
    scale[0] = scale[1] = lam
    return normalized_map(M, M, lambda z: scale * z, lambda z, v: scale * v, f"dilation-{lam:g}")


# level of the projective-line mesh that carries the restricted energy
_LINE_LEVEL = 4


def squeeze_limit(F, grid, lambdas):
    """2-energies of F after each dilation, and of F on the reference line.

    Returns (energies, restricted): one `EnergyValue` per lam in
    `lambdas`, all on `grid` so the trend is smooth in lam, and the
    2-energy of F restricted to the reference line [z0 : z1 : 0 : ...].
    As lam grows the energies descend to C_N * restricted,
    C_N = pi^(N-1)/(N-1)!; no convergence assertion is made here.
    """
    M = F.domain
    if not isinstance(M, ComplexProjective):
        raise GeometryError("squeeze limits need a complex projective domain")
    energies = [p_energy(compose(F, make_projective_dilation(M.N, lam)), grid, p=2.0)
                for lam in lambdas]
    restricted = restriction_energies(F, np.eye(M.N + 1, 2)[None], _LINE_LEVEL)[0]
    return energies, float(restricted)


# ---------------------------------------------------------------------------
# conformal dilations of the 3-sphere and the capped projective variant


def _conformal_numerator(t):
    """(a, b) of the affine P(x) = a x + b, derivative v -> a v, for which
    x -> P(x) / |P(x)| is the conformal dilation of the 3-sphere by t:
    P(x) = (2t x_p, (1 - t^2) + (1 + t^2) x_w), whose norm on the unit
    sphere is the conformal denominator D(x) = (1 + t^2) + (1 - t^2) x_w.
    GeometryError unless t is a finite real >= 1."""
    if not (is_finite_real(t) and t >= 1):
        raise GeometryError(f"dilations need a finite real t >= 1, got {t!r}")
    a = np.array([2.0 * t, 2.0 * t, 2.0 * t, 1.0 + t * t])
    b = np.array([0.0, 0.0, 0.0, 1.0 - t * t])
    return a, b


def make_theta(t):
    """Conformal dilation of the 3-sphere toward the last-coordinate pole.

    The identity at t = 1; as t grows the map concentrates the sphere
    into a shrinking polar cap, with conformal factor 2t / D(x).
    """
    a, b = _conformal_numerator(t)
    S3 = sphere(3)
    return normalized_map(S3, S3, lambda x: a * x + b, lambda x, v: a * v, f"theta-{t:g}")


def make_capped_theta(t):
    """Piecewise dilation of projective 3-space fixing the equator plane.

    On representatives with nonnegative last coordinate: the polar cap
    x_w > c that the conformal dilation maps onto the upper hemisphere is
    dilated, and the remaining collar is projected radially onto the
    equator plane (pointwise fixed), P(x) = (x_p, 0).  Both pieces of P
    are chosen before the one normalization, so the poles, which lie in
    the cap, never divide by zero.  Lipschitz: continuous across both
    seams but not differentiable on them.  The identity at t = 1.
    """
    a, b = _conformal_numerator(t)
    M = real_projective(3)
    c = (t * t - 1.0) / (t * t + 1.0)
    collar = np.array([1.0, 1.0, 1.0, 0.0])

    def on_rep(x, u):
        """u on the representative of x with x_w >= 0, and whether x is in the cap."""
        s = np.where(x[..., 3:] >= 0.0, 1.0, -1.0)
        return s * u, s * x[..., 3:] > c

    def P(x):
        xr, cap = on_rep(x, x)
        return np.where(cap, a * xr + b, collar * xr)

    def dP(x, v):
        vr, cap = on_rep(x, v)
        return np.where(cap, a * vr, collar * vr)

    return normalized_map(M, M, P, dP, f"capped-theta-{t:g}")


# ---------------------------------------------------------------------------
# standard catalog


def conjugation_map(N):
    """The antiholomorphic involution [z] -> [conj(z)]."""
    M = complex_projective(N)
    return normalized_map(M, M, np.conj, lambda z, v: np.conj(v), "conjugation")


def _inclusion(space, k, n, dtype, tag):
    """Totally geodesic inclusion of the k-dimensional model into the n-dimensional one."""
    if not (is_integer(k) and is_integer(n) and 1 <= k < n):
        raise GeometryError(f"an inclusion needs integers 1 <= k < n, got k={k!r}, n={n!r}")
    A = np.eye(n + 1, k + 1, dtype=dtype)
    return normalized_linear_map(space(k), space(n), A, name=f"inclusion-{tag}{k}-{n}")


# Reference maps by key; each builder takes the keyword arguments shown.
MAP_CATALOG = {
    "identity": lambda manifold: identity_map(manifold),
    "inclusion_rp": lambda k, n: _inclusion(real_projective, k, n, float, "rp"),
    "inclusion_cp": lambda k, N: _inclusion(complex_projective, k, N, complex, "cp"),
    "double_cover": lambda: normalized_linear_map(
        sphere(2), real_projective(2), np.eye(3), name="double-cover"),
    "homothety": lambda kappa, n=2: homothety_map(sphere(n), sphere(n, kappa)),
    "conjugation": conjugation_map,
}


def standard_maps(key, **kw):
    """The reference map `key` of MAP_CATALOG, built from keyword arguments."""
    if key not in MAP_CATALOG:
        raise GeometryError(f"unknown catalog key {key!r}")
    return MAP_CATALOG[key](**kw)


# ---------------------------------------------------------------------------
# reproducible perturbations of the identity


def perturbed_identity(M, magnitude=0.2, flavor="generic", seed=0):
    """The identity pushed along a fixed polynomial tangent field V by the
    projection retraction x -> (x + m V(x)) / |x + m V(x)|, m = `magnitude`.

    flavor "generic": V(x) is the tangent projection P_x(S x) of a fixed
    seeded linear ambient field S.  flavor "squeeze": the same field
    times |x_N|^2, so it vanishes on the reference line (and on the
    equator plane in the real case).  V is tangent, so |x + m V|^2 =
    1 + m^2 |V|^2 >= 1 never vanishes, and the image lies within
    distance m * radius of x.  V(-x) = -V(x) and V(e^{i phi} x) =
    e^{i phi} V(x), so the map is well defined on projective spaces.
    Smooth, deterministic in (seed, magnitude), homotopic to the
    identity by scaling the magnitude; on unit-radius spaces it agrees
    with the exponential push exp_x(m V) through second order in m.
    """
    if flavor not in ("generic", "squeeze"):
        raise GeometryError(f"unknown perturbation flavor {flavor!r}")
    if not is_finite_real(magnitude):
        raise GeometryError(f"the perturbation magnitude must be a finite real, got {magnitude!r}")
    amb = M.ambient_dim
    rng = make_rng(seed)
    S = M.gaussian(rng, (amb, amb))
    S = S / np.linalg.norm(S, 2)
    S = S.astype(M.dtype)

    def field(x):
        v = M.project_tangent(x, np.einsum("ij,...j->...i", S, x))
        if flavor == "squeeze":
            v = v * (np.abs(x[..., -1]) ** 2)[..., None]
        return v

    def dfield(x, u):
        # V = s P_x(Sx) with dP_x(Sx) = P_x(Su) - <u,Sx> x - <x,Sx> u and, for
        # the squeeze, s = |x_N|^2 with ds = 2 Re(conj(x_N) u_N)
        Sx = np.einsum("ij,...j->...i", S, x)
        dV = (M.project_tangent(x, np.einsum("ij,...j->...i", S, u))
              - _dot(u, Sx)[..., None] * x - _dot(x, Sx)[..., None] * u)
        if flavor == "squeeze":
            s = np.abs(x[..., -1:]) ** 2
            dV = 2.0 * (x[..., -1:].conj() * u[..., -1:]).real * M.project_tangent(x, Sx) + s * dV
        return dV

    return normalized_map(M, M, lambda x: x + magnitude * field(x),
                          lambda x, u: u + magnitude * dfield(x, u),
                          f"perturbed-{flavor}-{magnitude:g}")
