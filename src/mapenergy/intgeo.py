"""Averages over spaces of closed geodesics, complex lines, and planes.

The three measure spaces — closed geodesics of a real projective space,
complex lines of a complex projective space, and totally geodesic
projective planes — are homogeneous, so uniform unit tangents push
forward to the uniform measure and the stated total masses normalize the
sample weights exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import curve_length, p_energy
from .manifolds import (
    ComplexProjective,
    GeometryError,
    RealProjective,
    complex_projective,
    real_projective,
    sphere_volume,
)
from .maps import build_grid, compose, is_integer, normalized_linear_map
from .rand import make_rng

# subdivision level of the RP^2 mesh in `rp2_family_average`
PLANE_MESH_LEVEL = 4


# ---------------------------------------------------------------------------
# elements


@dataclass
class GeodesicLoop:
    """Closed unit-speed geodesic of a real projective space.

    Parametrized over [0, period) with period = pi * radius; the loop
    closes because antipodal representatives are identified.
    """

    manifold: RealProjective
    base: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        if abs(np.dot(self.base, self.direction)) > 1e-10:
            raise GeometryError("geodesic direction must be tangent at the base")
        if abs(np.linalg.norm(self.direction) - 1.0) > 1e-10:
            raise GeometryError("geodesic direction must be a unit vector")

    @property
    def period(self):
        return np.pi * self.manifold.radius

    def _raw(self, t):
        ang = np.asarray(t, dtype=float)[..., None] / self.manifold.radius
        return np.cos(ang) * self.base + np.sin(ang) * self.direction

    def point(self, t):
        x, _ = self.manifold.canonicalize_with_factor(self._raw(t))
        return x

    def velocity(self, t):
        """Unit tangent of the loop, transported to the canonical representative."""
        ang = np.asarray(t, dtype=float)[..., None] / self.manifold.radius
        w = -np.sin(ang) * self.base + np.cos(ang) * self.direction
        _, f = self.manifold.canonicalize_with_factor(self._raw(t))
        return f[..., None] * w


@dataclass
class LineEmbedding:
    """The complex line through a point tangent to a horizontal direction.

    Holds an orthonormal pair (lift, horizontal) of ambient complex
    vectors; the embedding sends [a : b] to the class of a*lift +
    b*horizontal, an isometric and totally geodesic copy of the
    2-sphere of curvature 4 (area pi).
    """

    lift: np.ndarray
    horizontal: np.ndarray

    def __post_init__(self):
        z, u = self.lift, self.horizontal
        if (
            abs(np.vdot(z, u)) > 1e-10
            or abs(np.linalg.norm(z) - 1.0) > 1e-10
            or abs(np.linalg.norm(u) - 1.0) > 1e-10
        ):
            raise GeometryError("line data must be a complex-orthonormal pair")

    @property
    def codomain(self):
        return complex_projective(len(self.lift) - 1)

    @property
    def embedding(self):
        A = np.stack([self.lift, self.horizontal], axis=-1)
        return normalized_linear_map(complex_projective(1), self.codomain, A, name="line")


@dataclass
class MeasureSample:
    """One weighted element of a sampled measure space."""

    element: object
    weight: float


# ---------------------------------------------------------------------------
# total masses and samplers


def geodesic_space_mass(n):
    """Total mass of the space of closed geodesics of RP^n."""
    return sphere_volume(n) * sphere_volume(n - 1) / (2.0 * np.pi)


def line_space_mass(N):
    """Total mass of the space of complex lines of CP^N."""
    return np.pi ** (2 * N - 2) / (math.factorial(N) * math.factorial(N - 1))


def rp2_family_mass(n):
    """Total mass of the family of totally geodesic planes in RP^n."""
    return n * sphere_volume(n) / (8.0 * np.pi)


def _sample_count(K):
    """`K` as an int; GeometryError unless an integer >= 1, since each of
    the K samples carries mass / K."""
    if not (is_integer(K) and K >= 1):
        raise GeometryError(f"a sample count must be an integer >= 1, got {K!r}")
    return int(K)


def sample_geodesics(n, K, seed=0):
    """K closed geodesics from uniform unit tangents, exactly normalized."""
    if n < 2:
        raise GeometryError("geodesic sampling needs n >= 2")
    M = real_projective(n)
    K = _sample_count(K)
    rng = make_rng(seed)
    x = M.random_point(rng, K)
    u = M.random_unit_tangent(rng, x)
    w = geodesic_space_mass(n) / K
    return [MeasureSample(GeodesicLoop(M, x[i], u[i]), w) for i in range(K)]


def sample_lines(N, K, seed=0):
    """K complex lines of CP^N from uniform unit tangents, exactly normalized."""
    if N < 1:
        raise GeometryError("line sampling needs N >= 1")
    M = complex_projective(N)
    K = _sample_count(K)
    rng = make_rng(seed)
    x = M.random_point(rng, K)
    u = M.random_unit_tangent(rng, x)
    w = line_space_mass(N) / K
    return [MeasureSample(LineEmbedding(x[i], u[i]), w) for i in range(K)]


def sample_rp2_planes(n, K, seed=0):
    """K totally geodesic projective planes in RP^n (random 3-subspaces)."""
    if n < 3:
        raise GeometryError("the plane family needs n >= 3")
    M = real_projective(n)
    rp2 = real_projective(2)
    K = _sample_count(K)
    rng = make_rng(seed)
    w = rp2_family_mass(n) / K
    out = []
    for i in range(K):
        g = rng.standard_normal((M.ambient_dim, 3))
        q, _ = np.linalg.qr(g)
        emb = normalized_linear_map(rp2, M, q, name="plane")
        out.append(MeasureSample(emb, w))
    return out


# ---------------------------------------------------------------------------
# averaging identities


def _restricted_line_energies(F, K, line_resolution, seed):
    """Energies of F restricted to K random lines, with their weights."""
    if not isinstance(F.domain, ComplexProjective):
        raise GeometryError("line averages need a complex projective domain")
    samples = sample_lines(F.domain.N, K, seed)
    grid = build_grid(complex_projective(1), line_resolution, "mesh")
    vals = np.array(
        [p_energy(compose(F, s.element.embedding), grid, p=2.0).value for s in samples]
    )
    weights = np.array([s.weight for s in samples])
    return vals, weights


def line_energy_average(F, K=200, line_resolution=4, seed=0):
    """Recover the 2-energy of a map of CP^N by averaging over lines.

    Each restricted energy is computed on a fixed icosahedral mesh of the
    line; the weighted sum is rescaled by N! / pi^(N-1).
    """
    vals, weights = _restricted_line_energies(F, K, line_resolution, seed)
    N = F.domain.N
    return float(math.factorial(N) / np.pi ** (N - 1) * np.sum(weights * vals))


def line_energy_spread(F, K=200, seed=0, line_resolution=4):
    """(mean, max deviation) of restricted line energies.

    A near-zero spread witnesses that the restricted energy is the same
    on every line, as for holomorphic maps.
    """
    vals, _ = _restricted_line_energies(F, K, line_resolution, seed)
    m = float(np.mean(vals))
    return m, float(np.max(np.abs(vals - m)))


def e1_geodesic_bound(F, K=200, seed=0):
    """Lower bound for the 1-energy from average image lengths of geodesics.

    sqrt(n) / (2 sigma(n-1)) times the weighted total image length; equals
    the 1-energy exactly when the map is an isometry.
    """
    if not isinstance(F.domain, RealProjective):
        raise GeometryError("the geodesic bound needs a real projective domain")
    n = F.domain.dim
    samples = sample_geodesics(n, K, seed)
    total = sum(s.weight * curve_length(F, s.element) for s in samples)
    return float(np.sqrt(n) / (2.0 * sphere_volume(n - 1)) * total)


def rp2_family_average(F, K=64, seed=0):
    """Recover the 2-energy of a map of RP^n by averaging over planes."""
    if not isinstance(F.domain, RealProjective):
        raise GeometryError("the plane average needs a real projective domain")
    samples = sample_rp2_planes(F.domain.dim, K, seed)
    grid = build_grid(real_projective(2), PLANE_MESH_LEVEL, "mesh")
    total = 0.0
    for s in samples:
        total += s.weight * p_energy(compose(F, s.element), grid, p=2.0).value
    return float(total)
