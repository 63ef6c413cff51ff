"""Averages over spaces of closed geodesics, complex lines, and planes.

The three measure spaces — closed geodesics of a real projective space,
complex lines of a complex projective space, and totally geodesic
projective planes — are homogeneous, so uniform unit tangents push
forward to the uniform measure and the stated total masses normalize the
sample weights exactly.

A sampled family is one stack of orthonormal frames of shape (K, amb, k)
with the weight mass / K shared by every sample.  Element i is the totally
geodesic submanifold spanned by ``frames[i]``: a geodesic's frame holds
its base point and unit direction (`energy.curve_length` measures its
image), and a line or plane is embedded by
``normalized_linear_map(sub, M, frames[i])`` in `restriction_energies`,
the one rule that every line, plane and squeeze energy reads.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import curve_length, p_energy
from .manifolds import (
    ComplexProjective,
    GeometryError,
    RealProjective,
    complex_projective,
    is_integer,
    real_projective,
    sphere_volume,
)
from .maps import build_grid, compose, normalized_linear_map
from .rand import make_rng

# subdivision level of the RP^2 mesh in `rp2_family_average`
PLANE_MESH_LEVEL = 4


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


def _point_tangent_family(M, K, seed, mass):
    """(K, amb, 2) frames [x, u] of uniform points x and uniform unit
    tangents u at them, and their shared weight mass / K."""
    K = _sample_count(K)
    rng = make_rng(seed)
    x = M.random_point(rng, K)
    return np.stack([x, M.random_unit_tangent(rng, x)], axis=-1), mass / K


def sample_geodesics(n, K, seed=0):
    """K closed geodesics of RP^n from uniform unit tangents, exactly normalized:
    (frames, weight), frame i holding the base point and unit direction of geodesic i."""
    M = real_projective(n)
    if n < 2:
        raise GeometryError("geodesic sampling needs n >= 2")
    return _point_tangent_family(M, K, seed, geodesic_space_mass(n))


def sample_lines(N, K, seed=0):
    """K complex lines of CP^N from uniform unit tangents, exactly normalized:
    (frames, weight), frame i a point and a horizontal unit direction spanning line i."""
    return _point_tangent_family(complex_projective(N), K, seed, line_space_mass(N))


def sample_rp2_planes(n, K, seed=0):
    """K totally geodesic projective planes in RP^n (random 3-subspaces):
    (frames, weight), the frames from one Gaussian draw and one batched QR."""
    M = real_projective(n)
    if n < 3:
        raise GeometryError("the plane family needs n >= 3")
    K = _sample_count(K)
    q, _ = np.linalg.qr(M.gaussian(make_rng(seed), (K, M.ambient_dim, 3)))
    return q, rp2_family_mass(n) / K


# ---------------------------------------------------------------------------
# averaging identities


def restriction_energies(F, frames, level):
    """2-energy of F on each totally geodesic subspace of a (K, amb, k) frame stack.

    Subspace i is the image of ``normalized_linear_map(sub, M, frames[i])``,
    with sub the (k-1)-dimensional model space of the kind of F's domain M;
    each restricted energy is integrated on the level-`level` mesh of sub.
    GeometryError, before any energy, unless K >= 1, amb is M's ambient
    dimension, k >= 2 and each frame has orthonormal columns: real or
    complex on CP^N, real elsewhere (`normalized_linear_map` checks that).
    """
    M = F.domain
    frames = np.asarray(frames)
    if frames.ndim != 3 or frames.shape[0] < 1 or frames.shape[1] != M.ambient_dim or frames.shape[2] < 2:
        raise GeometryError(f"frames of subspaces of {M!r} are a (K >= 1, {M.ambient_dim}, k >= 2) "
                            f"stack, got shape {frames.shape}")
    if not np.max(np.abs(np.swapaxes(frames.conj(), -1, -2) @ frames - np.eye(frames.shape[2]))) <= 1e-10:
        raise GeometryError("each frame needs orthonormal columns")
    sub = type(M)(frames.shape[-1] - 1)
    grid = build_grid(sub, level, "mesh")
    return np.array([p_energy(compose(F, normalized_linear_map(sub, M, A)), grid, p=2.0).value
                     for A in frames])


def _restricted_line_energies(F, K, line_resolution, seed):
    """Energies of F restricted to K random lines, with their shared weight."""
    M = F.domain
    if not isinstance(M, ComplexProjective):
        raise GeometryError("line averages need a complex projective domain")
    frames, weight = sample_lines(M.N, K, seed)
    return restriction_energies(F, frames, line_resolution), weight


def line_energy_average(F, K=200, line_resolution=4, seed=0):
    """Recover the 2-energy of a map of CP^N by averaging over lines.

    Each restricted energy is computed on a fixed icosahedral mesh of the
    line; the weighted sum is rescaled by N! / pi^(N-1).
    """
    vals, weight = _restricted_line_energies(F, K, line_resolution, seed)
    N = F.domain.N
    return float(math.factorial(N) / np.pi ** (N - 1) * np.sum(weight * vals))


def line_energy_spread(F, K=200, line_resolution=4, seed=0):
    """(mean, max deviation) of restricted line energies.

    A near-zero spread witnesses that the restricted energy is the same
    on every line, as for holomorphic maps.
    """
    vals, _ = _restricted_line_energies(F, K, line_resolution, seed)
    m = float(np.mean(vals))
    return m, float(np.max(np.abs(vals - m)))


def _unit_real_projective(F, what):
    """GeometryError unless F's domain is a real projective space of radius 1,
    the only radius the family masses and the unit RP^2 mesh hold for."""
    if not isinstance(F.domain, RealProjective):
        raise GeometryError(f"{what} needs a real projective domain")
    if F.domain.radius != 1.0:
        raise GeometryError(f"{what} needs a domain of radius 1, got {F.domain.radius!r}")


def e1_geodesic_bound(F, K=200, seed=0):
    """Lower bound for the 1-energy from average image lengths of geodesics.

    sqrt(n) / (2 sigma(n-1)) times the weighted total image length; equals
    the 1-energy exactly when the map is an isometry.
    """
    _unit_real_projective(F, "the geodesic bound")
    n = F.domain.dim
    frames, weight = sample_geodesics(n, K, seed)
    total = 0.0
    for frame in frames:
        total += weight * curve_length(F, frame)
    return float(np.sqrt(n) / (2.0 * sphere_volume(n - 1)) * total)


def rp2_family_average(F, K=64, seed=0):
    """Recover the 2-energy of a map of RP^n by averaging over planes."""
    _unit_real_projective(F, "the plane average")
    frames, weight = sample_rp2_planes(F.domain.dim, K, seed)
    total = 0.0
    for value in restriction_energies(F, frames, PLANE_MESH_LEVEL):
        total += weight * value
    return float(total)
