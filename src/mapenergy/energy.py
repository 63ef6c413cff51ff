"""Scalar functionals of smooth maps: energies, volumes, areas, and lengths.

Every functional integrates a pointwise density of the map's analytic
differential over a quadrature grid of its domain, in one pass shared by
energies and volumes: energies read |dF|^2 from the differential's
columns, volumes integrate sqrt(det G) of the pullback Gram matrix G.
`p_energies` integrates several exponents from one such pass.  A grid
of another space, or points of another space, are refused by name
before any node is evaluated.  Every node counts with its full weight.
Monte Carlo grids carry a standard error; mesh grids are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifolds import GeometryError, is_finite_real, real_inner, sphere_volume
from .maps import (
    check_points,
    differential_columns,
    energy_density,
    grid_frames,
    unit_tangent_quadrature,
    volume_density,
)


# trapezoid intervals over one period of a curve in `curve_length`
CURVE_STEPS = 256


@dataclass(frozen=True)
class EnergyValue:
    """A quadrature estimate of a map functional: the value, finite and
    nonnegative, with its Monte Carlo standard error (finite and
    nonnegative; None on other grids).
    """

    value: float
    stderr: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise GeometryError(f"functional value {self.value} is not finite")
        if self.value < 0:
            raise GeometryError("functional values are nonnegative")
        if self.stderr is not None and not (is_finite_real(self.stderr) and self.stderr >= 0):
            raise GeometryError(f"a standard error is a finite real >= 0, got {self.stderr!r}")

    def __float__(self):
        return float(self.value)


def _grid_density(F, grid, reduce, label):
    """reduce(columns) at each node of a grid of F's domain, each node block
    reducing the columns of its completed kept frame (`grid_frames`);
    GeometryError naming `label`, before any node is evaluated or any
    frame is kept, when the grid is one of another space."""
    # a model space's repr names its kind, dimension and radius
    if repr(grid.manifold) != repr(F.domain):
        raise GeometryError(f"{label}: a grid of {grid.manifold!r} is not a grid of the domain "
                            f"{F.domain!r} of map {F.name!r}")
    return differential_columns(F, grid.nodes, grid_frames(grid), reduce=reduce, kept_frames=True)


def _integrate(grid, density, label):
    """EnergyValue of the weighted sum of a node density; a density whose
    weighted sum is not finite (NaN or infinite at some node) raises a
    GeometryError that names `label`."""
    w = np.asarray(grid.weights, dtype=float)
    value = float(np.sum(w * density))
    if not math.isfinite(value):
        raise GeometryError(f"{label}: the integrated density {value} is not finite")
    stderr = None
    if grid.scheme == "monte_carlo":
        k = len(w)
        if k > 1:
            contrib = np.asarray(density) * grid.total_mass
            stderr = float(np.std(contrib, ddof=1) / np.sqrt(k))
        else:
            stderr = 0.0
    return EnergyValue(value, stderr)


def p_energies(F, grid, ps):
    """The p-energy of a map for each exponent of `ps`, from one pass over
    the grid: half the integral of |dF|^p over the domain.

    |dF|^2 at a node is the sum of the squared lengths of the
    differential's columns on the grid's reflection frame, the trace of
    the pullback Gram matrix, which is not built.  Each exponent is a
    finite real >= 1, and all of them are checked before any node is
    evaluated.  Returns one EnergyValue per exponent, in order.
    """
    ps = tuple(ps)
    if not ps:
        raise GeometryError("p_energies needs at least one exponent")
    for p in ps:
        if not (is_finite_real(p) and p >= 1.0):
            raise GeometryError(f"p-energy is defined for a finite real p >= 1, got {p!r}")
    dens = _grid_density(F, grid, energy_density, "p_energy")
    return [_integrate(grid, 0.5 * dens ** (p / 2.0), "p_energy") for p in ps]


def p_energy(F, grid, p=2.0):
    """The p-energy of a map, `p_energies` of the one exponent p."""
    return p_energies(F, grid, (p,))[0]


def croke_density(F, x):
    """Squared differential norm by averaging |dF(u)|^2 over unit directions.

    Rescales the unit-tangent quadrature average by dim / area(unit sphere)
    so the result equals the trace of the pullback Gram matrix whenever
    the design integrates quadratics exactly.
    """
    check_points("croke_density", F, x)
    M = F.domain
    dirs, w = unit_tangent_quadrature(M, x)

    def mean_square(cols):
        return np.einsum("j,j...->...", w, real_inner(cols, cols))

    avg = differential_columns(F, x, dirs, reduce=mean_square)
    return M.dim / sphere_volume(M.dim - 1) * avg


def pullback_volume(F, grid):
    """Volume of the domain measured in the metric pulled back through F.

    Integrates sqrt(det G) of the pullback Gram matrix, to which each node
    block reduces its columns as `p_energy` reduces them to |dF|^2; images
    traversed with multiplicity count with multiplicity.
    """
    dens = _grid_density(F, grid, volume_density, "pullback_volume")
    return _integrate(grid, dens, "pullback_volume").value


def surface_area(F, grid):
    """Area swept by a map from a 2-dimensional domain (pullback volume)."""
    if F.domain.dim != 2:
        raise GeometryError("surface_area needs a 2-dimensional domain")
    return pullback_volume(F, grid)


def curve_length(F, frame):
    """Arc length of F along the closed unit-speed geodesic of its domain
    with base point frame[:, 0] and unit tangent direction frame[:, 1].

    The geodesic closes after twice the cut distance (pi * radius on RP^n,
    where antipodal representatives are identified); its points and
    velocities are transported to the canonical representatives.
    Composite trapezoid rule on the image speed |dF(velocity)|.
    GeometryError unless the frame is one geodesic of the domain: an
    (amb, 2) array, real on a real domain, of orthonormal columns.
    """
    M = F.domain
    frame = np.asarray(frame)
    if frame.shape != (M.ambient_dim, 2) or (np.iscomplexobj(frame) and not M.is_complex):
        raise GeometryError(f"a geodesic frame of {M!r} is an ({M.ambient_dim}, 2) array, real on a "
                            f"real space, got {frame.dtype} of shape {frame.shape}")
    base, direction = frame[:, 0], frame[:, 1]
    if abs(np.vdot(base, direction)) > 1e-10:
        raise GeometryError("geodesic direction must be tangent at the base")
    if np.max(np.abs(np.linalg.norm(frame, axis=0) - 1.0)) > 1e-10:
        raise GeometryError("geodesic base point and direction must be unit vectors")
    t = np.linspace(0.0, 2.0 * M.cut_distance, CURVE_STEPS + 1)
    ang = t[:, None] / M.radius
    x, f = M.canonicalize_with_factor(np.cos(ang) * base + np.sin(ang) * direction)
    v = f[:, None] * (-np.sin(ang) * base + np.cos(ang) * direction)
    speed = F.codomain.norm(differential_columns(F, x, v[None])[0])
    dt = t[1] - t[0]
    lengths = 0.5 * dt * (speed[:-1] + speed[1:])
    return float(np.sum(lengths))
