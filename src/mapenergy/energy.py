"""Scalar functionals of smooth maps: energies, volumes, areas, and lengths.

Every functional integrates a pointwise density built from the pullback
Gram matrix of the map over a quadrature grid.  Monte Carlo grids carry a
standard error; mesh grids are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifolds import GeometryError, real_inner, sphere_volume
from .maps import (
    differential_columns,
    energy_density,
    grid_frames,
    gram_eigenvalues,
    pullback_gram,
    unit_tangent_quadrature,
)


@dataclass(frozen=True)
class EnergyValue:
    """A quadrature estimate of a map functional, with grid provenance.

    The standard error is meaningful only for monte_carlo grids and is
    None otherwise.  ``dropped_fraction`` is the quadrature mass lost to
    nodes where the differential could not be evaluated; the surviving
    mass is renormalized, and losing more than 1% raises a warning flag.
    """

    p: float
    value: float
    scheme: str
    resolution: int
    seed: int
    stderr: float | None = None
    dropped_fraction: float = 0.0
    warning: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise GeometryError(f"functional value {self.value} is not finite")
        if self.value < 0:
            raise GeometryError("functional values are nonnegative")

    def __float__(self):
        return float(self.value)


def _integrate(grid, density, ok, label):
    """Weighted sum of a node density with dropped-mass renormalization.

    Returns (value, stderr, dropped_fraction, warning).
    """
    w = np.asarray(grid.weights, dtype=float)
    valid = np.broadcast_to(np.asarray(ok, dtype=bool), w.shape)
    wv = np.where(valid, w, 0.0)
    mass = float(np.sum(wv))
    total = grid.total_mass
    if mass <= 0.0:
        raise GeometryError(f"{label}: every quadrature node failed")
    dropped = 1.0 - mass / total
    value = float(np.sum(wv * density) * (total / mass))
    stderr = None
    if grid.scheme == "monte_carlo":
        k = int(np.count_nonzero(valid))
        if k > 1:
            contrib = np.asarray(density)[valid] * total
            stderr = float(np.std(contrib, ddof=1) / np.sqrt(k))
        else:
            stderr = 0.0
    warning = None
    if dropped > 0.01:
        warning = f"{label}: {100.0 * dropped:.2f}% of quadrature mass dropped"
    return value, stderr, dropped, warning


def p_energy(F, grid, p=2.0, salt=0):
    """The p-energy of a map: half the integral of |dF|^p over the domain.

    |dF|^2 at a node is the trace of the pullback Gram matrix in a
    deterministic orthonormal frame.  Returns an EnergyValue.
    """
    if p < 1.0:
        raise GeometryError("p-energy is defined for p >= 1")
    frames = grid_frames(grid, salt=salt)
    G, ok = pullback_gram(F, grid.nodes, frames)
    dens = 0.5 * energy_density(G) ** (p / 2.0)
    value, stderr, dropped, warning = _integrate(grid, dens, ok, "p_energy")
    return EnergyValue(
        float(p), value, grid.scheme, grid.resolution, grid.seed, stderr, dropped, warning
    )


def croke_density(F, x, order=3):
    """Squared differential norm by averaging |dF(u)|^2 over unit directions.

    Rescales the unit-tangent quadrature average by dim / area(unit sphere)
    so the result equals the trace of the pullback Gram matrix whenever
    the design integrates quadratics exactly.
    """
    M = F.domain
    dirs, w = unit_tangent_quadrature(M, x, order=order)
    dirs = np.moveaxis(dirs, 0, -2)
    cols, ok = differential_columns(F, x, dirs)
    if not np.all(ok):
        raise GeometryError("differential unavailable at a requested point")
    sq = real_inner(cols, cols)
    avg = np.einsum("j,...j->...", w, sq)
    return M.dim / sphere_volume(M.dim - 1) * avg


def pullback_volume(F, grid, salt=0):
    """Volume of the domain measured in the metric pulled back through F.

    Integrates sqrt(det G) of the pullback Gram matrix; images traversed
    with multiplicity count with multiplicity.
    """
    frames = grid_frames(grid, salt=salt)
    G, ok = pullback_gram(F, grid.nodes, frames)
    dens = np.sqrt(np.prod(gram_eigenvalues(G), axis=-1))
    value, _, _, _ = _integrate(grid, dens, ok, "pullback_volume")
    return value


def surface_area(F, grid, salt=0):
    """Area swept by a map from a 2-dimensional domain (pullback volume)."""
    if F.domain.dim != 2:
        raise GeometryError("surface_area needs a 2-dimensional domain")
    return pullback_volume(F, grid, salt=salt)


def elementary_bound(p, n, vol_domain, pullback_vol):
    """Closed-form lower bound for the p-energy in terms of pullback volume.

    n^{p/2} * V_pull^{p/n} / (2 * V_dom^{(p-n)/n}), valid for p >= n;
    equality holds exactly when the differential is a homothety a.e.
    """
    if p < n:
        raise GeometryError("the elementary energy bound needs p >= n")
    return float(
        n ** (p / 2.0) * pullback_vol ** (p / n) / (2.0 * vol_domain ** ((p - n) / n))
    )


def curve_length(F, curve, steps=256):
    """Arc length of F composed with a closed parametrized curve.

    Composite trapezoid rule on the image speed |dF(curve')|; intervals
    where the differential cannot be evaluated (e.g. probes that land
    past the cut locus) fall back to the geodesic chord between the two
    image points, so the result is always defined.
    """
    period = float(curve.period)
    t = np.linspace(0.0, period, int(steps) + 1)
    x = curve.point(t)
    v = curve.velocity(t)
    cod = F.codomain
    if F.differential is not None:
        push = F.differential(x, v)
        speed = cod.norm(push)
        ok = np.ones(len(t), dtype=bool)
    else:
        vn = F.domain.norm(v)
        unit = v / np.where(vn > 0, vn, 1.0)[..., None]
        cols, ok = differential_columns(F, x, unit[..., None, :])
        speed = np.sqrt(real_inner(cols[..., 0, :], cols[..., 0, :])) * vn
    dt = t[1] - t[0]
    lengths = 0.5 * dt * (speed[:-1] + speed[1:])
    failed = ~(ok[:-1] & ok[1:])
    if np.any(failed):
        y = F(x)
        lengths[failed] = cod.distance(y[:-1][failed], y[1:][failed])
    return float(np.sum(lengths))
