"""Differential-geometric diagnostics for maps between model manifolds.

Second fundamental form values, tension fields, pluriharmonicity and
Hermitian-symmetry residuals, second variations of the Dirichlet energy,
the Jacobi-field identity for symmetry directions, and line integrals of
the fundamental 2-form.  Everything is chart-free: intrinsic
accelerations come from second differences through the codomain
logarithm, which is exact for geodesics and O(h^2) otherwise.
"""

from __future__ import annotations

import warnings

import numpy as np

from .energy import p_energy
from .manifolds import (
    ComplexProjective,
    CutLocusError,
    GeometryError,
    real_inner,
)
from .maps import MapObject, compose, differential_columns, frame_at, log_probes, pullback_gram

SECOND_DIFF_STEP = 1e-3
VARIATION_STEP = 1e-2
TENSION_TOLERANCE = 1e-3


# ---------------------------------------------------------------------------
# second fundamental form


def _acceleration(F, x, v, h):
    """Intrinsic acceleration of t -> F(exp_x(t v)) at t = 0.

    Second difference through the codomain logarithm; exact (up to
    rounding) when the image curve is a geodesic.
    """
    vp, vm, ok = log_probes(F, x, v, h)
    if not np.all(ok):
        raise CutLocusError(
            "second difference crossed the cut locus; resample the probe point"
        )
    return (vp + vm) / (h * h)


def second_fundamental_form(F, x, v, w, h=SECOND_DIFF_STEP):
    """Second fundamental form of F at x evaluated on the pair (v, w).

    Computed as the geodesic acceleration of the pushed curve for the
    diagonal and polarized off the diagonal, so symmetry in (v, w) is
    exact by construction.
    """
    plus = _acceleration(F, x, v + w, h)
    minus = _acceleration(F, x, v - w, h)
    return 0.25 * (plus - minus)


def tension(F, x, h=SECOND_DIFF_STEP, frame=None):
    """Trace of the second fundamental form over an orthonormal frame.

    Vanishes exactly for harmonic maps; frame independent up to the
    finite-difference tolerance (any orthonormal frame may be passed).
    """
    fr = frame_at(F.domain, x) if frame is None else frame
    acc = _acceleration(F, x[..., None, :], fr, h)
    return np.sum(acc, axis=-2)


def pluriharmonic_residual(F, x, h=SECOND_DIFF_STEP):
    """Sup over frame pairs of |alpha(J e_i, J e_j) + alpha(e_i, e_j)|.

    Zero for pluriharmonic maps out of complex projective space; the
    domain must carry a complex structure.
    """
    M = F.domain
    if not isinstance(M, ComplexProjective):
        raise GeometryError("pluriharmonicity needs a complex projective domain")
    fr = frame_at(M, x)
    best = np.zeros(x.shape[:-1])
    for i in range(M.dim):
        for j in range(i, M.dim):
            ei, ej = fr[..., i, :], fr[..., j, :]
            combo = (second_fundamental_form(F, x, 1j * ei, 1j * ej, h)
                     + second_fundamental_form(F, x, ei, ej, h))
            best = np.maximum(best, F.codomain.norm(combo))
    return best


def hermitian_residual(F, x):
    """Sup over frame pairs of |g(dF Je_i, dF Je_j) - g(dF e_i, dF e_j)|.

    Zero whenever the metric pullback is invariant under the domain
    complex structure (holomorphic, antiholomorphic, and more generally
    pluriharmonic maps).
    """
    M = F.domain
    if not isinstance(M, ComplexProjective):
        raise GeometryError("Hermitian symmetry needs a complex projective domain")
    fr = frame_at(M, x)
    c0, ok0 = differential_columns(F, x, fr)
    cJ, okJ = differential_columns(F, x, 1j * fr)
    if not np.all(ok0 & okJ):
        raise CutLocusError("differential probe failed; resample the probe point")
    g0 = np.einsum("...ia,...ja->...ij", c0.conj(), c0).real
    gj = np.einsum("...ia,...ja->...ij", cJ.conj(), cJ).real
    return np.max(np.abs(gj - g0), axis=(-2, -1))


# ---------------------------------------------------------------------------
# second variation of the energy


def pushforward_field(F, vector_field, h=1e-4):
    """Variation field x -> dF_x(V(x)) from a domain vector field V."""

    def push(x):
        v = vector_field(x)
        if F.differential is not None:
            return F.differential(x, v)
        vp, vm, ok = log_probes(F, x, v, h)
        if not np.all(ok):
            raise CutLocusError("pushforward probe crossed the cut locus")
        return (vp - vm) / (2.0 * h)

    return push


def symmetry_variation(F, generator):
    """Variation field dF(J K) along the complex rotation J K of the Killing
    field K that a skew-Hermitian matrix generates on the domain CP^N."""
    M = F.domain
    if not isinstance(M, ComplexProjective):
        raise GeometryError("symmetry directions need a complex projective domain")
    a = np.asarray(generator, dtype=complex)
    return pushforward_field(F, lambda x: 1j * M.killing_field(a, x))


def _warn_if_not_harmonic(F, probes):
    t = tension(F, probes)
    worst = float(np.max(F.codomain.norm(t)))
    if worst > TENSION_TOLERANCE:
        warnings.warn(
            f"map has tension {worst:.2e} above tolerance; "
            "second-variation identities may not apply",
            stacklevel=3,
        )


def second_variation(F, W, grid, tau=VARIATION_STEP):
    """Five-point second derivative of the energy along the variation W.

    W is any callable sending points x to tangent vectors at F(x).  The
    varied map is F_t(x) = exp_{F(x)}(t W(x)); all five energies use
    the same frozen grid and the same finite-difference pathway so the
    even-order discretization errors cancel in the stencil.
    """
    cod = F.codomain
    w_nodes = W(grid.nodes)
    if not np.all(np.isfinite(w_nodes)):
        raise GeometryError("variation field is unbounded on the grid")
    _warn_if_not_harmonic(F, grid.nodes[:3])

    def energy_at(t):
        Ft = MapObject(
            F.domain, cod, lambda x: cod.exp(F(x), t * W(x)),
            smoothness="smooth", name="varied",
        )
        return p_energy(Ft, grid, p=2.0)

    step, error = tau, None
    for attempt in range(2):
        try:
            vals = [energy_at(k * step) for k in (-2, -1, 0, 1, 2)]
        except GeometryError as exc:  # an unusable stencil point, e.g. a non-finite energy
            vals, error = None, exc
        if vals and all(v.dropped_fraction <= 0.05 for v in vals):
            e = [v.value for v in vals]
            return (-e[0] + 16.0 * e[1] - 30.0 * e[2] + 16.0 * e[3] - e[4]) / (
                12.0 * step * step
            )
        step *= 0.5
    raise GeometryError("variation repeatedly crossed the cut locus") from error


def jacobi_identity_check(F, generator, grid):
    """Two estimators of the energy Hessian along a symmetry direction.

    For a holomorphic symmetry direction (the complex rotation J K of
    the Killing field K generated by a skew-Hermitian matrix), the
    Hessian of the energy at a harmonic map pairs the variation against
    a trace of the second fundamental form.  Returns (second variation,
    trace-form integral); the two agree for harmonic maps.
    """
    W = symmetry_variation(F, generator)
    lhs = second_variation(F, W, grid)

    M, a, x = F.domain, np.asarray(generator, dtype=complex), grid.nodes
    w_vals = W(x)
    fr = frame_at(M, x)
    total = np.zeros_like(w_vals)
    for i in range(M.dim):
        ei = fr[..., i, :]
        grad = 1j * M.killing_derivative(a, x, ei)
        total = total + second_fundamental_form(F, x, grad, ei)
    integrand = -2.0 * real_inner(total, w_vals)
    rhs = float(np.sum(grid.weights * integrand))
    return lhs, rhs


def index_trace_over_symmetries(F, grid, basis):
    """Sum of second variations along the rotated Killing fields of a basis.

    With a basis of the symmetry algebra orthonormal for its invariant
    inner product, this trace vanishes at harmonic maps to compact
    symmetric targets.
    """
    total = 0.0
    for a in basis:
        total += second_variation(F, symmetry_variation(F, a), grid)
    return total


# ---------------------------------------------------------------------------
# fundamental 2-form and rank diagnostics


def fundamental_form_line_integral(F, line, grid):
    """Integral over an embedded projective line of the 2-form g(dF J., dF .).

    The grid lives on the projective-line parameter space; equals the
    image area for holomorphic maps and is a homotopy invariant for
    pluriharmonic ones (warned about otherwise).
    """
    G = compose(F, line.embedding)
    z, w = grid.nodes, grid.weights
    probe = line.embedding(z[:3])
    res = float(np.max(pluriharmonic_residual(F, probe)))
    if res > TENSION_TOLERANCE:
        warnings.warn(
            f"pluriharmonicity residual {res:.2e} above tolerance; "
            "the line integral is not a homotopy invariant",
            stacklevel=2,
        )
    fr = frame_at(G.domain, z)
    j_dir = 1j * fr[..., 0:1, :]
    cols, ok = differential_columns(G, z, j_dir)
    if not np.all(ok):
        raise CutLocusError("differential probe failed on the line grid")
    density = real_inner(cols[..., 0, :], cols[..., 0, :])
    return float(np.sum(w * density))


def rank_profile(F, grid):
    """Histogram of the numerical rank of dF over the grid nodes.

    Eigenvalues above 1e-6 of the largest one count toward the rank;
    entry k of the returned array is the number of nodes with rank k.
    """
    M = F.domain
    fr = frame_at(M, grid.nodes)
    gram, ok = pullback_gram(F, grid.nodes, fr)
    ev = np.linalg.eigvalsh(gram)
    top = ev[..., -1]
    ranks = np.sum(ev > 1e-6 * top[..., None], axis=-1)
    return np.bincount(ranks[ok], minlength=M.dim + 1)
