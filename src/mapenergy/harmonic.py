"""Differential-geometric diagnostics for maps between model manifolds.

Second fundamental form values, tension fields, pluriharmonicity and
Hermitian-symmetry residuals, second variations of the Dirichlet energy,
and the Jacobi-field identity for symmetry directions.  Everything is
chart-free: intrinsic accelerations come from second differences through
the codomain logarithm, combined by one Richardson step, which is exact
for geodesics and O(h^4) otherwise.  An acceleration calls F twice, once
at the base point and once at its four probe points stacked on one
leading axis; the two polarized directions of a second fundamental form
share one acceleration, and frame vectors or frame pairs stack on the
leading frame axis of `tangent_frames`, so the F calls of a probe do not
grow with the dimension.  The Hermitian residual reads the
`pullback_gram` of the tangent frame alone.

A second variation is the five-point second derivative in t of the
energy of a family of maps t -> F_t, each with an analytic differential.
Along a holomorphic symmetry direction the family is F after the
projective flow x -> e^{t i a} x / |e^{t i a} x| of the Hermitian
matrix i a, whose first-order field is dF(J K) for the Killing field K
of the skew-Hermitian a; at a harmonic F its second derivative is the
energy Hessian along dF(J K).  Its energies sit at t = k * VARIATION_STEP,
k = -2..2, and the Jacobi check pushes J K through `differential_columns`.
Its trace form, the one probe taken over a whole grid, runs in blocks of
`TRACE_FORM_BLOCK` nodes, so the temporaries of the stacked probe points
stay bounded.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import expm

from .energy import p_energy
from .manifolds import (
    ComplexProjective,
    CutLocusError,
    GeometryError,
    real_inner,
)
from .maps import (
    check_points,
    compose,
    differential_columns,
    normalized_linear_map,
    pullback_gram,
    tangent_frames,
)

# the coarse step of every second difference; read only by `_acceleration`
SECOND_DIFF_STEP = 1e-3
VARIATION_STEP = 1e-2
TENSION_TOLERANCE = 1e-3
# nodes per block of the Jacobi check's trace form: an acceleration puts
# eight probe points per node and frame vector into one F call
TRACE_FORM_BLOCK = 1024


# ---------------------------------------------------------------------------
# second fundamental form


def _acceleration(F, x, v):
    """Intrinsic acceleration of t -> F(exp_x(t v)) at t = 0.

    Second differences through the codomain logarithm at steps h and h/2,
    combined by one Richardson step (4 a(h/2) - a(h)) / 3, which cancels
    their O(h^2) truncation; exact (up to rounding) when the image curve
    is a geodesic.  F is called twice: at x, and at the four probe points
    exp_x(+-h/2 v), exp_x(+-h v) stacked on one leading axis.
    """
    h = SECOND_DIFF_STEP
    half = 0.5 * h
    steps = np.array([half, -half, h, -h]).reshape((4,) + (1,) * np.broadcast(x, v).ndim)
    logs, ok = F.codomain.log_masked(F(x), F(F.domain.exp(x, steps * v)))
    if not np.all(ok):
        raise CutLocusError(
            "second difference crossed the cut locus; resample the probe point"
        )
    return (4.0 * ((logs[0] + logs[1]) / (half * half))
            - (logs[2] + logs[3]) / (h * h)) / 3.0


def second_fundamental_form(F, x, v, w):
    """Second fundamental form of F at x evaluated on the pair (v, w).

    Computed as the geodesic acceleration of the pushed curve for the
    diagonal and polarized off the diagonal, so symmetry in (v, w) is
    exact by construction; v + w and v - w share one acceleration.
    """
    pair = np.stack(np.broadcast_arrays(x, v + w, v - w)[1:])
    plus, minus = _acceleration(F, x, pair)
    return 0.25 * (plus - minus)


def tension(F, x):
    """Trace of the second fundamental form over the tangent frame at x.

    Vanishes exactly for harmonic maps; frame independent up to the
    finite-difference tolerance.
    """
    check_points("tension", F, x)
    acc = _acceleration(F, x[None], tangent_frames(F.domain, x))
    return np.sum(acc, axis=0)


def pluriharmonic_residual(F, x):
    """Sup over frame pairs of |alpha(J e_i, J e_j) + alpha(e_i, e_j)|.

    Zero for pluriharmonic maps out of complex projective space; the
    domain must carry a complex structure.
    """
    M = F.domain
    if not isinstance(M, ComplexProjective):
        raise GeometryError("pluriharmonicity needs a complex projective domain")
    check_points("pluriharmonic_residual", F, x)
    fr = tangent_frames(M, x)
    i, j = np.triu_indices(M.dim)
    ei, ej, xb = fr[i], fr[j], x[None]
    combo = (second_fundamental_form(F, xb, 1j * ei, 1j * ej)
             + second_fundamental_form(F, xb, ei, ej))
    return np.max(F.codomain.norm(combo), axis=0)


def hermitian_residual(F, x):
    """Sup over frame pairs of |g(dF Je_i, dF Je_j) - g(dF e_i, dF e_j)|.

    Zero whenever the metric pullback is invariant under the domain
    complex structure (holomorphic, antiholomorphic, and more generally
    pluriharmonic maps).  J sends the tangent frame (h, i h) to (i h, -h),
    so with its Gram matrix G = [[A, B], [B^T, C]] the residual is
    max(|C - A|, |B + B^T|), read from G alone.
    """
    M = F.domain
    if not isinstance(M, ComplexProjective):
        raise GeometryError("Hermitian symmetry needs a complex projective domain")
    check_points("hermitian_residual", F, x)
    G = pullback_gram(F, x, tangent_frames(M, x))
    n = M.N
    A, B, C = G[..., :n, :n], G[..., :n, n:], G[..., n:, n:]
    return np.maximum(np.max(np.abs(C - A), axis=(-2, -1)),
                      np.max(np.abs(B + np.swapaxes(B, -1, -2)), axis=(-2, -1)))


# ---------------------------------------------------------------------------
# second variation of the energy


def symmetry_variation(F, generator):
    """The family t -> F after x -> e^{t i a} x / |e^{t i a} x| on the
    domain CP^N, for a skew-Hermitian generator a; its first-order field
    is dF(J K), the pushforward of the complex rotation J K of the
    Killing field K that a generates."""
    M = F.domain
    if not isinstance(M, ComplexProjective):
        raise GeometryError("symmetry directions need a complex projective domain")
    ia = 1j * np.asarray(generator, dtype=complex)
    return lambda t: compose(F, normalized_linear_map(M, M, expm(t * ia), "symmetry-flow"))


def _warn_if_not_harmonic(F, probes):
    t = tension(F, probes)
    worst = float(np.max(F.codomain.norm(t)))
    if worst > TENSION_TOLERANCE:
        warnings.warn(
            f"map has tension {worst:.2e} above tolerance; "
            "second-variation identities may not apply",
            stacklevel=3,
        )


def second_variation(family, grid):
    """Five-point second derivative at t = 0 of the energy t -> E_2(family(t)).

    `family` sends a real t to a map with an analytic differential; every
    energy uses the same frozen grid.  At a harmonic family(0) this is
    the energy Hessian along the family's first-order field; a warning
    says when family(0) has tension above tolerance.
    """
    _warn_if_not_harmonic(family(0.0), grid.nodes[:3])
    tau = VARIATION_STEP
    e = [p_energy(family(k * tau), grid, p=2.0).value for k in (-2, -1, 0, 1, 2)]
    return (-e[0] + 16.0 * e[1] - 30.0 * e[2] + 16.0 * e[3] - e[4]) / (12.0 * tau * tau)


def jacobi_identity_check(F, generator, grid):
    """Two estimators of the energy Hessian along a symmetry direction.

    For a holomorphic symmetry direction (the complex rotation J K of
    the Killing field K generated by a skew-Hermitian matrix), the
    Hessian of the energy at a harmonic map pairs the variation against
    a trace of the second fundamental form.  Returns (second variation,
    trace-form integral); the two agree for harmonic maps.
    """
    lhs = second_variation(symmetry_variation(F, generator), grid)

    M, a, x = F.domain, np.asarray(generator, dtype=complex), grid.nodes
    # the variation field dF(J K) at the nodes
    W = differential_columns(F, x, (1j * M.killing_field(a, x))[None])[0]
    fr, xb = tangent_frames(M, x), x[None]
    grad = 1j * M.killing_derivative(a, xb, fr)
    total = np.concatenate([
        np.sum(second_fundamental_form(F, *(b[:, k:k + TRACE_FORM_BLOCK] for b in (xb, grad, fr))), axis=0)
        for k in range(0, len(x), TRACE_FORM_BLOCK)])
    integrand = -2.0 * real_inner(total, W)
    rhs = float(np.sum(grid.weights * integrand))
    return lhs, rhs


def index_trace_over_symmetries(F, grid, basis):
    """Sum of second variations along the rotated Killing fields of a basis.

    With a basis of the symmetry algebra orthonormal for its invariant
    inner product, this trace vanishes at harmonic maps to compact
    symmetric targets.  Returns (trace, variations): the terms in basis
    order, and their sum taken left to right.
    """
    variations = [second_variation(symmetry_variation(F, a), grid) for a in basis]
    trace = 0.0
    for v in variations:
        trace += v
    return trace, variations
