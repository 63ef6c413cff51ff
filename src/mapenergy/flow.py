"""Discrete harmonic-map gradient flow on triangulated sphere domains.

A MeshMap carries per-vertex image points on a model codomain over an
icosphere domain (optionally with antipodal identification, giving the
projective plane).  The graph Dirichlet energy with cotangent weights
discretizes the smooth energy; its negative gradient is the discrete
tension.  The descent steps along the H^1 gradient instead: one sparse
solve with the vertex areas plus the cotangent Laplacian, in which
neighbouring images are compared at their nearest representatives (the
codomain's sign or phase gauge), smooths the tension so that about ten
accept/halve iterations give approximately harmonic maps for
cross-module oracles.  The descent records only what its controller
computes; callers measure `conformality_defect` of the maps they keep.

The domain geometry belongs to the mesh: MeshMaps and
`conformality_defect` read cotangent weights, vertex areas, the antipodal
permutation and flattened domain triangles from `meshes`, which derives
each once per mesh, read-only.  A MeshMap divides the weights and areas
by its domain's `sheets`, as the sphere mesh covers RP^2 twice.  The
factor of the gauge-free H^1 matrix is mesh geometry too, kept on the
mesh: S^n, RP^n (through a sign lift on the mesh's spanning tree) and
the antipodal quotient all solve with it, and only CP^N phases factor
per iteration.  Only the image half is computed here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from . import tables
from .manifolds import GeometryError, _norm, is_finite_real, is_integer, real_projective, sphere
from .maps import checked_resolution
from .meshes import (
    DEGENERATE_GUARD,
    antipodal_permutation,
    cotangent_weights,
    flat_triangles,
    icosphere,
    kept,
    plant_triangles,
    spanning_tree,
    triangle_sides,
    vertex_areas,
)

GRADIENT_TOLERANCE = 1e-6


@dataclass
class MeshMap:
    """Per-vertex images of an icosphere (or its antipodal quotient)."""

    mesh: object
    codomain: object
    images: np.ndarray
    antipodal_quotient: bool = False
    pairs: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    areas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=self.codomain.dtype)
        if self.images.shape != (len(self.mesh.vertices), self.codomain.ambient_dim):
            raise GeometryError("one image point per mesh vertex is required")
        domain = self.domain
        self.pairs, weights = cotangent_weights(self.mesh)
        self.weights = weights / domain.sheets
        self.areas = vertex_areas(self.mesh) / domain.sheets
        target = domain.volume
        if abs(float(np.sum(self.areas)) - target) > 1e-3 * target:
            raise GeometryError("vertex areas do not sum to the domain area")
        # representatives are unit vectors whatever the codomain radius
        if not np.max(np.abs(_norm(self.images) - 1.0)) <= 1e-10:
            raise GeometryError("images must be unit vectors, the codomain's representatives")
        canon = self.codomain.canonicalize(self.images)
        if np.max(_norm(canon - self.images)) > 1e-10:
            raise GeometryError("images must be canonical points of the codomain")
        if self.antipodal_quotient:
            perm = antipodal_permutation(self.mesh)
            mism = _norm(self.images - self.images[perm])
            if np.max(mism) > 1e-10:
                raise GeometryError(
                    "quotient mesh maps need antipodally equal images"
                )

    @property
    def domain(self):
        return real_projective(2) if self.antipodal_quotient else sphere(2)

    def with_images(self, images):
        return MeshMap(self.mesh, self.codomain, images, self.antipodal_quotient)


def sample_map(F, level, antipodal_quotient=False):
    """MeshMap sampling an analytic map at the vertices of an icosphere of level >= 0."""
    M = F.domain
    if not (M.kind in ("sphere", "real_projective") and M.dim == 2):
        raise GeometryError(f"mesh maps need a 2-sphere or RP^2 domain, got {M!r}")
    mesh = icosphere(checked_resolution("mesh", level))
    x = mesh.vertices
    if antipodal_quotient:
        x = F.domain.canonicalize(x)
    return MeshMap(mesh, F.codomain, F(x), antipodal_quotient)


def discrete_energy(m):
    """Graph Dirichlet energy: half the weighted sum of squared distances."""
    d = m.codomain.distance(m.images[m.pairs[:, 0]], m.images[m.pairs[:, 1]])
    return 0.5 * float(np.sum(m.weights * d * d))


def discrete_tension(m):
    """Area-normalized negative gradient of the discrete energy.

    Entry i is (1/a_i) sum_j w_ij log_{F_i}(F_j) over mesh neighbors j.
    """
    # each edge in both directions: row i gathers w_ij log_{F_i}(F_j), then row j the reverse
    rows, cols = np.concatenate([m.pairs, m.pairs[:, ::-1]]).T
    logs, ok = m.codomain.log_masked(m.images[rows], m.images[cols])
    if not np.all(ok):
        raise GeometryError("a mesh edge spans the codomain cut locus")
    terms = np.tile(m.weights, 2)[:, None] * logs
    # bincount sums each real column (re and im for complex) in index order, as np.add.at does
    sums = [np.bincount(rows, col, len(m.images)) for col in terms.view(np.float64).T]
    return np.stack(sums, axis=-1).view(m.images.dtype) / m.areas[:, None]


def _resymmetrized(images, perm):
    out = images.copy()
    keep = np.arange(len(images)) < perm
    out[perm[keep]] = images[keep]
    return out


def h1_direction(m, tau):
    """The H^1 gradient direction Proj(P^-1 A tau) of the tension `tau` of m.

    A is the diagonal of vertex areas and P = A + L_g, where
    (L_g d)_i = sum_j w_ij (d_i - g_ij d_j) over mesh neighbors j with the
    cotangent weights, and g_ij is the unit scalar (1, +-1 or a phase)
    for which g_ij F_j is the representative of F_j nearest F_i.  The
    solution is projected to the tangent (horizontal) space at each image.

    P_1 = A + L (g = 1) depends only on the mesh, and its `splu` factor
    is kept on the mesh.  On S^n it is P.  On RP^n the signs usually lift
    to vertex signs, g_ij = s_i s_j, so P = S P_1 S and d = S P_1^-1 S A tau.
    The antipodal quotient halves A and L alike, so P_1 and the whole
    mesh's A solve the same system.  Phases on CP^N, and signs with no
    lift, factor P afresh on every call.  Sign flips and halvings are
    exact, so every path gives the numbers of a fresh factor of P.
    """
    M = m.codomain
    if M.kind == "sphere":
        s = 1.0
    else:
        g = M.gauge(m.images[m.pairs[:, 0]], m.images[m.pairs[:, 1]])
        s = None if M.is_complex else _sign_lift(m, g)
    if s is None:
        d = splu(_h1_matrix(m.pairs, m.weights, m.areas, g)).solve(m.areas[:, None] * tau)
    else:
        # the quotient divides A and L alike by its sheets; multiplying back is exact
        whole = m.domain.sheets
        d = s * _h1_factor(m, whole).solve(s * ((whole * m.areas)[:, None] * tau))
    return M.project_tangent(m.images, d)


def _h1_matrix(pairs, weights, areas, gauge):
    """P = A + L_g as a CSC matrix; g_ji = conj(g_ij) makes it Hermitian positive definite."""
    i, j = pairs.T
    n = len(areas)
    off = -weights * gauge
    diagonal = areas + np.bincount(pairs.ravel(), np.repeat(weights, 2), n)
    rows = np.concatenate([np.arange(n), i, j])
    cols = np.concatenate([np.arange(n), j, i])
    return sparse.csc_matrix((np.concatenate([diagonal, off, off.conj()]), (rows, cols)), (n, n))


def _h1_factor(m, whole):
    """The `splu` factor of P_1 = A + L on the whole sphere mesh of m, kept on the mesh.

    `whole`, the sheet count of m's domain (2 on the antipodal quotient,
    else 1), scales m's areas and weights back to those of the whole mesh.
    """
    def factor():
        return splu(_h1_matrix(m.pairs, whole * m.weights, whole * m.areas, 1.0))
    return kept(m.mesh.derived, "h1_factor", factor)


def _sign_lift(m, g):
    """Vertex signs s, as a column, with s_i s_j = g_ij on every edge of m; or None.

    s_v is the product of g along the mesh's spanning tree from v to its
    root, gathered by pointer jumping.  The lift fails exactly when some
    cycle of edges, such as a triangle, has sign product -1.
    """
    parent, edge = spanning_tree(m.mesh)
    # s[v] is the product of g along the tree path from v up to up[v]
    s = np.where(edge < 0, 1.0, g[edge])
    up = parent
    while np.any(up[up] != up):
        s = s * s[up]
        up = up[up]
    i, j = m.pairs.T
    return s[:, None] if np.array_equal(s[i] * s[j], g) else None


def flow_minimize(m, step=0.25, iters=200, grad_tol=GRADIENT_TOLERANCE):
    """Projected H^1 gradient descent on the discrete energy.

    Vertices move synchronously along `h1_direction` of the discrete
    tension, scaled by the step; a step whose energy increases is halved
    (up to ten times) before the flow is declared stalled, and accepted
    steps grow the step back by 1.3x.  The flow stops when the largest
    tension norm falls below `grad_tol`.

    The direction solves (A + L_g) d = A tau, the Sobolev gradient of
    Alouges (1997) and Bartels (2015): the Laplacian damps the rough
    modes that limit an explicit step along tau, so a few iterations
    replace hundreds.  The gauge g_ij compares neighbours at their
    nearest representatives; without it, canonical representatives that
    flip sign (RP^n) or phase (CP^N) between neighbours would couple
    through the Laplacian as if far apart.  P is Hermitian positive
    definite, so Re<A tau, d> > 0 and d is a descent direction.  The
    mesh keeps one factor of the gauge-free matrix, so flows on S^n, on
    RP^n and on the antipodal quotient factor nothing after the first
    flow on a mesh; a CP^N flow factors once per iteration.

    `step` must be a finite real > 0, `iters` an integer >= 0 and
    `grad_tol` a finite real >= 0.  Returns the final MeshMap and a
    history of per-iteration records (iteration, energy, grad_norm
    before the step, step); record 0 is the start.
    """
    if not (is_finite_real(step) and step > 0):
        raise GeometryError(f"flow step must be a finite real > 0, got {step!r}")
    if not (is_integer(iters) and iters >= 0):
        raise GeometryError(f"flow iterations must be an integer >= 0, got {iters!r}")
    if not (is_finite_real(grad_tol) and grad_tol >= 0):
        raise GeometryError(f"gradient tolerance must be a finite real >= 0, got {grad_tol!r}")
    perm = antipodal_permutation(m.mesh) if m.antipodal_quotient else None
    current = m
    energy = discrete_energy(current)
    tau = discrete_tension(current)
    gnorm = float(np.max(m.codomain.norm(tau)))
    history = [_record(0, energy, gnorm, step)]
    for it in range(1, iters + 1):
        if gnorm < grad_tol:
            break
        direction = h1_direction(current, tau)
        accepted = False
        for _ in range(10):
            trial = m.codomain.exp(current.images, step * direction)
            if perm is not None:
                trial = _resymmetrized(trial, perm)
            candidate = current.with_images(trial)
            trial_energy = discrete_energy(candidate)
            if trial_energy <= energy:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise GeometryError(
                f"flow stalled at iteration {it}: energy {energy:.6g}, "
                f"gradient norm {gnorm:.3g}, step {step:.3g}"
            )
        current, energy = candidate, trial_energy
        step *= 1.3
        history.append(_record(it, energy, gnorm, step))
        if it < iters:
            tau = discrete_tension(current)
            gnorm = float(np.max(m.codomain.norm(tau)))
    return current, history


def _record(it, energy, gnorm, step):
    return {"iteration": it, "energy": energy, "grad_norm": gnorm, "step": step}


def conformality_defect(m):
    """Area-weighted mean anisotropy of the per-triangle affine pullback.

    Each mesh triangle and its image triangle are flattened by geodesic
    side lengths; the singular values of the affine map between them
    give the defect |s1 - s2| / (s1 + s2).  Degenerate triangles are
    skipped (with a warning when any occur).
    """
    inverses, degenerate, areas = flat_triangles(m.mesh)
    Q, bad_img = plant_triangles(*triangle_sides(m.images, m.mesh.triangles, m.codomain))
    degenerate = degenerate | bad_img
    s = np.linalg.svd(Q @ inverses, compute_uv=False)
    defect = np.abs(s[..., 0] - s[..., 1]) / (s[..., 0] + s[..., 1] + DEGENERATE_GUARD)
    keep = ~degenerate
    if not np.all(keep):
        warnings.warn(
            f"{int(np.sum(degenerate))} degenerate triangles skipped", stacklevel=2
        )
    total = float(np.sum(areas[keep]))
    if total == 0.0:
        raise GeometryError("all triangles degenerate")
    return float(np.sum(areas[keep] * defect[keep]) / total)


# ---------------------------------------------------------------------------
# persistence


def write_flow_log(history, path):
    tables.write_table(path, list(history[0]), [list(rec.values()) for rec in history])
