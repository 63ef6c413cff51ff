"""Discrete harmonic-map gradient flow on triangulated sphere domains.

A MeshMap carries per-vertex image points on a model codomain over an
icosphere domain (optionally with antipodal identification, giving the
projective plane).  The graph Dirichlet energy with cotangent weights
discretizes the smooth energy; its negative gradient is the discrete
tension, and projected gradient descent with an accept/halve step
controller produces approximately harmonic maps for cross-module
oracles.

The domain geometry belongs to the mesh: MeshMaps and
`conformality_defect` read cotangent weights, vertex areas, the antipodal
permutation and flattened domain triangles from `meshes`, which derives
each once per mesh, read-only.  Only the image half is computed here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import tables
from .manifolds import GeometryError, real_projective, sphere
from .maps import MapObject
from .meshes import (
    DEGENERATE_GUARD,
    antipodal_permutation,
    cotangent_weights,
    flat_triangles,
    icosphere,
    plant_triangles,
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
        self.pairs, self.weights = cotangent_weights(self.mesh)
        self.areas = vertex_areas(self.mesh)
        if self.antipodal_quotient:
            # half of the symmetric sphere mesh covers the quotient once
            self.weights = 0.5 * self.weights
            self.areas = 0.5 * self.areas
        target = self.domain.volume
        if abs(float(np.sum(self.areas)) - target) > 1e-3 * target:
            raise GeometryError("vertex areas do not sum to the domain area")
        canon = self.codomain.canonicalize(self.images)
        if np.max(np.linalg.norm(canon - self.images, axis=-1)) > 1e-10:
            raise GeometryError("images must be canonical points of the codomain")
        if self.antipodal_quotient:
            perm = antipodal_permutation(self.mesh)
            mism = np.linalg.norm(self.images - self.images[perm], axis=-1)
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
    """MeshMap sampling an analytic map at the vertices of an icosphere."""
    mesh = icosphere(level)
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
    cod = m.codomain
    i, j = m.pairs[:, 0], m.pairs[:, 1]
    fwd, ok_f = cod.log_masked(m.images[i], m.images[j])
    bwd, ok_b = cod.log_masked(m.images[j], m.images[i])
    if not (np.all(ok_f) and np.all(ok_b)):
        raise GeometryError("a mesh edge spans the codomain cut locus")
    out = np.zeros_like(m.images)
    np.add.at(out, i, m.weights[:, None] * fwd)
    np.add.at(out, j, m.weights[:, None] * bwd)
    return out / m.areas[:, None]


def _resymmetrized(images, perm):
    out = images.copy()
    keep = np.arange(len(images)) < perm
    out[perm[keep]] = images[keep]
    return out


def flow_minimize(m, step=0.25, iters=200, grad_tol=GRADIENT_TOLERANCE):
    """Projected gradient descent on the discrete energy.

    Vertices move synchronously along the discrete tension scaled by the
    step; a step whose energy increases is halved (up to ten times)
    before the flow is declared stalled, and accepted steps grow the
    step back by 1.3x so the tail converges at the stability limit.
    Returns the final MeshMap and a history of per-iteration records
    (iteration, energy, gradient norm, conformality defect, step).
    """
    perm = antipodal_permutation(m.mesh) if m.antipodal_quotient else None
    current = m
    energy = discrete_energy(current)
    gnorm = float(np.max(m.codomain.norm(discrete_tension(current))))
    history = [_record(0, current, energy, gnorm, step)]
    for it in range(1, iters + 1):
        tau = discrete_tension(current)
        gnorm = float(np.max(m.codomain.norm(tau)))
        if gnorm < grad_tol:
            break
        accepted = False
        for _ in range(10):
            trial = m.codomain.exp(current.images, step * tau)
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
        history.append(_record(it, current, energy, gnorm, step))
    return current, history


def _record(it, m, energy, gnorm, step):
    return {"iteration": it, "energy": energy, "grad_norm": gnorm,
            "defect": conformality_defect(m), "step": step}


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
# interpolation back to an analytic-style map


def _barycentric(tri_inverses, candidates, x):
    lam = np.einsum("...kij,...j->...ki", tri_inverses[candidates], x)
    quality = np.min(lam, axis=-1)
    best = np.argmax(quality, axis=-1)
    take = np.arange(len(x)), best
    return candidates[take], lam[take], quality[take]


def interpolate(m):
    """Piecewise map from barycentric intrinsic averaging of vertex images.

    Locates the mesh triangle containing each query point, then takes
    the weighted Karcher mean (three fixed-point iterations of exp/log
    averaging) of the three vertex images.
    """
    mesh, cod = m.mesh, m.codomain
    tri = mesh.triangles
    corners = mesh.vertices[tri]
    inverses = np.linalg.inv(np.swapaxes(corners, -2, -1))
    centroids = corners.mean(axis=1)
    centroids /= np.linalg.norm(centroids, axis=-1, keepdims=True)
    tree = cKDTree(centroids)
    images = m.images
    domain = m.domain

    def ev(x):
        flat = x.reshape(-1, 3)
        _, cand = tree.query(flat, k=min(12, len(tri)))
        if cand.ndim == 1:
            cand = cand[:, None]
        idx, lam, quality = _barycentric(inverses, cand, flat)
        misses = quality < -1e-9
        if np.any(misses):
            all_cand = np.broadcast_to(np.arange(len(tri)), (int(np.sum(misses)), len(tri)))
            idx_m, lam_m, _ = _barycentric(inverses, all_cand, flat[misses])
            idx[misses], lam[misses] = idx_m, lam_m
        lam = np.clip(lam, 0.0, None)
        lam /= np.sum(lam, axis=-1, keepdims=True)
        pts = images[tri[idx]]
        start = np.argmax(lam, axis=-1)
        y = pts[np.arange(len(flat)), start]
        for _ in range(3):
            vecs, ok = cod.log_masked(y[:, None, :], pts)
            if not np.all(ok):
                raise GeometryError("interpolation spans the codomain cut locus")
            y = cod.exp(y, np.sum(lam[..., None] * vecs, axis=1))
        return y.reshape(x.shape[:-1] + (cod.ambient_dim,))

    return MapObject(domain, cod, ev, smoothness="lipschitz", name="mesh-interpolant")


# ---------------------------------------------------------------------------
# persistence


def meshmap_to_csv(m, path):
    rows = tables.float_columns(m.images)
    cols = rows.shape[1]
    meta = {"level": m.mesh.level, "quotient": int(m.antipodal_quotient),
            "codomain": m.codomain.kind, "columns": cols}
    tables.write_table(path, [([f"c{k}" for k in range(cols)], rows)], meta)


def meshmap_from_csv(path, codomain):
    """Read a MeshMap file; its codomain kind and column count must match `codomain`."""
    meta, [(_, rows)] = tables.read_table(path)
    cols = codomain.ambient_dim * (2 if codomain.dtype == np.complex128 else 1)
    if (meta["codomain"], int(meta["columns"])) != (codomain.kind, cols):
        raise GeometryError(f"{path} holds a map to a {meta['codomain']}, not to {codomain!r}")
    return MeshMap(icosphere(int(meta["level"])), codomain,
                   tables.from_float_columns(rows, codomain.dtype),
                   antipodal_quotient=bool(int(meta["quotient"])))


def write_flow_log(history, path):
    columns = ["iteration", "energy", "grad_norm", "defect", "step"]
    tables.write_table(path, [(columns, [[rec[c] for c in columns] for rec in history])])
