"""Maps between model manifolds and their first-order calculus.

A :class:`MapObject` bundles a batch evaluator with an optional analytic
differential.  When no analytic differential is present, directional
derivatives are central differences pushed through the codomain
logarithm, which keeps every computed vector an honest tangent vector.
Pullback Gram matrices, quadrature grids, and exact low-degree
unit-tangent designs live here as well.

A `QuadratureGrid` owns the frames `grid_frames` derives from it: drawn
once per (salt, unitary), read-only, and gone with the grid.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import meshes, tables
from .manifolds import (
    ComplexProjective,
    GeometryError,
    Product,
    real_inner,
    sphere_volume,
)
from .rand import make_rng, spawn

DEFAULT_FD_STEP = 1e-4


@dataclass
class MapObject:
    """Map between model manifolds.

    evaluator:    batch map of representatives, (..., amb_dom) -> (..., amb_cod)
    differential: optional analytic pushforward (x, v) -> w with matching
                  batch shapes; None means finite differences
    smoothness:   'smooth' or 'lipschitz'; Lipschitz maps may fail to be
                  differentiable on a null set, which biases quadrature
                  estimates and is flagged downstream
    """

    domain: object
    codomain: object
    evaluator: object
    differential: object = None
    smoothness: str = "smooth"
    name: str = ""

    def __call__(self, x):
        return self.evaluator(x)


def random_frames(M, x, rng):
    """Orthonormal tangent frames at a batch of points, shape (..., dim, ambient)."""
    d = M.dim
    shape = x.shape[:-1] + (d, x.shape[-1])
    g = rng.standard_normal(shape)
    if M.is_complex or np.iscomplexobj(x):
        g = g + 1j * rng.standard_normal(shape)
    g = M.project_tangent(x[..., None, :], g)
    return _real_orthonormalize(g)


def _real_orthonormalize(vecs):
    """Gram-Schmidt rows of (..., d, amb) for the real inner product."""
    d = vecs.shape[-2]
    out = np.array(vecs, copy=True)
    for i in range(d):
        vi = out[..., i, :]
        for j in range(i):
            vj = out[..., j, :]
            vi = vi - real_inner(vj, vi)[..., None] * vj
        out[..., i, :] = vi / np.sqrt(real_inner(vi, vi))[..., None]
    return out


def unitary_frames(M, x, rng):
    """Frames on a complex projective space of the form (u1, i u1, u2, i u2, ...)."""
    if not isinstance(M, ComplexProjective):
        raise GeometryError("unitary frames require a complex projective manifold")
    N = M.N
    shape = x.shape[:-1] + (N, x.shape[-1])
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g = M.project_tangent(x[..., None, :], g)
    # complex Gram-Schmidt
    for i in range(N):
        vi = g[..., i, :]
        for j in range(i):
            vj = g[..., j, :]
            vi = vi - np.sum(vj.conj() * vi, axis=-1)[..., None] * vj
        g[..., i, :] = vi / np.sqrt(real_inner(vi, vi))[..., None]
    frame = np.empty(x.shape[:-1] + (2 * N, x.shape[-1]), dtype=complex)
    frame[..., 0::2, :] = g
    frame[..., 1::2, :] = 1j * g
    return frame


def frame_at(M, x, unitary=False):
    """Deterministic orthonormal frame at a single point."""
    xb = x[None] if x.ndim == 1 else x
    rng = make_rng(0)
    f = unitary_frames(M, xb, rng) if unitary else random_frames(M, xb, rng)
    return f[0] if x.ndim == 1 else f


def log_probes(F, x, v, h, y0=None):
    """log_{F(x)} F(exp_x(h v)) and log_{F(x)} F(exp_x(-h v)), and where both
    are defined; `y0` is F(x) when the caller already has it."""
    dom, cod = F.domain, F.codomain
    y0 = F(x) if y0 is None else y0
    vp, okp = cod.log_masked(y0, F(dom.exp(x, h * v)))
    vm, okm = cod.log_masked(y0, F(dom.exp(x, -h * v)))
    return vp, vm, okp & okm


def differential_columns(F, x, frames, h=DEFAULT_FD_STEP):
    """Pushforwards of the frame vectors, (..., dim, amb_cod), with validity mask.

    Uses the analytic differential when available, else central
    differences through the codomain logarithm.
    """
    if F.differential is not None:
        xb = np.broadcast_to(x[..., None, :], frames.shape[:-1] + (x.shape[-1],))
        return F.differential(xb, frames), np.ones(x.shape[:-1], dtype=bool)
    y0 = F(x)
    cols = []
    ok = np.ones(x.shape[:-1], dtype=bool)
    for i in range(frames.shape[-2]):
        vp, vm, ok_i = log_probes(F, x, frames[..., i, :], h, y0)
        cols.append((vp - vm) / (2.0 * h))
        ok &= ok_i
    return np.stack(cols, axis=-2), ok


def pullback_gram(F, x, frames, h=DEFAULT_FD_STEP):
    """Pullback Gram matrices G_ij = <dF e_i, dF e_j>, shape (..., dim, dim)."""
    cols, ok = differential_columns(F, x, frames, h)
    G = real_inner(cols[..., :, None, :], cols[..., None, :, :])
    G = 0.5 * (G + np.swapaxes(G, -1, -2))
    return G, ok


def gram_eigenvalues(G):
    """Eigenvalues of pullback Gram matrices, clamped to be nonnegative."""
    w = np.linalg.eigvalsh(G)
    return np.maximum(w, 0.0)


def energy_density(G):
    """Squared differential norm: trace of the pullback Gram matrix."""
    return np.trace(G, axis1=-2, axis2=-1)


# ---------------------------------------------------------------------------
# Quadrature grids


@dataclass
class QuadratureGrid:
    manifold: object
    nodes: np.ndarray
    weights: np.ndarray
    scheme: str
    resolution: int
    seed: int = 0
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def total_mass(self):
        return float(np.sum(self.weights))

    def __len__(self):
        return len(self.weights)


def build_grid(M, resolution, scheme="monte_carlo", seed=0):
    """Quadrature grid integrating to the manifold volume.

    monte_carlo:    `resolution` uniform nodes, equal weights
    mesh:           subdivided icosahedron at level `resolution`
                    (2-spheres, RP^2, and CP^1 via the Hopf chart)
    product_angles: tensor product of factor grids on product manifolds
    """
    if scheme == "monte_carlo":
        rng = make_rng(seed)
        nodes = M.random_point(rng, int(resolution))
        w = np.full(len(nodes), M.volume / len(nodes))
        return QuadratureGrid(M, nodes, w, scheme, int(resolution), seed)
    if scheme == "mesh":
        return _mesh_grid(M, resolution, seed)
    if scheme == "product_angles":
        if not isinstance(M, Product):
            raise GeometryError("product_angles grids require a product manifold")
        parts = [build_grid(f, resolution, "monte_carlo", seed + 31 * i) for i, f in enumerate(M.factors)]
        idx = np.meshgrid(*[np.arange(len(p)) for p in parts], indexing="ij")
        nodes = np.concatenate(
            [p.nodes[i.ravel()] for p, i in zip(parts, idx)], axis=-1
        ).astype(M.dtype)
        w = np.ones(idx[0].size)
        for p, i in zip(parts, idx):
            w = w * p.weights[i.ravel()]
        return QuadratureGrid(M, nodes, w, scheme, int(resolution), seed)
    raise GeometryError(f"unknown grid scheme {scheme!r}")


def _mesh_grid(M, level, seed):
    mesh = meshes.icosphere(int(level))
    areas = meshes.vertex_areas(mesh)
    if M.kind in ("sphere", "real_projective") and M.n == 2:
        nodes = M.canonicalize(mesh.vertices)
        return QuadratureGrid(M, nodes, areas * M.radius**2 / M.sheets, "mesh", int(level), seed)
    if isinstance(M, ComplexProjective) and M.N == 1:
        nodes = M.canonicalize(cp1_from_sphere(mesh.vertices))
        return QuadratureGrid(M, nodes, 0.25 * areas, "mesh", int(level), seed)
    raise GeometryError(f"no mesh scheme for {M!r}")


def grid_frames(grid, salt=0, unitary=False):
    """Deterministic frames at the grid nodes, derived from the grid seed:
    drawn once per (salt, unitary) and kept, read-only, on the grid."""
    draw = unitary_frames if unitary else random_frames
    return meshes.kept(grid.derived, (salt, bool(unitary)),
                       lambda: draw(grid.manifold, grid.nodes, spawn(grid.seed, 1000 + salt)))


# ---------------------------------------------------------------------------
# Hopf chart: CP^1 as the unit 2-sphere


def cp1_to_sphere(z):
    """Unit vector (|z0|^2-|z1|^2, 2 Re conj(z0) z1, 2 Im conj(z0) z1)."""
    z0, z1 = z[..., 0], z[..., 1]
    c = z0.conj() * z1
    return np.stack([(z0.conj() * z0 - z1.conj() * z1).real, 2 * c.real, 2 * c.imag], axis=-1)


def cp1_from_sphere(p):
    """Inverse of :func:`cp1_to_sphere` up to phase."""
    p1 = p[..., 0]
    near_south = p1 < -1.0 + 1e-12
    z = np.stack([1.0 + p1, p[..., 1] + 1j * p[..., 2]], axis=-1)
    z = np.where(near_south[..., None], np.array([0.0, 1.0], dtype=complex), z)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Map constructors


def identity_map(M):
    return MapObject(M, M, lambda x: x, differential=lambda x, v: v, name="identity")


def compose(outer, inner, name=""):
    """outer after inner; chains analytic differentials when both exist."""
    if inner.codomain.ambient_dim != outer.domain.ambient_dim:
        raise GeometryError("composition domain/codomain mismatch")
    diff = None
    if outer.differential is not None and inner.differential is not None:
        def diff(x, v):
            return outer.differential(inner(x), inner.differential(x, v))
    smooth = "smooth" if outer.smoothness == inner.smoothness == "smooth" else "lipschitz"
    return MapObject(
        inner.domain, outer.codomain,
        lambda x: outer(inner(x)),
        differential=diff, smoothness=smooth,
        name=name or f"{outer.name}∘{inner.name}",
    )


def normalized_linear_map(dom, cod, A, name=""):
    """Map induced by x -> A x / |A x| on representatives.

    Covers isometries, projective-linear maps, totally geodesic
    inclusions (rectangular A), quotient covers, and smooth
    'linear stretch' test maps.  A has shape (amb_cod, amb_dom).
    """
    A = np.asarray(A)

    def ev(x):
        y = np.einsum("ij,...j->...i", A, x)
        n = np.linalg.norm(y, axis=-1, keepdims=True)
        if np.any(n < 1e-12):
            raise GeometryError("linear map vanishes on a representative")
        return cod.canonicalize(y / n)

    def diff(x, v):
        y = np.einsum("ij,...j->...i", A, x)
        n = np.linalg.norm(y, axis=-1, keepdims=True)
        yc, f = cod.canonicalize_with_factor(y / n)
        w = cod.project_tangent(y / n, np.einsum("ij,...j->...i", A, v) / n)
        return f[..., None] * w

    return MapObject(dom, cod, ev, differential=diff, name=name or "normalized_linear")


def homothety_map(dom, cod, name="homothety"):
    """Identity on representatives between rescaled copies of the same model."""
    if dom.ambient_dim != cod.ambient_dim or dom.kind != cod.kind:
        raise GeometryError("homothety requires rescaled copies of one model")
    scale = getattr(cod, "radius", 1.0) / getattr(dom, "radius", 1.0)

    def ev(x):
        return cod.canonicalize(x)

    def diff(x, v):
        _, f = cod.canonicalize_with_factor(x)
        return scale * f[..., None] * v

    return MapObject(dom, cod, ev, differential=diff, name=name)


# ---------------------------------------------------------------------------
# Exact unit-tangent designs (Croke-style direction averages)


def _design_coefficients(d, order):
    """Direction coefficients and weights on S^{d-1}, exact through `order`.

    d = 2: equally spaced angles (exact through count-1);
    d = 3: rotated icosahedron (a spherical 5-design);
    d >= 4: rotated cross-polytope (exact through degree 3).
    """
    if order < 2:
        order = 2
    if d == 2:
        K = max(order + 1, 6)
        t = 2 * np.pi * np.arange(K) / K
        return np.stack([np.cos(t), np.sin(t)], axis=-1), np.full(K, 2 * np.pi / K)
    if d == 3:
        if order > 5:
            raise GeometryError("unit-tangent designs in dim 3 support order <= 5")
        ico = meshes.icosahedron()[0]
        q = _fixed_rotation(3)
        return ico @ q.T, np.full(12, sphere_volume(2) / 12.0)
    if order > 3:
        raise GeometryError("unit-tangent designs in dim >= 4 support order <= 3")
    q = _fixed_rotation(d)
    coeffs = np.concatenate([q, -q], axis=0)
    return coeffs, np.full(2 * d, sphere_volume(d - 1) / (2 * d))


def _fixed_rotation(d):
    g = make_rng(7 * d + 1).standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def unit_tangent_quadrature(M, x, order=3):
    """Weighted unit-tangent directions at x, exact for polynomials of the
    design's degree; weights sum to the area of the unit (dim-1)-sphere."""
    frame = frame_at(M, x)
    coeffs, w = _design_coefficients(M.dim, order)
    dirs = np.einsum("jd,...da->j...a", coeffs, frame)
    return dirs, w


# ---------------------------------------------------------------------------
# Grid serialization


def _node_columns(M):
    if M.dtype == np.complex128:
        return [f"{part}{i}" for i in range(M.ambient_dim) for part in ("re", "im")]
    return [f"x{i}" for i in range(M.ambient_dim)]


def grid_to_csv(grid, path):
    """Table of node components (complex ones as re, im pairs) then weight."""
    rows = np.column_stack([tables.float_columns(grid.nodes), grid.weights])
    meta = {"scheme": grid.scheme, "resolution": grid.resolution, "seed": grid.seed}
    tables.write_table(path, [(_node_columns(grid.manifold) + ["weight"], rows)], meta)


def grid_from_csv(M, path):
    meta, [(_, rows)] = tables.read_table(path)
    nodes = tables.from_float_columns(rows[:, :-1], M.dtype)
    return QuadratureGrid(M, nodes, rows[:, -1], meta["scheme"],
                          int(meta["resolution"]), int(meta["seed"]))
