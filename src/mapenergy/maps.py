"""Maps between model manifolds and their first-order calculus.

A :class:`MapObject` bundles a batch evaluator with an optional analytic
differential.  When no analytic differential is present, directional
derivatives are central differences pushed through the codomain
logarithm, which keeps every computed vector an honest tangent vector.
Pullback Gram matrices, quadrature grids, and exact low-degree
unit-tangent designs live here as well.

A `QuadratureGrid` owns the frames `grid_frames` derives from it: drawn
once per salt, read-only, and gone with the grid.

Frames, differential columns and pullback Gram matrices of a batch of at
least 16,384 nodes are computed in 8,192-node blocks on a thread pool as
wide as the CPUs the process may use.  Every step is per node, so the
numbers are bit-identical to one serial pass; there is no option.
"""

import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import meshes
from .manifolds import (
    ComplexProjective,
    GeometryError,
    real_inner,
    sphere_volume,
)
from .rand import make_rng, spawn

DEFAULT_FD_STEP = 1e-4

# nodes per block of a batch split across CPUs by `_by_node_chunks`
NODE_BLOCK = 8192

# the block pool of each process id: a forked child makes its own
_POOLS = {}
_POOLS_LOCK = threading.Lock()


def _pool():
    pid = os.getpid()
    with _POOLS_LOCK:
        if pid not in _POOLS:
            _POOLS.clear()
            _POOLS[pid] = ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0)),
                                             thread_name_prefix="mapenergy-block")
        return _POOLS[pid]


def _by_node_chunks(fn, x, *arrays):
    """fn(x, *arrays), in NODE_BLOCK-node blocks of the leading axis on a
    thread pool when that axis holds at least two blocks and the process
    may use more than one CPU; the results (an array or a tuple of
    arrays) are concatenated along that axis.

    `fn` must act on each node alone, so that blocks change no number.
    It runs on pool threads, so it must call no name that
    perfbench/tracing.py wraps (its tracer keeps one span stack per
    process), and it must pass at most one block to this helper: a
    single block runs inline, while a larger batch would wait on a pool
    whose threads may all be waiting on it.
    """
    n = len(x)
    if n < 2 * NODE_BLOCK or len(os.sched_getaffinity(0)) < 2:
        return fn(x, *arrays)

    def block(start):
        stop = start + NODE_BLOCK
        return fn(x[start:stop], *(a[start:stop] for a in arrays))

    parts = list(_pool().map(block, range(0, n, NODE_BLOCK)))
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(column) for column in zip(*parts))
    return np.concatenate(parts)


@dataclass
class MapObject:
    """Map between model manifolds.

    evaluator:    batch map of representatives, (..., amb_dom) -> (..., amb_cod)
    differential: optional analytic pushforward (x, v) -> w with matching
                  batch shapes; None means finite differences
    """

    domain: object
    codomain: object
    evaluator: object
    differential: object = None
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
    return _by_node_chunks(lambda xb, gb: _real_orthonormalize(M.project_tangent(xb[..., None, :], gb)),
                           x, g)


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


def frame_at(M, x):
    """Deterministic orthonormal frame at a single point."""
    xb = x[None] if x.ndim == 1 else x
    f = random_frames(M, xb, make_rng(0))
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
    return _by_node_chunks(lambda xb, fb: _columns(F, xb, fb, h), x, frames)


def _columns(F, x, frames, h):
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


def pullback_gram(F, x, frames):
    """Pullback Gram matrices G_ij = <dF e_i, dF e_j>, shape (..., dim, dim)."""
    cols, ok = differential_columns(F, x, frames)
    return _by_node_chunks(_gram, cols), ok


def _gram(cols):
    G = real_inner(cols[..., :, None, :], cols[..., None, :, :])
    return 0.5 * (G + np.swapaxes(G, -1, -2))


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
    seed: int = 0
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def total_mass(self):
        return float(np.sum(self.weights))

    def __len__(self):
        return len(self.weights)


# least resolution of each grid scheme: a node count, or a subdivision level
_LEAST_RESOLUTION = {"monte_carlo": 1, "mesh": 0}


def is_integer(value):
    """True for Python and numpy integers, False for bools and everything else."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def is_finite_real(value):
    """True for finite Python and numpy reals, False for bools and everything else."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)


def checked_resolution(scheme, resolution):
    """`resolution` as an int; GeometryError unless an integer >= the scheme's least."""
    if scheme not in _LEAST_RESOLUTION:
        raise GeometryError(f"unknown grid scheme {scheme!r}")
    least = _LEAST_RESOLUTION[scheme]
    if not is_integer(resolution) or resolution < least:
        raise GeometryError(f"a {scheme} grid needs an integer resolution >= {least}, got {resolution!r}")
    return int(resolution)


def build_grid(M, resolution, scheme="monte_carlo", seed=0):
    """Quadrature grid integrating to the manifold volume.

    monte_carlo:    `resolution` uniform nodes, equal weights
    mesh:           subdivided icosahedron at level `resolution`
                    (2-spheres, RP^2, and CP^1 via the Hopf chart)

    `resolution` is an integer, at least 1 for monte_carlo and 0 for mesh.
    """
    resolution = checked_resolution(scheme, resolution)
    if scheme == "mesh":
        return _mesh_grid(M, resolution, seed)
    nodes = M.random_point(make_rng(seed), resolution)
    w = np.full(resolution, M.volume / resolution)
    return QuadratureGrid(M, nodes, w, scheme, seed)


def _mesh_grid(M, level, seed):
    mesh = meshes.icosphere(level)
    areas = meshes.vertex_areas(mesh)
    if M.kind in ("sphere", "real_projective") and M.n == 2:
        nodes = M.canonicalize(mesh.vertices)
        return QuadratureGrid(M, nodes, areas * M.radius**2 / M.sheets, "mesh", seed)
    if isinstance(M, ComplexProjective) and M.N == 1:
        nodes = M.canonicalize(cp1_from_sphere(mesh.vertices))
        return QuadratureGrid(M, nodes, 0.25 * areas, "mesh", seed)
    raise GeometryError(f"no mesh scheme for {M!r}")


def grid_frames(grid, salt=0):
    """Deterministic frames at the grid nodes, derived from the grid seed:
    drawn once per salt and kept, read-only, on the grid."""
    return meshes.kept(grid.derived, salt,
                       lambda: random_frames(grid.manifold, grid.nodes, spawn(grid.seed, 1000 + salt)))


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
    return MapObject(
        inner.domain, outer.codomain,
        lambda x: outer(inner(x)),
        differential=diff,
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


def _design_coefficients(d):
    """Direction coefficients and weights on S^{d-1}, exact through degree 3.

    d = 2: 6 equally spaced angles (exact through degree 5);
    d = 3: rotated icosahedron (a spherical 5-design);
    d >= 4: rotated cross-polytope (exact through degree 3).
    """
    if d == 2:
        t = 2 * np.pi * np.arange(6) / 6
        return np.stack([np.cos(t), np.sin(t)], axis=-1), np.full(6, 2 * np.pi / 6)
    if d == 3:
        ico = meshes.icosahedron()[0]
        q = _fixed_rotation(3)
        return ico @ q.T, np.full(12, sphere_volume(2) / 12.0)
    q = _fixed_rotation(d)
    coeffs = np.concatenate([q, -q], axis=0)
    return coeffs, np.full(2 * d, sphere_volume(d - 1) / (2 * d))


def _fixed_rotation(d):
    g = make_rng(7 * d + 1).standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def unit_tangent_quadrature(M, x):
    """Weighted unit-tangent directions at x, exact for polynomials through
    degree 3; weights sum to the area of the unit (dim-1)-sphere."""
    frame = frame_at(M, x)
    coeffs, w = _design_coefficients(M.dim)
    dirs = np.einsum("jd,...da->j...a", coeffs, frame)
    return dirs, w
