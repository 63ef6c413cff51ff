"""Maps between model manifolds and their first-order calculus.

A :class:`MapObject` is a batch evaluator and the one analytic rule it
is built with, the fused rule (x, v) -> (F(x), dF_x v); its
`differential` is the second half of that rule.  A map cannot be built
without a callable rule, so first-order calculus has one derivative
path, the analytic one.
Per-node quantities are reductions of the differential's columns: |dF|^2
(`energy_density`), sqrt(det G) (`volume_density`) and the pullback Gram
matrix G (`pullback_gram`, the one Gram formula).  Maps x -> P(x) / |P(x)|
share one builder, `normalized_map`: linear maps, embeddings, rational
curves, dilations, conjugation, homotheties and the perturbed identities.
Its pushforward scales lengths by the radius ratio cod.radius /
dom.radius, as representatives are unit vectors, and its fused rule takes
the value and the pushforward from one normalization of P(x).
`identity_map`, `compose` and `normalized_map` are the only builders of
a fused rule: `compose` hands the inner fused pair to the outer fused
rule, so each inner layer is evaluated once.
Quadrature grids and exact low-degree unit-tangent designs live here as
well.

Tangent frames come from one Householder reflection per node, with no
random draw: the energy density is a trace, so any orthonormal frame
gives it.  A `QuadratureGrid` owns the frames `grid_frames` derives from
it: built once, read-only, and gone with the grid; its nodes and weights
are read-only, so the frames cannot go stale under them.

Only frames and differential columns of a batch of at least 8,192 nodes
are computed in 4,096-node blocks, which bounds the temporaries of a
fused rule.  Gram matrices and densities are `reduce`s given
to `differential_columns`: each block reduces its own columns, and only
the reduced values are copied out, so no grid-sized column array is
built.  The frames are the one grid-sized array kept per grid, half of
it on CP^N: a grid keeps the reflected columns h of each frame (h, i h),
and each block completes its own with two contiguous copies just before
the fused call.  The blocks run on a thread pool as wide as the CPUs the
process may use when it may use more than one, and one after another
otherwise.  Every step is per node, so the numbers are bit-identical to
one serial pass; there is no option.

Frame and column arrays lead with the frame axis, (dim, n, amb), so the
fused rule takes the base (1, nodes, amb) against (dim, nodes, amb) with
its arrays contiguous across the nodes; per-node reductions (densities,
Gram matrices) lead with the node axis.
"""

import collections
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import meshes
from .manifolds import (
    ComplexProjective,
    GeometryError,
    _norm,
    is_integer,
    real_inner,
    sphere,
    sphere_volume,
)
from .rand import make_rng

# nodes per block of a batch split by `_by_node_chunks`
NODE_BLOCK = 4096

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


def _pooled(block, starts, workers):
    """block(start) for each start, in order, run on the pool at most
    `workers` blocks ahead of the caller; blocks left unstarted when the
    caller stops are cancelled."""
    pool, pending = _pool(), collections.deque()
    try:
        for start in starts:
            pending.append(pool.submit(block, start))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _by_node_chunks(fn, n, axis=0):
    """fn(s) for node slices s of a batch of n nodes: one call on the whole
    batch, s = slice(None), unless it holds at least two NODE_BLOCK-node
    blocks, and one call per block otherwise.  Each block's result, one
    array with its nodes along `axis`, is copied, in order as it arrives,
    into an output allocated from the first block's result.  The blocks
    run on a thread pool, at most one block per worker ahead of that copy,
    when the process may use more than one CPU, and one after another
    otherwise.  So a block's temporaries bound the memory of a large
    batch on any CPU count, and the output is not held twice.

    `fn` must act on each node alone, so that blocks change no number.
    It runs on pool threads, so it must call no name that
    perfbench/tracing.py wraps (its tracer keeps one span stack per
    process), and it must pass at most one block to this helper: a
    single block runs inline, while a larger batch would wait on a pool
    whose threads may all be waiting on it.
    """
    if n < 2 * NODE_BLOCK:
        return fn(slice(None))

    def block(start):
        return fn(slice(start, start + NODE_BLOCK))

    starts = range(0, n, NODE_BLOCK)
    workers = len(os.sched_getaffinity(0))
    parts = _pooled(block, starts, workers) if workers > 1 else map(block, starts)
    out, lead = None, (slice(None),) * axis
    for start, part in zip(starts, parts):
        if out is None:
            out = np.empty(part.shape[:axis] + (n,) + part.shape[axis + 1:], part.dtype)
        out[lead + (slice(start, start + part.shape[axis]),)] = part
    return out


@dataclass
class MapObject:
    """Map between model manifolds; GeometryError naming it unless both parts are callable.

    evaluator:    batch map of representatives, (..., amb_dom) -> (..., amb_cod)
    fused:        analytic rule (x, v) -> (F(x), dF_x v) from one evaluation,
                  F(x) bit for bit the evaluator's; the base x broadcasts
                  against the vectors v, (1, ..., amb_dom) against
                  (dim, ..., amb_dom) when called for differential columns,
                  so work on the base is done once per node, and dF_x v
                  has the broadcast batch shape
    """

    domain: object
    codomain: object
    evaluator: object
    fused: object = field(repr=False, compare=False)
    name: str = ""

    def __post_init__(self):
        for part in ("evaluator", "fused"):
            if not callable(getattr(self, part)):
                raise GeometryError(f"map {self.name!r} needs a callable {part}, got {getattr(self, part)!r}")

    @property
    def differential(self):
        """The pushforward (x, v) -> dF_x v, the second half of the fused rule."""
        return lambda x, v: self.fused(x, v)[1]

    def __call__(self, x):
        return self.evaluator(x)


def tangent_frames(M, x):
    """Orthonormal tangent frames at points (n, ..., amb), frame axis
    first: shape (dim, n, ..., amb).

    With k the index of the largest |x_k| and w = x + (x_k/|x_k|) e_k, the
    Householder reflection H = I - w w* / (1 + |x_k|) sends x to a
    multiple of e_k, so its columns H e_j, j != k, are orthonormal and
    orthogonal to x.  They are the frame; on CP^N it is followed by i
    times each of them, which spans the rest of the horizontal space.
    """
    return _by_node_chunks(lambda s: _completed(M, _reflection_frames(x[s])), len(x), axis=1)


def _completed(M, h):
    """The frame (h, i h) on a complex space, h itself on a real one; frame axis first."""
    if not M.is_complex:
        return h
    k = len(h)
    full = np.empty((2 * k,) + h.shape[1:], np.result_type(h, 1j))
    full[:k] = h
    np.multiply(1j, h, out=full[k:])
    return full


def _reflection_frames(x):
    """The reflected columns H e_j, j != k, at points (..., amb), frame axis
    first: (amb - 1, ..., amb), built in that layout."""
    amb = x.shape[-1]
    k = np.argmax(np.abs(x), axis=-1)[..., None]
    xk = np.take_along_axis(x, k, axis=-1)
    a = np.abs(xk)
    e = np.arange(amb)
    w = np.where(e == k, x + xk / a, x)
    # the indices j != k in increasing order, (amb - 1, ..., 1); w_j = x_j
    # there, so H e_j = e_j - w conj(x_j) / (1 + |x_k|)
    m = np.arange(amb - 1).reshape((-1,) + (1,) * x.ndim)
    j = m + (m >= k)
    h = np.take_along_axis(x[None], j, axis=-1).conj() / (1.0 + a) * w
    return np.subtract(j == e, h, out=h)


def differential_columns(F, x, frames, reduce=None, kept_frames=False):
    """Pushforwards of the frame vectors (k, n, ..., amb) at the points x
    (n, ..., amb) through the analytic differential of F: the columns
    (k, n, ..., amb_cod).

    With `reduce`, a per-node function of the columns, each node block is
    reduced as it is computed and `reduce(columns)`, node axis first, is
    returned in place of the columns; it runs on the block threads, under
    the rules `_by_node_chunks` sets for its `fn`.  With `kept_frames`,
    `frames` are a grid's kept frames (`grid_frames`), and each block
    completes its own to the full tangent frames, (h, i h) on CP^N, just
    before the fused call.
    """

    def block(s):
        fb = frames[:, s]
        if kept_frames:
            fb = _completed(F.domain, fb)
        cols = F.differential(x[s][None], fb)
        return cols if reduce is None else reduce(cols)

    return _by_node_chunks(block, len(x), axis=1 if reduce is None else 0)


def check_points(label, F, x):
    """GeometryError naming `label` and the map F unless x can hold points
    of F's domain: an array (..., amb) of the domain's ambient dimension,
    real, or complex on a complex domain.  Called on entry, so nothing of
    F is evaluated on points it refuses."""
    M, x = F.domain, np.asarray(x)
    if not (x.ndim and x.shape[-1] == M.ambient_dim and x.dtype.kind in ("iufc" if M.is_complex else "iuf")):
        raise GeometryError(f"{label}: {x.dtype} points of shape {x.shape} are not points "
                            f"of the domain {M!r} of map {F.name!r}")


def pullback_gram(F, x, frames):
    """Pullback Gram matrices G_ij = <dF e_i, dF e_j> at the points x
    (n, ..., amb), node axis first: shape (n, ..., dim, dim)."""
    return differential_columns(F, x, frames, reduce=_gram)


def _gram(cols):
    """Gram matrices (n, ..., k, k) of the columns (k, n, ..., amb)."""
    # exactly symmetric: G_ij and G_ji multiply the same pairs in one order
    return np.moveaxis(real_inner(cols[:, None], cols[None]), (0, 1), (-2, -1))


def volume_density(cols):
    """sqrt(det G) per node from the differential columns (dim, n, ..., amb),
    as the product of G's eigenvalues clamped to be nonnegative."""
    w = np.maximum(np.linalg.eigvalsh(_gram(cols)), 0.0)
    return np.sqrt(np.prod(w, axis=-1))


def energy_density(cols):
    """Squared differential norm |dF|^2 per node from the differential
    columns (dim, n, ..., amb): the sum of <dF e_i, dF e_i>, which is the
    trace of the pullback Gram matrix bit for bit, without building it.
    The squared lengths are summed node-major, along a contiguous last
    axis, since numpy adds 8 or more of them in another order along a
    leading one."""
    return np.sum(np.ascontiguousarray(np.moveaxis(real_inner(cols, cols), 0, -1)), axis=-1)


# ---------------------------------------------------------------------------
# Quadrature grids


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Nodes (n, amb) with one finite weight >= 0 each, both made read-only
    here, since `grid_frames` keeps arrays derived from them; grids compare
    by identity."""

    manifold: object
    nodes: np.ndarray
    weights: np.ndarray
    scheme: str
    derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        nodes, weights = np.asarray(self.nodes), np.asarray(self.weights)
        amb = self.manifold.ambient_dim
        if weights.ndim != 1 or nodes.shape != (len(weights), amb):
            raise GeometryError(f"a grid needs nodes of shape (n, {amb}) and one weight per node, "
                                f"got {nodes.shape} and {weights.shape}")
        if not (weights.dtype.kind in "iuf" and np.all(np.isfinite(weights) & (weights >= 0))):
            raise GeometryError("grid weights must be finite reals >= 0")
        nodes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def total_mass(self):
        return float(np.sum(self.weights))

    def __len__(self):
        return len(self.weights)


# least resolution of each grid scheme: a node count, or a subdivision level
_LEAST_RESOLUTION = {"monte_carlo": 1, "mesh": 0}


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
        return _mesh_grid(M, resolution)
    nodes = M.random_point(make_rng(seed), resolution)
    w = np.full(resolution, M.volume / resolution)
    return QuadratureGrid(M, nodes, w, scheme)


def _mesh_grid(M, level):
    mesh = meshes.icosphere(level)
    areas = meshes.vertex_areas(mesh)
    if M.kind in ("sphere", "real_projective") and M.n == 2:
        nodes = M.canonicalize(mesh.vertices)
        return QuadratureGrid(M, nodes, areas * M.radius**2 / M.sheets, "mesh")
    if isinstance(M, ComplexProjective) and M.N == 1:
        nodes = M.canonicalize(cp1_from_sphere(mesh.vertices))
        return QuadratureGrid(M, nodes, 0.25 * areas, "mesh")
    raise GeometryError(f"no mesh scheme for {M!r}")


def grid_frames(grid):
    """`tangent_frames` at the grid nodes, frame axis first, (k, n, amb):
    built once, in that layout, and kept, read-only, on the grid.  On CP^N
    only the columns h of each frame (h, i h), which
    `differential_columns(..., kept_frames=True)` completes block by block."""
    nodes = grid.nodes
    return meshes.kept(grid.derived, "frames",
                       lambda: _by_node_chunks(lambda s: _reflection_frames(nodes[s]), len(nodes), axis=1))


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
    return MapObject(M, M, lambda x: x, lambda x, v: (x, v), "identity")


def compose(outer, inner):
    """outer after inner; chains the fused rules, so the inner map is
    evaluated once per pushforward.  GeometryError unless inner's codomain
    is outer's domain."""
    # a model space's repr names its kind, dimension and radius
    if repr(inner.codomain) != repr(outer.domain):
        raise GeometryError(f"cannot compose {outer.name!r} on {outer.domain!r} after "
                            f"{inner.name!r} into {inner.codomain!r}")

    def fused(x, v):
        return outer.fused(*inner.fused(x, v))

    return MapObject(inner.domain, outer.codomain, lambda x: outer(inner(x)), fused,
                     f"{outer.name}∘{inner.name}")


def normalized_map(dom, cod, P, dP, name):
    """Map x -> P(x) / |P(x)| on representatives; dP(x, v) is the derivative of P along v.

    Representatives are unit vectors, so a tangent vector's length is
    scaled by cod.radius / dom.radius on its way through the map.  The
    evaluator and the fused rule share one `_normalization` of P(x).
    """
    scale = cod.radius / dom.radius

    def ev(x):
        return _normalization(cod, P(x), name)[0]

    def fused(x, v):
        y, push = _normalization(cod, P(x), name)
        return y, scale * push(dP(x, v))

    return MapObject(dom, cod, ev, fused, name)


def _normalization(cod, y, name):
    """The canonical representative of y / |y| and the pushforward of dy
    through y -> y / |y| there; GeometryError naming the map where |y| vanishes."""
    n = _norm(y)[..., None]
    if (n < 1e-12).any():
        raise GeometryError(f"map {name!r} vanishes on a representative")
    u = y / n
    c, f = cod.canonicalize_with_factor(u)
    return c, lambda dy: f[..., None] * cod.project_tangent(u, dy / n)


def normalized_linear_map(dom, cod, A, name=""):
    """Map induced by x -> A x / |A x| on representatives.

    Covers isometries, projective-linear maps, totally geodesic
    inclusions (rectangular A), quotient covers, and smooth
    'linear stretch' test maps.  A has shape (amb_cod, amb_dom), and is
    real when the codomain is; GeometryError naming the map otherwise.
    """
    A, name = np.asarray(A), name or "normalized_linear"
    if A.shape != (cod.ambient_dim, dom.ambient_dim):
        raise GeometryError(f"map {name!r} from {dom!r} into {cod!r} needs a matrix of shape "
                            f"({cod.ambient_dim}, {dom.ambient_dim}), got {A.shape}")
    if np.iscomplexobj(A) and not cod.is_complex:
        raise GeometryError(f"map {name!r} into {cod!r} needs a real matrix")

    def P(x):
        return np.einsum("ij,...j->...i", A, x)

    # a linear map is its own derivative
    return normalized_map(dom, cod, P, lambda x, v: P(v), name)


def homothety_map(dom, cod):
    """Identity on representatives between rescaled copies of the same model."""
    if dom.ambient_dim != cod.ambient_dim or dom.kind != cod.kind:
        raise GeometryError("homothety requires rescaled copies of one model")
    return normalized_linear_map(dom, cod, np.eye(dom.ambient_dim), "homothety")


# ---------------------------------------------------------------------------
# Exact unit-tangent designs (Croke-style direction averages)


def _design_coefficients(d):
    """Direction coefficients and weights on S^{d-1}, exact through degree 3:
    the rotated cross-polytope, the rows of a fixed rotation q and of -q,
    each of weight sigma(d-1) / 2d.  The rotation keeps the directions off
    the frame vectors, so the average is not the frame's own sum."""
    q = sphere(d - 1).random_isometry(make_rng(7 * d + 1))
    return np.concatenate([q, -q], axis=0), np.full(2 * d, sphere_volume(d - 1) / (2 * d))


def unit_tangent_quadrature(M, x):
    """Weighted unit-tangent directions at x, exact for polynomials through
    degree 3; weights sum to the area of the unit (dim-1)-sphere."""
    frame = tangent_frames(M, x)
    coeffs, w = _design_coefficients(M.dim)
    dirs = np.einsum("jd,d...a->j...a", coeffs, frame)
    return dirs, w
