"""Model Riemannian manifolds represented by ambient unit vectors.

Points live on the unit sphere of an ambient real or complex vector space:

* ``Sphere(n, r)`` -- round n-sphere of radius r; points are unit
  representatives in R^{n+1}, tangent vectors carry physical length.
* ``RealProjective(n, r)`` -- quotient of the radius-r sphere by the
  antipodal map; representatives have their first nonzero coordinate
  positive.
* ``ComplexProjective(N)`` -- Fubini-Study metric normalized so the
  sectional curvature lies in [1, 4] (quotient of the unit round
  S^{2N+1}); representatives are unit vectors in C^{N+1} with the first
  nonzero coordinate real and positive, tangent vectors are horizontal
  lifts.

All operations broadcast over leading batch axes; the ambient coordinate
axis is always the last one.  Sums over that short axis are slice adds
from left to right onto 0.0 (`_sum_last`), which is the order in which
numpy's `np.sum` adds fewer than 8 reals or 1-3 complex numbers, so
they give its numbers bit for bit without its per-node reduction loop.
"""

import math
import numbers

import numpy as np
from scipy.special import gammaln

# Guard band around the cut locus for logarithm computations.
CUT_GUARD = 1e-6

_PIVOT_TOL = 1e-8


class GeometryError(ValueError):
    pass


class CutLocusError(GeometryError):
    """Raised when a logarithm is requested at or beyond the cut locus."""


def is_integer(value):
    """True for Python and numpy integers, False for bools and everything else."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def is_finite_real(value):
    """True for finite Python and numpy reals, False for bools and everything else."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)


def sphere_volume(n, r=1.0):
    """Volume of the round n-sphere of radius r (sigma(n) * r^n)."""
    log_sigma = math.log(2.0) + 0.5 * (n + 1) * math.log(math.pi) - gammaln(0.5 * (n + 1))
    return math.exp(log_sigma) * r**n


def _sum_last(a):
    """np.sum(a, axis=-1) as slice adds, in numpy's order for a short last axis.

    The start 0.0 + a[..., 0] is numpy's identity start, so signed zeros
    agree too, and it keeps the memory order of the slice, as np.sum's
    result does; later sums (einsum in `croke_density`) depend on it.
    """
    s = a[..., 0] + 0.0
    for k in range(1, a.shape[-1]):
        s += a[..., k]
    return s


def _norm(v):
    return np.sqrt(_sum_last((v * v.conj()).real))


def _dot(u, v):
    """Hermitian inner product, conjugating the first slot."""
    return _sum_last(u.conj() * v)


def real_inner(u, v):
    """Riemannian inner product of tangent vectors (real part of the ambient one)."""
    return _sum_last((u.conj() * v).real)


def _pivot_factor(x):
    """Unit scalar that makes the first coordinate of magnitude > _PIVOT_TOL real positive."""
    idx = np.argmax(np.abs(x) > _PIVOT_TOL, axis=-1)
    pivot = np.take_along_axis(x, idx[..., None], axis=-1)[..., 0]
    if np.iscomplexobj(x):
        return pivot.conj() / np.abs(pivot)
    return np.sign(pivot)


def _canonicalize_by_pivot(self, x):
    """Representative with its pivot coordinate real positive, and the scalar applied."""
    f = _pivot_factor(x)
    return x * f[..., None], f


class ModelManifold:
    """Common surface for the model spaces.

    The sphere, its quotient and CP^N share exp, log and distance: each
    keeps unit representatives on the sphere of `radius`, and its
    `_gauge(x, y)` gives c = <x, g y> and the unit scalar g for which
    g y is the representative of y nearest x.
    """

    kind = "abstract"
    is_complex = False

    def canonicalize(self, x):
        return self.canonicalize_with_factor(x)[0]

    def canonicalize_with_factor(self, x):
        """Canonical representative together with the unit scalar applied to x.

        The same scalar maps tangent representatives at x to tangent
        representatives at the canonical point.
        """
        return x, np.ones(x.shape[:-1], dtype=x.dtype)

    def project_tangent(self, x, u):
        raise NotImplementedError

    def norm(self, v):
        return _norm(v)

    def exp(self, x, v):
        return self.canonicalize(_exp(x, v, self.radius))

    def _fold(self, x, y):
        """<x, y'> and the representative y' = g y of y nearest x."""
        c, g = self._gauge(x, y)
        return np.clip(c, -1.0, 1.0), y if g is None else g[..., None] * y

    def gauge(self, x, y):
        """The unit scalars g for which g y is the representative of y nearest x."""
        c, g = self._gauge(x, y)
        return np.ones_like(c) if g is None else g

    def log_masked(self, x, y):
        """Logarithm with a validity mask instead of an exception."""
        c, y = self._fold(x, y)
        return _log_masked(x, y, c, self.radius, self.cut_distance)

    def distance(self, x, y):
        c, y = self._fold(x, y)
        return self.radius * _angle(x, y, c)[0]

    def gaussian(self, rng, shape):
        """Standard Gaussian array in the space's scalars: on a complex
        space the real part is drawn first, then the imaginary part."""
        g = rng.standard_normal(shape)
        if self.is_complex:
            g = g + 1j * rng.standard_normal(shape)
        return g

    def random_point(self, rng, size=()):
        """Uniformly distributed canonical points."""
        if isinstance(size, int):
            size = (size,)
        g = self.gaussian(rng, size + (self.ambient_dim,))
        return self.canonicalize(g / _norm(g)[..., None])

    def random_isometry(self, rng):
        """Haar-random isometry: Q of a Gaussian QR times conj(d) / |d|, d = diag(R) (+-1 if real)."""
        q, r = np.linalg.qr(self.gaussian(rng, (self.ambient_dim, self.ambient_dim)))
        d = np.diag(r)
        return q * (d.conj() / np.abs(d))

    def random_unit_tangent(self, rng, x):
        v = self.project_tangent(x, self.gaussian(rng, x.shape))
        return v / _norm(v)[..., None]


def _exp(x, v, r):
    """Great-circle exponential on the radius-r sphere of unit representatives."""
    theta = _norm(v) / r
    small = theta < 1e-300
    dirs = np.where(small[..., None], x, v / np.where(small, 1.0, theta * r)[..., None])
    y = np.cos(theta)[..., None] * x + np.sin(theta)[..., None] * dirs
    return y / _norm(y)[..., None]


def _angle(x, y, c):
    """Angle from x to the representative y with c = <x, y>; also y - c x and its norm."""
    raw = y - c[..., None] * x
    rn = _norm(raw)
    # |raw| = sin(theta); atan2 keeps full precision at small angles
    return np.arctan2(rn, c), raw, rn


def _log_masked(x, y, c, r, cut):
    """Logarithm toward the representative y with c = <x, y> >= -1, and its mask."""
    theta, raw, rn = _angle(x, y, c)
    ok = r * theta < cut - CUT_GUARD
    safe = rn > 1e-300
    v = (r * theta / np.where(safe, rn, 1.0))[..., None] * raw
    v = np.where(safe[..., None], v, 0.0)
    return v, ok


class Sphere(ModelManifold):
    kind = "sphere"
    # unit vectors representing one point: 2 on the antipodal quotient
    sheets = 1

    def __init__(self, n, r=1.0):
        if not (is_integer(n) and n >= 1 and is_finite_real(r) and r > 0):
            raise GeometryError(f"need an integer dimension >= 1 and a finite radius > 0, "
                                f"got n={n!r}, r={r!r}")
        self.n = n
        self.dim = n
        self.ambient_dim = n + 1
        self.radius = float(r)
        self.volume = sphere_volume(n, r) / self.sheets
        self.cut_distance = math.pi * self.radius / self.sheets
        self.dtype = np.float64

    def __repr__(self):
        return f"Sphere(n={self.n}, r={self.radius})"

    def _gauge(self, x, y):
        """<x, g y> and g: 1 (as None), or +-1 on the quotient."""
        c = _sum_last(x * y)
        if self.sheets == 2:
            return np.abs(c), np.where(c >= 0, 1.0, -1.0)
        return c, None

    def project_tangent(self, x, u):
        u = u.real if np.iscomplexobj(u) else u
        return u - _sum_last(x * u)[..., None] * x


class RealProjective(Sphere):
    kind = "real_projective"
    sheets = 2

    def __repr__(self):
        if self.radius == 1.0:
            return f"RealProjective(n={self.n})"
        return f"RealProjective(n={self.n}, r={self.radius})"

    canonicalize_with_factor = _canonicalize_by_pivot


class ComplexProjective(ModelManifold):
    kind = "complex_projective"
    is_complex = True
    # representatives lie on the unit sphere of C^{N+1}
    radius = 1.0

    def __init__(self, N):
        if not (is_integer(N) and N >= 1):
            raise GeometryError(f"need an integer complex dimension >= 1, got {N!r}")
        self.N = N
        self.dim = 2 * N
        self.ambient_dim = N + 1
        self.volume = math.pi**N / math.factorial(N)
        self.cut_distance = math.pi / 2.0
        self.dtype = np.complex128

    def __repr__(self):
        return f"ComplexProjective(N={self.N})"

    canonicalize_with_factor = _canonicalize_by_pivot

    def project_tangent(self, x, u):
        """Horizontal projection: remove the complex span of the representative."""
        u = u.astype(np.complex128, copy=False)
        return u - _dot(x, u)[..., None] * x

    def _gauge(self, x, y):
        """|<x, y>| and the phase g that makes <x, g y> real nonnegative."""
        h = _dot(x, y)
        r = np.abs(h)
        return r, np.where(r > 1e-300, h.conj() / np.where(r > 1e-300, r, 1.0), 1.0 + 0j)

    def killing_field(self, a, x):
        """Horizontal value at x of the field generated by skew-Hermitian a."""
        return self.project_tangent(x, np.einsum("ij,...j->...i", a, x))

    def killing_derivative(self, a, x, w):
        """Covariant derivative of the Killing field of a along horizontal w at x."""
        aw = np.einsum("ij,...j->...i", a, w)
        return self.project_tangent(x, aw) - _dot(x, np.einsum("ij,...j->...i", a, x))[..., None] * w


def sphere(n, r=1.0):
    return Sphere(n, r)


def real_projective(n, r=1.0):
    return RealProjective(n, r)


def complex_projective(N):
    return ComplexProjective(N)


# ---------------------------------------------------------------------------
# Lie algebra helpers for isometry groups.

def su_basis(m):
    """Basis of su(m) (skew-Hermitian traceless), Frobenius-orthonormal.

    The Frobenius pairing -tr(XY) is a fixed positive multiple of the
    negative Killing form on su(m), so traces of bilinear forms over this
    basis vanish exactly when they vanish over a Killing-orthonormal one.
    """
    out = []
    s = 1.0 / math.sqrt(2.0)
    for i in range(m):
        for j in range(i + 1, m):
            a = np.zeros((m, m), dtype=complex)
            a[i, j] = s
            a[j, i] = -s
            out.append(a)
            b = np.zeros((m, m), dtype=complex)
            b[i, j] = 1j * s
            b[j, i] = 1j * s
            out.append(b)
    for k in range(1, m):
        d = np.zeros(m)
        d[:k] = 1.0
        d[k] = -k
        a = np.diag(1j * d / math.sqrt(k * (k + 1.0)))
        out.append(a)
    return out
