"""A finite-difference oracle for the analytic differentials of the package.

`fd_map(F, h)` keeps the evaluator of F and gives it a fused rule whose
pushforward is a central difference through the codomain logarithm, so
that the tests can check each analytic rule against an independent
derivative.
"""

import math

from mapenergy.manifolds import GeometryError
from mapenergy.maps import MapObject


def fd_map(F, h=1e-4):
    """F with the fused rule (x, v) -> (F(x), dF_x v), where dF_x v is the central
    difference (log_{F(x)} F(exp_x(h v)) - log_{F(x)} F(exp_x(-h v))) / 2h."""
    if isinstance(h, bool) or not isinstance(h, (int, float)) or not math.isfinite(h) or h <= 0:
        raise GeometryError(f"finite-difference step must be a finite real above zero, got {h!r}")
    dom, cod = F.domain, F.codomain

    def fused(x, v):
        y0 = F(x)
        vp, _ = cod.log_masked(y0, F(dom.exp(x, h * v)))
        vm, _ = cod.log_masked(y0, F(dom.exp(x, -h * v)))
        return y0, (vp - vm) / (2.0 * h)

    return MapObject(dom, cod, F.evaluator, fused, name=f"fd-{F.name}")
