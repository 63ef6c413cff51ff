"""A finite-difference oracle for the analytic differentials of the package.

`fd_map(F, h)` keeps the evaluator of F and gives it a fused rule whose
pushforward is a central difference through the codomain logarithm, so
that the tests can check each analytic rule against an independent
derivative.  `evaluator_map` gives the same rule to a bare evaluator,
for the test maps that have no analytic rule.
"""

import math

from mapenergy.manifolds import GeometryError
from mapenergy.maps import MapObject


def evaluator_map(dom, cod, ev, name, h=1e-4):
    """The map `fd-<name>` of the batch evaluator `ev` from dom to cod, with
    the fused rule (x, v) -> (ev(x), dF_x v), where dF_x v is the central
    difference (log_{ev(x)} ev(exp_x(h v)) - log_{ev(x)} ev(exp_x(-h v))) / 2h."""
    if isinstance(h, bool) or not isinstance(h, (int, float)) or not math.isfinite(h) or h <= 0:
        raise GeometryError(f"finite-difference step must be a finite real above zero, got {h!r}")

    def fused(x, v):
        y0 = ev(x)
        vp, _ = cod.log_masked(y0, ev(dom.exp(x, h * v)))
        vm, _ = cod.log_masked(y0, ev(dom.exp(x, -h * v)))
        return y0, (vp - vm) / (2.0 * h)

    return MapObject(dom, cod, ev, fused, name=f"fd-{name}")


def fd_map(F, h=1e-4):
    """F with the finite-difference fused rule of `evaluator_map` in place of its own."""
    return evaluator_map(F.domain, F.codomain, F.evaluator, F.name, h)
