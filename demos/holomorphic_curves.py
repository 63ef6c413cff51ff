"""Rational curves: calibrated energy, vanishing residuals, neutral symmetries.

Degree-d rational curves into CP^2 are holomorphic, hence harmonic and
calibrated: their 2-energy equals their swept area equals d * pi.  The
second-order diagnostics see this directly -- the pluriharmonicity and
metric-compatibility residuals vanish, the tension field vanishes, and
the second variation of energy along every direction generated by an
ambient symmetry is zero, because those directions integrate to
energy-preserving holomorphic flows.

Each curve is built from its coefficient matrix alone: its shape gives
the target CP^N and the degree, and one monomial rule gives both the
value and the derivative.
"""

import numpy as np

from mapenergy.constructions import (
    conic_curve,
    line_curve,
    random_curve,
    veronese_curve,
)
from mapenergy.energy import p_energy, surface_area
from mapenergy.harmonic import (
    hermitian_residual,
    index_trace_over_symmetries,
    pluriharmonic_residual,
    tension,
)
from mapenergy.manifolds import complex_projective, su_basis
from mapenergy.maps import build_grid
from mapenergy.rand import make_rng

cp1 = complex_projective(1)
grid = build_grid(cp1, 4, "mesh")
probes = cp1.random_point(make_rng(4), (100,))

curves = [
    ("line (d=1)", line_curve(2), 1),
    ("conic (d=2)", conic_curve(), 2),
    ("veronese (d=2)", veronese_curve(), 2),
    ("random cubic (d=3)", random_curve(2, 3, seed=7), 3),
]

print(f"{'curve':20s} {'energy':>10s} {'area':>10s} {'d*pi':>10s}"
      f" {'tension':>9s} {'plh':>9s} {'herm':>9s}")
for label, F, degree in curves:
    energy = p_energy(F, grid, p=2.0).value
    area = surface_area(F, grid)
    tau = float(np.max(np.linalg.norm(tension(F, probes), axis=-1)))
    plh = float(np.max(pluriharmonic_residual(F, probes)))
    herm = float(np.max(hermitian_residual(F, probes)))
    print(f"{label:20s} {energy:10.5f} {area:10.5f} {degree * np.pi:10.5f}"
          f" {tau:9.1e} {plh:9.1e} {herm:9.1e}")

print()
veronese = veronese_curve()
trace, _ = index_trace_over_symmetries(veronese, grid, su_basis(2))
print(f"summed second variation of the veronese curve over the domain")
print(f"symmetry directions: {trace:.2e}  (energy scale"
      f" {p_energy(veronese, grid, p=2.0).value:.4f}) -- neutral to stencil"
      " precision")
