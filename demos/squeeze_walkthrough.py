"""Projective dilations squeeze a map's energy onto one line.

The dilation family T_lam of CP^2 scales the first two homogeneous
coordinates by lam.  As lam grows, almost the whole space is pushed
toward the fixed reference line, and the 2-energy of F composed with
T_lam descends to pi times the energy of F restricted to that line.
The walk below starts from a bent identity map, climbs the dilation
ladder with one shared quadrature grid (so the trend is smooth), and
compares the terminal energy with the restricted-energy target.
"""

import numpy as np

from mapenergy.constructions import perturbed_identity, squeeze_limit
from mapenergy.manifolds import complex_projective
from mapenergy.maps import build_grid

cp2 = complex_projective(2)
bent = perturbed_identity(cp2, magnitude=0.2, flavor="squeeze", seed=0)
grid = build_grid(cp2, 100000, "monte_carlo", seed=3)
lambdas = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
energies, restricted = squeeze_limit(bent, grid, lambdas)

print("lam     E_2(F o T_lam)   MC stderr")
for lam, ev in zip(lambdas, energies):
    print(f"{lam:5.0f}   {ev.value:13.6f}   {ev.stderr:.2e}")

target = np.pi * restricted
print()
print(f"restricted energy on the fixed line: {restricted:.6f}")
print(f"squeeze target pi * restricted:      {target:.6f}")
print(f"terminal dev: {abs(energies[-1].value - target) / target:.2%}"
      f"  (unperturbed identity would give exactly pi^2 = {np.pi**2:.6f})")
