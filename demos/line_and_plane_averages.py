"""Total energies as averages of restricted energies.

Two averaging identities drive much of this package.  On CP^2 the
2-energy of a map equals a weighted average, over the space of
projective lines, of the energies of its restrictions to those lines;
the measure has total mass pi^2 / 2.  On RP^3 the analogous family of
projective planes carries mass 3 pi / 4 and reproduces the 2-energy the
same way.  Both identities are exact; sampling the line or plane space
introduces the only error.
"""

import numpy as np

from mapenergy.constructions import make_projective_dilation
from mapenergy.intgeo import (
    line_energy_average,
    line_space_mass,
    rp2_family_average,
    rp2_family_mass,
)
from mapenergy.manifolds import complex_projective, real_projective
from mapenergy.maps import identity_map

print(f"line-space mass on CP^2:  {line_space_mass(2):.10f}"
      f"  (pi^2 / 2 = {np.pi**2 / 2:.10f})")
print(f"plane-family mass on RP^3: {rp2_family_mass(3):.10f}"
      f"  (3 pi / 4 = {0.75 * np.pi:.10f})")
print()

target = np.pi**2
print(f"2-energy via line averages on CP^2 (target {target:.6f}):")
for label, F in (
    ("identity", identity_map(complex_projective(2))),
    ("dilation lam=4", make_projective_dilation(2, 4.0)),
):
    for lines in (200, 1000, 5000):
        avg = line_energy_average(F, K=lines, line_resolution=3, seed=1)
        print(f"  {label:16s} {lines:5d} lines  average {avg:.6f}"
              f"  rel dev {abs(avg - target) / target:.1e}")

print()
target = 1.5 * np.pi**2
print(f"2-energy via plane averages on RP^3 (target {target:.6f}):")
for planes in (16, 64):
    avg = rp2_family_average(identity_map(real_projective(3)), K=planes, seed=2)
    print(f"  identity        {planes:5d} planes average {avg:.6f}"
          f"  rel dev {abs(avg - target) / target:.1e}")
