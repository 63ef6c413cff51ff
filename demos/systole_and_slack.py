"""The systolic inequality on the projective plane, numerically.

Every metric on RP^2 satisfies area >= (2 / pi) * systole^2, with
equality exactly for the round metric.  The package estimates systoles
of conformal metrics mu * round by a shortest-path search on a chord
graph over the icosahedral mesh of the double cover: a noncontractible
loop downstairs is a path between antipodes upstairs.  The antipodal map
is an automorphism of that graph, so each search need only reach half
the best loop found so far plus one chord: the loop from v to -v is
closed at its midpoint u as d(v, u) + d(v, -u).  The round metric
must land on equality; an even conformal bump concentrated along one
axis leaves the shortest loop (the great circle avoiding the bump)
untouched while inflating the area, producing strictly positive slack.
"""

import numpy as np

from mapenergy.report import (
    BoundSpec,
    conformal_area_rp2,
    eval_bound,
    systole_rp2,
)

print("round metric")
for level in (3, 4):
    s = systole_rp2(1.0, level=level)
    slack = eval_bound(BoundSpec("PU", {"area": 2 * np.pi, "systole": s}))
    print(f"  level {level}: systole {s:.8f}  (pi = {np.pi:.8f})"
          f"  slack {slack:+.2e}")

print()
print("scaling check: metric 4 * round doubles every length")
print(f"  systole {systole_rp2(4.0, level=3):.8f}  (2 pi = {2 * np.pi:.8f})")


def bump(x):
    return 1.0 + 0.5 * x[..., 0] ** 2


print()
print("conformal bump mu = 1 + x0^2 / 2 (even, so it descends to RP^2)")
area = conformal_area_rp2(bump, level=5)
print(f"  area by quadrature:   {area:.8f}"
      f"  (2 pi + pi / 3 = {2 * np.pi + np.pi / 3:.8f})")
for level in (3, 4):
    s = systole_rp2(bump, level=level)
    slack = eval_bound(BoundSpec("PU", {"area": area, "systole": s}))
    print(f"  level {level}: systole {s:.8f}  slack {slack:.8f}"
          f"  (pi / 3 = {np.pi / 3:.8f})")
print("  the shortest loop rides the x0 = 0 great circle, where mu = 1,")
print("  so the systole stays pi while the area grows: genuine slack.")
