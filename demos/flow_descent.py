"""Discrete energy descent flattens a bent sphere map back to round.

A random smooth perturbation of the identity of the 2-sphere is sampled
onto a subdivided icosahedral mesh; the graph Dirichlet energy with
intrinsic cotangent weights is then driven downhill with an adaptive
step along its H^1 gradient: the discrete tension field smoothed by one
sparse solve with the vertex areas plus the cotangent Laplacian, which
takes about ten iterations where a step along the tension itself takes
hundreds.  The energy must fall monotonically toward the round value
4 pi, and the conformality defect -- an area-weighted measure of how far
each triangle's image is from a similarity of the source triangle --
collapses alongside it.

Writes the per-iteration log to flow_descent_log.csv, with the columns
iteration, energy, grad_norm (the largest tension norm before the step)
and step.  The defect is measured only on the start and final maps.
"""

import numpy as np

from mapenergy.constructions import perturbed_identity
from mapenergy.flow import (
    conformality_defect,
    flow_minimize,
    sample_map,
    write_flow_log,
)
from mapenergy.manifolds import sphere

LEVEL = 3

bent = perturbed_identity(sphere(2), magnitude=0.2, seed=1)
start = sample_map(bent, LEVEL)
print(f"mesh level {LEVEL}: {len(start.images)} vertices")

final, history = flow_minimize(start, step=0.25, iters=3000, grad_tol=1e-4)
first, last = history[0], history[-1]
print(f"starting energy:       {first['energy']:.6f}")
print(f"iterations:            {len(history) - 1}")
print(f"final energy:          {last['energy']:.6f}  (round: {4 * np.pi:.6f})")
print(f"final gradient norm:   {last['grad_norm']:.2e}")
print(f"conformality defect:   {conformality_defect(start):.6f} -> "
      f"{conformality_defect(final):.6f}")

drops = sum(1 for a, b in zip(history, history[1:])
            if b["energy"] > a["energy"])
print(f"energy increases seen: {drops} (descent is enforced)")

write_flow_log(history, "flow_descent_log.csv")
print("wrote flow_descent_log.csv")
