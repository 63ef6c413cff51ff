"""Numerical laboratory for energies of maps between model manifolds.

Modules
-------
manifolds      Spheres and their antipodal quotients, complex projective spaces, products.
maps           Map objects, differentials, pullback metrics, quadrature grids.
energy         p-energy functionals, direction-averaged densities, volumes.
intgeo         Measures on geodesics and projective lines; averaging formulas.
constructions  Rational curves, dilations, conformal caps, perturbations.
harmonic       Second fundamental form, tension, residuals, second variation.
meshes         Icosphere meshes and the geometry each mesh keeps once derived.
flow           Discrete Dirichlet energy and gradient flow on triangle meshes.
report         Named verification experiments, bounds, CLI-facing reports.
tables         The CSV layout shared by every table file.
"""

from .rand import make_rng, spawn
from .report import (
    BoundSpec,
    ExperimentReport,
    eval_bound,
    run_experiment,
    run_suite,
    systole_rp2,
)

__all__ = [
    "BoundSpec",
    "ExperimentReport",
    "eval_bound",
    "make_rng",
    "run_experiment",
    "run_suite",
    "spawn",
    "systole_rp2",
]

__version__ = "0.1.0"
