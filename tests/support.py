"""Helpers shared by the test modules: a constant map, and the AST test
that tells an experiment run from the package's other functions."""

import ast

import numpy as np

from mapenergy.maps import MapObject


def constant_map(M, rep):
    """The map of M onto the point of M with representative `rep`, whose
    fused rule pushes every tangent vector to zero."""
    q = M.canonicalize(np.asarray(rep, dtype=M.dtype))
    return MapObject(
        M, M, lambda x: np.broadcast_to(q, x.shape).copy(),
        lambda x, v: (np.broadcast_to(q, x.shape).copy(), np.zeros_like(v)), name="constant",
    )


def is_experiment_run(node):
    """True for a function registered by an `@_experiment(...)` decorator."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_experiment"
               for d in node.decorator_list)
