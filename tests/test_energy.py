import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapenergy import constructions, energy, make_rng, maps
from mapenergy.constructions import (
    conic_curve,
    conjugation_map,
    make_projective_dilation,
    make_theta,
    perturbed_identity,
    random_curve,
    squeeze_limit,
)
from mapenergy.energy import (
    EnergyValue,
    croke_density,
    curve_length,
    p_energy,
    pullback_volume,
    surface_area,
)
from mapenergy.manifolds import (
    GeometryError,
    complex_projective,
    real_projective,
    sphere,
)
from mapenergy.maps import (
    MapObject,
    build_grid,
    compose,
    differential_columns,
    energy_density,
    homothety_map,
    identity_map,
    normalized_linear_map,
    tangent_frames,
    volume_density,
)
from mapenergy.intgeo import restriction_energies, sample_lines

from fd_oracle import evaluator_map
from support import constant_map


# ---------------------------------------------------------------------------
# density and closed-form identities


def test_energy_density_arithmetic():
    # rows are the differential's columns dF e_i; the density is the sum of their squared lengths
    assert energy_density(np.eye(4)) == 4.0
    assert energy_density(np.zeros((3, 3))) == 0.0
    assert energy_density(np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])) == 25.0
    assert energy_density(np.array([[3j, 4.0], [1.0 - 1j, 0.0]])) == 27.0
    batch = np.array([[[1.0, 2.0], [2.0, 0.0]], [[0.0, 0.0], [0.0, -3.0]]])
    assert np.array_equal(energy_density(batch), [9.0, 9.0])


def test_p2_identity_cp2():
    M = complex_projective(2)
    grid = build_grid(M, 4000, "monte_carlo", seed=5)
    E = p_energy(identity_map(M), grid, p=2.0)
    assert E.value == pytest.approx(np.pi**2, rel=5e-3)
    assert E.stderr is not None


def test_p2_identity_rp3():
    M = real_projective(3)
    grid = build_grid(M, 4000, "monte_carlo", seed=6)
    E = p_energy(identity_map(M), grid, p=2.0)
    assert E.value == pytest.approx(1.5 * np.pi**2, rel=5e-3)


def test_p1_identity_rp2_mesh():
    M = real_projective(2)
    grid = build_grid(M, 4, "mesh")
    E = p_energy(identity_map(M), grid, p=1.0)
    assert E.value == pytest.approx(np.sqrt(2.0) * np.pi, rel=5e-3)
    assert E.stderr is None


def test_p_energy_rejects_small_p():
    M = sphere(2)
    grid = build_grid(M, 100, "monte_carlo", seed=0)
    with pytest.raises(GeometryError):
        p_energy(identity_map(M), grid, p=0.5)


@pytest.mark.parametrize("functional", [p_energy, pullback_volume], ids=["p_energy", "pullback_volume"])
@pytest.mark.parametrize("dom, grid_of", [
    (complex_projective(1), lambda: build_grid(real_projective(3), 200, seed=1)),
    (complex_projective(3), lambda: build_grid(complex_projective(2), 200, seed=1)),
    (real_projective(3, 2.0), lambda: build_grid(real_projective(3), 200, seed=1)),
    (complex_projective(2), lambda: build_grid(complex_projective(1), 2, "mesh")),
], ids=["cp1-on-rp3", "cp3-on-cp2", "rp3-radius-2-on-rp3", "cp2-on-cp1-mesh"])
def test_a_grid_of_another_space_is_refused_before_any_node_is_evaluated(functional, dom, grid_of):
    calls = []

    def rule(x, v):
        calls.append(len(x))
        return x, v

    grid = grid_of()
    F = MapObject(dom, dom, lambda x: x, rule, "identity")
    with pytest.raises(GeometryError, match=(f"^{functional.__name__}: a grid of {re.escape(repr(grid.manifold))} "
                                             f"is not a grid of the domain {re.escape(repr(dom))} of map 'identity'")):
        functional(F, grid)
    assert calls == [] and grid.derived == {}


@pytest.mark.parametrize("p", [True, float("nan"), float("inf"), 0.5, "2"], ids=repr)
def test_p_energy_checks_p_before_any_node_is_evaluated(p):
    M = sphere(2)
    grid = build_grid(M, 3, "mesh")
    calls = []

    def ev(x):
        calls.append(len(x))
        return x

    with pytest.raises(GeometryError, match="finite real p >= 1"):
        p_energy(evaluator_map(M, M, ev, "recorder"), grid, p=p)
    assert calls == [] and grid.derived == {}


def test_identity_energy_general_exponent():
    # identity on CP^N has constant |dF|^2 = 2N, so E_p = (2N)^{p/2} Vol / 2
    M = complex_projective(2)
    grid = build_grid(M, 500, "monte_carlo", seed=9)
    for p in (1.0, 2.5, 4.0):
        E = p_energy(identity_map(M), grid, p=p)
        want = 0.5 * 4.0 ** (p / 2.0) * np.pi**2 / 2.0
        assert E.value == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# averaged density agrees with the frame trace


def test_croke_identity_s3():
    M = sphere(3)
    rng = make_rng(11)
    x = M.random_point(rng, 6)
    np.testing.assert_allclose(croke_density(identity_map(M), x), 3.0, atol=1e-10)


def test_croke_matches_trace_on_cp1():
    dom = complex_projective(1)
    cod = complex_projective(2)
    rng = make_rng(12)
    A = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    F = normalized_linear_map(dom, cod, A)
    x = dom.random_point(rng, 8)
    from mapenergy.maps import pullback_gram, tangent_frames

    G = pullback_gram(F, x, tangent_frames(dom, x))
    np.testing.assert_allclose(
        croke_density(F, x), np.trace(G, axis1=-2, axis2=-1), rtol=1e-6, atol=1e-9
    )


def test_croke_homothety():
    F = homothety_map(sphere(2, 1.0), sphere(2, 2.0))
    rng = make_rng(13)
    x = F.domain.random_point(rng, 5)
    np.testing.assert_allclose(croke_density(F, x), 8.0, atol=1e-10)


# ---------------------------------------------------------------------------
# pullback volume and areas


def test_pullback_volume_identity_cp2():
    M = complex_projective(2)
    grid = build_grid(M, 3000, "monte_carlo", seed=14)
    vol = pullback_volume(identity_map(M), grid)
    assert vol == pytest.approx(np.pi**2 / 2.0, rel=5e-3)
    # same number as pi^N / N!
    assert vol == pytest.approx(np.pi**2 / math.factorial(2), rel=5e-3)


def test_pullback_volume_constant_map():
    M = sphere(2)
    F = constant_map(M, [0.0, 0.0, 1.0])
    grid = build_grid(M, 500, "monte_carlo", seed=15)
    assert pullback_volume(F, grid) == 0.0


@pytest.mark.parametrize("functional", [p_energy, pullback_volume], ids=["p_energy", "pullback_volume"])
def test_a_differential_that_is_nan_at_some_nodes_raises(functional):
    # energies and volumes share one integration path, so both refuse
    M = sphere(2)
    F = MapObject(M, M, lambda x: x,
                  lambda x, v: (x, np.where(x[..., :1] > 0.5, np.nan, v)), name="nan-cap")
    grid = build_grid(M, 500, "monte_carlo", seed=16)
    with pytest.raises(GeometryError, match=f"^{functional.__name__}: .* not finite"):
        functional(F, grid)


def test_surface_area_line_in_cp2():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
    F = normalized_linear_map(complex_projective(1), complex_projective(2), A)
    grid = build_grid(complex_projective(1), 4, "mesh")
    assert surface_area(F, grid) == pytest.approx(np.pi, rel=5e-3)


def test_surface_area_double_cover():
    F = normalized_linear_map(sphere(2), real_projective(2), np.eye(3))
    grid = build_grid(sphere(2), 4, "mesh")
    assert surface_area(F, grid) == pytest.approx(4.0 * np.pi, rel=5e-3)


def test_surface_area_rejects_wrong_dimension():
    M = real_projective(3)
    grid = build_grid(M, 100, "monte_carlo", seed=0)
    with pytest.raises(GeometryError):
        surface_area(identity_map(M), grid)


# ---------------------------------------------------------------------------
# Hoelder lower bound: on an n-dimensional domain with p >= n,
# E_p >= n^{p/2} V_pull^{p/n} / (2 V_dom^{(p-n)/n}), with equality when dF
# is a homothety a.e.  The tests below take n = 2.


def _stretch_map():
    A = np.diag([1.0, 1.4, 0.8])
    return normalized_linear_map(sphere(2), sphere(2), A, name="stretch")


def test_lower_bound_sandwich():
    grid = build_grid(sphere(2), 4, "mesh")
    for F in (identity_map(sphere(2)), homothety_map(sphere(2), sphere(2, 1.7)), _stretch_map()):
        vol_pull = pullback_volume(F, grid)
        for p in (2.0, 3.0, 4.0):
            E = p_energy(F, grid, p=p)
            bound = 2 ** (p / 2) * vol_pull ** (p / 2) / (2 * grid.total_mass ** ((p - 2) / 2))
            assert E.value >= bound - 1e-6 * max(1.0, bound)


def test_lower_bound_equality_for_homothety():
    grid = build_grid(sphere(2), 4, "mesh")
    F = homothety_map(sphere(2), sphere(2, 1.7))
    E = p_energy(F, grid, p=4.0)
    vol_pull = pullback_volume(F, grid)
    bound = 2 ** 2 * vol_pull ** 2 / (2 * grid.total_mass)
    assert E.value == pytest.approx(bound, rel=1e-9)


# ---------------------------------------------------------------------------
# Hoelder chain between exponents


def test_holder_chain():
    grid = build_grid(sphere(2), 4, "mesh")
    vol = grid.total_mass
    for F in (identity_map(sphere(2)), _stretch_map()):
        E2 = p_energy(F, grid, p=2.0).value
        for p in (2.5, 3.0, 4.0):
            Ep = p_energy(F, grid, p=p).value
            floor = 0.5 * vol ** (1.0 - p / 2.0) * (2.0 * E2) ** (p / 2.0)
            assert Ep >= floor - 1e-9 * floor


def test_holder_chain_tight_for_constant_density():
    grid = build_grid(sphere(2), 4, "mesh")
    F = identity_map(sphere(2))
    E2 = p_energy(F, grid, p=2.0).value
    E4 = p_energy(F, grid, p=4.0).value
    floor = 0.5 * grid.total_mass ** (-1.0) * (2.0 * E2) ** 2
    assert E4 == pytest.approx(floor, rel=1e-9)


# ---------------------------------------------------------------------------
# refinement behaviour


def test_monte_carlo_refinement_consistency():
    F = _stretch_map()
    a = p_energy(F, build_grid(sphere(2), 2000, "monte_carlo", seed=21), p=2.0)
    b = p_energy(F, build_grid(sphere(2), 8000, "monte_carlo", seed=22), p=2.0)
    assert abs(a.value - b.value) <= 3.0 * (a.stderr + b.stderr)


def test_mesh_refinement_drift():
    F = _stretch_map()
    vals = [p_energy(F, build_grid(sphere(2), lv, "mesh"), p=2.0).value for lv in (3, 4, 5)]
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
    assert abs(vals[2] - vals[1]) < 2e-3 * vals[2]


# ---------------------------------------------------------------------------
# integration and its values


def test_integrate_names_its_label_when_the_sum_is_not_finite():
    grid = build_grid(sphere(2), 50, "monte_carlo", seed=0)
    dens = np.ones(50)
    dens[7] = np.inf
    with pytest.raises(GeometryError, match="^probe: .* not finite"):
        energy._integrate(grid, dens, "probe")


def test_energy_value_rejects_negative():
    with pytest.raises(GeometryError):
        EnergyValue(-1.0)


def test_energy_value_rejects_non_finite():
    for value in (float("nan"), float("inf")):
        with pytest.raises(GeometryError):
            EnergyValue(value)


def test_energy_value_checks_its_error():
    for stderr in (float("nan"), float("inf"), -1e-3, True):
        with pytest.raises(GeometryError):
            EnergyValue(2.0, stderr)
    for stderr in (None, 0.0, np.float64(0.3)):
        assert EnergyValue(2.0, stderr).stderr == stderr


# ---------------------------------------------------------------------------
# curve length


# the closed projective-line loop t -> [cos t : sin t : 0], period pi
GREAT_LOOP = np.eye(3, 2)


def test_curve_length_identity_rp2():
    M = real_projective(2)
    assert curve_length(identity_map(M), GREAT_LOOP) == pytest.approx(np.pi, abs=1e-6)


def test_curve_length_runs_once_around_the_closed_geodesic_of_each_model():
    # great circles of the unit sphere have length 2 pi, lines of CP^1 (a
    # sphere of radius 1/2) length pi, and those of RP^n pi * radius
    for M, frame, length in ((sphere(2), GREAT_LOOP, 2.0 * np.pi),
                             (complex_projective(1), np.eye(2, 2, dtype=complex), np.pi),
                             (real_projective(3, 0.5), np.eye(4, 2), 0.5 * np.pi)):
        assert curve_length(identity_map(M), frame) == pytest.approx(length, abs=1e-6)


def test_curve_length_homothety():
    kappa = 1.7
    M = real_projective(2)
    F = homothety_map(M, real_projective(2, kappa))
    assert curve_length(F, GREAT_LOOP) == pytest.approx(kappa * np.pi, abs=1e-6)


def test_curve_length_of_an_analytic_map_measures_no_chords(monkeypatch):
    # the length comes from the image speed alone, never from codomain distances
    M = real_projective(2)
    F = homothety_map(M, real_projective(2, 1.7))

    def no_chords(x, y):
        raise AssertionError("a chord was measured")

    monkeypatch.setattr(F.codomain, "distance", no_chords)
    assert curve_length(F, GREAT_LOOP) == pytest.approx(1.7 * np.pi, abs=1e-6)


def test_p_energy_on_a_reused_grid_equals_a_fresh_grid_bit_for_bit():
    M = complex_projective(2)
    F = make_projective_dilation(2, 2.0)
    reused = build_grid(M, 300, seed=4)
    p_energy(identity_map(M), reused, p=2.0)
    for p in (2.0, 3.0):
        again = p_energy(F, reused, p=p)
        fresh = p_energy(F, build_grid(M, 300, seed=4), p=p)
        assert (again.value, again.stderr) == (fresh.value, fresh.stderr)


# ---------------------------------------------------------------------------
# the kept half frame: a CP^N grid keeps the columns h of each frame (h, i h),
# and every functional on it equals its full-frame reference byte for byte

HALF_FRAME_GRIDS = {
    "cp1-mc-one-block": lambda: build_grid(complex_projective(1), 700, seed=1),
    "cp1-mc-blocked": lambda: build_grid(complex_projective(1), 2 * maps.NODE_BLOCK + 700, seed=2),
    "cp2-mc-one-block": lambda: build_grid(complex_projective(2), 700, seed=3),
    "cp2-mc-blocked": lambda: build_grid(complex_projective(2), 2 * maps.NODE_BLOCK + 700, seed=4),
    "cp1-mesh-3": lambda: build_grid(complex_projective(1), 3, "mesh"),
    "cp1-mesh-4": lambda: build_grid(complex_projective(1), 4, "mesh"),
}


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _full_frame_density(F, grid, reduce):
    return differential_columns(F, grid.nodes, tangent_frames(grid.manifold, grid.nodes), reduce=reduce)


def _full_frame_energy(F, grid, p):
    """The p-energy, as `p_energy` integrates it, from the full frames."""
    dens = 0.5 * _full_frame_density(F, grid, energy_density) ** (p / 2.0)
    return dens, energy._integrate(grid, dens, "p_energy")


@pytest.mark.parametrize("name", HALF_FRAME_GRIDS)
def test_functionals_on_kept_half_frames_equal_full_frame_references_byte_for_byte(monkeypatch, name):
    grid = HALF_FRAME_GRIDS[name]()
    M = grid.manifold
    integrate, densities = energy._integrate, []
    monkeypatch.setattr(energy, "_integrate",
                        lambda g, density, label: densities.append(density) or integrate(g, density, label))
    # holomorphic, antiholomorphic and neither
    for F in (identity_map(M), make_projective_dilation(M.N, 4.0), conjugation_map(M.N),
              perturbed_identity(M, 0.2, seed=3)):
        for p in (1.0, 2.0, 3.0, 4.0):
            densities.clear()
            got = p_energy(F, grid, p)
            want_density, want = _full_frame_energy(F, grid, p)
            assert _same_bytes(densities[0], want_density)
            assert _same_bytes(got.value, want.value) and _same_bytes(got.stderr, want.stderr)
        want_volume = integrate(grid, _full_frame_density(F, grid, volume_density), "pullback_volume").value
        assert _same_bytes(pullback_volume(F, grid), want_volume)
        if M.dim == 2:
            assert _same_bytes(surface_area(F, grid), want_volume)


@pytest.mark.parametrize("level", [3, 4])
def test_restriction_energies_equal_full_frame_references_byte_for_byte(level):
    M, sub = complex_projective(2), complex_projective(1)
    F = perturbed_identity(M, 0.2, seed=2)
    frames, _ = sample_lines(2, 5, seed=6)
    grid = build_grid(sub, level, "mesh")
    want = [_full_frame_energy(compose(F, normalized_linear_map(sub, M, A)), grid, 2.0)[1].value
            for A in frames]
    assert _same_bytes(restriction_energies(F, frames, level), np.array(want))


def test_squeeze_limit_equals_full_frame_references_byte_for_byte():
    M, sub = complex_projective(2), complex_projective(1)
    F = perturbed_identity(M, 0.2, "squeeze", seed=0)
    grid = build_grid(M, 2 * maps.NODE_BLOCK + 700, seed=3)
    lambdas = (1.0, 4.0, 16.0)
    energies, restricted = squeeze_limit(F, grid, lambdas)
    for lam, got in zip(lambdas, energies):
        want = _full_frame_energy(compose(F, make_projective_dilation(2, lam)), grid, 2.0)[1]
        assert _same_bytes(got.value, want.value) and _same_bytes(got.stderr, want.stderr)
    line = normalized_linear_map(sub, M, np.eye(3, 2))
    want = _full_frame_energy(compose(F, line), build_grid(sub, constructions._LINE_LEVEL, "mesh"), 2.0)[1]
    assert _same_bytes(restricted, want.value)


# ---------------------------------------------------------------------------
# properties: the energy depends on neither the frames nor the codomain's position

PROPERTY = settings(derandomize=True, deadline=None)

# (map, grid, relative tolerance): analytic differentials are exact, while
# finite differences along different frames differ by their truncation error
ENERGY_CASES = [
    (make_projective_dilation(2, 3.0), build_grid(complex_projective(2), 200, "monte_carlo", seed=4), 1e-12),
    (conic_curve(), build_grid(complex_projective(1), 2, "mesh"), 1e-12),
    (random_curve(2, 3, seed=1), build_grid(complex_projective(1), 2, "mesh"), 1e-12),
    (make_theta(2.0), build_grid(sphere(3), 200, "monte_carlo", seed=5), 1e-12),
    (perturbed_identity(sphere(2), 0.2, seed=1), build_grid(sphere(2), 2, "mesh"), 1e-9),
    (perturbed_identity(real_projective(2), 0.2, seed=2), build_grid(real_projective(2), 2, "mesh"), 1e-9),
    (perturbed_identity(complex_projective(2), 0.2, seed=3),
     build_grid(complex_projective(2), 200, "monte_carlo", seed=6), 1e-9),
]


@PROPERTY
@given(st.sampled_from(ENERGY_CASES), st.integers(0, 2**32 - 1))
def test_energy_does_not_depend_on_the_frames(case, seed):
    F, grid, rtol = case
    frames = tangent_frames(grid.manifold, grid.nodes)
    q, _ = np.linalg.qr(make_rng(seed).standard_normal((frames.shape[-2],) * 2))
    turned = np.einsum("ij,...ja->...ia", q, frames)
    reference = energy_density(differential_columns(F, grid.nodes, frames))
    np.testing.assert_allclose(energy_density(differential_columns(F, grid.nodes, turned)),
                               reference, rtol=rtol, atol=0)


@PROPERTY
@given(st.sampled_from(ENERGY_CASES), st.floats(1.0, 4.0), st.integers(0, 2**32 - 1))
def test_energy_is_invariant_under_codomain_isometries(case, p, seed):
    F, grid, rtol = case
    R = F.codomain.random_isometry(make_rng(seed))
    moved = compose(normalized_linear_map(F.codomain, F.codomain, R), F)
    assert p_energy(moved, grid, p).value == pytest.approx(p_energy(F, grid, p).value, rel=rtol)
