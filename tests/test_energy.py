import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapenergy import energy, make_rng
from mapenergy.constructions import (
    conic_curve,
    make_projective_dilation,
    make_rational_curve,
    make_theta,
    perturbed_identity,
    random_curve,
)
from mapenergy.energy import (
    EnergyValue,
    croke_density,
    curve_length,
    elementary_bound,
    p_energy,
    pullback_volume,
    surface_area,
)
from mapenergy.manifolds import (
    GeometryError,
    complex_projective,
    real_projective,
    sphere,
    sphere_volume,
)
from mapenergy.maps import (
    MapObject,
    build_grid,
    compose,
    energy_density,
    homothety_map,
    identity_map,
    normalized_linear_map,
)


# ---------------------------------------------------------------------------
# density and closed-form identities


def test_energy_density_arithmetic():
    assert energy_density(np.eye(4)) == pytest.approx(4.0)
    assert energy_density(np.zeros((3, 3))) == 0.0
    assert energy_density(np.diag([9.0, 16.0])) == pytest.approx(25.0)


def test_p2_identity_cp2():
    M = complex_projective(2)
    grid = build_grid(M, 4000, "monte_carlo", seed=5)
    E = p_energy(identity_map(M), grid, p=2.0)
    assert E.value == pytest.approx(np.pi**2, rel=5e-3)
    assert E.stderr is not None
    assert E.dropped_fraction == 0.0
    assert E.warning is None


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
    from mapenergy.maps import frame_at, pullback_gram

    G, _ = pullback_gram(F, x, frame_at(dom, x))
    np.testing.assert_allclose(
        croke_density(F, x), energy_density(G), rtol=1e-6, atol=1e-9
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
    q = np.array([0.0, 0.0, 1.0])
    F = MapObject(
        M,
        M,
        lambda x: np.broadcast_to(q, x.shape).copy(),
        differential=lambda x, v: np.zeros_like(v),
        name="constant",
    )
    grid = build_grid(M, 500, "monte_carlo", seed=15)
    assert pullback_volume(F, grid) == 0.0


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
# elementary lower bound


def test_elementary_bound_closed_forms():
    four_pi = 4.0 * np.pi
    assert elementary_bound(2, 2, four_pi, four_pi) == pytest.approx(four_pi)
    assert elementary_bound(4, 2, four_pi, four_pi) == pytest.approx(8.0 * np.pi)
    half_pi2 = np.pi**2 / 2.0
    assert elementary_bound(4, 4, half_pi2, half_pi2) == pytest.approx(4.0 * np.pi**2)
    with pytest.raises(GeometryError):
        elementary_bound(1, 2, four_pi, four_pi)


def _stretch_map():
    A = np.diag([1.0, 1.4, 0.8])
    return normalized_linear_map(sphere(2), sphere(2), A, name="stretch")


def test_lower_bound_sandwich():
    grid = build_grid(sphere(2), 4, "mesh")
    for F in (identity_map(sphere(2)), homothety_map(sphere(2), sphere(2, 1.7)), _stretch_map()):
        vol_pull = pullback_volume(F, grid)
        for p in (2.0, 3.0, 4.0):
            E = p_energy(F, grid, p=p)
            bound = elementary_bound(p, 2, grid.total_mass, vol_pull)
            assert E.value >= bound - 1e-6 * max(1.0, bound)


def test_lower_bound_equality_for_homothety():
    grid = build_grid(sphere(2), 4, "mesh")
    F = homothety_map(sphere(2), sphere(2, 1.7))
    E = p_energy(F, grid, p=4.0)
    vol_pull = pullback_volume(F, grid)
    bound = elementary_bound(4, 2, grid.total_mass, vol_pull)
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
# dropped-node accounting


def test_integrate_renormalizes_dropped_mass():
    grid = build_grid(sphere(2), 1000, "monte_carlo", seed=30)
    dens = np.full(len(grid), 2.5)
    ok = np.ones(len(grid), dtype=bool)
    ok[:50] = False
    value, stderr, dropped, warning = energy._integrate(grid, dens, ok, "probe")
    assert value == pytest.approx(2.5 * grid.total_mass, rel=1e-12)
    assert dropped == pytest.approx(0.05, abs=1e-12)
    assert warning is not None
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_integrate_all_failed_raises():
    grid = build_grid(sphere(2), 50, "monte_carlo", seed=31)
    with pytest.raises(GeometryError):
        energy._integrate(grid, np.ones(50), np.zeros(50, dtype=bool), "probe")


def test_energy_value_rejects_negative():
    with pytest.raises(GeometryError):
        EnergyValue(2.0, -1.0, "mesh", 4, 0)


def test_energy_value_rejects_non_finite():
    for value in (float("nan"), float("inf")):
        with pytest.raises(GeometryError):
            EnergyValue(2.0, value, "mesh", 4, 0)


# ---------------------------------------------------------------------------
# curve length


class _GreatLoop:
    """Closed projective-line loop t -> [cos t : sin t : 0], period pi."""

    period = np.pi

    def __init__(self, M):
        self.manifold = M

    def _raw(self, t):
        t = np.asarray(t, dtype=float)
        z = np.zeros_like(t)
        return np.stack([np.cos(t), np.sin(t), z], axis=-1)

    def point(self, t):
        x, _ = self.manifold.canonicalize_with_factor(self._raw(t))
        return x

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        z = np.zeros_like(t)
        v = np.stack([-np.sin(t), np.cos(t), z], axis=-1)
        _, f = self.manifold.canonicalize_with_factor(self._raw(t))
        return f[..., None] * v


def test_curve_length_identity_rp2():
    M = real_projective(2)
    loop = _GreatLoop(M)
    assert curve_length(identity_map(M), loop) == pytest.approx(np.pi, abs=1e-6)


def test_curve_length_homothety():
    kappa = 1.7
    M = real_projective(2)
    F = homothety_map(M, real_projective(2, kappa))
    loop = _GreatLoop(M)
    assert curve_length(F, loop) == pytest.approx(kappa * np.pi, abs=1e-6)


def test_curve_length_chord_fallback_on_jumps():
    # piecewise-constant map between two points at distance pi/2 (= the cut
    # distance): the differential fails on the two jump intervals and the
    # chord fallback contributes exactly the jump distances
    M = real_projective(2)
    p = M.canonicalize(np.array([1.0, 0.0, 0.0]))
    q = M.canonicalize(np.array([0.0, 1.0, 0.0]))

    def ev(x):
        pick = x[..., 0] >= x[..., 1]
        return np.where(pick[..., None], p, q)

    F = MapObject(M, M, ev, smoothness="piecewise", name="two-level")
    loop = _GreatLoop(M)
    assert curve_length(F, loop, steps=256) == pytest.approx(np.pi, abs=1e-9)


def test_curve_length_of_an_analytic_map_measures_no_chords(monkeypatch):
    # every segment has a valid differential, so no chord is needed
    M = real_projective(2)
    F = homothety_map(M, real_projective(2, 1.7))

    def no_chords(x, y):
        raise AssertionError("a chord was measured")

    monkeypatch.setattr(F.codomain, "distance", no_chords)
    assert curve_length(F, _GreatLoop(M)) == pytest.approx(1.7 * np.pi, abs=1e-6)


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
# properties: the energy depends on neither the frames nor the codomain's position

PROPERTY = settings(derandomize=True, deadline=None)

# (map, grid, relative tolerance): analytic differentials are exact, while
# finite differences along different frames differ by their truncation error
ENERGY_CASES = [
    (make_projective_dilation(2, 3.0), build_grid(complex_projective(2), 200, "monte_carlo", seed=4), 1e-12),
    (make_rational_curve(conic_curve()), build_grid(complex_projective(1), 2, "mesh"), 1e-12),
    (make_rational_curve(random_curve(2, 3, seed=1)), build_grid(complex_projective(1), 2, "mesh"), 1e-12),
    (make_theta(2.0), build_grid(sphere(3), 200, "monte_carlo", seed=5), 1e-12),
    (perturbed_identity(sphere(2), 0.2, seed=1), build_grid(sphere(2), 2, "mesh"), 1e-9),
    (perturbed_identity(real_projective(2), 0.2, seed=2), build_grid(real_projective(2), 2, "mesh"), 1e-9),
    (perturbed_identity(complex_projective(2), 0.2, seed=3),
     build_grid(complex_projective(2), 200, "monte_carlo", seed=6), 1e-9),
]


@PROPERTY
@given(st.sampled_from(ENERGY_CASES), st.floats(1.0, 4.0), st.integers(1, 2**16))
def test_energy_does_not_depend_on_the_frames(case, p, salt):
    F, grid, rtol = case
    reference = p_energy(F, grid, p, salt=0).value
    assert p_energy(F, grid, p, salt=salt).value == pytest.approx(reference, rel=rtol)


@PROPERTY
@given(st.sampled_from(ENERGY_CASES), st.floats(1.0, 4.0), st.integers(0, 2**32 - 1))
def test_energy_is_invariant_under_codomain_isometries(case, p, seed):
    F, grid, rtol = case
    R = F.codomain.random_isometry(make_rng(seed))
    moved = compose(normalized_linear_map(F.codomain, F.codomain, R), F)
    assert p_energy(moved, grid, p).value == pytest.approx(p_energy(F, grid, p).value, rel=rtol)
