import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from mapenergy import energy, make_rng
from mapenergy.constructions import make_projective_dilation, make_theta, perturbed_identity
from mapenergy.manifolds import (
    GeometryError,
    complex_projective,
    real_projective,
    sphere,
    sphere_volume,
)
from mapenergy import maps
from mapenergy.maps import (
    build_grid,
    compose,
    cp1_from_sphere,
    cp1_to_sphere,
    differential_columns,
    energy_density,
    gram_eigenvalues,
    grid_frames,
    homothety_map,
    identity_map,
    normalized_linear_map,
    pullback_gram,
    random_frames,
    unit_tangent_quadrature,
)


def test_random_frames_orthonormal():
    rng = make_rng(3)
    for M in (sphere(3), real_projective(2), complex_projective(2)):
        x = M.random_point(rng, 40)
        fr = random_frames(M, x, rng)
        assert fr.shape == (40, M.dim, M.ambient_dim)
        G = np.einsum("kia,kja->kij", fr.conj(), fr).real
        np.testing.assert_allclose(G, np.broadcast_to(np.eye(M.dim), G.shape), atol=1e-12)
        # tangency
        if M.kind == "complex_projective":
            np.testing.assert_allclose(np.einsum("ka,kia->ki", x.conj(), fr), 0.0, atol=1e-12)
        else:
            np.testing.assert_allclose(np.einsum("ka,kia->ki", x, fr), 0.0, atol=1e-12)


def test_identity_gram_is_identity():
    for M in (sphere(2), real_projective(3), complex_projective(2)):
        rng = make_rng(17)
        x = M.random_point(rng, 25)
        fr = random_frames(M, x, rng)
        G, ok = pullback_gram(identity_map(M), x, fr)
        assert ok.all()
        np.testing.assert_allclose(G, np.broadcast_to(np.eye(M.dim), G.shape), atol=1e-12)
        np.testing.assert_allclose(energy_density(G), M.dim, atol=1e-12)


def test_finite_difference_matches_analytic_o_h2():
    # slope 2 +/- 0.2 on log-log over h in {1e-2 ... 1e-4}
    M = sphere(2)
    A = np.array([[1.0, 0.3, 0.0], [0.0, 1.1, -0.2], [0.1, 0.0, 0.9]])
    F = normalized_linear_map(M, M, A)
    rng = make_rng(5)
    x = M.random_point(rng, 20)
    fr = random_frames(M, x, rng)
    exact = F.differential(np.broadcast_to(x[:, None, :], fr.shape), fr)
    F_fd = maps.MapObject(M, M, F.evaluator)
    hs = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
    errs = []
    for h in hs:
        cols, ok = differential_columns(F_fd, x, fr, h=h)
        assert ok.all()
        errs.append(np.max(np.abs(cols - exact)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.2


def test_fd_matches_analytic_on_complex_projective():
    M = complex_projective(2)
    rng = make_rng(11)
    A = np.diag([2.0, 1.0 + 0.5j, 0.7])
    F = normalized_linear_map(M, M, A)
    x = M.random_point(rng, 15)
    fr = random_frames(M, x, rng)
    exact = F.differential(np.broadcast_to(x[:, None, :], fr.shape), fr)
    F_fd = maps.MapObject(M, M, F.evaluator)
    cols, ok = differential_columns(F_fd, x, fr, h=1e-4)
    assert ok.all()
    np.testing.assert_allclose(cols, exact, atol=1e-7)


def test_frame_independence_of_gram_invariants():
    M = complex_projective(2)
    A = np.diag([1.5, 1.0, 0.5 + 0.1j])
    F = normalized_linear_map(M, M, A)
    rng = make_rng(23)
    x = M.random_point(rng, 30)
    f1 = random_frames(M, x, make_rng(1))
    f2 = random_frames(M, x, make_rng(2))
    G1, _ = pullback_gram(F, x, f1)
    G2, _ = pullback_gram(F, x, f2)
    np.testing.assert_allclose(energy_density(G1), energy_density(G2), atol=1e-8)
    np.testing.assert_allclose(np.linalg.det(G1), np.linalg.det(G2), atol=1e-8)


def test_homothety_distance_ratio_oracle():
    # doubling homothety: singular values all 2, checked against distance ratios
    F = homothety_map(sphere(2, 1.0), sphere(2, 2.0))
    rng = make_rng(31)
    M = F.domain
    x = M.random_point(rng, 10)
    fr = random_frames(M, x, rng)
    G, _ = pullback_gram(F, x, fr)
    np.testing.assert_allclose(np.sqrt(maps.gram_eigenvalues(G)), 2.0, atol=1e-6)
    # homothety sends geodesics to geodesics, so the ratio is exact for any
    # step; 1e-3 keeps the arccos in distance() well conditioned
    v = M.random_unit_tangent(rng, x)
    h = 1e-3
    ratio = F.codomain.distance(F(x), F(M.exp(x, h * v))) / h
    np.testing.assert_allclose(ratio, 2.0, atol=1e-6)


def test_inclusion_is_isometric():
    A = np.zeros((4, 3))
    A[:3, :3] = np.eye(3)
    F = normalized_linear_map(real_projective(2), real_projective(3), A)
    rng = make_rng(37)
    x = F.domain.random_point(rng, 10)
    fr = random_frames(F.domain, x, rng)
    G, _ = pullback_gram(F, x, fr)
    np.testing.assert_allclose(G, np.broadcast_to(np.eye(2), G.shape), atol=1e-10)


def test_double_cover_local_isometry():
    s2, rp2 = sphere(2), real_projective(2)
    F = normalized_linear_map(s2, rp2, np.eye(3), name="double_cover")
    rng = make_rng(41)
    x = s2.random_point(rng, 50)
    y = s2.random_point(rng, 50)
    d = s2.distance(x, y)
    np.testing.assert_allclose(rp2.distance(F(x), F(y)), np.minimum(d, math.pi - d), atol=1e-12)
    fr = random_frames(s2, x, rng)
    G, _ = pullback_gram(F, x, fr)
    np.testing.assert_allclose(G, np.broadcast_to(np.eye(2), G.shape), atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_unit_tangent_design_moments(d):
    # exact constants and second moments: int u_i u_j = delta_ij sigma(d-1)/d
    coeffs, w = maps._design_coefficients(d)
    sigma = sphere_volume(d - 1)
    np.testing.assert_allclose(w.sum(), sigma, rtol=1e-13)
    M2 = np.einsum("j,ja,jb->ab", w, coeffs, coeffs)
    np.testing.assert_allclose(M2, sigma / d * np.eye(d), atol=1e-12)
    np.testing.assert_allclose(np.einsum("j,ja->a", w, coeffs), 0.0, atol=1e-12)


def test_unit_tangent_quadrature_on_manifold():
    M = real_projective(3)
    x = M.random_point(make_rng(47))
    dirs, w = unit_tangent_quadrature(M, x)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.einsum("ja,a->j", dirs, x), 0.0, atol=1e-12)
    np.testing.assert_allclose(w.sum(), sphere_volume(2), rtol=1e-13)


def test_grid_masses():
    assert abs(build_grid(sphere(2), 500, seed=1).total_mass - 4 * math.pi) < 1e-9
    assert abs(build_grid(real_projective(3), 500, seed=1).total_mass - math.pi**2) < 1e-9
    assert abs(build_grid(complex_projective(2), 500, seed=1).total_mass - math.pi**2 / 2) < 1e-9
    m = build_grid(sphere(2), 3, scheme="mesh")
    np.testing.assert_allclose(m.total_mass, 4 * math.pi, rtol=1e-12)
    m = build_grid(real_projective(2), 3, scheme="mesh")
    np.testing.assert_allclose(m.total_mass, 2 * math.pi, rtol=1e-12)
    m = build_grid(complex_projective(1), 3, scheme="mesh")
    np.testing.assert_allclose(m.total_mass, math.pi, rtol=1e-12)
    assert len(build_grid(sphere(2), 0, scheme="mesh")) == 12
    assert len(build_grid(sphere(2), np.int64(7), seed=1)) == 7
    assert len(build_grid(sphere(2), np.int32(2), scheme="mesh")) == 162
    # a node count is an integer >= 1, a mesh level an integer >= 0
    for resolution in (2.7, 2.0, True, 0, -3, None, "5"):
        with pytest.raises(GeometryError, match="monte_carlo grid needs an integer"):
            build_grid(sphere(2), resolution)
    for level in (-1, 1.5, False):
        with pytest.raises(GeometryError, match="mesh grid needs an integer"):
            build_grid(sphere(2), level, "mesh")
    for scheme in ("product_angles", "Mesh"):
        with pytest.raises(GeometryError, match="unknown grid scheme"):
            build_grid(sphere(2), 4, scheme)


def test_grid_determinism_and_frames():
    M = complex_projective(2)
    g1 = build_grid(M, 100, seed=9)
    g2 = build_grid(M, 100, seed=9)
    np.testing.assert_array_equal(g1.nodes, g2.nodes)
    f1 = grid_frames(g1, salt=4)
    f2 = grid_frames(g2, salt=4)
    np.testing.assert_array_equal(f1, f2)


def test_grid_frames_are_drawn_once_per_salt_and_read_only():
    g = build_grid(complex_projective(2), 50, seed=9)
    f = grid_frames(g, salt=4)
    assert grid_frames(g, salt=4) is f
    with pytest.raises(ValueError):
        f[0, 0, 0] = 0.0
    other = grid_frames(g, salt=5)
    assert other is not f and not np.array_equal(other, f)


def test_hopf_chart_round_trip_and_isometry():
    M = complex_projective(1)
    rng = make_rng(53)
    z = M.random_point(rng, 60)
    p = cp1_to_sphere(z)
    np.testing.assert_allclose(np.linalg.norm(p, axis=-1), 1.0, atol=1e-12)
    back = cp1_from_sphere(p)
    np.testing.assert_allclose(np.abs(np.sum(back.conj() * z, axis=-1)), 1.0, atol=1e-12)
    # the chart halves distances: CP^1 is the radius-1/2 round sphere
    w = M.random_point(rng, 60)
    dc = M.distance(z, w)
    ds = np.arccos(np.clip(np.einsum("ka,ka->k", p, cp1_to_sphere(w)), -1, 1))
    np.testing.assert_allclose(2 * dc, ds, atol=1e-9)


def test_compose_chains_differentials():
    M = complex_projective(1)
    F = normalized_linear_map(M, M, np.diag([2.0, 1.0]))
    Gm = normalized_linear_map(M, M, np.array([[0.0, 1.0], [1.0, 0.0]]))
    C = compose(F, Gm)
    assert C.differential is not None
    rng = make_rng(59)
    x = M.random_point(rng, 8)
    fr = random_frames(M, x, rng)
    cols_a = C.differential(np.broadcast_to(x[:, None, :], fr.shape), fr)
    C_fd = maps.MapObject(M, M, C.evaluator)
    cols_f, _ = differential_columns(C_fd, x, fr)
    np.testing.assert_allclose(cols_a, cols_f, atol=1e-7)


# ---------------------------------------------------------------------------
# Batches in node blocks on the thread pool

ROOT = Path(__file__).resolve().parents[1]

# three blocks: two full ones and a partial one
BLOCKED_NODES = 2 * maps.NODE_BLOCK + 3616


@pytest.fixture
def pooled(monkeypatch):
    """Takes the blocked path as on two CPUs; lists each use of the pool."""
    monkeypatch.setattr(maps.os, "sched_getaffinity", lambda pid: {0, 1})
    uses = []
    pool = maps._pool
    monkeypatch.setattr(maps, "_pool", lambda: uses.append(os.getpid()) or pool())
    return uses


def _single_blocks(fn, n):
    """fn(start, stop) over the node blocks of n nodes, each a single-block call,
    concatenated along the node axis."""
    parts = [fn(s, s + maps.NODE_BLOCK) for s in range(0, n, maps.NODE_BLOCK)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(column) for column in zip(*parts))
    return np.concatenate(parts)


def _in_a_child(fn, timeout=120.0):
    """Exit status of a forked child that runs fn() and exits 0 when it returns
    True; a child still running after `timeout` seconds is killed."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if fn() else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail(f"the child did not finish in {timeout} s")


def _blocked_case(name):
    if name == "fd-squeeze":
        M = complex_projective(2)
        return compose(perturbed_identity(M, 0.2, "squeeze"), make_projective_dilation(2, 1.5))
    if name == "dilation":
        return make_projective_dilation(2, 2.0)
    if name == "theta":
        return make_theta(4.0)
    return identity_map(real_projective(3))


@pytest.mark.parametrize("name", ["fd-squeeze", "dilation", "theta", "identity-rp3"])
def test_blocked_batches_equal_single_block_calls_bit_for_bit(pooled, name):
    F = _blocked_case(name)
    assert (F.differential is None) == (name == "fd-squeeze")
    grid = build_grid(F.domain, BLOCKED_NODES, seed=3)
    x, fr = grid.nodes, grid_frames(grid)
    n = len(grid)

    cols, ok = differential_columns(F, x, fr)
    want_cols, want_ok = _single_blocks(lambda a, b: differential_columns(F, x[a:b], fr[a:b]), n)
    assert np.array_equal(cols, want_cols) and np.array_equal(ok, want_ok)

    G, ok = pullback_gram(F, x, fr)
    want_G, want_ok = _single_blocks(lambda a, b: pullback_gram(F, x[a:b], fr[a:b]), n)
    assert np.array_equal(G, want_G) and np.array_equal(ok, want_ok)

    for p in (2.0, 3.0):
        got = energy.p_energy(F, grid, p=p)
        value, stderr, _, _ = energy._integrate(
            grid, 0.5 * energy_density(want_G) ** (p / 2.0), want_ok, "p_energy")
        assert (got.value, got.stderr) == (value, stderr)

    volume = energy._integrate(grid, np.sqrt(np.prod(gram_eigenvalues(want_G), axis=-1)),
                               want_ok, "pullback_volume")[0]
    assert energy.pullback_volume(F, grid) == volume
    assert pooled


@pytest.mark.parametrize("M", [complex_projective(2), real_projective(3), sphere(3)],
                         ids=["cp2", "rp3", "s3"])
def test_blocked_random_frames_equal_one_serial_pass(pooled, M):
    x = M.random_point(make_rng(1), BLOCKED_NODES)
    got = random_frames(M, x, make_rng(5))
    rng = make_rng(5)
    shape = x.shape[:-1] + (M.dim, x.shape[-1])
    g = rng.standard_normal(shape)
    if M.is_complex:
        g = g + 1j * rng.standard_normal(shape)
    want = maps._real_orthonormalize(M.project_tangent(x[..., None, :], g))
    assert np.array_equal(got, want)
    assert pooled


def test_an_error_in_a_later_block_propagates_from_p_energy(pooled):
    M = sphere(2)
    grid = build_grid(M, BLOCKED_NODES, seed=4)
    marked = grid.nodes[-1]

    def ev(x):
        if np.any(np.all(x == marked, axis=-1)):
            raise GeometryError("the marked node")
        return x

    with pytest.raises(GeometryError, match="the marked node"):
        energy.p_energy(maps.MapObject(M, M, ev), grid)
    assert pooled


def test_a_differential_that_calls_differential_columns_finishes(pooled):
    # each worker passes its one block on, which runs inline; a larger
    # batch would wait on the pool whose threads are all busy with it
    M = complex_projective(2)
    inner = maps.MapObject(M, M, lambda x: x)

    def diff(x, v):
        return differential_columns(inner, x[..., 0, :], v)[0]

    F = maps.MapObject(M, M, lambda x: x, differential=diff)
    grid = build_grid(M, BLOCKED_NODES, seed=5)
    x, fr = grid.nodes, grid_frames(grid)

    def nested_equals_direct():
        before = len(pooled)
        nested, direct = differential_columns(F, x, fr)[0], differential_columns(inner, x, fr)[0]
        # one pool use each for the two whole batches, none for the blocks
        return np.array_equal(nested, direct) and len(pooled) == before + 2

    assert _in_a_child(nested_equals_direct) == 0


def test_a_forked_child_makes_its_own_pool(pooled):
    F = make_projective_dilation(2, 2.0)
    M = F.domain
    want = energy.p_energy(F, build_grid(M, BLOCKED_NODES, seed=6))
    assert os.getpid() in maps._POOLS

    def child_energy_equals_the_parents():
        return energy.p_energy(F, build_grid(M, BLOCKED_NODES, seed=6)) == want

    assert _in_a_child(child_energy_equals_the_parents) == 0


def test_concurrent_first_callers_share_one_pool(monkeypatch):
    def slow_executor(**kwargs):
        # widens the window between looking for the pool and storing it
        time.sleep(1e-3)
        return executor(**kwargs)

    executor = maps.ThreadPoolExecutor
    monkeypatch.setattr(maps, "ThreadPoolExecutor", slow_executor)
    callers = 4
    barrier = threading.Barrier(callers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(maps, "_POOLS", {})
            got = []

            def call():
                barrier.wait(timeout=60)
                got.append(maps._pool())

            threads = [threading.Thread(target=call) for _ in range(callers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            # a lost update hands two callers different pools
            assert len(got) == callers and len({id(pool) for pool in got}) == 1
    finally:
        sys.setswitchinterval(interval)


def test_importing_mapenergy_starts_no_thread():
    # a pool made at import would be copied into every fork without its threads
    code = "import threading, mapenergy; print(threading.active_count())"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "1"
