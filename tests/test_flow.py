import re

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from mapenergy.constructions import perturbed_identity, standard_maps
from mapenergy.energy import p_energy
from mapenergy.flow import (
    MeshMap,
    conformality_defect,
    discrete_energy,
    discrete_tension,
    flow_minimize,
    h1_direction,
    sample_map,
    write_flow_log,
)
from mapenergy.harmonic import tension as fd_tension
from mapenergy.manifolds import GeometryError, complex_projective, real_projective, sphere
from mapenergy.maps import (
    build_grid,
    compose,
    cp1_from_sphere,
    identity_map,
    normalized_linear_map,
)
from mapenergy import flow, meshes
from mapenergy.meshes import icosphere
from mapenergy.rand import make_rng

from fd_oracle import evaluator_map


s2 = sphere(2)
rp2 = real_projective(2)


def latitude_squash(amplitude=0.2):
    """Move each latitude circle by amplitude * sin(2 theta)."""

    def ev(x):
        z = np.clip(x[..., 2], -1.0, 1.0)
        theta = np.arccos(z)
        t2 = theta + amplitude * np.sin(2.0 * theta)
        s = np.sin(theta)
        scale = np.where(s > 1e-12, np.sin(t2) / np.where(s > 1e-12, s, 1.0), 1.0)
        out = np.empty_like(x)
        out[..., 0] = x[..., 0] * scale
        out[..., 1] = x[..., 1] * scale
        out[..., 2] = np.cos(t2)
        return out / np.linalg.norm(out, axis=-1, keepdims=True)

    return evaluator_map(s2, s2, ev, "latitude-squash")


# ---------------------------------------------------------------------------
# MeshMap invariants


def test_meshmap_validation():
    mesh = icosphere(2)
    with pytest.raises(GeometryError):
        MeshMap(mesh, s2, np.zeros((5, 3)))
    bad = rp2.canonicalize(mesh.vertices.copy())
    bad[0] = -bad[0]  # not the canonical representative
    with pytest.raises(GeometryError, match="canonical"):
        MeshMap(mesh, rp2, bad)
    asym = rp2.canonicalize(mesh.vertices)
    # a unit vector, so the antipodal check, not the norm check, rejects it
    asym[3] = rp2.canonicalize(np.array([0.3, 0.1, 0.95]) / np.sqrt(1.0025))
    with pytest.raises(GeometryError, match="antipodally equal"):
        MeshMap(mesh, rp2, asym, antipodal_quotient=True)
    for level in (-1, True, 1.5, "2", None):
        with pytest.raises(GeometryError, match="integer resolution >= 0"):
            sample_map(identity_map(s2), level)
    assert sample_map(identity_map(s2), np.int64(1)).mesh is icosphere(1)


@pytest.mark.parametrize("M", [sphere(1), sphere(3), complex_projective(1), real_projective(3)],
                         ids=["s1", "s3", "cp1", "rp3"])
def test_sample_map_rejects_a_domain_the_icosphere_cannot_sample(M):
    def never(x):
        raise AssertionError("F was evaluated before its domain was checked")

    with pytest.raises(GeometryError, match=r"2-sphere or RP\^2 domain, got " + re.escape(repr(M))):
        sample_map(evaluator_map(M, M, never, "never"), 2)
    with pytest.raises(GeometryError, match=r"2-sphere or RP\^2 domain"):
        sample_map(identity_map(M), 2)


def test_vertex_areas_cover_domain():
    m = sample_map(identity_map(s2), 3)
    assert np.sum(m.areas) == pytest.approx(4.0 * np.pi, rel=1e-6)
    mq = sample_map(identity_map(rp2), 3, antipodal_quotient=True)
    assert np.sum(mq.areas) == pytest.approx(2.0 * np.pi, rel=1e-6)


# ---------------------------------------------------------------------------
# discrete energy


def test_identity_energy_refines_toward_smooth_value():
    rels = []
    for level in (3, 4):
        E = discrete_energy(sample_map(identity_map(s2), level))
        rel = abs(E - 4.0 * np.pi) / (4.0 * np.pi)
        assert rel < 0.01
        rels.append(rel)
    assert rels[1] < rels[0]


def test_double_cover_energy_matches_smooth_module():
    F = standard_maps("double_cover")
    E_disc = discrete_energy(sample_map(F, 4))
    E_smooth = p_energy(F, build_grid(s2, 4, "mesh"), p=2.0).value
    assert E_disc == pytest.approx(4.0 * np.pi, rel=0.01)
    assert E_disc == pytest.approx(E_smooth, rel=0.01)


def test_quotient_identity_energy():
    E = discrete_energy(sample_map(identity_map(rp2), 4, antipodal_quotient=True))
    assert E == pytest.approx(2.0 * np.pi, rel=0.01)


def test_meshmap_images_must_be_unit_vectors():
    # representatives are unit vectors for every codomain radius: doubled
    # images on S^2 and canonical non-unit images on CP^2 are refused where
    # they enter, and the images of a radius-2 sphere are the unit vertices
    mesh = icosphere(3)
    x = mesh.vertices
    with pytest.raises(GeometryError, match="unit vectors"):
        MeshMap(mesh, s2, 2.0 * x)
    unit = discrete_energy(MeshMap(mesh, s2, x))
    assert unit == pytest.approx(4.0 * np.pi, rel=5e-3)
    assert discrete_energy(MeshMap(mesh, sphere(2, 2.0), x)) == pytest.approx(4.0 * unit, rel=1e-14)
    cp2 = complex_projective(2)
    imgs = cp2.random_point(make_rng(3), len(x))
    for scale in (2.0, 1.0 + 1e-9):
        with pytest.raises(GeometryError, match="unit vectors"):
            MeshMap(mesh, cp2, cp2.canonicalize(scale * imgs))
    for scale in (1.0, 1.0 + 1e-12):
        MeshMap(mesh, cp2, cp2.canonicalize(scale * imgs))
    blank = cp2.canonicalize(imgs)
    blank[5] = np.nan
    with pytest.raises(GeometryError, match="unit vectors"):
        MeshMap(mesh, cp2, blank)


def test_constant_map_is_flow_fixed_point():
    mesh = icosphere(3)
    imgs = np.broadcast_to(np.array([0.0, 0.0, 1.0]), (len(mesh.vertices), 3)).copy()
    m = MeshMap(mesh, s2, imgs)
    assert discrete_energy(m) == 0.0
    final, hist = flow_minimize(m, iters=50)
    assert len(hist) == 1 and hist[0]["energy"] == 0.0
    np.testing.assert_array_equal(final.images, imgs)


# ---------------------------------------------------------------------------
# gradient flow


def test_flow_perturbed_identity_descends_to_harmonic():
    m0 = sample_map(perturbed_identity(s2, magnitude=0.2, seed=1), 4)
    d0 = conformality_defect(m0)
    mf, hist = flow_minimize(m0, step=0.25, iters=2000, grad_tol=8e-5)
    energies = [rec["energy"] for rec in hist]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert energies[-1] == pytest.approx(4.0 * np.pi, rel=0.01)
    assert d0 / conformality_defect(mf) >= 10.0
    assert float(np.max(s2.norm(discrete_tension(mf)))) < 1e-4


def test_flow_records_no_conformality_defect(monkeypatch):
    calls = []
    monkeypatch.setattr(flow, "conformality_defect", lambda m: calls.append(m) or 0.0)
    m0 = sample_map(perturbed_identity(s2, magnitude=0.2, seed=1), 2)
    _, hist = flow_minimize(m0, iters=20, grad_tol=0.0)
    assert len(hist) == 21
    assert calls == []


def test_flow_perturbed_double_cover():
    F = compose(standard_maps("double_cover"), perturbed_identity(s2, magnitude=0.2, seed=2))
    m0 = sample_map(F, 3)
    mf, hist = flow_minimize(m0, step=0.25, iters=2000, grad_tol=1e-3)
    energies = [rec["energy"] for rec in hist]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert energies[-1] == pytest.approx(4.0 * np.pi, rel=0.01)


def test_flow_quotient_preserves_symmetry():
    base = sample_map(identity_map(rp2), 3, antipodal_quotient=True)
    # perturb symmetrically: push along a fixed ambient field through the quotient
    rng = make_rng(3)
    S = rng.standard_normal((3, 3))
    field = 0.15 * base.domain.project_tangent(base.images, base.images @ S.T)
    m0 = base.with_images(rp2.exp(base.images, field))
    mf, hist = flow_minimize(m0, step=0.25, iters=500, grad_tol=1e-3)
    assert hist[-1]["energy"] <= hist[0]["energy"]
    assert hist[-1]["energy"] == pytest.approx(2.0 * np.pi, rel=0.01)


def _h1_cases():
    """A bent S^2 map, a bent map of the RP^2 quotient and a CP^1-valued map, at level 3."""
    bent = perturbed_identity(s2, magnitude=0.2, seed=0)
    cp1 = complex_projective(1)
    mesh = icosphere(3)
    return {
        "s2": sample_map(bent, 3),
        "rp2": sample_map(perturbed_identity(rp2, 0.2, seed=0), 3, antipodal_quotient=True),
        "cp1": MeshMap(mesh, cp1, cp1.canonicalize(cp1_from_sphere(bent(mesh.vertices)))),
    }


H1_CASES = ["s2", "rp2", "cp1"]


@pytest.mark.parametrize("name", H1_CASES)
def test_h1_flow_converges_in_a_few_iterations(name):
    # a step along the tension itself needs 195, 195 and 171 iterations on these maps
    m0 = _h1_cases()[name]
    mf, hist = flow_minimize(m0, step=0.25, iters=4000, grad_tol=2e-4)
    assert len(hist) - 1 <= 20
    assert float(np.max(m0.codomain.norm(discrete_tension(mf)))) < 2e-4
    energies = [rec["energy"] for rec in hist]
    assert all(b <= a for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("name", H1_CASES)
def test_h1_direction_is_tangent_and_descends(name):
    m = _h1_cases()[name]
    tau = discrete_tension(m)
    d = h1_direction(m, tau)
    # <F_i, d_i> vanishes: its real part on spheres, all of it (horizontality) on CP^1
    assert float(np.max(np.abs(np.sum(m.images.conj() * d, axis=-1)))) < 1e-14
    # first variation of the energy along d is -sum_i a_i Re<tau_i, d_i>
    slope = float(np.sum(m.areas * np.sum((tau.conj() * d).real, axis=-1)))
    assert slope > 0
    E0 = discrete_energy(m)
    for t in (1e-3, 1e-2):
        assert discrete_energy(m.with_images(m.codomain.exp(m.images, t * d))) < E0


def _moved(m):
    """m moved by a seeded isometry Q of its codomain, Q, and the unit
    scalars that canonicalize the moved representatives."""
    Q = m.codomain.random_isometry(make_rng(11))
    moved, f = m.codomain.canonicalize_with_factor(m.images @ Q.T)
    return m.with_images(moved), Q, f


@pytest.mark.parametrize("name", H1_CASES)
def test_h1_direction_is_covariant_under_codomain_isometries(name):
    # canonical representatives of the moved images differ from the moved
    # representatives by signs (RP^2) or phases (CP^1), which the gauge absorbs
    m = _h1_cases()[name]
    m_moved, Q, f = _moved(m)
    if name != "s2":
        assert np.max(np.abs(f - 1.0)) > 1.0  # some representatives flip
    tau = discrete_tension(m)
    d = h1_direction(m, tau)
    d_moved = h1_direction(m_moved, discrete_tension(m_moved))
    np.testing.assert_allclose(d_moved, f[:, None] * (d @ Q.T), rtol=0, atol=1e-12)


def _fresh_h1_direction(m, tau):
    """Proj(P_g^-1 A tau) from a factor of P_g = A + L_g assembled here."""
    i, j = m.pairs.T
    n = len(m.images)
    off = -m.weights * m.codomain.gauge(m.images[i], m.images[j])
    diagonal = m.areas + np.bincount(m.pairs.ravel(), np.repeat(m.weights, 2), n)
    entries = np.concatenate([diagonal, off, off.conj()])
    rows = np.concatenate([np.arange(n), i, j])
    cols = np.concatenate([np.arange(n), j, i])
    P = sparse.csc_matrix((entries, (rows, cols)), (n, n))
    return m.codomain.project_tangent(m.images, splu(P).solve(m.areas[:, None] * tau))


def _unliftable_rp2_map():
    """A level-1 map to RP^2 with random canonical images: its signs g_ij have no lift."""
    mesh = icosphere(1)
    m = MeshMap(mesh, rp2, rp2.random_point(make_rng(5), len(mesh.vertices)))
    a, b, c = m.images[mesh.triangles.T]
    signs = rp2.gauge(a, b) * rp2.gauge(b, c) * rp2.gauge(c, a)
    assert np.any(signs == -1.0)
    return m


@pytest.mark.parametrize("name", H1_CASES + [n + "-moved" for n in H1_CASES] + ["rp2-no-lift"])
def test_h1_direction_matches_a_fresh_factor_bit_for_bit(name):
    # the kept factor, the sign lift and the quotient's halving are all exact
    if name == "rp2-no-lift":
        m = _unliftable_rp2_map()
    else:
        m = _h1_cases()[name.removesuffix("-moved")]
        if name.endswith("-moved"):
            m = _moved(m)[0]
    tau = discrete_tension(m)
    assert h1_direction(m, tau).tobytes() == _fresh_h1_direction(m, tau).tobytes()


def test_h1_factor_is_kept_per_mesh_and_remade_only_for_phases(monkeypatch):
    calls = []
    monkeypatch.setattr(flow, "splu", lambda P: calls.append(P) or splu(P))
    level3 = icosphere(3)
    mesh = meshes.SphereMesh(level3.vertices, level3.triangles)  # keeps no factor yet
    s2_map = MeshMap(mesh, s2, perturbed_identity(s2, 0.2, seed=0)(mesh.vertices))
    rp2_images = perturbed_identity(rp2, 0.2, seed=0)(rp2.canonicalize(mesh.vertices))
    rp2_map = MeshMap(mesh, rp2, rp2_images, antipodal_quotient=True)
    for m0 in (s2_map, rp2_map, s2_map, rp2_map):
        _, hist = flow_minimize(m0, step=0.25, iters=4000, grad_tol=2e-4)
        assert len(hist) > 2
    assert len(calls) == 1
    cp1 = complex_projective(1)
    cp1_images = cp1.canonicalize(cp1_from_sphere(s2_map.images))
    _, hist = flow_minimize(MeshMap(mesh, cp1, cp1_images), step=0.25, iters=4000, grad_tol=2e-4)
    assert len(calls) == 1 + (len(hist) - 1)


# ---------------------------------------------------------------------------
# input checks


BAD_FLOW_INPUTS = [
    {"step": float("nan")}, {"step": float("inf")}, {"step": -1.0}, {"step": 0.0},
    {"step": True}, {"step": "0.25"}, {"step": None},
    {"iters": 2.5}, {"iters": -3}, {"iters": True}, {"iters": "10"},
    {"grad_tol": float("nan")}, {"grad_tol": float("inf")}, {"grad_tol": -1e-6},
    {"grad_tol": True}, {"grad_tol": None},
]


@pytest.mark.parametrize("bad", BAD_FLOW_INPUTS, ids=repr)
def test_flow_rejects_bad_inputs_before_any_work(monkeypatch, bad):
    m0 = sample_map(perturbed_identity(s2, magnitude=0.2, seed=1), 2)
    calls = []
    monkeypatch.setattr(flow, "discrete_energy", lambda m: calls.append(m) or 0.0)
    monkeypatch.setattr(flow, "discrete_tension", lambda m: calls.append(m) or 0.0)
    with pytest.raises(GeometryError):
        flow_minimize(m0, **bad)
    assert calls == []


def test_flow_accepts_the_edge_values():
    m0 = sample_map(perturbed_identity(s2, magnitude=0.2, seed=1), 2)
    _, hist = flow_minimize(m0, iters=0)
    assert len(hist) == 1
    _, hist = flow_minimize(m0, step=np.float64(0.25), iters=np.int64(2), grad_tol=0)
    assert len(hist) == 3


# ---------------------------------------------------------------------------
# conformality defect


def test_conformality_defect_examples():
    m_id = sample_map(identity_map(s2), 3)
    assert conformality_defect(m_id) < 1e-12
    stretch = normalized_linear_map(s2, s2, np.diag([1.0, 1.0, 0.25]))
    assert conformality_defect(sample_map(stretch, 3)) > 0.1
    mesh = icosphere(3)
    imgs = np.broadcast_to(np.array([0.0, 0.0, 1.0]), (len(mesh.vertices), 3)).copy()
    assert conformality_defect(MeshMap(mesh, s2, imgs)) == 0.0


def _defect_by_whole_triangles(m, guard=1e-12):
    """Reference: flatten the domain and the image triangles on every call."""
    tri, v, f = m.mesh.triangles, m.mesh.vertices, m.images

    def sides(points, space):
        a, b, c = points[tri[:, 0]], points[tri[:, 1]], points[tri[:, 2]]
        return space.distance(a, b), space.distance(b, c), space.distance(c, a)

    def plant(l_ab, l_bc, l_ca):
        cos_a = (l_ab**2 + l_ca**2 - l_bc**2) / np.maximum(2.0 * l_ab * l_ca, guard)
        bad = np.abs(cos_a) > 1.0 + 1e-9
        cos_a = np.clip(cos_a, -1.0, 1.0)
        sin_a = np.sqrt(np.maximum(1.0 - cos_a**2, 0.0))
        e1 = np.stack([l_ab, np.zeros_like(l_ab)], axis=-1)
        e2 = np.stack([l_ca * cos_a, l_ca * sin_a], axis=-1)
        return np.stack([e1, e2], axis=-1), bad

    P, bad_dom = plant(*sides(v, s2))
    Q, bad_img = plant(*sides(f, m.codomain))
    det = P[..., 0, 0] * P[..., 1, 1] - P[..., 0, 1] * P[..., 1, 0]
    degenerate = bad_dom | bad_img | (np.abs(det) < guard)
    Pinv = np.zeros_like(P)
    safe_det = np.where(degenerate, 1.0, det)
    Pinv[..., 0, 0] = P[..., 1, 1] / safe_det
    Pinv[..., 1, 1] = P[..., 0, 0] / safe_det
    Pinv[..., 0, 1] = -P[..., 0, 1] / safe_det
    Pinv[..., 1, 0] = -P[..., 1, 0] / safe_det
    s = np.linalg.svd(Q @ Pinv, compute_uv=False)
    defect = np.abs(s[..., 0] - s[..., 1]) / (s[..., 0] + s[..., 1] + guard)
    areas = meshes.spherical_triangle_areas(v, tri)
    keep = ~degenerate
    return float(np.sum(areas[keep] * defect[keep]) / float(np.sum(areas[keep])))


def test_conformality_defect_equals_the_whole_triangle_computation():
    bent = perturbed_identity(s2, magnitude=0.2, seed=0)
    for level in range(4):
        for m in (sample_map(identity_map(s2), level),
                  sample_map(identity_map(rp2), level, antipodal_quotient=True),
                  sample_map(bent, level)):
            assert conformality_defect(m) == _defect_by_whole_triangles(m)


# ---------------------------------------------------------------------------
# tension oracle against the smooth module


def _tension_by_add_at(m):
    """Reference: scatter the forward and the backward edge terms with np.add.at."""
    i, j = m.pairs[:, 0], m.pairs[:, 1]
    fwd, _ = m.codomain.log_masked(m.images[i], m.images[j])
    bwd, _ = m.codomain.log_masked(m.images[j], m.images[i])
    out = np.zeros_like(m.images)
    np.add.at(out, i, m.weights[:, None] * fwd)
    np.add.at(out, j, m.weights[:, None] * bwd)
    return out / m.areas[:, None]


def test_discrete_tension_equals_the_add_at_scatter():
    bent = perturbed_identity(s2, magnitude=0.2, seed=0)
    cp1 = complex_projective(1)
    for level in range(4):
        mesh = icosphere(level)
        for m in (sample_map(bent, level),
                  sample_map(identity_map(rp2), level, antipodal_quotient=True),
                  MeshMap(mesh, cp1, cp1.canonicalize(cp1_from_sphere(bent(mesh.vertices))))):
            tau, ref = discrete_tension(m), _tension_by_add_at(m)
            assert tau.dtype == ref.dtype and tau.tobytes() == ref.tobytes()


def test_latitude_squash_tension_matches_finite_differences():
    F = latitude_squash()
    m = sample_map(F, 4)
    tau_d = discrete_tension(m)
    tau_f = fd_tension(F, m.mesh.vertices)
    assert float(np.max(s2.norm(tau_f))) > 0.5  # genuinely non-harmonic
    err = np.linalg.norm(tau_d - tau_f, axis=-1)
    l2 = np.sqrt(np.sum(m.areas * err**2) / np.sum(m.areas * s2.norm(tau_f) ** 2))
    assert l2 < 0.05


# ---------------------------------------------------------------------------
# persistence


def test_flow_log_csv(tmp_path):
    m0 = sample_map(perturbed_identity(s2, magnitude=0.1, seed=4), 2)
    _, hist = flow_minimize(m0, iters=5, grad_tol=0.0)
    path = tmp_path / "log.csv"
    write_flow_log(hist, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,energy,grad_norm,step"
    assert len(lines) == len(hist) + 1
    # 17 significant digits: every energy cell reads back to the same double
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    assert [e.hex() for e in energies] == [rec["energy"].hex() for rec in hist]
