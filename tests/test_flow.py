import numpy as np
import pytest

from mapenergy.constructions import perturbed_identity, standard_maps
from mapenergy.energy import p_energy
from mapenergy.flow import (
    MeshMap,
    conformality_defect,
    discrete_energy,
    discrete_tension,
    flow_minimize,
    interpolate,
    meshmap_from_csv,
    meshmap_to_csv,
    sample_map,
    write_flow_log,
)
from mapenergy.harmonic import tension as fd_tension
from mapenergy.manifolds import GeometryError, complex_projective, real_projective, sphere
from mapenergy.maps import MapObject, build_grid, compose, identity_map, normalized_linear_map
from mapenergy import meshes
from mapenergy.meshes import icosphere
from mapenergy.rand import make_rng

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

    return MapObject(s2, s2, ev, name="latitude-squash")


# ---------------------------------------------------------------------------
# MeshMap invariants


def test_meshmap_validation():
    mesh = icosphere(2)
    with pytest.raises(GeometryError):
        MeshMap(mesh, s2, np.zeros((5, 3)))
    bad = rp2.canonicalize(mesh.vertices.copy())
    bad[0] = -bad[0]  # not the canonical representative
    with pytest.raises(GeometryError):
        MeshMap(mesh, rp2, bad)
    asym = rp2.canonicalize(mesh.vertices)
    asym[3] = rp2.canonicalize(np.array([0.3, 0.1, 0.95]))
    with pytest.raises(GeometryError):
        MeshMap(mesh, rp2, asym, antipodal_quotient=True)


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
    assert d0 / hist[-1]["defect"] >= 10.0
    assert float(np.max(s2.norm(discrete_tension(mf)))) < 1e-4
    # the interpolated map's finite-difference tension drops to the
    # piecewise-interpolation floor, far below the initial tension scale
    I = interpolate(mf)
    tri = mf.mesh.triangles[::100]
    cent = mf.mesh.vertices[tri].mean(axis=1)
    cent /= np.linalg.norm(cent, axis=-1, keepdims=True)
    sup_interp = float(np.max(s2.norm(fd_tension(I, cent))))
    sup_initial = float(
        np.max(s2.norm(fd_tension(perturbed_identity(s2, magnitude=0.2, seed=1), cent)))
    )
    assert sup_interp < 0.01
    assert sup_interp < sup_initial / 50.0


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
# interpolation and persistence


def test_interpolation_reproduces_identity():
    m = sample_map(identity_map(s2), 4)
    I = interpolate(m)
    x = s2.random_point(make_rng(5), 400)
    assert np.max(np.linalg.norm(I(x) - x, axis=-1)) < 1e-4
    v = m.mesh.vertices[:200]
    assert np.max(np.linalg.norm(I(v) - v, axis=-1)) < 1e-12


def test_interpolation_quotient_domain():
    m = sample_map(identity_map(rp2), 3, antipodal_quotient=True)
    I = interpolate(m)
    x = rp2.random_point(make_rng(6), 200)
    assert np.max(np.linalg.norm(I(x) - x, axis=-1)) < 1e-3


def test_meshmap_csv_roundtrip(tmp_path):
    m = sample_map(latitude_squash(), 2)
    path = tmp_path / "mm.csv"
    meshmap_to_csv(m, path)
    back = meshmap_from_csv(path, s2)
    np.testing.assert_array_equal(back.images, m.images)
    assert back.mesh.level == 2 and not back.antipodal_quotient

    mq = sample_map(identity_map(rp2), 2, antipodal_quotient=True)
    pq = tmp_path / "mq.csv"
    meshmap_to_csv(mq, pq)
    backq = meshmap_from_csv(pq, rp2)
    assert backq.antipodal_quotient
    np.testing.assert_array_equal(backq.images, mq.images)
    for wrong in (s2, complex_projective(1), real_projective(3)):
        with pytest.raises(GeometryError):
            meshmap_from_csv(pq, wrong)


def test_flow_log_csv(tmp_path):
    m0 = sample_map(perturbed_identity(s2, magnitude=0.1, seed=4), 2)
    _, hist = flow_minimize(m0, iters=5, grad_tol=0.0)
    path = tmp_path / "log.csv"
    write_flow_log(hist, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,energy,grad_norm,defect,step"
    assert len(lines) == len(hist) + 1
