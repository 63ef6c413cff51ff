"""End-to-end acceptance checks with pinned tolerances.

Twelve criteria cover the direction-averaged density, saturation of the
closed-form energy bounds, the integral-geometric averaging formulas,
the dilation families and their limits, the holomorphic corpus and its
second-order diagnostics, the systolic inequality, the discrete energy
flow, and the structural property suite.  Each test prints one
``criterion NN [label]: PASS/FAIL`` line with the quantity that decides
it.
"""

import numpy as np
import pytest

from mapenergy.constructions import make_theta, veronese_curve
from mapenergy import harmonic
from mapenergy.harmonic import second_fundamental_form, tension
from mapenergy.intgeo import line_energy_average, line_space_mass, rp2_family_mass
from mapenergy.energy import p_energy
from mapenergy.manifolds import (
    complex_projective,
    real_projective,
    sphere,
)
from mapenergy.maps import (
    build_grid,
    compose,
    differential_columns,
    identity_map,
    normalized_linear_map,
    tangent_frames,
)
from mapenergy.rand import make_rng
from mapenergy.report import BoundSpec, eval_bound, run_experiment

from fd_oracle import fd_map


def _verdict(number, label, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{label}]: {state}  {detail}")


def test_criterion_01_direction_average_equals_gram_trace():
    report = run_experiment({"name": "croke", "resolution": 1000, "seed": 0})
    _verdict(1, "croke", report.passed,
             f"max relative deviation {report.estimate:.2e} (tolerance 1e-06)")
    assert report.passed


def test_criterion_02_complex_identities_saturate_the_p_bounds():
    worst = 0.0
    named = {}
    for N in (1, 2):
        M = complex_projective(N)
        grid = build_grid(M, 100000, "monte_carlo", seed=N)
        for p in (2.0, 3.0, 4.0):
            value = p_energy(identity_map(M), grid, p=p).value
            bound = eval_bound(BoundSpec("CPN_P", {"N": N, "p": p, "area": np.pi}))
            worst = max(worst, abs(value - bound) / bound)
            named[(N, p)] = value
    ok = worst < 5e-3
    _verdict(2, "cp-identity-bounds", ok,
             f"worst relative error {worst:.2e} (tolerance 5e-03)")
    assert ok
    assert named[(1, 2.0)] == pytest.approx(np.pi, rel=5e-3)
    assert named[(2, 2.0)] == pytest.approx(np.pi**2, rel=5e-3)
    assert named[(2, 4.0)] == pytest.approx(4 * np.pi**2, rel=5e-3)


def test_criterion_03_real_identities_saturate_the_p_bounds():
    worst = 0.0
    named = {}
    for n in (2, 3):
        M = real_projective(n)
        grid = build_grid(M, 100000, "monte_carlo", seed=10 + n)
        for p in (1.0, 2.0, 4.0):
            value = p_energy(identity_map(M), grid, p=p).value
            bound = eval_bound(BoundSpec("RPN_P", {"n": n, "p": p, "length": np.pi}))
            worst = max(worst, abs(value - bound) / bound)
            named[(n, p)] = value
    ok = worst < 5e-3
    _verdict(3, "rp-identity-bounds", ok,
             f"worst relative error {worst:.2e} (tolerance 5e-03)")
    assert ok
    assert named[(2, 1.0)] == pytest.approx(np.sqrt(2) * np.pi, rel=5e-3)
    assert named[(2, 2.0)] == pytest.approx(2 * np.pi, rel=5e-3)
    assert named[(3, 2.0)] == pytest.approx(1.5 * np.pi**2, rel=5e-3)


def test_criterion_04_line_averages_recover_the_energy():
    assert line_space_mass(2) == pytest.approx(np.pi**2 / 2, rel=1e-12)
    report = run_experiment({"name": "line-formula", "resolution": 10000,
                             "seed": 0})
    averages = report.inputs.get("averages", {})
    _verdict(4, "line-average", report.passed,
             f"averages {averages} vs {np.pi**2:.6f} (tolerance 1%)")
    assert report.passed


def test_cp3_identity_pins_every_factorial():
    # at N <= 2, N! = N and (N-1)! = 1, so only N >= 3 tells these formulas
    # from ones that drop a factorial; E_2 of the identity of CP^3 is pi^3 / 2
    M = complex_projective(3)
    grid = build_grid(M, 2000, "monte_carlo", seed=3)
    for p, literal in ((2.0, np.pi**3 / 2), (3.0, np.pi**3 * np.sqrt(6) / 2), (4.0, 3 * np.pi**3)):
        assert p_energy(identity_map(M), grid, p=p).value == pytest.approx(literal, rel=1e-12)
        bound = eval_bound(BoundSpec("CPN_P", {"N": 3, "p": p, "area": np.pi}))
        assert bound == pytest.approx(literal, rel=1e-12)
    assert eval_bound(BoundSpec("INFIMUM", {"N": 3, "area": np.pi})) == pytest.approx(np.pi**3 / 2, rel=1e-12)
    assert line_space_mass(3) == pytest.approx(np.pi**4 / 12, rel=1e-12)
    average = line_energy_average(identity_map(M), K=200, line_resolution=3)
    assert average == pytest.approx(np.pi**3 / 2, rel=1e-12)


def test_criterion_05_plane_averages_recover_the_energy():
    assert rp2_family_mass(3) == pytest.approx(0.75 * np.pi, rel=1e-12)
    report = run_experiment({"name": "rp2-family", "resolution": 64, "seed": 0})
    _verdict(5, "plane-average", report.passed,
             f"average {report.inputs.get('average')} vs "
             f"{1.5 * np.pi**2:.6f} (tolerance 1%)")
    assert report.passed


def test_criterion_06_dilation_squeeze_reaches_the_line_limit():
    report = run_experiment({"name": "squeeze", "resolution": 100000,
                             "seed": 0})
    _verdict(6, "squeeze", report.passed,
             f"terminal energy {report.estimate:.6f} vs target "
             f"{report.reference:.6f} (tolerance 2%), sequence "
             f"{[round(v, 3) for v in report.inputs.get('energies', [])]}")
    assert report.passed


def test_criterion_07_holomorphic_corpus_is_calibrated_and_harmonic():
    report = run_experiment({"name": "holomorphic-corpus", "seed": 0})
    _verdict(7, "holomorphic-corpus", report.passed,
             f"worst tolerance-normalized deviation {report.estimate:.3f} "
             "(energy/area 0.5%, residuals 1e-03)")
    assert report.passed


def test_criterion_08_symmetry_directions_are_neutral_with_matching_index_form():
    trace = run_experiment({"name": "trace-II", "seed": 0})
    jacobi = run_experiment({"name": "jacobi", "seed": 0})
    ok = trace.passed and jacobi.passed
    _verdict(8, "second-variation", ok,
             f"relative symmetry response {trace.estimate:.2e} "
             f"(tolerance 1e-03), index-form mismatch {jacobi.estimate:.2e} "
             "(tolerance 5e-02)")
    assert trace.passed
    assert jacobi.passed


def test_criterion_09_dilations_descend_toward_the_capped_limit():
    theta = run_experiment({"name": "theta", "resolution": 30000, "seed": 0})
    capped = run_experiment({"name": "capped-theta", "resolution": 30000,
                             "seed": 0})
    ok = theta.passed and capped.passed
    _verdict(9, "dilation-family", ok,
             f"E(1) = {theta.estimate:.4f} vs {3 * np.pi**2:.4f} (0.5%), "
             f"decreasing {theta.inputs.get('energies')}, extrapolated "
             f"limit {capped.estimate:.4f} vs {2 * np.pi**2:.4f} (2%)")
    assert theta.passed
    assert capped.passed


def test_criterion_10_systolic_slack_detects_the_round_equality():
    report = run_experiment({"name": "pu", "resolution": 4, "seed": 0})
    _verdict(10, "systole", report.passed,
             f"round systole {report.inputs.get('round_systole')}, bump "
             f"slack {report.inputs.get('slack')} +- "
             f"{report.inputs.get('uncertainty')}")
    assert report.passed


def test_criterion_11_discrete_flow_returns_to_the_round_energy():
    report = run_experiment({"name": "flow", "resolution": 4, "seed": 0})
    shrink = (report.inputs.get("defect_before", 0.0)
              / max(report.inputs.get("defect_after", 1.0), 1e-300))
    _verdict(11, "flow", report.passed,
             f"final energy {report.estimate:.6f} vs {4 * np.pi:.6f} "
             f"(tolerance 1%), defect shrink factor {shrink:.0f}")
    assert report.passed


def test_criterion_12_structural_property_suite():
    notes = []
    all_ok = True

    # exponential/logarithm round trips on all three families
    worst_roundtrip = 0.0
    for M in (sphere(3), real_projective(3), complex_projective(2)):
        rng = make_rng(5)
        x = M.random_point(rng, (50,))
        raw = rng.standard_normal(x.shape)
        if np.iscomplexobj(x):
            raw = raw + 1j * rng.standard_normal(x.shape)
        v = M.project_tangent(x, raw)
        v = 0.3 * v / M.norm(v)[..., None]
        back, masked_ok = M.log_masked(x, M.exp(x, v))
        assert np.all(masked_ok)
        worst_roundtrip = max(worst_roundtrip,
                              float(np.max(np.abs(back - v))))
    ok = worst_roundtrip < 1e-9
    all_ok = all_ok and ok
    notes.append(f"exp/log roundtrip {worst_roundtrip:.1e}")

    # frame independence of the tension vector
    cp1 = complex_projective(1)
    F = veronese_curve()
    x = cp1.random_point(make_rng(6), (10,))
    fr = tangent_frames(cp1, x)
    q = np.linalg.qr(make_rng(7).standard_normal((2, 2)))[0]
    mixed = np.einsum("ij,...ja->...ia", q, fr)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harmonic, "tangent_frames", lambda M, y: mixed)
        t_mixed = tension(F, x)
    frame_dev = float(np.max(np.abs(tension(F, x) - t_mixed)))
    ok = frame_dev < 1e-5
    all_ok = all_ok and ok
    notes.append(f"frame independence {frame_dev:.1e}")

    # isometry equivariance of the energy
    cp2 = complex_projective(2)
    rng = make_rng(8)
    unitary = np.linalg.qr(rng.standard_normal((3, 3))
                           + 1j * rng.standard_normal((3, 3)))[0]
    rotation = normalized_linear_map(cp2, cp2, unitary, name="isometry")
    grid = build_grid(cp2, 5000, "monte_carlo", seed=9)
    base = veronese_curve()
    probe = identity_map(cp2)
    e_direct = p_energy(probe, grid, p=2.0).value
    e_rotated = p_energy(compose(rotation, probe), grid, p=2.0).value
    iso_dev = abs(e_direct - e_rotated) / e_direct
    ok = iso_dev < 1e-9
    all_ok = all_ok and ok
    notes.append(f"isometry equivariance {iso_dev:.1e}")

    # symmetry of the second-order geodesic deviation form
    y = cp1.random_point(make_rng(10), (8,))
    fy = tangent_frames(cp1, y)
    a_vw = second_fundamental_form(base, y, fy[..., 0, :], fy[..., 1, :])
    a_wv = second_fundamental_form(base, y, fy[..., 1, :], fy[..., 0, :])
    sym_dev = float(np.max(np.abs(a_vw - a_wv)))
    ok = sym_dev < 1e-12
    all_ok = all_ok and ok
    notes.append(f"second-form symmetry {sym_dev:.1e}")

    # second-order convergence of the finite-difference differential
    s3 = sphere(3)
    smooth = make_theta(2.0)
    z = s3.random_point(make_rng(11), (30,))
    fz = tangent_frames(s3, z)
    exact = differential_columns(smooth, z, fz)
    coarse = differential_columns(fd_map(smooth, 2e-3), z, fz)
    fine = differential_columns(fd_map(smooth, 1e-3), z, fz)
    err_coarse = float(np.max(np.abs(coarse - exact)))
    err_fine = float(np.max(np.abs(fine - exact)))
    ratio = err_coarse / err_fine
    ok = 3.0 < ratio < 5.5
    all_ok = all_ok and ok
    notes.append(f"derivative error ratio at doubled step {ratio:.2f}")

    _verdict(12, "property-suite", all_ok, "; ".join(notes))
    assert worst_roundtrip < 1e-9
    assert frame_dev < 1e-5
    assert iso_dev < 1e-9
    assert sym_dev < 1e-12
    assert 3.0 < ratio < 5.5
