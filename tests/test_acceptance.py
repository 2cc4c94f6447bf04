"""End-to-end acceptance gate.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single pass/fail line; run with -s to see the lines as they go.
"""

import json
import math
import time

import numpy as np
from scipy.integrate import quad

from modalstab import (SourceProfile, StateSpaceSystem, brute_force_gain,
                       build_heat, build_heat_boundary, build_wave, close_loop,
                       closed_loop_matrix, decay_envelope, gain_strong,
                       matrix_exponential, partition_spectrum, reduced_R_system,
                       scan_certificate, search_lift_parameter, simulate_autonomous,
                       simulate_modal, synthesize_controller, truncate)
from modalstab.cli import main
from modalstab.fileio import read_json
from modalstab.gains import loop_bounds
from modalstab.plants import default_lift_grid

from conftest import eig_match_distance, random_system


def _report(criterion: int, ok: bool, detail: str):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def _run(tmp_path, command, cfg, tag):
    cfg_path = tmp_path / f"{tag}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / tag
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    return code, out


_PROFILE_DOCS = (
    ("constant", {"kind": "constant", "value": 1.0}),
    ("cosine", {"kind": "cosine", "k0": 1.0}),
    ("indicator", {"kind": "indicator", "xi1": 0.0, "xi2": 0.5}),
)


def _inner_product(profile_name: str, k: int) -> float:
    """Closed-form <cos(pi k xi), f> on [0, 1], evaluated independently."""
    if profile_name == "constant":
        return 1.0 if k == 0 else 0.0
    if profile_name == "cosine":
        return 0.5 if k == 1 else 0.0
    if k == 0:
        return 0.5
    if k % 2 == 0:
        return 0.0  # sin(pi k / 2) vanishes identically for even k
    return (1.0 if k % 4 == 1 else -1.0) / (math.pi * k)


def test_acceptance_1_heat_verdict_table(tmp_path):
    start = time.perf_counter()
    mismatches = []
    for b in (-1.0, 5.0, 15.0, 42.0):
        for name, fdoc in _PROFILE_DOCS:
            unstable_ks = [k for k in range(8) if math.pi ** 2 * k ** 2 <= b]
            expected = all(_inner_product(name, k) != 0.0 for k in unstable_ks)
            cfg = {"plant": {"type": "heat", "b": b, "f": fdoc, "N_max": 16}}
            code, out = _run(tmp_path, "analyze", cfg, f"a1_{name}_{b:g}".replace("-", "m"))
            got = (code == 0
                   and read_json(str(out / "analysis.json"))["verdict"]["stabilizable"])
            if got != expected:
                mismatches.append((b, name, expected, got))
    elapsed = time.perf_counter() - start
    _report(1, not mismatches and elapsed < 1.0,
            f"12/12 verdicts match closed-form criterion in {elapsed:.2f}s"
            if not mismatches else f"mismatches: {mismatches}")


def test_acceptance_2_wave_eigenvalues(tmp_path):
    b = 3.0
    worst = 0.0
    for kappa in (-0.1, 0.0, 0.1):
        sys_ = build_wave(b, kappa, SourceProfile.constant(1.0), N_max=64)
        for j, blk in enumerate(sys_.blocks):
            k = j + 0.5
            disc = complex(kappa ** 2 - 4.0 * math.pi ** 2 * k ** 2 + 4.0 * b) ** 0.5
            expected = np.array([(-kappa + disc) / 2.0, (-kappa - disc) / 2.0])
            dist = eig_match_distance(blk.eigenvalues(), expected)
            worst = max(worst, dist / max(1.0, float(np.max(np.abs(expected)))))
    codes = {}
    for kappa in (-0.1, 0.0, 0.1):
        cfg = {"plant": {"type": "wave", "b": b, "kappa": kappa,
                         "f": {"kind": "constant", "value": 1.0}, "N_max": 16}}
        codes[kappa], _ = _run(tmp_path, "analyze", cfg,
                               f"a2_{kappa:g}".replace("-", "m").replace(".", "p"))
    flips = codes[-0.1] == 3 and codes[0.0] == 3 and codes[0.1] == 0
    _report(2, worst <= 1e-12 and flips,
            f"eigenvalue deviation {worst:.2e} <= 1e-12, verdict flips at kappa=0 "
            f"(exit codes {codes[-0.1]}/{codes[0.0]}/{codes[0.1]})")


def test_acceptance_3_boundary_lift():
    cases = ((5.0, SourceProfile.constant(1.0)),
             (-1.0, SourceProfile.constant(0.0)),
             (math.pi ** 2, SourceProfile.constant(1.0)))
    worst = 0.0
    for b, f in cases:
        a = search_lift_parameter(b, f)
        assert a in default_lift_grid(b)
        _, data = build_heat_boundary(b, f, a)
        entries = {(e.name, e.k): e.value for e in data.constraint_report.entries}
        assert data.constraint_report.all_pass
        c = math.sqrt(a - b)
        for k in range(4):
            lam = b - math.pi ** 2 * k ** 2
            if lam <= 0.0 or ("input_mode", k) not in entries:
                continue
            scale = 1.0 if k == 0 else 2.0
            h_k = scale * quad(
                lambda x: math.cosh(c * x) / (c * math.sinh(c)) * math.cos(math.pi * k * x),
                0.0, 1.0, epsabs=1e-14)[0]
            f_k = f.value if k == 0 else 0.0
            ref = ((b - math.pi ** 2 * k ** 2 - a) / lam) * h_k - f_k / lam
            worst = max(worst, abs(entries[("input_mode", k)] - ref))
    _report(3, worst <= 1e-10,
            f"lift parameters found on default grids; constraint deviation "
            f"{worst:.2e} <= 1e-10")


def test_acceptance_4_end_to_end_stabilization(tmp_path):
    start = time.perf_counter()
    plant = {"type": "heat", "b": 5.0, "f": {"kind": "constant", "value": 1.0},
             "N_max": 64}
    code, out = _run(tmp_path, "synthesize", {"plant": plant}, "a4_syn")
    cert = read_json(str(out / "certificate.json")) if code == 0 else {}
    code2, out2 = _run(tmp_path, "simulate",
                       {"plant": plant,
                        "controller_file": str(out / "controller.json")}, "a4_sim")
    summary = read_json(str(out2 / "summary.json")) if code2 == 0 else {}
    elapsed = time.perf_counter() - start
    ok = (code == 0 and cert.get("verdict") == "Certified" and cert.get("beta", 0) > 0
          and code2 == 0 and summary.get("spectral_abscissa", 0.0) < -1e-3
          and abs(summary["decay_rate"] - abs(summary["spectral_abscissa"]))
          <= 0.10 * abs(summary["spectral_abscissa"])
          and elapsed < 10.0)
    _report(4, ok,
            f"Certified beta={cert.get('beta')}, abscissa="
            f"{summary.get('spectral_abscissa'):.4g}, decay="
            f"{summary.get('decay_rate'):.4g}, {elapsed:.1f}s")


def test_acceptance_5_shifted_generator_similarity(rng):
    worst_sim, worst_ind = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        q = int(rng.integers(1, 7))
        plant = StateSpaceSystem(rng.standard_normal((n, n)),
                                 rng.standard_normal((n, 1)),
                                 rng.standard_normal((1, n)))
        controller = StateSpaceSystem(rng.standard_normal((q, q)),
                                      rng.standard_normal((q, 1)),
                                      rng.standard_normal((1, q)))
        direct = np.linalg.eigvals(closed_loop_matrix(plant, controller))
        shifted1 = np.linalg.eigvals(close_loop(plant, controller, 17.0))
        shifted2 = np.linalg.eigvals(close_loop(plant, controller, -41.0 + 3.0j))
        worst_sim = max(worst_sim, eig_match_distance(shifted1, direct))
        worst_ind = max(worst_ind, eig_match_distance(shifted1, shifted2))
    _report(5, worst_sim <= 1e-8 and worst_ind <= 1e-8,
            f"50 instances: spectra agree to {worst_sim:.2e}, "
            f"lambda-independence {worst_ind:.2e} <= 1e-8")


def test_acceptance_6_gain_bound_soundness(rng):
    from conftest import random_hurwitz
    times = np.arange(0.0, 20.0001, 0.1)
    violations = 0
    worst_margin = math.inf
    for _ in range(50):
        n = int(rng.integers(1, 9))
        sys_ = random_system(rng, n, margin=0.4)
        env = decay_envelope(sys_.A, 0.5)
        beta = 0.5 * env.alpha
        norm_a = float(np.linalg.norm(sys_.A, 2))
        norm_b = float(np.linalg.norm(sys_.B, 2))
        norm_c = float(np.linalg.norm(sys_.C, 2))
        _, bound = gain_strong(env, beta, norm_b, norm_c, norm_a)
        probe = brute_force_gain(sys_, beta)
        if probe.value > bound.value:
            violations += 1
        worst_margin = min(worst_margin, bound.value - probe.value)
        Phi = matrix_exponential(sys_.A, 0.1)
        X = np.eye(n)
        for t in times:
            if np.linalg.norm(X, 2) > env.amplitude_a * math.exp(-env.alpha * t) * (1.0 + 1e-8):
                violations += 1
                break
            X = Phi @ X
    _report(6, violations == 0,
            f"50 systems: probe <= bound (min slack {worst_margin:.3g}) and "
            "envelope dominates sampled norms")


def test_acceptance_7_sweep_quasi_finiteness(tmp_path):
    vals = [1.0 / (k + 1) ** 2 for k in range(33)]
    cfg = {"plant": {"type": "heat", "b": 5.0,
                     "f": {"kind": "coefficients", "values": vals}, "N_max": 32},
           "sweep_N": [1, 2, 3, 4, 5, 6, 8, 12, 16]}
    code, out = _run(tmp_path, "sweep", cfg, "a7")
    rows = [line.split(",") for line in
            (out / "sweep.csv").read_text().strip().split("\n")[1:]]
    tails = [float(r[1]) for r in rows]
    verdicts = [r[4] for r in rows]
    decreasing = all(a > b for a, b in zip(tails, tails[1:]))
    certified_once = "Certified" in verdicts
    first = verdicts.index("Certified") if certified_once else -1
    stays = certified_once and all(v == "Certified" for v in verdicts[first:])
    _report(7, code == 0 and decreasing and stays,
            f"tail gain strictly decreasing over {len(rows)} rows; Certified from "
            f"N={rows[first][0] if certified_once else '-'} onward")


def test_acceptance_8_reduced_R_bound_independence():
    vals = [1.0 / (k + 1) ** 2 for k in range(17)]
    sys_ = build_heat(5.0, SourceProfile.coefficients(vals), N_max=16)
    part = partition_spectrum(sys_)
    n_u = part.unstable_dim
    bounds = []
    for n_r in (0, 2, 8):
        truncated, tail = truncate(sys_, n_u + n_r)
        ctrl = synthesize_controller(part, truncated)
        red = reduced_R_system(truncated.A[:n_u, :n_u], truncated.B[:n_u, :],
                               truncated.C[:, :n_u], ctrl.K_u, ctrl.L_u)
        cert = scan_certificate(tail, loop_bounds(red), n_u + n_r, fixed_beta=0.25)
        bounds.append(cert.gain_R.value)
    identical = bounds[0] == bounds[1] == bounds[2]  # bitwise
    _report(8, identical,
            f"certified IO bound {bounds[0]:.12g} bitwise identical for "
            "n_r in {0, 2, 8}")


def test_acceptance_9_modal_dense_oracle_equivalence(rng):
    vals = [1.0 / (k + 1) ** 2 for k in range(9)]
    sys_ = build_heat(5.0, SourceProfile.coefficients(vals), N_max=8)
    kept = sys_.blocks[:6]
    truncated, _ = truncate(sys_, 6)
    x0 = rng.standard_normal(truncated.n)
    by_block = simulate_modal(kept, x0, T=10.0, dt=0.05)
    dense = simulate_autonomous(truncated.A, x0, T=10.0, dt=0.05)
    rel = np.max(np.abs(by_block.states - dense.states)
                 / (1.0 + np.abs(dense.states)))
    _report(9, rel < 1e-10,
            f"modal and dense trajectories agree to {rel:.2e} relative over 10 time units")
