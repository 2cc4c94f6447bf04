import math

import numpy as np
import pytest

from modalstab import (DecayEnvelope, GainBound, StabilityCertificate,
                       certify_small_gain, decay_envelope, gain_strong, gain_weak,
                       scan_certificate, tail_gain, tail_is_gain, truncate)
from modalstab.errors import (BetaExceedsDecay, BetaMismatch, NotHurwitz,
                              SmoothnessMismatch)
from modalstab.gains import beta_grid
from modalstab.modal import TailModel
from modalstab.plants import SourceProfile, build_heat
from modalstab.simulate import matrix_exponential

from conftest import random_hurwitz


def test_gain_bound_validation():
    with pytest.raises(ValueError):
        GainBound(0.1, -1.0, "IO", (0, 1), "x")
    with pytest.raises(ValueError):
        GainBound(0.1, 1.0, "XX", (0, 1), "x")
    with pytest.raises(ValueError):
        DecayEnvelope(0.5, 1.0)


def test_gain_weak_closed_form():
    env = DecayEnvelope(1.0, 1.0)
    h, g = gain_weak(env, 0.0, 1.0, 1.0)
    assert h.value == pytest.approx(2.0)
    assert g.value == pytest.approx(2.0)
    assert (h.kind, h.smoothness) == ("IS", (1, 1))
    assert (g.kind, g.smoothness) == ("IO", (1, 0))


def test_gain_weak_zero_input():
    env = DecayEnvelope(3.0, 2.0)
    h, g = gain_weak(env, 0.5, 0.0, 7.0)
    assert h.value == 0.0 and g.value == 0.0


def test_gain_weak_divergence_toward_alpha():
    env = DecayEnvelope(1.0, 1.0)
    vals = [gain_weak(env, beta, 1.0, 1.0)[1].value
            for beta in (0.0, 0.5, 0.9, 0.99, 0.999)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(BetaExceedsDecay):
        gain_weak(env, 1.0, 1.0, 1.0)


def test_gain_strong_closed_form():
    env = DecayEnvelope(1.0, 2.0)
    h, g = gain_strong(env, 0.0, 1.0, 1.0, 2.0)
    assert h.value == pytest.approx(2.0)
    assert g.value == pytest.approx(2.0)
    assert (h.kind, h.smoothness) == ("IS", (0, 1))
    assert (g.kind, g.smoothness) == ("IO", (0, 1))


def test_gain_strong_reductions():
    env = DecayEnvelope(1.5, 2.0)
    _, g = gain_strong(env, 0.0, 1.0, 0.0, 2.0)
    assert g.value == 0.0
    h, _ = gain_strong(env, 0.5, 2.0, 1.0, 0.0)
    assert h.value == pytest.approx(max(1.5 * 2.0 / 1.5, 2.0))


def test_gains_monotone_in_beta():
    env = DecayEnvelope(2.0, 1.0)
    betas = np.linspace(0.0, 0.95, 20)
    weak = [gain_weak(env, b, 0.7, 1.3)[1].value for b in betas]
    strong = [gain_strong(env, b, 0.7, 1.3, 2.0)[1].value for b in betas]
    assert all(x <= y for x, y in zip(weak, weak[1:]))
    assert all(x <= y for x, y in zip(strong, strong[1:]))


def test_decay_envelope_identity_oracle():
    env = decay_envelope(-np.eye(2), 0.5)
    assert env.alpha == pytest.approx(0.5)
    assert env.amplitude_a == pytest.approx(1.0)


def test_decay_envelope_diagonal_oracle():
    # By hand: shifted A = diag(-0.5, -1.5), P = diag(1, 1/3), cond = 3.
    env = decay_envelope(np.diag([-1.0, -2.0]), 0.5)
    assert env.alpha == pytest.approx(0.5)
    assert env.amplitude_a == pytest.approx(math.sqrt(3.0), rel=1e-10)


def test_decay_envelope_rejects_non_hurwitz():
    with pytest.raises(NotHurwitz):
        decay_envelope(np.diag([0.0, -1.0]), 0.5)


def test_decay_envelope_dominates_exponential(rng):
    ts = np.arange(0.0, 20.0001, 0.5)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        A = random_hurwitz(rng, n)
        env = decay_envelope(A, 0.5)
        for t in ts:
            norm = np.linalg.norm(matrix_exponential(A, float(t)), 2)
            assert norm <= env.amplitude_a * math.exp(-env.alpha * t) * (1.0 + 1e-8)


def test_tail_gain_zero_input():
    tail = TailModel(decay_alpha=3.0, input_norm=0.0, output_graph_norm=5.0)
    assert tail_gain(tail, 0.1).value == 0.0


def test_tail_gain_decreases_with_truncation_order():
    vals = [1.0 / (k + 1) ** 2 for k in range(80)]
    sys_ = build_heat(0.0, SourceProfile.coefficients(vals), N_max=40)
    g4 = tail_gain(truncate(sys_, 4)[1], 0.1).value
    g8 = tail_gain(truncate(sys_, 8)[1], 0.1).value
    assert 0.0 < g8 < g4


def test_tail_gain_beta_above_alpha():
    tail = TailModel(decay_alpha=0.05, input_norm=1.0, output_graph_norm=1.0)
    with pytest.raises(BetaExceedsDecay):
        tail_gain(tail, 0.1)
    with pytest.raises(BetaExceedsDecay):
        tail_is_gain(tail, 0.1)


def _cert_inputs(gain_r_value, gain_tail_value, beta=0.2):
    g_r = GainBound(beta, gain_r_value, "IO", (0, 1), "x")
    h_r = GainBound(beta, 1.0, "IS", (0, 1), "x")
    g_t = GainBound(beta, gain_tail_value, "IO", (1, 0), "x")
    h_t = GainBound(beta, 1.0, "IS", (1, 1), "x")
    return g_r, h_r, g_t, h_t


def test_certify_small_gain_verdicts():
    cert = certify_small_gain(*_cert_inputs(0.5, 1.9), N=4)
    assert cert.verdict == "Certified"
    assert cert.product == pytest.approx(0.95)

    cert = certify_small_gain(*_cert_inputs(0.5, 2.1), N=4)
    assert cert.verdict == "Failed"
    assert any("N" in line for line in cert.diagnostics)

    cert = certify_small_gain(*_cert_inputs(math.inf, 0.0), N=4)
    assert cert.verdict == "Failed"  # IS side must stay finite too

    cert = certify_small_gain(*_cert_inputs(123.0, 0.0), N=4)
    assert cert.verdict == "Certified"


def test_certify_small_gain_rejects_mismatches():
    g_r, h_r, g_t, h_t = _cert_inputs(0.5, 1.0)
    with pytest.raises(BetaMismatch):
        certify_small_gain(GainBound(0.3, 0.5, "IO", (0, 1), "x"), h_r, g_t, h_t, 4)
    with pytest.raises(SmoothnessMismatch):
        certify_small_gain(g_r, h_r, GainBound(0.2, 1.0, "IO", (0, 1), "x"), h_t, 4)


def test_certify_small_gain_is_deterministic():
    a = certify_small_gain(*_cert_inputs(0.5, 1.9), N=4)
    b = certify_small_gain(*_cert_inputs(0.5, 1.9), N=4)
    assert a == b


def test_certificate_document_fields():
    cert = certify_small_gain(*_cert_inputs(0.5, 1.9), N=4)
    doc = cert.to_document()
    assert set(doc) == {"beta", "product", "gain_R", "gain_tail", "N", "verdict",
                        "diagnostics"}
    assert doc["N"] == 4 and doc["verdict"] == "Certified"


def test_beta_grid_shape():
    grid = beta_grid(2.0, depth=3)
    assert grid == [2.0, 1.0, 0.5, 0.25]
    assert all(a > b for a, b in zip(grid, grid[1:]))


def test_scan_certificate_certifies_stable_loop(rng):
    tail = TailModel(decay_alpha=5.0, input_norm=0.01, output_graph_norm=0.1)
    from conftest import random_system
    r_sys = random_system(rng, 3, margin=1.0)
    cert = scan_certificate(tail, r_sys, N=3)
    assert cert.verdict == "Certified"
    assert cert.beta > 0.0
    assert cert.product < 1.0


def test_scan_certificate_unstable_loop_fails():
    from modalstab import StateSpaceSystem
    tail = TailModel(decay_alpha=5.0, input_norm=0.01, output_graph_norm=0.1)
    r_sys = StateSpaceSystem([[1.0]], [[1.0]], [[1.0]])
    cert = scan_certificate(tail, r_sys, N=1)
    assert cert.verdict == "Failed"
    assert not math.isfinite(cert.gain_R.value)


def test_scan_certificate_fixed_beta():
    from modalstab import StateSpaceSystem
    tail = TailModel(decay_alpha=5.0, input_norm=0.01, output_graph_norm=0.1)
    r_sys = StateSpaceSystem([[-2.0]], [[1.0]], [[1.0]])
    cert = scan_certificate(tail, r_sys, N=1, fixed_beta=0.125)
    assert cert.beta == 0.125
