import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from modalstab import (DecayEnvelope, GainBound, StabilityCertificate, StateSpaceSystem,
                       certify_small_gain, decay_envelope, gain_strong, gain_weak, gains,
                       partition_spectrum, scan_certificate, synthesize_controller, truncate)
from modalstab.errors import (BetaExceedsDecay, BetaMismatch, LyapunovSolveFailed,
                              NotHurwitz, SmoothnessMismatch)
from modalstab.gains import BETA_GRID_DEPTH, LoopBounds, beta_grid, loop_bounds
from modalstab.modal import TailModel, truncate_tail
from modalstab.plants import SourceProfile, build_heat
from modalstab.simulate import matrix_exponential
from modalstab.synthesis import reduced_R_system

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


def test_decay_envelope_checks_the_lyapunov_residual(monkeypatch):
    # Each solve is off by +I, so the P used is the true one plus I: positive
    # definite, but with residual S + S* (S = A + I/2), whose top eigenvalue
    # -2 + sqrt(101) exceeds 1, so it proves no decay.
    solve = gains._lyapunov_solution
    monkeypatch.setattr(gains, "_lyapunov_solution", lambda S, C: solve(S, C) + np.eye(2))
    with pytest.raises(LyapunovSolveFailed, match="residual check failed"):
        decay_envelope(np.array([[-1.0, 10.0], [0.0, -2.0]]), 0.5)


def test_decay_envelope_dominates_exponential(rng):
    ts = np.arange(0.0, 20.0001, 0.5)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        A = random_hurwitz(rng, n)
        env = decay_envelope(A, 0.5)
        for t in ts:
            norm = np.linalg.norm(matrix_exponential(A, float(t)), 2)
            assert norm <= env.amplitude_a * math.exp(-env.alpha * t) * (1.0 + 1e-8)


def _tail_gains(tail, beta):
    """(IS-(1,1), IO-(1,0)) bounds of a spectral tail at shift beta."""
    env = DecayEnvelope(tail.amplitude_a, tail.decay_alpha)
    return gain_weak(env, beta, tail.input_norm, tail.output_graph_norm)


def test_tail_gain_zero_input():
    tail = TailModel(decay_alpha=3.0, input_norm=0.0, output_graph_norm=5.0)
    assert _tail_gains(tail, 0.1)[1].value == 0.0


def test_tail_gain_decreases_with_truncation_order():
    vals = [1.0 / (k + 1) ** 2 for k in range(80)]
    sys_ = build_heat(0.0, SourceProfile.coefficients(vals), N_max=40)
    g4 = _tail_gains(truncate(sys_, 4)[1], 0.1)[1].value
    g8 = _tail_gains(truncate(sys_, 8)[1], 0.1)[1].value
    assert 0.0 < g8 < g4


def test_tail_gain_beta_above_alpha():
    tail = TailModel(decay_alpha=0.05, input_norm=1.0, output_graph_norm=1.0)
    with pytest.raises(BetaExceedsDecay):
        _tail_gains(tail, 0.1)


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
    cert = scan_certificate(tail, loop_bounds(r_sys), N=3)
    assert cert.verdict == "Certified"
    assert cert.beta > 0.0
    assert cert.product < 1.0


def test_scan_certificate_unstable_loop_fails():
    from modalstab import StateSpaceSystem
    tail = TailModel(decay_alpha=5.0, input_norm=0.01, output_graph_norm=0.1)
    r_sys = StateSpaceSystem([[1.0]], [[1.0]], [[1.0]])
    cert = scan_certificate(tail, loop_bounds(r_sys), N=1)
    assert cert.verdict == "Failed"
    assert not math.isfinite(cert.gain_R.value)


def test_scan_certificate_fixed_beta():
    from modalstab import StateSpaceSystem
    tail = TailModel(decay_alpha=5.0, input_norm=0.01, output_graph_norm=0.1)
    r_sys = StateSpaceSystem([[-2.0]], [[1.0]], [[1.0]])
    cert = scan_certificate(tail, loop_bounds(r_sys), N=1, fixed_beta=0.125)
    assert cert.beta == 0.125


def test_scan_certificate_edges():
    tail = TailModel(decay_alpha=5.0, input_norm=0.01, output_graph_norm=0.1)
    loop = loop_bounds(StateSpaceSystem([[-2.0]], [[1.0]], [[1.0]]))
    with pytest.raises(BetaExceedsDecay, match="no grid beta lies strictly below both"):
        scan_certificate(tail, loop, N=1, depth=0)
    # the loop envelope rate is 1 (margin 0.5 of the pole at -2)
    for beta in (1.0, 5.0):
        with pytest.raises(BetaExceedsDecay):
            scan_certificate(tail, loop, N=1, fixed_beta=beta)


_UNIT = np.finfo(float).eps
_sizes = st.floats(min_value=0.0, max_value=1e3)
_rates = st.floats(min_value=1e-3, max_value=1e3)
_amplitudes = st.floats(min_value=1.0, max_value=1e3)


@given(a=_amplitudes, alpha=_rates, norms=st.tuples(_sizes, _sizes, _sizes),
       fractions=st.tuples(st.floats(min_value=0.0, max_value=0.999),
                           st.floats(min_value=0.0, max_value=0.999)))
def test_gains_nondecreasing_in_beta(a, alpha, norms, fractions):
    env = DecayEnvelope(a, alpha)
    lo, hi = sorted(alpha * f for f in fractions)
    norm_b, norm_c, norm_a = norms
    weak = [gain_weak(env, beta, norm_b, norm_c) for beta in (lo, hi)]
    strong = [gain_strong(env, beta, norm_b, norm_c, norm_a) for beta in (lo, hi)]
    assert weak[0][0].value <= weak[1][0].value
    assert strong[0][0].value <= strong[1][0].value
    assert strong[0][1].value <= strong[1][1].value
    # (1 + alpha - beta) and (alpha - beta) are rounded apart, so the weak IO
    # value may dip by a few units of roundoff between betas an ulp apart.
    assert weak[0][1].value <= weak[1][1].value * (1.0 + 4.0 * _UNIT)


def _grid_scan(tail, loop, N, depth):
    """The scan before bisection: every grid point, in descending order.

    Returns the first Certified certificate, else the first one of least
    product, and the products of the points it could evaluate.
    """
    tail_env = DecayEnvelope(tail.amplitude_a, tail.decay_alpha)
    best, products = None, []
    for beta in beta_grid(min(tail.decay_alpha, loop.env.alpha), depth):
        try:
            h_tail, g_tail = gain_weak(tail_env, beta, tail.input_norm, tail.output_graph_norm)
            h_r, g_r = gain_strong(loop.env, beta, loop.norm_b, loop.norm_c, loop.norm_a)
        except BetaExceedsDecay:
            continue
        cert = certify_small_gain(g_r, h_r, g_tail, h_tail, N)
        products.append(cert.product)
        if cert.verdict == "Certified":
            return cert, products
        if best is None or cert.product < best.product:
            best = cert
    return best, products


def _counted_scan(tail, loop, depth):
    with mock.patch.object(gains, "gain_weak", wraps=gains.gain_weak) as weak:
        cert = scan_certificate(tail, loop, N=3, depth=depth)
    return cert, weak.call_count


@given(tail=st.builds(TailModel, _rates, _sizes, _sizes, _amplitudes),
       loop=st.builds(LoopBounds, st.builds(DecayEnvelope, _amplitudes, _rates),
                      _sizes, _sizes, _sizes),
       depth=st.integers(min_value=1, max_value=40))
def test_scan_matches_full_grid_scan(tail, loop, depth):
    cert, evaluations = _counted_scan(tail, loop, depth)
    if cert.verdict == "Certified":
        assert evaluations <= 1 + (depth - 1).bit_length()
    else:
        assert evaluations == 1
    reference, products = _grid_scan(tail, loop, 3, depth)
    # Byte-identity rests on the product growing with beta; on a Failed scan,
    # strictly at the small end, so that the least product is the smallest beta's.
    if reference.verdict == "Failed":
        assume(depth == 1 or products[-2] > products[-1])
    assert cert.to_document() == reference.to_document()


def _reduced_loop(sys_, N):
    """The README's controller loop over the unstable prefix of truncate(sys_, N)."""
    truncated, _tail = truncate(sys_, N)
    ctrl = synthesize_controller(partition_spectrum(sys_), truncated)
    n_u = ctrl.n_unstable
    return loop_bounds(reduced_R_system(truncated.A[:n_u, :n_u], truncated.B[:n_u, :],
                                        truncated.C[:, :n_u], ctrl.K_u, ctrl.L_u))


@pytest.mark.parametrize("empty_loop, beta", [(False, 0.35355339059327373), (True, 25.0)],
                         ids=["inf", "nan"])
def test_scan_returns_largest_beta_when_product_is_not_finite(empty_loop, beta):
    # An amplitude near the float maximum overflows the tail gain: the product
    # is inf, or nan when an empty loop's zero gain meets it.
    tail = TailModel(50.0, 1.0, 1.0, amplitude_a=1e308)
    if empty_loop:
        loop = LoopBounds(DecayEnvelope(1.0, math.inf), 0.0, 0.0, 0.0)
    else:
        loop = _reduced_loop(build_heat(1.0, SourceProfile.constant(1.0), N_max=4), 1)
    cert, evaluations = _counted_scan(tail, loop, BETA_GRID_DEPTH)
    assert (cert.verdict, cert.beta, evaluations) == ("Failed", beta, 2)
    assert math.isnan(cert.product) == empty_loop and not math.isfinite(cert.product)
    reference, _products = _grid_scan(tail, loop, 3, BETA_GRID_DEPTH)
    assert repr(cert.to_document()) == repr(reference.to_document())


def test_scan_skips_grid_betas_that_underflow():
    # alpha_min / 2^12 underflows to 0, where no verdict certifies; the
    # tail has no input, so every positive beta certifies.
    tail = TailModel(1e-320, 0.0, 0.0)
    loop = LoopBounds(DecayEnvelope(1.0, math.inf), 0.0, 0.0, 0.0)
    cert = scan_certificate(tail, loop, N=3)
    assert cert.verdict == "Certified" and cert.beta == beta_grid(1e-320)[1]
    assert cert.to_document() == _grid_scan(tail, loop, 3, BETA_GRID_DEPTH)[0].to_document()


def test_scan_evaluation_counts():
    # the README example: Failed at N = 4, Certified at N = 8
    sys_ = build_heat(5.0, SourceProfile.coefficients([1.0 / (k + 1) ** 2 for k in range(33)]),
                      N_max=32)
    counts = {}
    for N in (4, 8):
        cert, counts[cert.verdict] = _counted_scan(truncate_tail(sys_, N), _reduced_loop(sys_, N),
                                                   BETA_GRID_DEPTH)
    assert counts["Failed"] == 1 and 1 <= counts["Certified"] <= 5
