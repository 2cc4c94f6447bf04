import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from scipy.integrate import quad

from modalstab import (SourceProfile, build_heat, build_heat_boundary, build_wave,
                       check_stabilizable, partition_spectrum, search_lift_parameter)
from modalstab.errors import (InfiniteUnstablePart, KernelResonance, QuadratureNotConverged,
                              TailUnstable)
from modalstab.plants import (DEFAULT_N_MAX, KERNEL_AMBIGUOUS, KERNEL_ATOL, LIFT_TOLERANCE,
                              _ROUNDING, _kernel_index, _lift_h_coeffs, _lift_q_sums,
                              _quartic_remainder, _sin_pi_arr, _sinc_pi_arr, _tail_alpha,
                              default_lift_grid, exact_sin_pi, fourier_cos_coeffs, lift_h,
                              modal_input_coeffs, profile_l2_norm_sq)


def test_exact_trig_values():
    assert exact_sin_pi(3.0) == 0.0
    assert exact_sin_pi(0.5) == 1.0
    assert exact_sin_pi(1.5) == -1.0
    assert exact_sin_pi(0.3) == pytest.approx(math.sin(0.3 * math.pi), rel=1e-15)


def _masked_sin_pi(x):
    """sin(pi x) with exact values where 2x is an integer, written with full-size masks."""
    two_x = 2.0 * x
    n = np.round(two_x)
    n_int = n.astype(np.int64)
    exact_val = np.where(
        n_int % 2 == 0, 0.0, np.where(((n_int - 1) // 2) % 2 == 0, 1.0, -1.0))
    return np.where(two_x == n, exact_val, np.sin(np.pi * x))


def _masked_sinc_pi(x):
    out = np.ones_like(x)
    nz = x != 0.0
    out[nz] = _masked_sin_pi(x[nz]) / (np.pi * x[nz])
    return out


def test_array_sin_and_sinc_match_masked_formulas_bitwise():
    ks = np.arange(-2 * 10 ** 5, 2 * 10 ** 5, dtype=np.float64)
    rng = np.random.default_rng(3)
    inputs = [ks, ks + 0.5, np.array([0.0, -0.0, 0.5, -1.5, 2.0])]
    inputs += [ks * xi for xi in (0.1, 0.5, 0.6, 0.9)]
    inputs.append(rng.uniform(-1e6, 1e6, 4 * 10 ** 5))
    for x in inputs:
        assert np.array_equal(_sin_pi_arr(x).view(np.int64), _masked_sin_pi(x).view(np.int64))
        assert np.array_equal(_sinc_pi_arr(x).view(np.int64),
                              _masked_sinc_pi(x).view(np.int64))


def test_profile_validation():
    with pytest.raises(ValueError):
        SourceProfile(kind="mystery")
    with pytest.raises(ValueError):
        SourceProfile.indicator(0.7, 0.2)
    with pytest.raises(ValueError):
        SourceProfile.cosine(-1.0)
    with pytest.raises(ValueError):
        SourceProfile.samples([1.0, 2.0, 3.0])  # needs 4m+1 points


def test_constant_coefficients_exact():
    coeffs = fourier_cos_coeffs(SourceProfile.constant(3.0), 6)
    assert coeffs[0] == 3.0
    assert np.all(coeffs[1:] == 0.0)  # exact zeros feed downstream rank tests


def test_cosine_coefficients_exact():
    coeffs = fourier_cos_coeffs(SourceProfile.cosine(1.0), 5)
    expected = np.zeros(6)
    expected[1] = 1.0
    assert np.array_equal(coeffs, expected)


def test_indicator_coefficients_against_quadrature():
    f = SourceProfile.indicator(0.15, 0.85)
    coeffs = fourier_cos_coeffs(f, 6)
    assert coeffs[0] == pytest.approx(0.7, rel=1e-14)
    for k in range(1, 7):
        ref = 2.0 * quad(lambda x: math.cos(math.pi * k * x), 0.15, 0.85,
                         epsabs=1e-14)[0]
        assert coeffs[k] == pytest.approx(ref, abs=1e-12)


def test_indicator_half_interval_exact_zero():
    coeffs = fourier_cos_coeffs(SourceProfile.indicator(0.0, 0.5), 4)
    assert coeffs[2] == 0.0  # sin(pi) folds to an exact zero
    assert coeffs[4] == 0.0
    assert coeffs[1] == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_samples_coefficients_match_smooth_profile():
    grid = np.linspace(0.0, 1.0, 129)
    f = SourceProfile.samples(np.cos(np.pi * grid))
    coeffs = fourier_cos_coeffs(f, 3)
    assert coeffs[1] == pytest.approx(1.0, abs=1e-8)
    assert abs(coeffs[0]) < 1e-8 and abs(coeffs[2]) < 1e-8


def test_samples_reject_underresolved_weight():
    f = SourceProfile.samples([1.0, 0.0, 1.0, 0.0, 1.0])
    with pytest.raises(QuadratureNotConverged):
        fourier_cos_coeffs(f, 8)


def test_profile_l2_norms():
    assert profile_l2_norm_sq(SourceProfile.constant(2.0)) == 4.0
    assert profile_l2_norm_sq(SourceProfile.indicator(0.2, 0.7)) == pytest.approx(0.5)
    assert profile_l2_norm_sq(SourceProfile.cosine(0.0)) == 1.0
    assert profile_l2_norm_sq(SourceProfile.cosine(1.0)) == pytest.approx(0.5)
    assert profile_l2_norm_sq(
        SourceProfile.coefficients([2.0, 1.0])) == pytest.approx(4.5)


def test_build_heat_eigenvalue_formula():
    sys_ = build_heat(5.0, SourceProfile.constant(1.0), N_max=6)
    for k, blk in enumerate(sys_.blocks):
        assert blk.label == k and blk.dim == 1
        assert blk.block_matrix[0, 0] == 5.0 - np.pi ** 2 * k ** 2
    assert sys_.tail.decay_alpha == pytest.approx(np.pi ** 2 * 49.0 - 5.0)


def test_build_heat_tail_must_be_stable():
    with pytest.raises(TailUnstable):
        build_heat(42.0, SourceProfile.constant(1.0), N_max=1)


def test_heat_tail_parseval_oracle():
    f = SourceProfile.indicator(0.0, 0.5)
    sys_ = build_heat(0.0, f, N_max=10)
    # Independent: modal coefficients are 2 sin(pi k / 2) / (pi k), odd k only.
    ks = np.arange(11, 10 ** 7, 2, dtype=np.float64)
    ref = np.sum((2.0 / (np.pi * ks)) ** 2)
    assert sys_.tail.input_norm ** 2 == pytest.approx(ref, rel=1e-4)


def test_heat_tail_exact_for_coefficients_profile():
    vals = [1.0, 0.5, 0.25, 0.125, 0.0625]
    sys_ = build_heat(1.0, SourceProfile.coefficients(vals), N_max=2)
    assert sys_.tail.input_norm ** 2 == pytest.approx(0.125 ** 2 + 0.0625 ** 2, rel=1e-15)


def test_build_wave_eigenvalue_formula():
    b, kappa = 3.0, 1.0
    sys_ = build_wave(b, kappa, SourceProfile.constant(1.0), N_max=12)
    for j, blk in enumerate(sys_.blocks):
        mu = b - np.pi ** 2 * (j + 0.5) ** 2
        disc = complex(kappa ** 2 + 4.0 * mu) ** 0.5
        expected = sorted([(-kappa + disc) / 2.0, (-kappa - disc) / 2.0],
                          key=lambda z: z.imag)
        got = sorted(blk.eigenvalues(), key=lambda z: z.imag)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)
    assert sys_.tail.amplitude_a >= 1.0
    assert 0.0 < sys_.tail.decay_alpha < 0.5 * kappa


def test_build_wave_zero_damping_has_no_margin():
    sys_ = build_wave(0.0, 0.0, SourceProfile.constant(1.0), N_max=4)
    assert sys_.tail.decay_alpha == 0.0
    with pytest.raises(InfiniteUnstablePart):
        partition_spectrum(sys_)


def test_build_wave_tail_guard():
    with pytest.raises(TailUnstable):
        build_wave(1000.0, 1.0, SourceProfile.constant(1.0), N_max=1)


def test_lift_h_satisfies_flux_normalization():
    for a, b in ((6.0, 5.0), (2.0, -1.0)):
        c = math.sqrt(a - b)
        h = 1e-6
        deriv = (lift_h(a, b, 1.0) - lift_h(a, b, 1.0 - h)) / h
        assert deriv == pytest.approx(1.0, rel=1e-5)
        assert lift_h(a, b, 0.0) == pytest.approx(1.0 / (c * math.sinh(c)))


def test_boundary_lift_coefficients_against_quadrature():
    a, b = 6.0, 5.0
    c = math.sqrt(a - b)
    _, data = build_heat_boundary(b, SourceProfile.constant(1.0), [a], N_max=8)
    for k in range(5):
        scale = 1.0 if k == 0 else 2.0
        ref = scale * quad(
            lambda x: math.cosh(c * x) / (c * math.sinh(c)) * math.cos(math.pi * k * x),
            0.0, 1.0, epsabs=1e-14)[0]
        assert data.h_coeffs[k] == pytest.approx(ref, rel=1e-12)


def test_boundary_constraint_expression_against_quadrature():
    # b = 42 leaves three unstable modes, each contributing an input constraint.
    a, b = 43.0, 42.0
    c = math.sqrt(a - b)
    f = SourceProfile.indicator(0.1, 0.9)
    _, data = build_heat_boundary(b, f, [a], N_max=8)
    entries = {(e.name, e.k): e.value for e in data.constraint_report.entries}
    assert set(entries) == {("input_mode", 0), ("input_mode", 1), ("input_mode", 2),
                            ("u_output", -1)}
    for k in range(3):
        lam = b - math.pi ** 2 * k ** 2
        scale = 1.0 if k == 0 else 2.0
        h_k = scale * quad(
            lambda x: math.cosh(c * x) / (c * math.sinh(c)) * math.cos(math.pi * k * x),
            0.0, 1.0, epsabs=1e-14)[0]
        f_k = scale * quad(lambda x: math.cos(math.pi * k * x), 0.1, 0.9,
                           epsabs=1e-14)[0]
        ref = ((lam - a) * h_k - f_k) / lam
        assert entries[("input_mode", k)] == pytest.approx(ref, abs=1e-10)


def test_boundary_plant_structure():
    sys_, data = build_heat_boundary(5.0, SourceProfile.constant(1.0), [6.0], N_max=8)
    labels = [blk.label for blk in sys_.blocks]
    # Canonical order: unstable mode 0, then the marginal integrator, then decay.
    assert labels == [0, -1] + list(range(1, 9))
    assert data.kernel_index == -1
    integrator = sys_.blocks[labels.index(-1)]
    assert integrator.block_matrix[0, 0] == 0.0
    assert integrator.output_col[0, 0] == data.u_output
    part = partition_spectrum(sys_)
    assert set(part.unstable_indices) == {0, -1}
    assert data.constraint_report.all_pass


def test_boundary_kernel_resonance_band():
    f = SourceProfile.constant(1.0)
    with pytest.raises(KernelResonance):
        build_heat_boundary(math.pi ** 2 + 1e-7, f, [math.pi ** 2 + 2.0], N_max=4)
    for k in range(6):  # exact squares, k = 0 (b = 0) included
        assert _kernel_index(math.pi ** 2 * k ** 2, 8) == k
        assert type(_kernel_index(math.pi ** 2 * k ** 2, 8)) is int
    assert _kernel_index(4.0 * math.pi ** 2, 2) == -1  # k = 2 lies past the count
    # |b| <= 1e-6 max(1, |b|) around k = 0, but not within KERNEL_ATOL
    with pytest.raises(KernelResonance, match=r"^b sits 1\.000e-07 away from the square "
                                              r"eigenvalue at k = 0: too close to decide"):
        _kernel_index(1e-7, 8)
    # just outside the band
    assert _kernel_index(1.5e-6, 8) == _kernel_index(-1.5e-6, 8) == -1
    assert _kernel_index(math.pi ** 2 * (1.0 + 1.5e-6), 8) == -1
    assert _kernel_index(math.pi ** 2 * (1.0 - 1.5e-6), 8) == -1
    # in the band of k = 2 while k = 0 and k = 1 are clear; the later k is named
    with pytest.raises(KernelResonance, match=r"at k = 2:"):
        _kernel_index(4.0 * math.pi ** 2 + 1e-5, 8)
    assert _kernel_index(4.0 * math.pi ** 2 + 1e-8, 8) == 2
    for b in (0.0, 1e-7, 1.5e-6, -1.5e-6, 4.0 * math.pi ** 2 + 1e-5,
              4.0 * math.pi ** 2 + 1e-8, 9.0 * math.pi ** 2 * (1.0 + 2e-7), -5.0, 42.0):
        assert _outcome(_kernel_index, b, 8) == _outcome(_reference_kernel_index, b, 8)


def test_boundary_kernel_mode_merges_with_integrator():
    b = math.pi ** 2
    sys_, data = build_heat_boundary(b, SourceProfile.constant(1.0), [b + 1.0], N_max=6)
    assert data.kernel_index == 1
    labels = [blk.label for blk in sys_.blocks]
    assert 1 not in labels and -1 in labels
    merged = sys_.blocks[labels.index(-1)]
    assert merged.dim == 2
    assert np.allclose(merged.eigenvalues(), [0.0, 0.0], atol=1e-12)
    assert merged.block_matrix[1, 0] == data.g2_coeffs[1]
    names = {e.name for e in data.constraint_report.entries}
    assert "kernel_coupling" in names


def test_boundary_rejects_quadrature_profiles():
    f = SourceProfile.samples(np.ones(5))
    with pytest.raises(QuadratureNotConverged):
        build_heat_boundary(5.0, f, [6.0], N_max=4)
    with pytest.raises(QuadratureNotConverged):
        search_lift_parameter(5.0, f)


def test_boundary_parameter_validation():
    f = SourceProfile.constant(1.0)
    with pytest.raises(ValueError):
        build_heat_boundary(5.0, f, [4.0], N_max=4)  # lift parameter must exceed b
    with pytest.raises(ValueError):
        search_lift_parameter(5.0, f, grid=[])
    with pytest.raises(ValueError):
        search_lift_parameter(5.0, f, grid=[4.0, 6.0])
    # b and every grid entry must be finite, on the default grid too
    for b, grid in ((math.nan, None), (math.nan, [6.0]), (math.inf, None),
                    (-math.inf, None), (-math.inf, [6.0]), (5.0, [math.inf, 6.0]),
                    (5.0, [6.0, math.nan])):
        with pytest.raises(ValueError, match="must be finite"):
            build_heat_boundary(b, f, grid, N_max=4)


def test_search_lift_parameter_needs_a_stable_tail():
    # At b = 42 mode 2 has pi^2 2^2 - 42 < 0, so N_max = 1 leaves it unresolved.
    with pytest.raises(TailUnstable):
        search_lift_parameter(42.0, SourceProfile.indicator(0.1, 0.9), N_max=1)
    with pytest.raises(ValueError):
        search_lift_parameter(5.0, SourceProfile.constant(1.0), N_max=0)


def test_search_lift_parameter_default_grid():
    for b, f in ((5.0, SourceProfile.constant(1.0)),
                 (-1.0, SourceProfile.constant(0.0)),
                 (math.pi ** 2, SourceProfile.constant(1.0))):
        a = search_lift_parameter(b, f)
        assert a in default_lift_grid(b)
        sys_, data = build_heat_boundary(b, f, [a])
        assert data.constraint_report.all_pass


# Last mode of the reference far series below.
_REFERENCE_LIMIT = 10 ** 6


def _per_a_far_series(b, f, a, N):
    """The lift's far series written per lift parameter: full 10^6-element
    arrays for this a, then np.sum.  Returns (sum g1, sum (h + g1)^2,
    sum (1 / (1 + |lambda|))^2) over k = N+1 .. _REFERENCE_LIMIT."""
    far = np.arange(N + 1, _REFERENCE_LIMIT + 1, dtype=np.float64)
    f_far = modal_input_coeffs(f, far, np.full(len(far), 0.5))
    h_far = _lift_h_coeffs(a, b, far)
    lam_far = b - np.pi ** 2 * far ** 2
    g1_far = -(f_far + a * h_far) / lam_far
    return (float(np.sum(g1_far)), float(np.sum((h_far + g1_far) ** 2)),
            float(np.sum((1.0 / (1.0 + np.abs(lam_far))) ** 2)))


_PROFILES = (SourceProfile.constant(1.2), SourceProfile.indicator(0.1, 0.6),
             SourceProfile.cosine(1.5))
_BS = (5.0, -1.0, math.pi ** 2)


def _per_a_resolved(b, f, a, N):
    """Resolved (f, h, g1, g2) written per lift parameter, kernel mode by lambda = 0."""
    ks = np.arange(N + 1, dtype=np.float64)
    f_k = modal_input_coeffs(f, ks, np.where(ks == 0.0, 1.0, 0.5))
    h_k = _lift_h_coeffs(a, b, ks)
    lam = b - np.pi ** 2 * ks ** 2
    kernel = lam == 0.0
    g1 = np.where(kernel, 0.0, -(f_k + a * h_k) / np.where(kernel, 1.0, lam))
    g2 = np.where(kernel, f_k + a * h_k, 0.0)
    return f_k, h_k, g1, g2


@pytest.mark.parametrize("i_f, i_b", [(i, j) for i in range(3) for j in range(3)])
def test_boundary_far_series_matches_per_a_formula_exactly(i_f, i_b):
    # N_max alternates parity so every profile and every b meets both; the
    # sign of h_k flips on odd k, and an off-by-one there moves u_output.
    # u_output sums the a-free q_k = h_k + g1_k in place of h(0) plus the g1_k,
    # so it matches the per-a sum only up to rounding and the g1_k past
    # _REFERENCE_LIMIT; series_remainder covers both.  The tail output norm
    # sums fewer terms than the reference and bounds the rest in closed form,
    # so it may only lie above it, and by far less than 1e-6.
    f, b = _PROFILES[i_f], _BS[i_b]
    N, a = 8 + (i_f + i_b) % 2, b + 1.0
    sys_, data = build_heat_boundary(b, f, [a], N_max=N)
    f_k, h_k, g1, g2 = _per_a_resolved(b, f, a, N)
    assert np.array_equal(data.f_coeffs, f_k)
    assert np.array_equal(data.h_coeffs, h_k)
    assert np.array_equal(data.g1_coeffs, g1)
    assert np.array_equal(data.g2_coeffs, g2)

    g1_sum, in_sq, out_sq = _per_a_far_series(b, f, a, N)
    c = math.sqrt(a - b)
    reference = 1.0 / (c * math.sinh(c)) + float(np.sum(g1)) + g1_sum
    assert abs(data.u_output - reference) <= data.series_remainder
    assert abs(data.u_output - reference) <= 1e-12
    assert sys_.tail.input_norm >= math.sqrt(in_sq)
    reference_out = math.sqrt(out_sq + _quartic_remainder(b, _REFERENCE_LIMIT)[0])
    assert reference_out <= sys_.tail.output_graph_norm <= reference_out * (1.0 + 1e-6)


@pytest.mark.parametrize("b", [5.0, -1.0, math.pi ** 2, 42.0, -10.0])
def test_boundary_resolved_input_is_free_of_lift_parameter(b):
    # h_k + g1_k = (f_k + n_k (-1)^k) / (pi^2 k^2 - b) off the kernel, for any a.
    f, N = SourceProfile.indicator(0.1, 0.6), 9
    ks = np.arange(N + 1)
    s_k = np.where(ks == 0, 1.0, 2.0) * np.where(ks % 2 == 0, 1.0, -1.0)
    for a in (b + 1.0, b + 7.5):
        _, data = build_heat_boundary(b, f, [a], N_max=N)
        for k in range(N + 1):
            if k == data.kernel_index:
                continue
            q_k = (data.f_coeffs[k] + s_k[k]) / (np.pi ** 2 * k ** 2 - b)
            assert data.h_coeffs[k] + data.g1_coeffs[k] == pytest.approx(q_k, rel=1e-15)


def test_boundary_series_remainder_bounds_u_output_below_a_minus_two():
    # At b = -10 the default grid gives a = -9; a remainder linear in a + 2 went
    # negative there and bounded nothing.
    b, f, N = -10.0, SourceProfile.constant(1.0), 8
    a = search_lift_parameter(b, f)
    assert a < -2.0
    _, data = build_heat_boundary(b, f, [a], N_max=N)
    g1_sum = _per_a_far_series(b, f, a, N)[0]
    reference = data.h_at_0 + float(np.sum(data.g1_coeffs)) + g1_sum
    assert data.series_remainder > 0.0
    assert data.series_remainder >= abs(data.u_output - reference)


def _mp_coeff(f, k):
    """Exact normalized cosine coefficient f_k of a built-in profile."""
    pi = mp.pi
    if f.kind == "constant":
        return mpf(f.value) if k == 0 else mpf(0)
    if f.kind == "coefficients":
        return mpf(f.values[k]) if k < len(f.values) else mpf(0)
    if f.kind == "indicator":
        if k == 0:
            return mpf(f.xi2) - mpf(f.xi1)
        return 2 * (mpmath.sinpi(k * mpf(f.xi2)) - mpmath.sinpi(k * mpf(f.xi1))) / (pi * k)
    k0 = mpf(f.k0)
    if k0 == int(k0):
        return mpf(k == k0)
    if k == 0:
        return mpmath.sinpi(k0) / (pi * k0)
    return (-1) ** k * 2 * k0 * mpmath.sinpi(k0) / (pi * (k0 ** 2 - k ** 2))


def _mp_far_sum(b, f, N):
    """sum over k > N of (f_k + 2 (-1)^k) / (pi^2 k^2 - b), from the full sums over
    k >= 1 in closed form: the cosecant series
    sum (-1)^k / (k^2 - w^2) = 1 / (2 w^2) - pi / (2 w sin(pi w)), and for an
    indicator the Neumann Green's function series
    sum sin(k t) / (k (k^2 - z^2)) = (pi sin(z (pi - t)) / (2 sin(pi z)) - (pi - t) / 2) / z^2."""
    pi, b = mp.pi, mpf(b)
    z = mpmath.sqrt(b) / pi

    def csc_sum(w):
        return 1 / (2 * w ** 2) - pi / (2 * w * mpmath.sin(pi * w))

    def green(t):
        return (pi * mpmath.sin(z * (pi - t)) / (2 * mpmath.sin(pi * z)) - (pi - t) / 2) / z ** 2

    full = 2 / pi ** 2 * csc_sum(z)
    if f.kind == "indicator":
        full += 2 / pi ** 3 * sum(sign * green(pi * mpf(xi)) for sign, xi in
                                  ((1, f.xi2), (-1, f.xi1)) if xi > 0)
    elif f.kind == "cosine" and f.k0 != int(f.k0):
        k0 = mpf(f.k0)
        full += (2 * k0 * mpmath.sinpi(k0) / pi ** 3
                 * (csc_sum(z) - csc_sum(k0)) / (k0 ** 2 - z ** 2))
    else:  # finitely many f_k with k >= 1 are nonzero
        top = {"constant": 1, "cosine": int(f.k0) + 1}.get(f.kind) or len(f.values)
        full += mpmath.fsum(_mp_coeff(f, k) / (pi ** 2 * k ** 2 - b) for k in range(1, top))
    partial = mpmath.fsum((_mp_coeff(f, k) + 2 * (-1) ** k) / (pi ** 2 * k ** 2 - b)
                          for k in range(1, N + 1))
    return mpmath.re(full - partial)


_LIFT_PLANTS = (
    (5.0, SourceProfile.constant(1.2), DEFAULT_N_MAX),
    (5.0, SourceProfile.indicator(0.0, 0.5), 9),
    (5.0, SourceProfile.cosine(2.0), 33),
    (5.0, SourceProfile.coefficients([1.0, 0.5, 0.25]), 8),
    (math.pi ** 2, SourceProfile.constant(1.1), 8),
    (-1.0, SourceProfile.constant(0.0), DEFAULT_N_MAX),
    (-10.0, SourceProfile.constant(1.0), 8),
    (15.0, SourceProfile.indicator(0.1, 0.6), 31),
    (42.0, SourceProfile.indicator(0.1, 0.9), 2),
    (5.0, SourceProfile.cosine(1.5), 20),
)


@pytest.mark.parametrize("b, f, N", _LIFT_PLANTS)
def test_boundary_series_remainder_bounds_u_output_against_mpmath(b, f, N):
    # u_output = sum of (f_k + s_k) / d_k over every mode off the kernel, plus
    # the kernel mode's h_k, taken exactly; 60 digits absorb the cancellation
    # near the kernel pole at b = pi^2.
    a = search_lift_parameter(b, f, N_max=N)
    _, data = build_heat_boundary(b, f, [a], N_max=N)
    with mp.workdps(60):
        pi, kernel = mp.pi, data.kernel_index
        exact = _mp_far_sum(b, f, N) + mpmath.fsum(
            (_mp_coeff(f, k) + (1 if k == 0 else 2) * (-1) ** k) / (pi ** 2 * k ** 2 - mpf(b))
            for k in range(N + 1) if k != kernel)
        if kernel >= 0:
            exact += 2 * (-1) ** kernel / (mpf(a) - mpf(b) + pi ** 2 * kernel ** 2)
        error = abs(mpf(data.u_output) - exact)
    assert error <= data.series_remainder
    assert data.series_remainder <= 1e-12


def test_boundary_coefficients_profile_indexes_far_modes_by_mode():
    # Entry j of a coefficients profile is mode k = j, near and far alike:
    # eleven coefficients [1, 0, ..., 0] are the constant 1 exactly.
    coeffs = SourceProfile.coefficients([1.0] + [0.0] * 10)
    sys_c, data_c = build_heat_boundary(5.0, coeffs, [6.0], N_max=8)
    sys_1, data_1 = build_heat_boundary(5.0, SourceProfile.constant(1.0), [6.0], N_max=8)
    assert data_c.u_output == data_1.u_output
    assert sys_c.tail.input_norm == sys_1.tail.input_norm


# The per-lift-parameter code that the boundary build replaced, frozen as the
# reference for it: one dict of coefficients and one list of (name, k, value)
# constraint triples per a, and the loop over modes of the old _kernel_index.
def _reference_kernel_index(b, count):
    scale_b = max(1.0, abs(b))
    for k in range(count):
        lam = b - np.pi ** 2 * k ** 2
        if abs(lam) <= KERNEL_ATOL * scale_b:
            return k
        if abs(lam) <= KERNEL_AMBIGUOUS * scale_b:
            raise KernelResonance(
                f"b sits {lam:.3e} away from the square eigenvalue at k = {k}: "
                "too close to decide whether the mode is in the kernel; shift b "
                "or pass the exact square")
    return -1


def _reference_lift_pieces(b, f, a, N_resolved, q_sum):
    ks = np.arange(N_resolved + 1, dtype=np.float64)
    f_coeffs = fourier_cos_coeffs(f, N_resolved)
    h_coeffs = _lift_h_coeffs(a, b, ks)
    lam = b - np.pi ** 2 * ks ** 2
    kernel = _reference_kernel_index(b, N_resolved + 1)
    drive = f_coeffs + a * h_coeffs
    on_kernel = ks == kernel
    g1 = np.where(on_kernel, 0.0, -drive / np.where(on_kernel, 1.0, lam))
    g2 = np.where(on_kernel, drive, 0.0)
    return {"f": f_coeffs, "h": h_coeffs, "lam": lam, "kernel": kernel, "g1": g1, "g2": g2,
            "u_output": float(q_sum + (h_coeffs[kernel] if kernel >= 0 else 0.0))}


def _reference_constraint_entries(pieces, b):
    out = []
    scale_b = max(1.0, abs(b))
    for k in range(len(pieces["lam"])):
        lam_k = pieces["lam"][k]
        if k == pieces["kernel"] or lam_k <= KERNEL_ATOL * scale_b:
            continue
        out.append(("input_mode", k, float(pieces["h"][k] + pieces["g1"][k])))
    if pieces["kernel"] >= 0:
        out.append(("kernel_coupling", pieces["kernel"],
                    float(pieces["g2"][pieces["kernel"]])))
    out.append(("u_output", -1, pieces["u_output"]))
    return out


def _reference_entries_to_report(raw_entries, scale):
    """(entries as (name, k, value, passed), all_pass, scale)."""
    entries = tuple((name, k, value, abs(value) > LIFT_TOLERANCE * scale)
                    for name, k, value in raw_entries)
    return entries, all(e[3] for e in entries), scale


def _reference_build(b, f, a, N_max):
    """The lift data build_heat_boundary derived from the per-a pieces."""
    b, a = float(b), float(a)
    _tail_alpha(b, N_max)
    if a <= b:
        raise ValueError("lift parameter must satisfy a > b")
    q_sum, q_err, _ = _lift_q_sums(b, f, N_max)
    pieces = _reference_lift_pieces(b, f, a, N_max, q_sum)
    kernel = pieces["kernel"]
    if kernel >= 0:
        pk = np.pi ** 2 * kernel ** 2
        q_err += _ROUNDING * abs(pieces["h"][kernel]) * (abs(a) + abs(b) + pk) / (a - b + pk)
    raw_entries = _reference_constraint_entries(pieces, b)
    scale = max(1.0, max(abs(v) for _, _, v in raw_entries))
    return pieces, q_err, _reference_entries_to_report(raw_entries, scale)


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _build_fingerprint(b, f, grid, N):
    """The lift data of build_heat_boundary bit for bit, or its exception."""
    try:
        data = build_heat_boundary(b, f, grid, N)[1]
    except Exception as exc:
        return type(exc), str(exc)
    report = data.constraint_report
    return ([getattr(data, name).tobytes() for name in
             ("f_coeffs", "h_coeffs", "g1_coeffs", "g2_coeffs")],
            [(e.name, e.k, type(e.k), e.value.hex(), type(e.value), e.passed, type(e.passed))
             for e in report.entries],
            report.scale.hex(), report.all_pass, data.u_output.hex(),
            data.series_remainder.hex(), data.kernel_index)


def _reference_fingerprint(b, f, a, N):
    try:
        pieces, q_err, (entries, all_pass, scale) = _reference_build(b, f, a, N)
    except Exception as exc:
        return type(exc), str(exc)
    return ([pieces[name].tobytes() for name in ("f", "h", "g1", "g2")],
            [(name, k, type(k), value.hex(), type(value), passed, type(passed))
             for name, k, value, passed in entries],
            scale.hex(), all_pass, pieces["u_output"].hex(), q_err.hex(), pieces["kernel"])


_SQUARES = st.integers(0, 6).map(lambda k: math.pi ** 2 * k ** 2)
_LIFT_BS = st.one_of(
    _SQUARES,
    # inside the ambiguous band of a square: KernelResonance
    st.tuples(_SQUARES, st.floats(2e-9, 9e-7), st.sampled_from([1.0, -1.0])).map(
        lambda t: t[0] + t[2] * t[1] * max(1.0, t[0])),
    st.floats(-60.0, -1e-3),
    st.floats(-5.0, 130.0),
    st.sampled_from([1e-7, -1.0, 5.0, 42.0]))
_LIFT_PROFILES = st.one_of(
    st.sampled_from([0.0, -1.0, 1.0]).map(SourceProfile.constant),
    st.floats(-3.0, 3.0).map(SourceProfile.constant),
    st.sampled_from([(0.0, 0.5), (0.1, 0.9), (0.0, 1.0)]).map(
        lambda t: SourceProfile.indicator(*t)),
    st.tuples(st.floats(0.0, 0.9), st.floats(0.05, 1.0)).map(
        lambda t: SourceProfile.indicator(t[0], t[0] + t[1] * (1.0 - t[0]))),
    st.integers(0, 6).map(SourceProfile.cosine),
    st.floats(0.0, 7.0).map(SourceProfile.cosine),
    st.lists(st.floats(-2.0, 2.0), max_size=4).map(SourceProfile.coefficients))


@st.composite
def _lift_grids(draw, b):
    steps = st.floats(1e-3, 60.0)
    kind = draw(st.sampled_from(["default", "one", "repeated", "list"]))
    if kind == "default":
        return None
    if kind == "one":
        return [b + draw(steps)]
    if kind == "repeated":
        a = b + draw(steps)
        return [a, a, b + 1.0, a]
    return [b + step for step in draw(st.lists(steps, min_size=1, max_size=40))]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_lift_table_matches_the_per_a_lift(data):
    # b on and near the squares, negative b, every profile kind and custom
    # grids: the lift parameter is the first grid entry, and the build is the
    # per-a lift at it bit for bit, a failing report included, or the same exception
    b = data.draw(_LIFT_BS, label="b")
    f = data.draw(_LIFT_PROFILES, label="f")
    N = data.draw(st.integers(1, 64), label="N_max")
    grid = data.draw(_lift_grids(b), label="grid")
    a = (grid or default_lift_grid(b))[0]
    reference = _reference_fingerprint(b, f, a, N)
    assert _outcome(search_lift_parameter, b, f, grid, N) == (
        a if len(reference) > 2 else reference)
    assert _build_fingerprint(b, f, grid, N) == reference


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_a_failing_lift_report_fails_the_rank_test(data):
    # the lift's constraint entries decide nothing: every plant whose report
    # fails is one that the PBH test on the unstable modes rejects as well
    b = data.draw(_LIFT_BS, label="b")
    f = data.draw(_LIFT_PROFILES, label="f")
    N = data.draw(st.integers(1, 64), label="N_max")
    grid = data.draw(_lift_grids(b), label="grid")
    try:
        sys_, lift = build_heat_boundary(b, f, grid, N)
    except (ValueError, KernelResonance, TailUnstable):
        return
    if not lift.constraint_report.all_pass:
        report = check_stabilizable(sys_)
        assert report.offending_stabilizable or report.offending_detectable
