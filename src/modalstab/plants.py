"""Modal realizations of three one-dimensional benchmark plants.

All three plants live on the unit interval and are expanded in cosine
eigenbases, so every block, coefficient, and tail bound here comes from a
closed form or a controlled quadrature:

* heat: reaction-diffusion with Neumann ends and an interior source shape,
* wave: damped wave with a Neumann/Dirichlet end pair,
* boundary heat: Neumann flux actuation, lifted to an interior input at the
  cost of one integrator state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import KernelResonance, QuadratureNotConverged, TailUnstable
from .modal import BlockStack, ModalBlock, ModalSystem, TailModel, _Record

DEFAULT_N_MAX = 64
# Terms each tail series sums past N_max (the heat and wave output weights and
# the boundary lift's far terms); a closed-form bound covers the rest.
TAIL_SUMMED_TERMS = 10 ** 4
# gamma_32 = 32u / (1 - 32u), u = 2^-53, rounded up.  A term of at most 32
# roundings, sines faithful to a few ulps of rounded arguments, is off by at
# most this times its envelope: the term on magnitudes, where a difference
# D = x - y in a denominator also scales it by (|x| + |y|) / |D| (Higham 2002, ch. 3).
_ROUNDING = 33 * 2.0 ** -53
# A lift constraint entry passes when its magnitude exceeds this times the scale.
LIFT_TOLERANCE = 1e-8
# |b - pi^2 k^2| below this pins mode k to the kernel of the generator.
KERNEL_ATOL = 1e-9
KERNEL_AMBIGUOUS = 1e-6
CRITICAL_ATOL = 1e-9
# Allowed samples-quadrature error, relative to max(sample scale, |integral|).
SAMPLES_RTOL = 1e-6

_PROFILE_KINDS = ("constant", "cosine", "indicator", "coefficients", "samples")
# Their integer-mode coefficients come from sines of rounded arguments, off by
# an absolute error below _ROUNDING; the other kinds give exact ones.
_SINE_PROFILES = ("cosine", "indicator")
_SIN_QUARTER_TURNS = np.array([0.0, 1.0, 0.0, -1.0])


def exact_sin_pi(x: float) -> float:
    """sin(pi x), exactly zero at integers and exactly +-1 at half-integers.

    Cosine-series coefficients of the built-in profiles must vanish exactly
    when the closed form says they do; rank tests downstream treat any
    nonzero value, however tiny, as a usable input direction.
    """
    two_x = 2.0 * x
    n = round(two_x)
    if two_x == n:
        if n % 2 == 0:
            return 0.0
        return 1.0 if (n - 1) % 4 == 0 else -1.0
    return math.sin(math.pi * x)


def _sin_pi_arr(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    two_x = 2.0 * x
    n = np.round(two_x)
    out = np.sin(np.pi * x)
    # exact values where 2x is an integer n: sin(pi n / 2) cycles 0, 1, 0, -1
    idx = np.flatnonzero(two_x == n)
    out.flat[idx] = _SIN_QUARTER_TURNS[n.flat[idx].astype(np.int64) % 4]
    return out


def _sinc_pi_arr(x: np.ndarray) -> np.ndarray:
    """sin(pi x)/(pi x) with the removable singularity filled in."""
    x = np.asarray(x, dtype=np.float64)
    zero = x == 0.0
    out = _sin_pi_arr(x)
    np.divide(out, np.pi * x, out=out, where=~zero)
    out[zero] = 1.0
    return out


class SourceProfile(_Record):
    """Input shape f on [0, 1].

    Closed-form kinds (constant, cosine, indicator) expand exactly in any
    cosine basis.  ``coefficients`` lists modal coefficients directly in the
    basis of whichever plant consumes the profile (index j is mode k = j for
    the heat plants, k = j + 1/2 for the wave plant).  ``samples`` holds
    values on a uniform grid over [0, 1] including both endpoints, with the
    panel count divisible by four so the quadrature error can be estimated
    by grid halving.
    """

    kind: str
    value: float = 0.0
    k0: float = 0.0
    xi1: float = 0.0
    xi2: float = 1.0
    values: tuple = ()

    def __post_init__(self):
        for name in ("value", "k0", "xi1", "xi2"):
            self.__dict__[name] = float(getattr(self, name))
        if self.kind not in _PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "indicator":
            if not (0.0 <= self.xi1 < self.xi2 <= 1.0):
                raise ValueError("indicator requires 0 <= xi1 < xi2 <= 1")
        if self.kind == "cosine" and self.k0 < 0:
            raise ValueError("cosine profile requires k0 >= 0")
        if self.kind in ("coefficients", "samples"):
            vals = tuple(float(v) for v in self.values)
            if not all(math.isfinite(v) for v in vals):
                raise ValueError("profile values must be finite")
            if self.kind == "samples":
                if len(vals) < 5 or (len(vals) - 1) % 4 != 0:
                    raise ValueError(
                        "samples need 4m+1 uniform points including both endpoints")
            self.__dict__["values"] = vals

    @classmethod
    def constant(cls, c: float) -> "SourceProfile":
        return cls(kind="constant", value=c)

    @classmethod
    def cosine(cls, k0: float) -> "SourceProfile":
        return cls(kind="cosine", k0=k0)

    @classmethod
    def indicator(cls, xi1: float, xi2: float) -> "SourceProfile":
        return cls(kind="indicator", xi1=xi1, xi2=xi2)

    @classmethod
    def coefficients(cls, values) -> "SourceProfile":
        return cls(kind="coefficients", values=tuple(values))

    @classmethod
    def samples(cls, values) -> "SourceProfile":
        return cls(kind="samples", values=tuple(values))


def _simpson(vals: np.ndarray, h: float) -> float:
    n = len(vals) - 1
    if n % 2 != 0:
        raise ValueError("Simpson rule needs an even panel count")
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(weights, vals))


def _samples_integral(sample_vals: np.ndarray, weight_fn=None) -> float:
    """Composite-Simpson integral of samples times an optional weight.

    The same rule on every other sample estimates the error by Richardson
    halving; disagreement beyond SAMPLES_RTOL of the sample scale means the
    grid is too coarse for the requested weight frequency.
    """
    m = len(sample_vals) - 1
    grid = np.linspace(0.0, 1.0, m + 1)
    vals = np.asarray(sample_vals, dtype=np.float64)
    if weight_fn is not None:
        vals = vals * weight_fn(grid)
    full = _simpson(vals, 1.0 / m)
    half = _simpson(vals[::2], 2.0 / m)
    err = abs(full - half) / 15.0
    scale = max(1.0, float(np.max(np.abs(sample_vals))))
    if err > SAMPLES_RTOL * max(scale, abs(full)):
        raise QuadratureNotConverged(
            f"sample grid too coarse: Richardson error {err:.3e}; supply more samples")
    return full


def _raw_cos_inner(profile: SourceProfile, ks: np.ndarray) -> np.ndarray:
    """Unnormalized inner products of f against cos(pi k xi), vectorized in k.

    Exact closed forms for constant/cosine/indicator; quadrature otherwise.
    Not defined for the coefficients kind, whose entries are already modal.
    """
    ks = np.asarray(ks, dtype=np.float64)
    if profile.kind == "constant":
        return profile.value * _sinc_pi_arr(ks)
    if profile.kind == "cosine":
        return 0.5 * (_sinc_pi_arr(ks - profile.k0) + _sinc_pi_arr(ks + profile.k0))
    if profile.kind == "indicator":
        out = np.empty_like(ks)
        zero = ks == 0.0
        out[zero] = profile.xi2 - profile.xi1
        knz = ks[~zero]
        out[~zero] = (_sin_pi_arr(knz * profile.xi2)
                      - _sin_pi_arr(knz * profile.xi1)) / (np.pi * knz)
        return out
    if profile.kind == "samples":
        return np.array([
            _samples_integral(np.asarray(profile.values),
                              weight_fn=lambda g, k=float(k): np.cos(np.pi * k * g))
            for k in ks])
    raise ValueError(f"no inner products for profile kind {profile.kind!r}")


def modal_input_coeffs(profile: SourceProfile, ks: np.ndarray,
                       norm_sq: np.ndarray) -> np.ndarray:
    """Expansion coefficients of f over the cosine family {cos(pi k xi)}.

    ks lists the plant's mode frequencies in block order and norm_sq the
    matching values of <cos(pi k xi), cos(pi k xi)>.  A coefficients profile
    bypasses the inner products: entry j is the coefficient of mode ks[j].
    """
    ks = np.asarray(ks, dtype=np.float64)
    if profile.kind == "coefficients":
        out = np.zeros(len(ks))
        take = min(len(ks), len(profile.values))
        out[:take] = profile.values[:take]
        return out
    return _raw_cos_inner(profile, ks) / np.asarray(norm_sq, dtype=np.float64)


def fourier_cos_coeffs(profile: SourceProfile, K: int) -> np.ndarray:
    """Normalized cosine coefficients over the integer basis k = 0..K."""
    if K < 0:
        raise ValueError("K must be >= 0")
    ks = np.arange(K + 1, dtype=np.float64)
    norm_sq = np.where(ks == 0.0, 1.0, 0.5)
    return modal_input_coeffs(profile, ks, norm_sq)


def profile_l2_norm_sq(profile: SourceProfile, basis: str = "integer") -> float:
    """Squared L2 norm of f on [0, 1]; basis resolves the coefficients kind."""
    if profile.kind == "constant":
        return profile.value ** 2
    if profile.kind == "cosine":
        k0 = profile.k0
        if k0 == 0.0:
            return 1.0
        return 0.5 + exact_sin_pi(2.0 * k0) / (4.0 * math.pi * k0)
    if profile.kind == "indicator":
        return profile.xi2 - profile.xi1
    if profile.kind == "coefficients":
        vals = np.asarray(profile.values, dtype=np.float64)
        if len(vals) == 0:
            return 0.0
        if basis == "integer":
            return float(vals[0] ** 2 + 0.5 * np.sum(vals[1:] ** 2))
        return float(0.5 * np.sum(vals ** 2))
    return _samples_integral(np.asarray(profile.values) ** 2)


def _quartic_remainder(b: float, K: float) -> tuple:
    """(bound, slack) for the sum over k > K of (pi^2 k^2 - b)^-2.

    With slack s = 1 - b/(pi K)^2 for b > 0 and s = 1 otherwise, every
    k > K has pi^2 k^2 - b >= s pi^2 k^2, so the sum is at most the integral
    comparison 1 / (3 pi^4 K^3 s^2).
    """
    slack = 1.0 - b / (np.pi ** 2 * K ** 2) if b > 0 else 1.0
    return 1.0 / (3.0 * np.pi ** 4 * K ** 3 * slack ** 2), slack


def _heat_tail_output_sq(b: float, N: int) -> float:
    """Upper bound on the sum over k > N of (1 / (1 + |b - pi^2 k^2|))^2 for a
    stable tail: past the summed range _quartic_remainder bounds the terms."""
    ks = np.arange(N + 1, N + TAIL_SUMMED_TERMS + 1, dtype=np.float64)
    partial = float(np.sum((1.0 / (1.0 + (np.pi ** 2 * ks ** 2 - b))) ** 2))
    return partial + _quartic_remainder(b, ks[-1])[0]


def _tail_input_sq(profile: SourceProfile, coeffs: np.ndarray, basis: str) -> float:
    """Parseval remainder beyond the resolved set; every basis mode has squared
    norm 1/2 except mode 0 of the integer basis, which has 1."""
    if profile.kind == "coefficients":
        extra = np.asarray(profile.values[len(coeffs):], dtype=np.float64)
        return float(np.sum(extra ** 2))
    resolved = (2.0 * coeffs[0] ** 2 + np.sum(coeffs[1:] ** 2) if basis == "integer"
                else np.sum(coeffs ** 2))
    return max(0.0, 2.0 * profile_l2_norm_sq(profile, basis) - float(resolved))


def _tail_alpha(b: float, N_max: int) -> float:
    """Decay rate pi^2 (N_max + 1)^2 - b of a heat-family tail past N_max.

    Raises unless N_max >= 1 and the first unresolved mode (so every one) is stable.
    """
    if N_max < 1:
        raise ValueError("N_max must be >= 1")
    alpha_tail = np.pi ** 2 * (N_max + 1) ** 2 - b
    if alpha_tail <= 0.0:
        raise TailUnstable(
            f"mode {N_max + 1} beyond the resolved range is unstable for b = {b:g}; "
            "increase N_max")
    return alpha_tail


def _heat_family(b: float, N_max: int, inputs, tail_input_sq: float, skip: int = -1,
                 extra: tuple = ()) -> ModalSystem:
    """A heat-family plant: mode k = 0..N_max, except ``skip``, is a 1x1 block with
    eigenvalue b - pi^2 k^2, input inputs[k] and unit output weight (boundary
    point value), next to the ``extra`` blocks; the tail past N_max has input
    norm sqrt(tail_input_sq)."""
    ks = np.arange(N_max + 1)
    ks = ks[ks != skip]
    modes = BlockStack((b - np.pi ** 2 * ks ** 2)[:, None, None], inputs[ks][:, None, None],
                       np.ones((len(ks), 1, 1)), ks)
    tail = TailModel(
        decay_alpha=_tail_alpha(b, N_max),
        input_norm=math.sqrt(tail_input_sq),
        output_graph_norm=math.sqrt(_heat_tail_output_sq(b, N_max)),
        amplitude_a=1.0,
    )
    return ModalSystem((modes,) + tuple(extra), tail, 1, 1)


def build_heat(b: float, f: SourceProfile, N_max: int = DEFAULT_N_MAX) -> ModalSystem:
    """Reaction-diffusion plant in modal form: ``_heat_family`` whose mode k
    takes the k-th cosine coefficient of f as its input."""
    b = float(b)
    _tail_alpha(b, N_max)  # reject the resolution before expanding f
    coeffs = fourier_cos_coeffs(f, N_max)
    return _heat_family(b, N_max, coeffs, _tail_input_sq(f, coeffs, "integer"))


def _wave_eigenvector_cond(kappa: float, omega: float) -> float:
    """Eigenvector condition of [[0, w], [-w, -kappa]] for the underdamped case.

    Closed form sqrt((1 + k/2w) / (1 - k/2w)); decreases to 1 as w grows,
    so the supremum over any increasing frequency tail sits at its first
    member.
    """
    r = abs(kappa) / (2.0 * omega)
    if r >= 1.0:
        return float("inf")
    return math.sqrt((1.0 + r) / (1.0 - r))


def build_wave(b: float, kappa: float, f: SourceProfile,
               N_max: int = DEFAULT_N_MAX) -> ModalSystem:
    """Damped wave plant over half-integer cosine modes k = 1/2, 3/2, ...

    Strictly stable modes are stored in energy-normalized coordinates
    (omega x, v), where the 2x2 block is the normal-plus-damping form
    [[0, w], [-w, -kappa]] and eigenvector conditioning stays bounded in k.
    Modes with a nonnegative-real-part eigenvalue or a nearly defective
    block keep the companion form [[0, 1], [b - pi^2 k^2, -kappa]].

    kappa <= 0 still constructs; the tail then has no decay margin and
    spectrum partitioning reports the infinite unstable part.
    """
    if N_max < 1:
        raise ValueError("N_max must be >= 1")
    b, kappa = float(b), float(kappa)
    ks = np.arange(N_max, dtype=np.float64) + 0.5
    coeffs = modal_input_coeffs(f, ks, np.full(len(ks), 0.5))

    mu = b - np.pi ** 2 * ks ** 2
    near_defective = (np.abs(kappa ** 2 + 4.0 * mu)
                      <= CRITICAL_ATOL * np.maximum(max(1.0, kappa ** 2), 4.0 * np.abs(mu)))
    companion = (mu >= 0.0) | near_defective | (kappa < 0.0)
    omega = np.sqrt(np.where(companion, 1.0, -mu))  # 1 keeps the companion rows' entries
    A = np.zeros((N_max, 2, 2))
    A[:, 0, 1] = omega
    A[:, 1, 0] = np.where(companion, mu, -omega)
    A[:, 1, 1] = -kappa
    B = np.zeros((N_max, 2, 1))
    B[:, 1, 0] = coeffs
    C = np.zeros((N_max, 1, 2))
    C[:, 0, 0] = 1.0 / omega

    k_first = N_max + 0.5
    mu_first = b - np.pi ** 2 * k_first ** 2
    if mu_first >= 0.0:
        raise TailUnstable(
            f"mode k = {k_first:g} beyond the resolved range is not stable; increase N_max")
    omega_first = math.sqrt(-mu_first)
    if kappa > 0.0 and omega_first <= 0.5 * kappa * (1.0 + 1e-6):
        raise TailUnstable(
            "tail modes are not underdamped at this damping level; increase N_max "
            f"(need pi^2 (N_max + 1/2)^2 - b > kappa^2 / 4, have omega = {omega_first:g})")

    # the closed form decreases in omega, so the first tail mode has the supremum
    amplitude = max(1.0, _wave_eigenvector_cond(kappa, omega_first))

    decay = 0.99 * 0.5 * kappa if kappa > 0.0 else 1.01 * 0.5 * kappa
    tail_input_sq = _tail_input_sq(f, coeffs, "half")

    tail_ks = k_first + np.arange(TAIL_SUMMED_TERMS, dtype=np.float64)
    tail_omega = np.sqrt(np.pi ** 2 * tail_ks ** 2 - b)
    sig_min_sq = (tail_omega ** 2 + kappa ** 2 / 2.0
                  - abs(kappa) * np.sqrt(kappa ** 2 / 4.0 + tail_omega ** 2))
    out_terms = (1.0 / tail_omega) ** 2 / (1.0 + np.sqrt(np.maximum(sig_min_sq, 0.0))) ** 2
    K_last = float(tail_ks[-1])
    if np.pi ** 2 * (K_last + 1.0) ** 2 - b < 2.0 * kappa ** 2:
        raise TailUnstable("damping too large for the tail output bound; increase N_max")
    # past the summed range, term_k <= 2 / omega_k^4 (valid once omega >= sqrt(2) kappa)
    out_remainder = 2.0 * _quartic_remainder(b, K_last)[0]
    tail = TailModel(
        decay_alpha=decay,
        input_norm=math.sqrt(tail_input_sq),
        output_graph_norm=math.sqrt(float(np.sum(out_terms)) + out_remainder),
        amplitude_a=amplitude,
    )
    return ModalSystem((BlockStack(A, B, C, np.arange(N_max)),), tail, 1, 1)


def lift_h(a: float, b: float, xi) -> np.ndarray:
    """Lift function h(xi) = cosh(c xi) / (c sinh c), c = sqrt(a - b).

    Normalized so that h'(1) = 1 and h'(0) = 0 while (d^2/dxi^2 + b) h = a h:
    subtracting h times the boundary value converts flux actuation at the
    right end into a distributed input plus one integrator state.
    """
    c = math.sqrt(a - b)
    return np.cosh(c * np.asarray(xi, dtype=np.float64)) / (c * math.sinh(c))


def _lift_signs(ks: np.ndarray) -> np.ndarray:
    """s_k = n_k (-1)^k, the cosine coefficients of the unit flux at the right end."""
    n_k = np.where(ks == 0.0, 1.0, 2.0)
    return n_k * np.where(ks.astype(np.int64) % 2 == 0, 1.0, -1.0)


def _lift_h_coeffs(a: float, b: float, ks: np.ndarray) -> np.ndarray:
    """Normalized cosine coefficients of the lift: s_k / (c^2 + pi^2 k^2)."""
    return _lift_signs(ks) / (a - b + np.pi ** 2 * ks ** 2)


class ConstraintEntry(_Record):
    """One scalar non-degeneracy condition of the lifted plant."""

    name: str
    k: int
    value: float
    passed: bool


class ConstraintReport(_Record):
    entries: tuple
    all_pass: bool
    tolerance: float
    scale: float


class BoundaryLiftData(_Record):
    """Closed-form ingredients of the boundary-to-interior lifting."""

    a: float
    h_coeffs: np.ndarray
    g1_coeffs: np.ndarray
    g2_coeffs: np.ndarray
    f_coeffs: np.ndarray
    h_at_0: float
    u_output: float
    kernel_index: int
    series_remainder: float
    constraint_report: ConstraintReport


def _kernel_index(b: float, count: int) -> int:
    """Index of the mode pinned to the kernel, or -1; raises on the ambiguous band.

    The first mode within the ambiguous band of b decides: it is the kernel
    mode if it also lies within KERNEL_ATOL, and ambiguous otherwise.
    """
    scale_b = max(1.0, abs(b))
    lam = b - np.pi ** 2 * np.arange(count, dtype=np.float64) ** 2
    near = np.flatnonzero(np.abs(lam) <= KERNEL_AMBIGUOUS * scale_b)
    if len(near) == 0:
        return -1
    k = int(near[0])
    if abs(lam[k]) <= KERNEL_ATOL * scale_b:
        return k
    raise KernelResonance(
        f"b sits {lam[k]:.3e} away from the square eigenvalue at k = {k}: "
        "too close to decide whether the mode is in the kernel; shift b "
        "or pass the exact square")


def _lift_q_sums(b: float, f: SourceProfile, N: int) -> tuple:
    """(sum q_k over every mode off the kernel, a bound on its error, an upper
    bound on the sum of q_k^2 over k > N).

    With s_k = n_k (-1)^k, c^2 = a - b and d_k = pi^2 k^2 - b = -lambda_k, the
    lift has h_k = s_k / (pi^2 k^2 + c^2) and, off the kernel,
    g1_k = (f_k + a h_k) / d_k.  As (pi^2 k^2 + c^2) - d_k = a, partial
    fractions give a h_k / d_k = s_k / d_k - h_k, so for every a
    h_k + g1_k = q_k := (f_k + s_k) / d_k.  The caller checks that the tail is
    stable (d_k > 0 for k > N); the kernel mode, given d_k = inf, drops out.

    The work is O(N + M), M = TAIL_SUMMED_TERMS, K = N + M.  Past N, s_k =
    2 (-1)^k and an indicator's f_k = 2 (sin k t_2 - sin k t_1) / (pi k),
    t = pi xi, go through 1/d_k = 1/(pi^2 k^2) + b / (pi^2 k^2 d_k), which
    meets no kernel mode: a closed form over k >= 1 less its N-term partial
    sum, from sum (-1)^k / k^2 = -pi^2 / 12 and
    sum sin(k t) / k^3 = t (t - pi)(t - 2 pi) / 12 on [0, 2 pi], plus a k^-4
    series summed over N < k <= K.  Other profiles sum f_k / d_k there: a
    cosine's f_k fall like k^-2, a coefficients profile's stop, and a
    constant's are 0.  Past K, where d_k >= sl pi^2 k^2 and
    sum d_k^-2 <= Q4 (_quartic_remainder), the rest is at most:
    * s: the first term, as b s_k / (pi^2 k^2 d_k) alternates and shrinks;
    * indicator: |b| / (pi^5 sl K^4), as |f_k| <= 4 / (pi k);
    * cosine: f_k = (-1)^k 2 k0 sin(pi k0) / (pi (k0^2 - k^2)) alternates and
      shrinks past k0, so the first term if k0 <= K, else Cauchy-Schwarz with
      Parseval (sum f_k^2 <= 2 ||f||^2): sqrt(2 ||f||^2 Q4);
    * coefficients: Cauchy-Schwarz on the entries past K.
    The squares add 4 ||f||^2 / d_{K+1}^2 + 8 Q4 past K, as
    (x + y)^2 <= 2 x^2 + 2 y^2.  Each term's rounding is bounded as in
    _ROUNDING, and math.fsum rounds the total once.
    """
    if f.kind == "samples":
        raise QuadratureNotConverged(
            "the boundary lift sums coefficient series far past any fixed quadrature "
            "budget; convert the profile with fourier_cos_coeffs to a coefficients "
            "profile first")
    res = np.arange(N + 1, dtype=np.float64)
    f_res = fourier_cos_coeffs(f, N)
    d_res = np.where(res == _kernel_index(b, N + 1), np.inf, np.pi ** 2 * res ** 2 - b)
    K = N + TAIL_SUMMED_TERMS
    ks = np.arange(N + 1, K + 1, dtype=np.float64)
    pk = np.pi ** 2 * ks ** 2
    d, s = pk - b, _lift_signs(ks)
    l2_sq = profile_l2_norm_sq(f, basis="integer")
    quartic, sl = _quartic_remainder(b, K)
    d_next = np.pi ** 2 * (K + 1) ** 2 - b
    trunc = 2.0 * abs(b) / (np.pi ** 2 * (K + 1) ** 2 * d_next)
    f_far = np.zeros(len(ks))
    if f.kind == "coefficients":  # profile entry j is the coefficient of mode k = j
        values = np.asarray(f.values[N + 1:], dtype=np.float64)
        f_far[:len(values[:len(ks)])] = values[:len(ks)]
        trunc += math.sqrt(float(np.sum(values[len(ks):] ** 2)) * quartic)
    elif f.kind != "constant":
        f_far = modal_input_coeffs(f, ks, np.full(len(ks), 0.5))
    split = f.kind == "indicator"
    near_f, closed = (f_res[1:] if split else 0.0), [-1.0 / 6.0]
    if split:
        t = np.pi * np.array([f.xi1, f.xi2])
        cubic = t * (t - np.pi) * (t - 2.0 * np.pi) / (6.0 * np.pi ** 3)
        closed += [cubic[1], -cubic[0]]
        trunc += abs(b) / (np.pi ** 5 * sl * K ** 4)
    elif f.kind == "cosine":
        trunc += (2.0 * f.k0 * abs(exact_sin_pi(f.k0))
                  / (np.pi * ((K + 1) ** 2 - f.k0 ** 2) * d_next) if f.k0 <= K
                  else math.sqrt(2.0 * l2_sq * quartic))
    terms = np.concatenate([
        (f_res + _lift_signs(res)) / d_res,
        -(_lift_signs(res[1:]) + near_f) / (np.pi ** 2 * res[1:] ** 2),
        ((b * (s + f_far) / pk) if split else (b * s / pk + f_far)) / d])
    f_err = float(f.kind in _SINE_PROFILES)
    # closed forms and partial sums on magnitudes: <= 1 + 2 split (t <= pi, |f_k| <= 2)
    env = 1.0 + 2.0 * split + float(
        np.sum((2.0 + np.abs(f_res) + f_err) * (abs(b) + np.pi ** 2 * res ** 2) / d_res ** 2)
        + np.sum((2.0 + np.abs(f_far) + f_err) * (pk + abs(b)) ** 2 / (pk * d ** 2)))
    far_sq = float(np.sum(((f_far + s) / d) ** 2)) + 4.0 * l2_sq / d_next ** 2 + 8.0 * quartic
    return math.fsum(closed + terms.tolist()), trunc + _ROUNDING * env, far_sq


def _clears_tolerance(values: np.ndarray) -> tuple:
    """(scale, passed): scale is max(1, largest |value|), so a uniformly tiny
    system cannot vacuously pass, and an entry passes above LIFT_TOLERANCE * scale."""
    scale = max(1.0, float(np.abs(values).max()))
    return scale, np.abs(values) > LIFT_TOLERANCE * scale


def default_lift_grid(b: float) -> list:
    return [b + 1.0]


def search_lift_parameter(b: float, f: SourceProfile, grid=None,
                          N_max: int = DEFAULT_N_MAX) -> float:
    """The lift parameter build_heat_boundary takes from the grid."""
    return build_heat_boundary(b, f, grid, N_max)[1].a


def build_heat_boundary(b: float, f: SourceProfile, grid=None, N_max: int = DEFAULT_N_MAX):
    """Boundary-actuated heat plant, lifted to modal form.

    The physical state x feels the control only through the flux boundary
    condition at the right end; substituting z = x - h u trades that for an
    interior input shape at the cost of the integrator state u (eigenvalue
    0, label -1).  When b equals a square eigenvalue the kernel mode cannot
    absorb its share of f + a h into a coordinate change, so the u state and
    that mode form one 2x2 block coupled through g2.

    The lift parameter a is the first entry of grid (default_lift_grid(b) if
    None); every entry must be finite and above b.  Returns the modal system
    together with the lift coefficients.

    The constraint report lists the lifted plant's non-degeneracy entries:
    an input entry h_k + g1_k for each unstable mode off the kernel, the
    kernel coupling g2_k, and u_output.  It is a report only; whether the
    plant is stabilizable is the PBH test's to say (check_stabilizable).
    h(0) is the sum of every h_k, so u_output = h(0) + sum g1_k is the kernel
    mode's h_k plus q_sum, the a-free sum of q_k over every other mode (see
    _lift_q_sums).  As lambda_k falls with k, the unstable modes precede the
    kernel mode.
    """
    b = float(b)
    grid = default_lift_grid(b) if grid is None else [float(a) for a in grid]
    if not grid:
        raise ValueError("lift parameter grid must be nonempty")
    if not all(-math.inf < b < a < math.inf for a in grid):
        raise ValueError("b and every grid entry must be finite, with every entry above b")
    _tail_alpha(b, N_max)  # reject the resolution before summing the lift
    q_sum, q_err, far_sq = _lift_q_sums(b, f, N_max)
    a = grid[0]
    ks = np.arange(N_max + 1, dtype=np.float64)
    kernel = _kernel_index(b, N_max + 1)
    f_coeffs = fourier_cos_coeffs(f, N_max)
    h = _lift_h_coeffs(a, b, ks)
    lam = b - np.pi ** 2 * ks ** 2
    drive = f_coeffs + a * h
    on_kernel = ks == kernel
    g1 = np.where(on_kernel, 0.0, -drive / np.where(on_kernel, 1.0, lam))
    g2 = np.where(on_kernel, drive, 0.0)
    u_output = float(q_sum + (h[kernel] if kernel >= 0 else 0.0))
    if kernel >= 0:  # the kernel's h_k, whose c^2 = a - b rounds relative to |a| + |b|
        pk = np.pi ** 2 * kernel ** 2
        q_err += _ROUNDING * abs(h[kernel]) * (abs(a) + abs(b) + pk) / (a - b + pk)

    cols = np.flatnonzero(on_kernel | ~(lam <= KERNEL_ATOL * max(1.0, abs(b))))
    values = np.append(np.where(on_kernel, g2, h + g1)[cols], u_output)
    names = [("kernel_coupling" if k == kernel else "input_mode", int(k))
             for k in cols] + [("u_output", -1)]
    scale, passed = _clears_tolerance(values)
    entries = tuple(ConstraintEntry(*n, v, p) for n, v, p in zip(
        names, values.tolist(), passed.tolist()))
    report = ConstraintReport(entries, all_pass=bool(passed.all()), tolerance=LIFT_TOLERANCE,
                              scale=scale)
    data = BoundaryLiftData(
        a=a, h_coeffs=h, g1_coeffs=g1, g2_coeffs=g2, f_coeffs=f_coeffs,
        h_at_0=float(lift_h(a, b, 0.0)), u_output=u_output, kernel_index=kernel,
        series_remainder=q_err, constraint_report=report)

    if kernel >= 0:
        # integrator and kernel mode share a 2x2 block: u drives the mode via g2
        A = np.array([[0.0, 0.0], [g2[kernel], float(lam[kernel])]])
        B = np.array([[1.0], [-h[kernel]]])
        C = np.array([[u_output, 1.0]])
        u_block = ModalBlock(A, B, C, label=-1)
    else:
        u_block = ModalBlock(
            np.array([[0.0]]), np.array([[1.0]]), np.array([[u_output]]), label=-1)
    return _heat_family(b, N_max, -(h + g1), far_sq, skip=kernel, extra=(u_block,)), data
