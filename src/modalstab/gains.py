"""Shift-dependent input-to-output and input-to-state gain bounds.

Every bound here is certified for the exponentially weighted signal classes
parameterized by a shift ``beta`` > 0: an IO-(n, m) bound maps inputs whose
first n derivatives are bounded after weighting by exp(beta t) to outputs
with m weighted derivatives, an IS bound does the same for the state.  The
small-gain certificate combines a weak (graph-norm) bound for the spectral
tail with a strong (bounded-generator) bound for the finite controller loop.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    BetaExceedsDecay,
    BetaMismatch,
    LyapunovSolveFailed,
    NotHurwitz,
    SmoothnessMismatch,
)
from .modal import TailModel, _matrix_sign, _Record, truncate_tail
from .synthesis import loop_system, reduced_R_system

# Provenance markers recorded on every bound.
GRAPH_BOUND = "graph-bound"
BOUNDED_GENERATOR = "bounded-generator"

BETA_GRID_DEPTH = 12
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


class DecayEnvelope(_Record):
    """Certified bound ||exp(A t)|| <= amplitude_a * exp(-alpha * t)."""

    amplitude_a: float
    alpha: float

    def __post_init__(self):
        if not (self.amplitude_a >= 1.0):
            raise ValueError(f"amplitude_a must be >= 1, got {self.amplitude_a}")
        if math.isnan(self.alpha):
            raise ValueError("alpha must not be NaN")


class GainBound(_Record):
    """A certified gain value together with its bookkeeping.

    kind is "IO" or "IS"; smoothness is the (input, output) derivative-order
    pair the bound is stated for; provenance records which estimate produced
    the value.
    """

    beta: float
    value: float
    kind: str
    smoothness: tuple
    provenance: str

    def __post_init__(self):
        if self.kind not in ("IO", "IS"):
            raise ValueError(f"kind must be 'IO' or 'IS', got {self.kind!r}")
        if self.value < 0:
            raise ValueError("gain value must be nonnegative")
        self.__dict__["smoothness"] = tuple(int(s) for s in self.smoothness)


def _check_beta(env: DecayEnvelope, beta: float) -> float:
    beta = float(beta)
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta:g}")
    if not beta < env.alpha:
        raise BetaExceedsDecay(f"beta {beta:g} must be strictly below alpha {env.alpha:g}")
    return beta


def gain_weak(env: DecayEnvelope, beta: float, norm_b: float, norm_c_graph: float):
    """Gain bounds valid when the output map is only graph-norm bounded.

    Suitable for the spectral tail, whose point evaluation output is
    unbounded on the state space but bounded on the generator domain.
    Returns ``(h, g)``: an IS-(1,1) bound

        h <= max(a ||B|| / (alpha - beta), (a + 1) ||B||)

    and an IO-(1,0) bound

        g <= a ||B|| ||C||_graph (1 + alpha - beta) / (alpha - beta).
    """
    beta = _check_beta(env, beta)
    a, alpha = env.amplitude_a, env.alpha
    norm_b = float(norm_b)
    norm_c_graph = float(norm_c_graph)
    if norm_b == 0.0:
        h_val, g_val = 0.0, 0.0
    else:
        h_val = max(a * norm_b / (alpha - beta), (a + 1.0) * norm_b)
        g_val = a * norm_b * norm_c_graph * (1.0 + alpha - beta) / (alpha - beta)
    h = GainBound(beta, h_val, "IS", (1, 1), GRAPH_BOUND)
    g = GainBound(beta, g_val, "IO", (1, 0), GRAPH_BOUND)
    return h, g


def gain_strong(env: DecayEnvelope, beta: float, norm_b: float, norm_c: float, norm_a: float):
    """Gain bounds for a finite-dimensional system with bounded generator.

    Returns ``(h, g)``: an IS-(0,1) bound

        h <= max(a ||B|| / (alpha - beta), a ||B|| ||A|| / (alpha - beta) + ||B||)

    and an IO-(0,1) bound

        g <= max(a ||B|| ||C|| / (alpha - beta),
                 a ||B|| ||A|| ||C|| / (alpha - beta) + ||B|| ||C||).
    """
    beta = _check_beta(env, beta)
    a, alpha = env.amplitude_a, env.alpha
    norm_b = float(norm_b)
    norm_c = float(norm_c)
    norm_a = float(norm_a)
    if norm_b == 0.0:
        h_val, g_val = 0.0, 0.0
    else:
        h_val = max(a * norm_b / (alpha - beta),
                    a * norm_b * norm_a / (alpha - beta) + norm_b)
        g_val = max(a * norm_b * norm_c / (alpha - beta),
                    a * norm_b * norm_a * norm_c / (alpha - beta) + norm_b * norm_c)
    h = GainBound(beta, h_val, "IS", (0, 1), BOUNDED_GENERATOR)
    g = GainBound(beta, g_val, "IO", (0, 1), BOUNDED_GENERATOR)
    return h, g


def _lyapunov_solution(S: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The Hermitian X with S^* X + X S + C = 0, for Hurwitz S and Hermitian C.

    sign([[S^*, C], [0, -S]]) = [[-I, 2 X], [0, I]] (Roberts 1980).
    """
    n = S.shape[0]
    try:
        W = _matrix_sign(np.block([[S.conj().T, C], [np.zeros((n, n)), -S]]))
    except np.linalg.LinAlgError as exc:
        raise LyapunovSolveFailed(f"Lyapunov sign iteration failed: {exc}") from exc
    return 0.25 * (W[:n, n:] + W[:n, n:].conj().T)


def decay_envelope(A: np.ndarray, margin_fraction: float = 0.5) -> DecayEnvelope:
    """Certified decay envelope of exp(A t) via a shifted Lyapunov solve.

    With sigma the spectral abscissa of A (must be < 0),
    alpha = -sigma * margin_fraction and S = A + alpha I, P solves

        S^* P + P S = -I

    by the matrix sign function and one residual-correction step.  The P
    used is then checked, not trusted: it must be finite and positive
    definite, and its residual R = S^* P + P S + I, with the entrywise
    rounding bound E = gamma_{n+4} (|S^*| |P| + |P| |S| + I) of R's own
    evaluation (Higham 2002, section 3.5; Rump 2010), must satisfy
    lambda_max(R) + ||E||_F < 1.  That makes S^* P + P S negative definite,
    which is all that ||exp(A t)|| <= sqrt(cond_2(P)) exp(-alpha t) needs.
    Raises ``LyapunovSolveFailed`` when the solve or the check fails.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.complex128))
    if A.size == 0:
        # Empty system: no state to excite; treated as infinitely fast.
        return DecayEnvelope(1.0, math.inf)
    if not (0.0 < margin_fraction < 1.0):
        raise ValueError(f"margin_fraction must lie in (0, 1), got {margin_fraction}")
    sigma = float(np.max(np.linalg.eigvals(A).real))
    if sigma >= 0.0:
        raise NotHurwitz(f"spectral abscissa {sigma:g} >= 0")
    alpha = -sigma * margin_fraction
    n = A.shape[0]
    eye = np.eye(n)
    S = A + alpha * eye
    S_h = S.conj().T
    gamma = (n + 4) * _UNIT_ROUNDOFF / (1.0 - (n + 4) * _UNIT_ROUNDOFF)
    with np.errstate(all="ignore"):
        P = _lyapunov_solution(S, eye)
        # The sign iteration's error comes from its first, ill-conditioned
        # inversions; solving once more for the residual removes most of it.
        P = P + _lyapunov_solution(S, S_h @ P + P @ S + eye)
        R = S_h @ P + P @ S + eye
        slack = gamma * float(np.linalg.norm(
            np.abs(S_h) @ np.abs(P) + np.abs(P) @ np.abs(S) + eye))
    if not (np.all(np.isfinite(P)) and math.isfinite(slack)):
        raise LyapunovSolveFailed("Lyapunov solution is not finite")
    top = float(np.linalg.eigvalsh(0.5 * (R + R.conj().T))[-1])
    if not top + slack < 1.0:
        raise LyapunovSolveFailed(
            f"Lyapunov residual check failed: lambda_max(R) {top:.3e} + rounding bound "
            f"{slack:.3e} >= 1")
    eigs = np.linalg.eigvalsh(P)
    if eigs[0] <= 0.0:
        raise LyapunovSolveFailed(
            f"Lyapunov solution not positive definite (min eigenvalue {eigs[0]:.3e})")
    amp = float(np.sqrt(eigs[-1] / eigs[0]))
    return DecayEnvelope(max(1.0, amp), alpha)


class StabilityCertificate(_Record):
    """Small-gain certificate for the interconnected closed loop.

    Certified verdict means: the loop of the (strictly stable) spectral tail
    with the finite controller loop satisfies gain_tail * gain_R < 1 at a
    common shift beta > 0 with finite IS bounds on both sides, hence the full
    closed loop decays exponentially at rate at least beta.
    """

    beta: float
    gain_R: GainBound
    gain_tail: GainBound
    product: float
    truncation_N: int
    verdict: str
    diagnostics: tuple

    def to_document(self) -> dict:
        return {
            "beta": float(self.beta),
            "product": float(self.product),
            "gain_R": float(self.gain_R.value),
            "gain_tail": float(self.gain_tail.value),
            "N": int(self.truncation_N),
            "verdict": self.verdict,
            "diagnostics": list(self.diagnostics),
        }


def certify_small_gain(gain_R: GainBound, is_R: GainBound, gain_tail_bound: GainBound,
                       is_tail: GainBound, N: int) -> StabilityCertificate:
    """Combine tail and controller-loop bounds into a verdict.

    Expects the tail bounds as IO-(1,0)/IS-(1,1) and the controller-loop
    bounds as IO-(0,1)/IS-(0,1), all at one common beta > 0.  Failure is a
    verdict, not an exception.
    """
    betas = {gain_R.beta, is_R.beta, gain_tail_bound.beta, is_tail.beta}
    if len(betas) != 1:
        raise BetaMismatch(f"bounds evaluated at different betas: {sorted(betas)}")
    beta = gain_R.beta
    if gain_tail_bound.kind != "IO" or gain_tail_bound.smoothness != (1, 0):
        raise SmoothnessMismatch("tail IO bound must have kind IO-(1,0)")
    if is_tail.kind != "IS" or is_tail.smoothness != (1, 1):
        raise SmoothnessMismatch("tail IS bound must have kind IS-(1,1)")
    if gain_R.kind != "IO" or gain_R.smoothness != (0, 1):
        raise SmoothnessMismatch("controller-loop IO bound must have kind IO-(0,1)")
    if is_R.kind != "IS" or is_R.smoothness != (0, 1):
        raise SmoothnessMismatch("controller-loop IS bound must have kind IS-(0,1)")

    product = gain_R.value * gain_tail_bound.value
    finite = all(math.isfinite(b.value) for b in (gain_R, is_R, gain_tail_bound, is_tail))
    certified = beta > 0 and product < 1.0 and finite
    diagnostics = [
        f"beta={beta:.9g}",
        f"gain_tail={gain_tail_bound.value:.9g}",
        f"gain_R={gain_R.value:.9g}",
        f"is_tail={is_tail.value:.9g}",
        f"is_R={is_R.value:.9g}",
        f"product={product:.9g}",
    ]
    if certified:
        diagnostics.append(f"small-gain product < 1; closed loop decays at rate >= {beta:.9g}")
    else:
        if not finite:
            diagnostics.append("some constituent bound is not finite")
        if product >= 1.0:
            diagnostics.append("product >= 1; retain more modes (larger N) or lower beta")
        if beta <= 0:
            diagnostics.append("beta must be positive for an exponential verdict")
    return StabilityCertificate(
        beta=beta,
        gain_R=gain_R,
        gain_tail=gain_tail_bound,
        product=product,
        truncation_N=int(N),
        verdict="Certified" if certified else "Failed",
        diagnostics=tuple(diagnostics),
    )


def beta_grid(alpha_min: float, depth: int = BETA_GRID_DEPTH) -> list:
    """Geometric scan grid {alpha_min / 2^j : j = 0..depth}."""
    if not (alpha_min > 0):
        raise ValueError(f"alpha_min must be positive, got {alpha_min}")
    return [alpha_min / (2.0 ** j) for j in range(depth + 1)]


class LoopBounds(_Record):
    """The beta-free data of a finite controller loop's gain bounds.

    Its decay envelope and the 2-norms of its (A, B, C); one serves every
    truncation order of a plant.  ``env`` is None when the loop is not
    exponentially stable, and ``failure`` then says why.  ``rest_alpha`` is
    the decay rate of the loop's states outside the bounded system's.
    """

    env: DecayEnvelope
    norm_a: float
    norm_b: float
    norm_c: float
    failure: str = ""
    rest_alpha: float = math.inf

    @property
    def alpha(self) -> float:
        """The rate all of the loop decays at: the envelope's, capped by rest_alpha."""
        return min(self.env.alpha, self.rest_alpha)


def loop_bounds(r_sys, margin_fraction: float = 0.5, rest_alpha: float = math.inf) -> LoopBounds:
    """Decay envelope and 2-norms of a finite controller-loop system."""
    try:
        env = decay_envelope(r_sys.A, margin_fraction)
    except NotHurwitz as exc:
        return LoopBounds(None, math.inf, math.inf, math.inf, str(exc))
    return LoopBounds(
        env,
        float(np.linalg.norm(r_sys.A, 2)) if r_sys.n else 0.0,
        float(np.linalg.norm(r_sys.B, 2)) if r_sys.B.size else 0.0,
        float(np.linalg.norm(r_sys.C, 2)) if r_sys.C.size else 0.0,
        rest_alpha=rest_alpha)


def controller_loop_bounds(sys, fit, controller, margin_fraction: float = 0.5) -> LoopBounds:
    """``loop_bounds`` of the loop a certificate of ``controller`` bounds, given its
    ``synthesis.DesignTruncation`` ``fit``.  With ``fit.k_u`` set: ``reduced_R_system``
    over the prefix, alpha capped by the blocks after it; the full loop, whose spectrum
    contains this one's, is never tried as well.  Otherwise: the full loop of the fit."""
    if fit.k_u is None:
        return loop_bounds(loop_system(fit.truncated, controller.as_state_space()), margin_fraction)
    n_u, A, B, C = int(controller.n_unstable), fit.truncated.A, fit.truncated.B, fit.truncated.C
    r_sys = reduced_R_system(A[:n_u, :n_u], B[:n_u, :], C[:, :n_u], controller.K_u, controller.L_u)
    return loop_bounds(r_sys, margin_fraction, truncate_tail(sys, fit.k_u).decay_alpha)


def scan_certificate(tail: TailModel, loop: LoopBounds, N: int,
                     depth: int = BETA_GRID_DEPTH,
                     fixed_beta: float = None) -> StabilityCertificate:
    """The certificate at the largest certifying grid beta, else a Failed one.

    ``loop`` is the controller loop's ``loop_bounds``, so one envelope serves
    many tails.  The grid is {alpha_min / 2^j : j = 1..depth} with alpha_min
    the smaller of the tail decay rate and the controller loop's ``alpha``
    (j = 0 is never strictly below both), less the points that underflow to
    0, which never certify.  So beta stays below the decay rate of every
    state of the closed loop.  With ``fixed_beta`` set, only that single beta
    is evaluated.

    Every bound grows with beta: a / (alpha - beta) and
    (1 + alpha - beta) / (alpha - beta) do for each envelope, and the norms
    do not depend on beta.  So the product and the finiteness of the bounds
    only worsen as beta grows: if the smallest grid beta fails, every grid
    beta fails, and the certifying grid points are a run at the small end.
    The scan evaluates the smallest beta first and returns it, with verdict
    Failed, if it does not certify (its product is then the least of the
    grid); when that product is not finite, it returns the largest grid beta
    instead, as a least-product rule would.  Otherwise it bisects for the
    largest certifying grid beta.  A Failed scan costs one evaluation (two
    when its product is not finite), a Certified one at most
    1 + ceil(log2 depth).  The returned certificate is always the one
    evaluated at its beta, so soundness does not rest on the monotonicity;
    only the choice among grid points does.
    """
    if tail.decay_alpha <= 0:
        raise BetaExceedsDecay(f"tail decay rate {tail.decay_alpha:g} <= 0")
    if loop.env is None:
        dummy = GainBound(0.0, math.inf, "IO", (0, 1), BOUNDED_GENERATOR)
        t_io = GainBound(0.0, tail.input_norm * tail.output_graph_norm, "IO", (1, 0), GRAPH_BOUND)
        return StabilityCertificate(
            beta=0.0, gain_R=dummy, gain_tail=t_io, product=math.inf,
            truncation_N=int(N), verdict="Failed",
            diagnostics=(f"controller loop is not exponentially stable: {loop.failure}",))
    tail_env = DecayEnvelope(tail.amplitude_a, tail.decay_alpha)

    def attempt(beta):
        h_tail, g_tail = gain_weak(tail_env, beta, tail.input_norm, tail.output_graph_norm)
        h_r, g_r = gain_strong(loop.env, beta, loop.norm_b, loop.norm_c, loop.norm_a)
        return certify_small_gain(g_r, h_r, g_tail, h_tail, N)

    if fixed_beta is not None:
        return attempt(float(fixed_beta))
    alpha_min = min(tail.decay_alpha, loop.alpha)
    grid = [beta for beta in beta_grid(alpha_min, depth)[1:] if beta > 0]
    if not grid:
        raise BetaExceedsDecay("no grid beta lies strictly below both decay rates")
    cert = attempt(grid[-1])
    if cert.verdict != "Certified":
        return cert if math.isfinite(cert.product) else attempt(grid[0])
    lo, hi = 0, len(grid) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        trial = attempt(grid[mid])
        if trial.verdict == "Certified":
            hi, cert = mid, trial
        else:
            lo = mid + 1
    return cert
