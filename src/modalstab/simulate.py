"""Dense simulation oracles: matrix exponentials, trajectories, gain probes.

Everything here is deliberately independent of the certificate machinery so
the two sides can check each other: stepping is exact for LTI dynamics (no
time-discretization error at grid points), and the gain probe produces
certified lower bounds from explicit input families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrajectory, DimensionMismatch, EigensolverNoConvergence
from .modal import StateSpaceSystem, closed_loop_matrix

# Pade orders and backward-error thresholds for the scaling-and-squaring
# exponential; order 13 kicks in beyond the last threshold.
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
}
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 5.371920351148152e0
_B13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
        33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_MAX_SQUARINGS = 60
# Leading share of a trajectory that the decay-rate fit skips as transient.
DECAY_SKIP_FRACTION = 0.3


def _pade_low(A: np.ndarray, order: int) -> np.ndarray:
    b = _PADE_COEFFS[order]
    n = A.shape[0]
    eye = np.eye(n, dtype=A.dtype)
    powers = [eye, A @ A]
    while len(powers) < (order + 1) // 2:
        powers.append(powers[-1] @ powers[1])
    U = b[1] * eye
    V = b[0] * eye
    for i, P in enumerate(powers[1:], start=1):
        U = U + b[2 * i + 1] * P
        V = V + b[2 * i] * P
    U = A @ U
    return np.linalg.solve(V - U, V + U)


def _pade_13(A: np.ndarray) -> np.ndarray:
    b = _B13
    n = A.shape[0]
    eye = np.eye(n, dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    return np.linalg.solve(V - U, V + U)


def matrix_exponential(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{A t} by scaling and squaring with diagonal Pade approximants.

    Order is picked from the 1-norm of A t against standard backward-error
    thresholds; beyond the order-13 threshold the matrix is halved s times
    and the result squared back.
    """
    A = np.atleast_2d(np.asarray(A))
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"matrix_exponential needs a square matrix, got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    if t < 0.0:
        raise ValueError("time must be >= 0")
    dtype = np.complex128 if np.iscomplexobj(A) else np.float64
    At = (A * t).astype(dtype)
    n = At.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=dtype)
    nrm = float(np.max(np.sum(np.abs(At), axis=0))) if n else 0.0
    for order, theta in _PADE_THETA:
        if nrm <= theta:
            return _pade_low(At, order)
    s = max(0, int(math.ceil(math.log2(nrm / _THETA_13))))
    if s > _MAX_SQUARINGS:
        raise OverflowError(f"matrix norm {nrm:.3e} too large for a reliable exponential")
    X = _pade_13(At / (2.0 ** s))
    for _ in range(s):
        X = X @ X
    return X


def spectral_abscissa(A: np.ndarray):
    """(max real part, witnessing eigenvalue) of a dense matrix."""
    A = np.atleast_2d(np.asarray(A))
    if A.shape[0] == 0:
        return float("-inf"), complex(0.0)
    try:
        eigs = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigensolverNoConvergence(str(exc)) from exc
    idx = int(np.argmax(eigs.real))
    return float(eigs[idx].real), complex(eigs[idx])


@dataclass(frozen=True)
class Trajectory:
    """Sampled (t, x, y, u) record on a uniform grid."""

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    inputs: np.ndarray
    dt: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", times)
        for name in ("states", "outputs", "inputs"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim == 1:
                arr = arr[:, None]
            if arr.shape[0] != len(times):
                raise DimensionMismatch(f"{name} length {arr.shape[0]} != times {len(times)}")
            object.__setattr__(self, name, arr)

    def state_norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def _steps_grid(T: float, dt: float):
    if dt <= 0.0 or T <= 0.0:
        raise ValueError("horizon and step must be positive")
    n_steps = int(round(T / dt))
    return np.arange(n_steps + 1) * dt, n_steps


def simulate_closed_loop(plant: StateSpaceSystem, controller: StateSpaceSystem,
                         x0, T: float, dt: float) -> Trajectory:
    """Exact-step simulation of the plant/controller interconnection.

    The controller starts at rest: the stacked state evolves freely under
    :func:`closed_loop_matrix` from (x0, 0).  Records y = C x and u = G w
    alongside it.
    """
    M = closed_loop_matrix(plant, controller)
    n = plant.n
    x0 = np.concatenate([np.asarray(x0).reshape(n), np.zeros(controller.n)])
    free = simulate_autonomous(M, x0, T, dt)
    return Trajectory(free.times, free.states, free.states[:, :n] @ plant.C.T,
                      free.states[:, n:] @ controller.C.T, dt=dt)


def simulate_autonomous(A: np.ndarray, x0, T: float, dt: float) -> Trajectory:
    """Exact-step free evolution x' = A x, read out as y = x (one shared array).

    One matrix exponential is reused for every step, so grid values carry no
    integration error.
    """
    A = np.atleast_2d(np.asarray(A))
    x0 = np.asarray(x0).reshape(A.shape[0])
    times, n_steps = _steps_grid(T, dt)
    Phi = matrix_exponential(A, dt)
    states = np.empty((n_steps + 1, A.shape[0]), dtype=Phi.dtype)
    states[0] = x0
    for i in range(n_steps):
        states[i + 1] = Phi @ states[i]
    return Trajectory(times, states, states, np.zeros((n_steps + 1, 0)), dt=dt)


def simulate_modal(blocks, x0, T: float, dt: float) -> Trajectory:
    """Free evolution through per-block exponentials, never assembling a
    dense generator; ordering matches the concatenation of the given blocks."""
    times, n_steps = _steps_grid(T, dt)
    dims = [blk.dim for blk in blocks]
    segments = np.split(np.asarray(x0).reshape(sum(dims)), np.cumsum(dims)[:-1])
    states = np.hstack([np.empty((n_steps + 1, 0), dtype=np.complex128)] + [
        simulate_autonomous(blk.block_matrix, seg, T, dt).states
        for blk, seg in zip(blocks, segments)])
    return Trajectory(times, states, states, np.zeros((n_steps + 1, 0)), dt=dt)


def estimate_decay_rate(traj: Trajectory) -> float:
    """Negated least-squares slope of log ||x(t)|| past the transient window."""
    norms = traj.state_norms()
    start = int(math.floor(len(norms) * DECAY_SKIP_FRACTION))
    t = traj.times[start:]
    r = norms[start:]
    keep = r > 0.0
    if np.sum(keep) < 2:
        raise DegenerateTrajectory("trajectory is zero after the skipped prefix")
    slope = np.polyfit(t[keep], np.log(r[keep]), 1)[0]
    return float(-slope)


@dataclass(frozen=True)
class GainProbe:
    """Empirical lower bound on a weighted IO gain, with probe metadata."""

    value: float
    tail_estimate: float
    peak_omega: float
    peak_family: str

    def __float__(self):
        return self.value


BRUTE_FORCE_OMEGAS = tuple(np.logspace(-2.0, 3.0, 40))
# Cap on the gain probe's time grid.
BRUTE_FORCE_MAX_STEPS = 12000


def _probe_best(Y_weighted: np.ndarray, omegas: np.ndarray, best: tuple) -> tuple:
    """Fold a (time, family) table of weighted responses into the running best.

    The first len(omegas) columns hold sin responses (imaginary part), the
    next len(omegas) cos responses, the last the decaying step.
    """
    col_max = np.max(Y_weighted, axis=0)
    j = int(np.argmax(col_max))
    if col_max[j] <= best[0]:
        return best
    n_om = len(omegas)
    if j < n_om:
        return (float(col_max[j]), float(omegas[j]), "sin")
    if j < 2 * n_om:
        return (float(col_max[j]), float(omegas[j - n_om]), "cos")
    return (float(col_max[j]), 0.0, "step")


def brute_force_gain(sys: StateSpaceSystem, beta: float, horizon: float = 20.0) -> GainProbe:
    """Largest observed sup_t ||e^{beta t} y(t)|| over a fixed input family.

    Inputs are e^{-beta t} sin(w t + phi) per channel (40 log-spaced
    frequencies, both phases) plus a decaying step, all with unit weighted
    sup norm and x(0) = 0.  Responses are evaluated exactly at grid points,
    through the eigendecomposition when it is well conditioned and otherwise
    by the step recursion X_{k+1} = Phi X_k + e^{z t_k} W b with
    W = (zI - A)^{-1}(e^{z dt} I - Phi); either way the result is a certified
    lower bound on the gain regardless of grid resolution.

    Requires real system data with the spectrum strictly left of -beta.
    """
    for name in ("A", "B", "C"):
        if float(np.max(np.abs(getattr(sys, name).imag), initial=0.0)) != 0.0:
            raise ValueError("gain probe expects real system data")
    abscissa, _ = spectral_abscissa(sys.A)
    if sys.n and abscissa >= -beta:
        raise ValueError(
            f"spectral abscissa {abscissa:g} is not strictly left of -beta = {-beta:g}")
    if sys.n == 0 or sys.m == 0 or np.all(sys.C == 0.0):
        return GainProbe(0.0, 0.0, 0.0, "empty")

    omegas = np.asarray(BRUTE_FORCE_OMEGAS)
    # one complex frequency serves both phases: z = i w - beta; step uses w = 0
    zs = np.concatenate([1j * omegas - beta, [complex(-beta)]])
    n_steps = int(min(BRUTE_FORCE_MAX_STEPS,
                      max(2000, math.ceil(horizon * 8.0 * omegas[-1] / (2 * np.pi)))))
    dt = horizon / n_steps
    times = np.arange(n_steps + 1) * dt
    weight = np.exp(beta * times)

    A = sys.A
    eigvals, V = None, None
    try:
        eigvals, V = np.linalg.eig(A)
        if np.linalg.cond(V) > 1e8:
            eigvals, V = None, None
    except np.linalg.LinAlgError:
        eigvals, V = None, None

    best = (0.0, 0.0, "step")
    for ch in range(sys.m):
        b = sys.B[:, ch]
        if eigvals is not None:
            # closed form: X_z(t) = (zI - A)^{-1} (e^{zt} - e^{At}) b
            vb = np.linalg.solve(V, b)
            CV = sys.C @ V
            exp_lam = np.exp(np.outer(times, eigvals))
            table = np.empty((len(times), 2 * len(omegas) + 1))
            for j, z in enumerate(zs):
                coeff = vb / (z - eigvals)
                u_t = np.exp(z * times)
                yc = (u_t[:, None] - exp_lam) @ (CV * coeff[None, :]).T
                if j < len(omegas):
                    table[:, j] = np.max(np.abs(yc.imag), axis=1)
                    table[:, len(omegas) + j] = np.max(np.abs(yc.real), axis=1)
                else:
                    table[:, -1] = np.max(np.abs(yc.real), axis=1)
            best = _probe_best(table * weight[:, None], omegas, best)
            continue
        Phi = matrix_exponential(A, dt)
        eye = np.eye(sys.n, dtype=np.complex128)
        Wb = np.column_stack([
            np.linalg.solve(z * eye - A, np.exp(z * dt) * b - Phi @ b) for z in zs])
        X = np.zeros((sys.n, len(zs)), dtype=np.complex128)
        phase = np.ones(len(zs), dtype=np.complex128)
        step_mult = np.exp(zs * dt)
        table = np.zeros((n_steps + 1, 2 * len(omegas) + 1))
        for i in range(n_steps):
            X = Phi @ X + Wb * phase[None, :]
            phase = phase * step_mult
            Y = sys.C @ X
            table[i + 1, :len(omegas)] = np.max(np.abs(Y[:, :len(omegas)].imag), axis=0)
            table[i + 1, len(omegas):2 * len(omegas)] = np.max(
                np.abs(Y[:, :len(omegas)].real), axis=0)
            table[i + 1, -1] = np.max(np.abs(Y[:, -1].real))
        best = _probe_best(table * weight[:, None], omegas, best)
    tail = float(np.exp((beta + abscissa) * horizon))
    return GainProbe(best[0], tail, best[1], best[2])
