"""Simulation oracles: matrix exponentials, trajectories, gain probes.

Everything here is deliberately independent of the certificate machinery so
the two sides can check each other: trajectories are exact for LTI dynamics
(no time-discretization error at grid points), and the gain probe produces
certified lower bounds from explicit input families.  The exponential, the
stepping and the spectral abscissa take their arithmetic from the matrix's
dtype, so a real closed loop (see :func:`closed_loop_matrix`) is
exponentiated, stepped and eigen-solved in float64, a complex one in
complex128.

Grid values carry no integration error, but they do carry rounding.  The
dense path multiplies each state by e^(M dt) to get the next, so its
rounding grows with the step count: on a stiff loop of 130 states, 2e-10 of
a row by step 100 and 1e-7 by step 1000.  An observer loop at its design
truncation is evaluated instead through its separation structure
(:class:`ObserverLoop`): each grid time from closed forms of the retained
modes and a power of the small core's e^(A_c dt), so rounding does not
accumulate step by step, and the spectrum comes from the structure, not a
dense eigensolve.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateTrajectory, DimensionMismatch, EigensolverNoConvergence
from .modal import ModalSystem, StateSpaceSystem, _Record, closed_loop_matrix

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
# A row norm below this may have squared entries outside the normal range.
TINY_NORM = 1e-140
# Trajectories are stepped in blocks of max(1, CELLS // columns) rows, where
# columns is the width of their trajectory.csv rows, so that a streamed run
# holds one block of states and formatted text whatever its horizon.
CELLS = 8192
# An observer loop is evaluated through its separation structure (see
# ObserverLoop) unless a retained block's eigenvector condition number exceeds
# CONDITION_MAX, or a retained eigenvalue lam lies within SEPARATION_RTOL
# (1 + |lam|) of an eigenvalue of the core A_c.  The closed forms divide by
# that gap, by its square where A_c is defective, and go through the
# eigenvectors; within both bounds a row keeps some nine digits.
CONDITION_MAX = 1e4
SEPARATION_RTOL = 1e-2


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
    nrm = float(np.max(np.sum(np.abs(At), axis=0)))
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


def _rightmost(eigs: np.ndarray):
    """(abscissa, witness) of a real matrix's spectrum: the largest real part,
    and among the eigenvalues that reach it the one of least |Im|, reported
    with Im >= 0."""
    abscissa = float(np.max(eigs.real))
    tied = eigs[eigs.real == abscissa]
    return abscissa, complex(abscissa, float(np.min(np.abs(tied.imag))))


def spectral_abscissa(A: np.ndarray):
    """(max real part, witnessing eigenvalue) of a dense matrix: for a real
    matrix the witness of :func:`_rightmost`, for a complex one its first
    eigenvalue of largest real part."""
    A = np.atleast_2d(np.asarray(A))
    if A.shape[0] == 0:
        return float("-inf"), complex(0.0)
    try:
        eigs = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigensolverNoConvergence(str(exc)) from exc
    if not np.any(A.imag):
        return _rightmost(eigs)
    witness = complex(eigs[int(np.argmax(eigs.real))])
    return witness.real, witness


class Trajectory(_Record):
    """Sampled (t, x, y, u) record on a uniform grid."""

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    inputs: np.ndarray
    dt: float

    def __post_init__(self):
        self.__dict__["times"] = times = np.asarray(self.times, dtype=np.float64)
        for name in ("states", "outputs", "inputs"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim == 1:
                arr = arr[:, None]
            if arr.shape[0] != len(times):
                raise DimensionMismatch(f"{name} length {arr.shape[0]} != times {len(times)}")
            self.__dict__[name] = arr

    def state_norms(self) -> np.ndarray:
        return row_norms(self.states)


def row_norms(states: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row.  A row whose norm is below TINY_NORM is
    recomputed as 2^e ||x / 2^e||, with 2^e at its largest |entry|, so that
    squares below the normal range do not vanish; the scaling is exact, so a
    row none of whose squares underflowed keeps its bits."""
    norms = np.linalg.norm(states, axis=1)
    tiny = np.flatnonzero(norms < TINY_NORM)
    if tiny.size:
        rows = states[tiny].astype(np.result_type(states.dtype, np.float64))
        e = np.frexp(np.max(np.abs(rows), axis=1))[1]
        scaled = np.ldexp(rows.view(np.float64), -e[:, None]).view(rows.dtype)
        norms[tiny] = np.ldexp(np.linalg.norm(scaled, axis=1), e)
    return norms


def _steps_grid(T: float, dt: float):
    if dt <= 0.0 or T <= 0.0:
        raise ValueError("horizon and step must be positive")
    n_steps = int(round(T / dt))
    return np.arange(n_steps + 1) * dt, n_steps


def _free_blocks(A: np.ndarray, x0, T: float, dt: float, columns: int):
    """(times, states) of the exact-step free evolution x' = A x, in blocks of
    max(1, CELLS // columns) consecutive grid rows.

    One matrix exponential is reused for every step, so grid values carry no
    integration error; each state is Phi times the one before it, so their
    rounding grows with the step count.  The grid's times come first, so a
    grid too large for memory fails before any step.
    """
    A = np.atleast_2d(np.asarray(A))
    state = np.asarray(x0).reshape(A.shape[0])
    times, _ = _steps_grid(T, dt)
    Phi = matrix_exponential(A, dt)
    rows = max(1, CELLS // columns)
    for start in range(0, len(times), rows):
        block_times = times[start:start + rows]
        states = np.empty((len(block_times), A.shape[0]), dtype=Phi.dtype)
        states[0] = Phi @ state if start else state
        for i in range(1, len(states)):
            np.dot(Phi, states[i - 1], out=states[i])
        state = states[-1]
        yield block_times, states


def closed_loop_blocks(M: np.ndarray, plant: StateSpaceSystem,
                       controller: StateSpaceSystem, x0, T: float, dt: float):
    """The trajectory of :func:`simulate_closed_loop` as Trajectory blocks of
    consecutive rows, each of about CELLS trajectory.csv cells.

    M is ``closed_loop_matrix(plant, controller)``, which a caller may need
    for itself.  Stepping happens as the blocks are drawn.
    """
    n = plant.n
    x0 = np.concatenate([np.asarray(x0).reshape(n), np.zeros(controller.n)])
    columns = 1 + M.shape[0] + controller.p + plant.p  # t, x, w, u, y
    for times, states in _free_blocks(M, x0, T, dt, columns):
        yield Trajectory(times, states, states[:, :n] @ plant.C.T,
                         states[:, n:] @ controller.C.T, dt=dt)


def simulate_closed_loop(plant: StateSpaceSystem, controller: StateSpaceSystem,
                         x0, T: float, dt: float) -> Trajectory:
    """Exact-step simulation of the plant/controller interconnection.

    The controller starts at rest: the stacked state evolves freely under
    :func:`closed_loop_matrix` from (x0, 0).  Records y = C x and u = G w
    alongside it.
    """
    blocks = list(closed_loop_blocks(closed_loop_matrix(plant, controller), plant, controller,
                                     x0, T, dt))
    return Trajectory(*(np.concatenate([getattr(b, name) for b in blocks])
                        for name in ("times", "states", "outputs", "inputs")), dt=dt)


def _block_powers(Phi: np.ndarray, rows: int) -> np.ndarray:
    """(rows, k, k) stack of Phi^0 .. Phi^(rows - 1), filled by doubling:
    rows [m, 2m) are rows [0, m) times Phi^m, and Phi^2m is Phi^m squared."""
    k = Phi.shape[0]
    powers = np.empty((rows, k, k))
    powers[0] = np.eye(k)
    filled, step = 1, Phi
    while filled < rows:
        take = min(filled, rows - filled)
        np.matmul(powers[:take], step, out=powers[filled:filled + take])
        filled += take
        step = step @ step
    return powers


class _RetainedModes:
    """Eigendecomposition V diag(lam) V^-1 of the retained block-diagonal
    A_s, kept per block dimension: ``idx`` holds each block's state
    positions within A_s, ``vec`` and ``inv`` its eigenvector matrix and
    that matrix's inverse.  The modal index runs over the dimension groups
    in turn, block by block within a group."""

    def __init__(self, A_s: np.ndarray, dims: np.ndarray):
        starts = np.cumsum(dims) - dims
        self.groups, lams = [], []
        for d in sorted(set(dims.tolist())):
            idx = starts[dims == d][:, None] + np.arange(d)
            blocks = A_s[idx[:, :, None], idx[:, None, :]]
            if d == 1:
                lam, vec = blocks[:, 0].astype(np.complex128), np.ones((len(idx), 1, 1))
            else:
                lam, vec = np.linalg.eig(blocks)
            vec = vec.astype(np.complex128)
            self.groups.append((idx, vec, np.linalg.inv(vec)))
            lams.append(lam.ravel())
        self.lam = np.concatenate(lams) if lams else np.zeros(0, dtype=np.complex128)

    def _apply(self, X: np.ndarray, to_modal: bool) -> np.ndarray:
        out = np.empty(X.shape, dtype=np.complex128)
        start = 0
        for idx, vec, inv in self.groups:
            modal = slice(start, start + idx.size)
            src, dst = (idx.ravel(), modal) if to_modal else (modal, idx.ravel())
            part = X[src].reshape(*idx.shape, -1)
            out[dst] = ((inv if to_modal else vec) @ part).reshape(idx.size, *X.shape[1:])
            start += idx.size
        return out

    def to_modal(self, X: np.ndarray) -> np.ndarray:
        """V^-1 X for X with one row per retained state."""
        return self._apply(X, True)

    def from_modal(self, Y: np.ndarray) -> np.ndarray:
        """V Y for Y with one row per retained eigenvalue."""
        return self._apply(Y, False)


class ObserverLoop:
    """The loop of a plant truncation closed by an observer controller over
    it, evaluated through its separation structure.

    With K~ = [K_u, 0] and L~ = [L_u; 0] the loop is, in the coordinates
    (x, e = x - w), e' = (A + L~C) e and x' = (A + BK~) x - BK~ e.  Split at
    the unstable prefix, the retained modes evolve alone, e_s' = A_s e_s; the
    core z = (x_u, e_u) obeys z' = A_c z + [0; L_u C_s] e_s with
    A_c = [[A_u + B_u K_u, -B_u K_u], [0, A_u + L_u C_u]]; and
    x_s' = A_s x_s + B_s K_u D z with D = [I, -I].  So the spectrum is
    spec(A_u + B_u K_u) u spec(A_u + L_u C_u) u twice the retained modes'.

    Two Sylvester equations, diagonal in the eigenvectors V of A_s, split
    the core from e_s (z = z^ + Y e_s, z^' = A_c z^) and x_s from z^
    (x_s = x^_s + X z^).  What is left, x^_s' = A_s x^_s + B_s K_u D Y e_s,
    is driven at A_s's own eigenvalues, so its solution is a divided
    difference of exponentials, t e^(lam t) where two eigenvalues are equal.
    Every state is then a fixed read-out of z^(t), stepped by powers of
    e^(A_c dt), plus one of a real basis of retained-mode exponentials,
    e^(a t), e^(a t) cos(b t) and e^(a t) sin(b t), and of the basis times t.
    """

    def __init__(self, A_c, B, C, K, L, modes: _RetainedModes, abscissa: float,
                 witness: complex):
        n, n_u = C.shape[1], K.shape[1]
        s_ = slice(n_u, n)
        self.abscissa, self.witness = abscissa, witness
        self.A_c, self.C, self.K_u, self.modes = A_c, C, K, modes
        k, lam = 2 * n_u, modes.lam
        # Y: (A_c - lam I) y = -[0; L_u C_s v];  X = V chi with
        # chi (A_c - lam I) = V^-1 B_s K_u D, one pair of solves per eigenvalue
        solve = (np.linalg.inv(A_c - lam[:, None, None] * np.eye(k)) if k and len(lam)
                 else np.zeros((len(lam), k, k)))
        self.V = modes.from_modal(np.eye(len(lam)))
        drive = np.zeros((len(lam), k), dtype=np.complex128)
        drive[:, n_u:] = (L @ (C[:, s_] @ self.V)).T
        self.Y = -(solve @ drive[:, :, None])[:, :, 0]
        bK = modes.to_modal(B[s_]) @ K
        self.chi = (np.hstack([bK, -bK])[:, None, :] @ solve)[:, 0, :]
        X = modes.from_modal(self.chi).real
        # H = V^-1 B_s K_u D Y V: the drive of x^_s by e_s, in modal coordinates
        self.H = bK @ (self.Y[:, :n_u] - self.Y[:, n_u:]).T
        self.equal = lam[:, None] == lam[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.divided = np.where(self.equal, 0.0, 1.0 / (lam[:, None] - lam[None, :]))
        self.real = np.flatnonzero(lam.imag == 0.0)
        self.pairs = np.flatnonzero(lam.imag > 0.0)
        # (x_u, x_s, w_u, w_s) from z^ = (x^_u, e^_u)
        eye = np.eye(n_u)
        self.core = np.vstack([np.hstack([eye, 0.0 * eye]), X, np.hstack([eye, -eye]), X])

    def _modal_weights(self, x0: np.ndarray):
        """(z^(0), weights) for the trajectory from (x0, 0): the rows of
        weights read the states off [basis, t basis]."""
        n, n_u = len(x0), self.K_u.shape[1]
        Y, lam = self.Y, self.modes.lam
        eta = self.modes.to_modal(x0[n_u:])              # e_s(0) = x_s(0) = x0_s
        z = np.concatenate([x0[:n_u], x0[:n_u]]) - (eta @ Y).real
        xi = eta - self.chi @ z                          # V^-1 x^_s(0)
        W = self.H * self.divided * eta
        g = self.V * (xi + W.sum(axis=1)) - self.modes.from_modal(W)
        h = self.V * ((self.H * self.equal) @ eta)
        weights = np.zeros((2 * len(lam), 2 * n), dtype=np.complex128)
        e, te = weights[:len(lam)], weights[len(lam):]
        e[:, :n_u] = Y[:, :n_u] * eta[:, None]
        e[:, n_u:n] = g.T
        e[:, n:n + n_u] = (Y[:, :n_u] - Y[:, n_u:]) * eta[:, None]
        e[:, n + n_u:] = (g - self.V * eta).T
        te[:, n_u:n] = te[:, n + n_u:] = h.T
        # a conjugate pair's terms add to 2 Re(e^(lam t) w), read off
        # e^(a t) cos(b t) and e^(a t) sin(b t) by 2 Re w and -2 Im w
        real = []
        for part in (e, te):
            paired = np.stack([2.0 * part[self.pairs].real, -2.0 * part[self.pairs].imag], axis=1)
            real += [part[self.real].real, paired.reshape(-1, 2 * n)]
        return z, np.vstack(real)

    def blocks(self, x0, T: float, dt: float):
        """The trajectory from (x0, 0), x0 real, as Trajectory blocks of
        max(1, CELLS // columns) consecutive grid rows, the blocks of
        :func:`closed_loop_blocks`.  A block's states are evaluated at all
        of its grid times at once, by one product of [basis, t basis, z^]
        with the read-outs; the first row is (x0, 0) itself."""
        x0 = np.asarray(x0, dtype=np.float64).reshape(self.C.shape[1])
        n, n_u = len(x0), self.K_u.shape[1]
        times, _ = _steps_grid(T, dt)
        z, weights = self._modal_weights(x0)
        weights = np.vstack([weights, self.core.T])
        rates, pairs = self.modes.lam[self.real].real, self.modes.lam[self.pairs]
        columns = 1 + 2 * n + self.K_u.shape[0] + self.C.shape[0]
        rows = min(max(1, CELLS // columns), len(times))
        Phi = matrix_exponential(self.A_c, dt)
        powers = _block_powers(Phi, rows)
        advance = powers[-1] @ Phi
        powers = powers.reshape(rows * len(z), len(z))
        s_r, width = len(rates), len(rates) + 2 * len(pairs)
        basis = np.empty((rows, 2 * width + len(z)))
        # e^(lam (t_0 + i dt)) as e^(lam t_0) e^(lam i dt): the second factor
        # is one table for every block
        steps = np.arange(rows) * dt
        real_steps, pair_steps = (np.exp(np.multiply.outer(steps, lam)) for lam in (rates, pairs))
        for start in range(0, len(times), rows):
            t = times[start:start + rows]
            used = basis[:len(t)]
            np.multiply(real_steps[:len(t)], np.exp(rates * t[0]), out=used[:, :s_r])
            used[:, s_r:width] = (pair_steps[:len(t)] * np.exp(pairs * t[0])).view(np.float64)
            np.multiply(used[:, :width], t[:, None], out=used[:, width:2 * width])
            used[:, 2 * width:] = (powers[:len(t) * len(z)] @ z).reshape(len(t), len(z))
            states = used @ weights
            if not start:
                states[0] = np.concatenate([x0, np.zeros(n)])  # exactly, not a sum of modes
            z = advance @ z
            yield Trajectory(t, states, states[:, :n] @ self.C.T,
                             states[:, n:n + n_u] @ self.K_u.T, dt=dt)


def observer_loop(sys: ModalSystem, design, controller):
    """The :class:`ObserverLoop` of ``design.truncated``, the first design.N
    blocks of ``sys``, closed by ``controller``, whose gains K_u, L_u act on
    the first design.k_u blocks (``design`` is the controller's fit
    ``synthesis.matches_observer_structure``); or None when its closed forms
    do not apply or would lose accuracy, and the caller steps the dense loop.

    That is when the fit has no k_u, when some data are complex, when a
    retained block's eigenvector condition number exceeds CONDITION_MAX, or
    when a retained eigenvalue lam lies within SEPARATION_RTOL (1 + |lam|) of
    an eigenvalue of A_c: the decoupling divides by that difference.
    """
    truncated, first, stop = design.truncated, design.k_u, design.N
    data = (truncated.A, truncated.B, truncated.C, controller.K_u, controller.L_u)
    if (first is None or any(np.any(M.imag) for M in data)
            or np.any(sys.conditions[first:stop] > CONDITION_MAX)):
        return None
    A, B, C, K, L = (np.ascontiguousarray(M.real) for M in data)
    n_u = K.shape[1]
    u = slice(0, n_u)
    BK = B[u] @ K
    fb, ob = A[u, u] + BK, A[u, u] + L @ C[:, u]
    A_c = np.block([[fb, -BK], [np.zeros((n_u, n_u)), ob]])
    modes = _RetainedModes(A[n_u:, n_u:], sys.dims[first:stop])
    lam = modes.lam
    core_eigs = np.concatenate([np.linalg.eigvals(fb), np.linalg.eigvals(ob)])
    if np.any(np.abs(lam[:, None] - core_eigs) <= SEPARATION_RTOL * (1.0 + np.abs(lam))[:, None]):
        return None
    spectrum = np.concatenate([core_eigs, *(sys.eigenvalues(i) for i in range(first, stop))])
    return ObserverLoop(A_c, B, C, K, L, modes, *_rightmost(spectrum))


def simulate_autonomous(A: np.ndarray, x0, T: float, dt: float) -> Trajectory:
    """Exact-step free evolution x' = A x, read out as y = x (one shared array)."""
    A = np.atleast_2d(np.asarray(A))
    times, states = (np.concatenate(part) for part in
                     zip(*_free_blocks(A, x0, T, dt, 1 + A.shape[0])))
    return Trajectory(times, states, states, np.zeros((len(times), 0)), dt=dt)


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
    """Negated least-squares slope of log ||x(t)|| past the transient window,
    up to the last nonzero state."""
    return fit_decay_rate(traj.times, traj.state_norms())


def fit_decay_rate(times: np.ndarray, norms: np.ndarray) -> float:
    """:func:`estimate_decay_rate` of a trajectory with these times and
    state norms.

    The fit window ends at the last positive norm, since a stable loop's
    states underflow to exact zeros on a long enough grid; its first
    DECAY_SKIP_FRACTION is the skipped transient.
    """
    positive = np.flatnonzero(norms > 0.0)
    end = positive[-1] + 1 if positive.size else 0
    start = int(math.floor(end * DECAY_SKIP_FRACTION))
    t = times[start:end]
    r = norms[start:end]
    keep = r > 0.0
    if np.sum(keep) < 2:
        raise DegenerateTrajectory("trajectory is zero after the skipped prefix")
    slope = np.polyfit(t[keep], np.log(r[keep]), 1)[0]
    return float(-slope)


class GainProbe(_Record):
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
