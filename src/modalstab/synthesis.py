"""Observer-based controller synthesis for truncated modal plants.

The unstable block prefix gets a state feedback and an observer injection
from Riccati designs; retained stable modes are carried along in the
observer so the certificate can exploit the structure: the input-output
behavior of the resulting controller loop equals that of a reduced system
built from the unstable data alone.
"""

from __future__ import annotations


import numpy as np

from .errors import (
    DimensionMismatch,
    NotDetectable,
    NotStabilizable,
    RiccatiDivergence,
)
from .modal import (ModalSystem, SpectrumPartition, StateSpaceSystem, _matrix_sign, _Record,
                    closed_loop_matrix, leading_blocks, truncate)

# A PBH pencil [lambda I - A, X] is rank deficient when sigma_min is at most
# RANK_RTOL * max(||A||_F, ||X||_F), over the whole unstable prefix.
RANK_RTOL = 1e-10
# Relative entrywise mismatch up to which a controller has the observer structure.
STRUCTURE_RTOL = 1e-8


class ModeCheckReport(_Record):
    """PBH margins of the unstable blocks, in block order, the labels of
    those that fail, and the dense unstable prefix (A_u, B_u, C_u) tested."""

    prefix: StateSpaceSystem
    stab_margins: tuple
    det_margins: tuple
    offending_stabilizable: tuple
    offending_detectable: tuple

    @property
    def stabilizable(self) -> bool:
        return not self.offending_stabilizable

    @property
    def detectable(self) -> bool:
        return not self.offending_detectable


def _pbh_margin(A: np.ndarray, X: np.ndarray, eigenvalues) -> float:
    """Least sigma_min([lambda I - A, X]) over ``eigenvalues``, relative to
    max(||A||_F, ||X||_F); 1 when there are none, the most it can be, since
    sigma_min <= ||X||_2 at an eigenvalue of A.  This is the Hautus (PBH)
    test: (A, X) is stabilizable at lambda iff the pencil has full row rank."""
    if not eigenvalues:
        return 1.0
    scale = max(float(np.linalg.norm(A)), float(np.linalg.norm(X)))
    if scale == 0.0:
        return 0.0
    eye = np.eye(A.shape[0])
    return min(float(np.linalg.svd(np.hstack([ev * eye - A, X]), compute_uv=False)[-1])
               for ev in eigenvalues) / scale


def check_stabilizable(sys: ModalSystem) -> ModeCheckReport:
    """PBH tests of the dense unstable prefix (A_u, B_u, C_u) at each unstable
    block's eigenvalues with Re >= 0: the tests ``design_feedback`` and
    ``design_observer`` apply.  A block is stabilizable when its stab_margin,
    ``_pbh_margin(A_u, B_u, ...)``, exceeds RANK_RTOL; detectable when the
    det_margin of (A_u*, C_u*) at conj(lambda) does, the conjugate transpose
    of [lambda I - A_u; C_u] with the same singular values.  Stable blocks
    have nothing to test and get no margin; the report carries the prefix so
    that the design needs no second truncation.
    """
    n_u = sys.n_unstable
    prefix, _tail = truncate(sys, n_u)
    A, B, A_dual, C_dual = prefix.A, prefix.B, prefix.A.conj().T, prefix.C.conj().T
    stab, det = [], []
    for i in range(n_u):
        unstable = [ev for ev in sys.eigenvalues(i).tolist() if ev.real >= 0.0]
        stab.append(_pbh_margin(A, B, unstable))
        det.append(_pbh_margin(A_dual, C_dual, [ev.conjugate() for ev in unstable]))
    labels = sys.labels[:n_u].tolist()
    return ModeCheckReport(
        prefix=prefix,
        stab_margins=tuple(stab),
        det_margins=tuple(det),
        offending_stabilizable=tuple(l for l, m in zip(labels, stab) if not m > RANK_RTOL),
        offending_detectable=tuple(l for l, m in zip(labels, det) if not m > RANK_RTOL),
    )


def care_stabilizing_solution(A: np.ndarray, B: np.ndarray):
    """Stabilizing solution of A* P + P A - P B B* P + I = 0.

    Takes W = sign(H) of the Hamiltonian H = [[A, -B B*], [-I, -A*]].  Its
    stable invariant subspace is the range of [I; P], on which W = -I, so P
    solves the least-squares system [W12; W22 + I] P = -[W11 + I; W21]
    (Roberts 1980); H has (2n - Re tr W) / 2 stable eigenvalues.  Returns
    ``(P, residual)`` with the algebraic residual norm.  Raises
    ``RiccatiDivergence`` when no stabilizing solution exists within
    tolerance.
    """
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128), 0.0
    eye = np.eye(n, dtype=np.complex128)
    H = np.block([
        [A, -B @ B.conj().T],
        [-eye, -A.conj().T],
    ])
    try:
        W = _matrix_sign(H)
    except np.linalg.LinAlgError as exc:
        raise RiccatiDivergence(f"Hamiltonian sign iteration failed: {exc}") from exc
    sdim = round((2 * n - float(np.trace(W).real)) / 2.0)
    if sdim != n:
        raise RiccatiDivergence(
            f"Hamiltonian has {sdim} stable eigenvalues, expected {n} "
            "(imaginary-axis eigenvalues indicate an unstabilizable pair)")
    lhs = np.vstack([W[:n, n:], W[n:, n:] + eye])
    rhs = -np.vstack([W[:n, :n] + eye, W[n:, :n]])
    P, _res, rank, _sv = np.linalg.lstsq(lhs, rhs, rcond=None)
    if rank < n:
        raise RiccatiDivergence("stable subspace is not a graph")
    P = 0.5 * (P + P.conj().T)
    residual = float(np.linalg.norm(
        A.conj().T @ P + P @ A - P @ (B @ B.conj().T) @ P + eye))
    if not np.isfinite(residual) or residual > 1e-6 * (1.0 + float(np.linalg.norm(P))):
        raise RiccatiDivergence(f"Riccati residual {residual:.3e} too large")
    return P, residual


def design_feedback(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """State feedback K = -B* P making A + B K Hurwitz (unit-weight Riccati)."""
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    B = np.asarray(B, dtype=np.complex128)
    if _pbh_margin(A, B, [ev for ev in np.linalg.eigvals(A) if ev.real >= 0.0]) <= RANK_RTOL:
        raise NotStabilizable("an eigenvalue with Re >= 0 is unreachable from the input")
    P, _ = care_stabilizing_solution(A, B)
    K = -B.conj().T @ P
    if n:
        closed = np.max(np.linalg.eigvals(A + B @ K).real)
        if closed >= 0.0:
            raise RiccatiDivergence(f"designed feedback leaves abscissa {closed:g} >= 0")
    if np.max(np.abs(A.imag), initial=0.0) == 0.0 and np.max(np.abs(B.imag), initial=0.0) == 0.0:
        # Real data has a real P; the gain keeps no imaginary rounding.
        K = K.real.astype(np.complex128)
    return K


def design_observer(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Observer injection L making A + L C Hurwitz; dual of design_feedback."""
    A = np.asarray(A, dtype=np.complex128)
    C = np.asarray(C, dtype=np.complex128)
    try:
        K_dual = design_feedback(A.conj().T, C.conj().T)
    except NotStabilizable as exc:
        raise NotDetectable("an eigenvalue with Re >= 0 is invisible at the output") from exc
    return K_dual.conj().T


class DesignInfo(_Record):
    """Rates and residuals recorded during synthesis."""

    feedback_rate: float
    observer_rate: float
    feedback_residual: float
    observer_residual: float


class ObserverController(_Record):
    """Dynamic output-feedback controller w' = E w + F y, u = G w, whose gains
    on the unstable prefix are read off G = [K_u, 0] and F = -[L_u; 0]."""

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    n_unstable: int
    n_retained: int
    info: DesignInfo

    def as_state_space(self) -> StateSpaceSystem:
        return StateSpaceSystem(self.E, self.F, self.G)

    @property
    def K_u(self) -> np.ndarray:
        return self.G[:, :self.n_unstable]

    @property
    def L_u(self) -> np.ndarray:
        return -self.F[:self.n_unstable]

    @property
    def n(self) -> int:
        return int(self.n_unstable + self.n_retained)


def synthesize_controller(partition: SpectrumPartition,
                          truncated: StateSpaceSystem) -> ObserverController:
    """Observer-based controller over the truncated plant.

    The feedback acts on the unstable prefix only, the observer estimates
    the whole truncated state (see ``observer_controller``).  The gains
    depend on the prefix alone: a controller synthesized over the prefix
    serves every finer truncation through ``observer_controller``.
    """
    n = truncated.n
    n_u = int(partition.unstable_dim)
    if n_u > n:
        raise DimensionMismatch(f"unstable dimension {n_u} exceeds truncated dimension {n}")
    A_u, B_u, C_u = truncated.A[:n_u, :n_u], truncated.B[:n_u, :], truncated.C[:, :n_u]

    K_u = design_feedback(A_u, B_u)
    L_u = design_observer(A_u, C_u)

    if n_u:
        fb_rate = -float(np.max(np.linalg.eigvals(A_u + B_u @ K_u).real))
        ob_rate = -float(np.max(np.linalg.eigvals(A_u + L_u @ C_u).real))
        _, fb_res = care_stabilizing_solution(A_u, B_u)
        _, ob_res = care_stabilizing_solution(A_u.conj().T, C_u.conj().T)
    else:
        fb_rate = ob_rate = np.inf
        fb_res = ob_res = 0.0
    return observer_controller(truncated, K_u, L_u, DesignInfo(fb_rate, ob_rate, fb_res, ob_res))


def observer_controller(truncated: StateSpaceSystem, K_u: np.ndarray, L_u: np.ndarray,
                        info: DesignInfo) -> ObserverController:
    """The observer controller with prefix gains K_u, L_u over ``truncated``:

        E = A + [L; 0] C + B [K, 0],   F = -[L; 0],   G = [K, 0].
    """
    n = truncated.n
    n_u = K_u.shape[1]
    K_full = np.zeros((truncated.m, n), dtype=np.complex128)
    K_full[:, :n_u] = K_u
    L_full = np.zeros((n, truncated.p), dtype=np.complex128)
    L_full[:n_u, :] = L_u
    return ObserverController(
        E=truncated.A + L_full @ truncated.C + truncated.B @ K_full, F=-L_full, G=K_full,
        n_unstable=n_u, n_retained=n - n_u, info=info)


def reduced_R_system(A_u: np.ndarray, B_u: np.ndarray, C_u: np.ndarray,
                     K_u: np.ndarray, L_u: np.ndarray) -> StateSpaceSystem:
    """Controller-loop system reduced to the unstable data.

    The loop of the observer controller with the truncated plant, driven by
    an output disturbance and read at the control signal, has exactly the
    input-output behavior of

        x' = [[A+BK, BK], [0, A+LC]] x + [0; -L] v,   u = [K, K] x,

    independent of how many stable modes the observer retains.  Its A is
    block upper triangular, so ``gains.loop_bounds`` decides whether the loop
    is stable; this only builds it.
    """
    A_u, B_u, C_u, K_u, L_u = (np.asarray(M, dtype=np.complex128)
                               for M in (A_u, B_u, C_u, K_u, L_u))
    n = A_u.shape[0]
    if K_u.shape[0] != B_u.shape[1]:
        raise DimensionMismatch("K rows must match input count")
    if L_u.shape[1] != C_u.shape[0]:
        raise DimensionMismatch("L columns must match output count")
    A = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    A[:n, :n] = A_u + B_u @ K_u
    A[:n, n:] = B_u @ K_u
    A[n:, n:] = A_u + L_u @ C_u
    B = np.zeros((2 * n, L_u.shape[1]), dtype=np.complex128)
    B[n:, :] = -L_u
    C = np.hstack([K_u, K_u])
    return StateSpaceSystem(A, B, C)


def loop_system(truncated: StateSpaceSystem, controller: StateSpaceSystem) -> StateSpaceSystem:
    """Full controller loop: output disturbance in, control signal out.

    State [x; w] of plant and controller under u = G w, controller driven by
    C x + v.  Valid for arbitrary controllers; the bound computed from it is
    sound but much more conservative than the reduced form.
    """
    A = closed_loop_matrix(truncated, controller)
    n, q = truncated.n, controller.n
    B = np.zeros((n + q, controller.m), dtype=np.complex128)
    B[n:, :] = controller.B
    C = np.zeros((controller.p, n + q), dtype=np.complex128)
    C[:, n:] = controller.C
    return StateSpaceSystem(A, B, C)


class DesignTruncation(_Record):
    """A controller's first N plant blocks, dense, its gains on the first k_u (or None)."""

    N: int
    truncated: StateSpaceSystem
    k_u: int


def matches_observer_structure(sys: ModalSystem, controller: ObserverController):
    """The one fit of ``controller`` to ``sys``: the :class:`DesignTruncation`
    of the first N blocks, whose dimension and inputs and outputs must be the
    controller's.  Its k_u is set only when the controller is their observer
    controller, so that its loop reduces to the prefix's data
    (``reduced_R_system``): its ``n_unstable`` is that of the first k_u >=
    ``sys.n_unstable`` blocks, so the prefix ends on a block boundary, is
    invariant and leaves no non-decaying block outside, and E = A + [L;0] C
    + B [K,0], F = -[L;0] and G = [K,0] hold entrywise within STRUCTURE_RTOL.
    """
    N = leading_blocks(sys, controller.n)
    if N is None:
        raise DimensionMismatch(
            f"controller dimension {controller.n} matches no truncation of the plant "
            f"(resolved block dimensions reach {int(sys.dims.sum())})")
    truncated, _tail = truncate(sys, N)
    consumes, drives = controller.F.shape[1], controller.G.shape[0]
    if consumes != truncated.p:
        raise DimensionMismatch(
            f"controller consumes {consumes} plant outputs, plant emits {truncated.p}")
    if drives != truncated.m:
        raise DimensionMismatch(
            f"controller drives {drives} plant inputs, plant accepts {truncated.m}")
    k_u = leading_blocks(sys, controller.n_unstable)
    if k_u is None or k_u < sys.n_unstable:
        return DesignTruncation(N, truncated, None)
    ref = observer_controller(truncated, controller.K_u, controller.L_u, controller.info)
    scale = 1.0 + max(float(np.linalg.norm(truncated.A)), float(np.linalg.norm(ref.E)))
    pairs = ((controller.E, ref.E, scale),
             (controller.F, ref.F, 1.0 + float(np.linalg.norm(ref.F))),
             (controller.G, ref.G, 1.0 + float(np.linalg.norm(ref.G))))
    matches = all(float(np.linalg.norm(mine - theirs)) <= STRUCTURE_RTOL * bound
                  for mine, theirs, bound in pairs)
    return DesignTruncation(N, truncated, k_u if matches else None)
