"""Observer-based controller synthesis for truncated modal plants.

The unstable block prefix gets a state feedback and an observer injection
from Riccati designs; retained stable modes are carried along in the
observer so the certificate can exploit the structure: the input-output
behavior of the resulting controller loop equals that of a reduced system
built from the unstable data alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    NotDetectable,
    NotHurwitz,
    NotStabilizable,
    RiccatiDivergence,
)
from .modal import ModalSystem, SpectrumPartition, StateSpaceSystem

# Singular values below RANK_RTOL * sigma_max count as zero in rank tests.
RANK_RTOL = 1e-10


def _as_2d(M: np.ndarray, rows: int = None, cols: int = None) -> np.ndarray:
    """Coerce to a 2-D complex array; -1 reshape cannot infer a size-0 axis."""
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim == 2:
        return M
    if rows is not None:
        return M.reshape(rows, -1) if M.size else M.reshape(rows, 0)
    return M.reshape(-1, cols) if M.size else M.reshape(0, cols)


@dataclass(frozen=True)
class BlockModeCheck:
    """Rank-test outcome for one modal block."""

    label: int
    dim: int
    unstable_eigenvalues: tuple
    stabilizable: bool
    detectable: bool
    stab_margin: float
    det_margin: float
    input_coefficient: float
    output_coefficient: float


@dataclass(frozen=True)
class ModeCheckReport:
    """Per-block and global stabilizability/detectability verdicts."""

    blocks: tuple
    stabilizable: bool
    detectable: bool
    offending_stabilizable: tuple
    offending_detectable: tuple


def _pencil_rank_margin(pencil: np.ndarray, dim: int, rank_rtol: float):
    """(full_rank, margin): margin is sigma_dim / sigma_1 (0 if sigma_1 = 0)."""
    sv = np.linalg.svd(pencil, compute_uv=False)
    if sv[0] == 0.0:
        return dim == 0, 0.0
    margin = float(sv[dim - 1] / sv[0]) if dim >= 1 else 1.0
    return margin > rank_rtol, margin


def check_stabilizable(sys: ModalSystem, rank_rtol: float = RANK_RTOL) -> ModeCheckReport:
    """Rank test [lambda I - A_k, B_k] at every unstable block eigenvalue.

    Block spectra are disjoint by construction, so per-block tests decide
    stabilizability of the whole resolved part.  The report also carries the
    dual (detectability) results, [lambda I - A_k; C_k], since both share the
    spectral work.
    """
    entries = []
    bad_stab, bad_det = [], []
    for blk in sys.blocks:
        eigs = blk.eigenvalues()
        unstable = [complex(ev) for ev in eigs if ev.real >= 0.0]
        stab_ok, det_ok = True, True
        stab_margin, det_margin = 1.0, 1.0
        d = blk.dim
        eye = np.eye(d, dtype=np.complex128)
        for ev in unstable:
            pencil_b = np.hstack([ev * eye - blk.block_matrix, blk.input_row])
            ok_b, m_b = _pencil_rank_margin(pencil_b, d, rank_rtol)
            stab_ok &= ok_b
            stab_margin = min(stab_margin, m_b)
            pencil_c = np.vstack([ev * eye - blk.block_matrix, blk.output_col])
            ok_c, m_c = _pencil_rank_margin(pencil_c, d, rank_rtol)
            det_ok &= ok_c
            det_margin = min(det_margin, m_c)
        if not stab_ok:
            bad_stab.append(blk.label)
        if not det_ok:
            bad_det.append(blk.label)
        entries.append(BlockModeCheck(
            label=blk.label,
            dim=d,
            unstable_eigenvalues=tuple(unstable),
            stabilizable=stab_ok,
            detectable=det_ok,
            stab_margin=stab_margin,
            det_margin=det_margin,
            input_coefficient=float(np.linalg.norm(blk.input_row)),
            output_coefficient=float(np.linalg.norm(blk.output_col)),
        ))
    return ModeCheckReport(
        blocks=tuple(entries),
        stabilizable=not bad_stab,
        detectable=not bad_det,
        offending_stabilizable=tuple(bad_stab),
        offending_detectable=tuple(bad_det),
    )


def _pbh_dense(A: np.ndarray, B: np.ndarray, rank_rtol: float) -> bool:
    """Dense stabilizability PBH test at every eigenvalue with Re >= 0."""
    n = A.shape[0]
    if n == 0:
        return True
    eye = np.eye(n, dtype=np.complex128)
    for ev in np.linalg.eigvals(A):
        if ev.real < 0.0:
            continue
        ok, _ = _pencil_rank_margin(np.hstack([ev * eye - A, B]), n, rank_rtol)
        if not ok:
            return False
    return True


def care_stabilizing_solution(A: np.ndarray, B: np.ndarray):
    """Stabilizing solution of A* P + P A - P B B* P + I = 0.

    Uses the ordered invariant subspace of the Hamiltonian
    [[A, -B B*], [-I, -A*]]: the basis of its stable subspace [X; Y] gives
    P = Y X^{-1}.  Returns ``(P, residual)`` with the algebraic residual
    norm.  Raises ``RiccatiDivergence`` when no stabilizing solution exists
    within tolerance.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.complex128))
    B = np.asarray(B, dtype=np.complex128)
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128), 0.0
    B = B.reshape(n, -1)
    H = np.block([
        [A, -B @ B.conj().T],
        [-np.eye(n, dtype=np.complex128), -A.conj().T],
    ])
    try:
        T, Z, sdim = scipy.linalg.schur(H, output="complex", sort=lambda z: z.real < 0.0)
    except Exception as exc:
        raise RiccatiDivergence(f"Schur decomposition failed: {exc}") from exc
    if sdim != n:
        raise RiccatiDivergence(
            f"Hamiltonian has {sdim} stable eigenvalues, expected {n} "
            "(imaginary-axis eigenvalues indicate an unstabilizable pair)")
    X = Z[:n, :n]
    Y = Z[n:, :n]
    try:
        P = np.linalg.solve(X.conj().T, Y.conj().T).conj().T
    except np.linalg.LinAlgError as exc:
        raise RiccatiDivergence(f"stable subspace is not a graph: {exc}") from exc
    P = 0.5 * (P + P.conj().T)
    residual = float(np.linalg.norm(
        A.conj().T @ P + P @ A - P @ (B @ B.conj().T) @ P + np.eye(n)))
    if not np.isfinite(residual) or residual > 1e-6 * (1.0 + float(np.linalg.norm(P))):
        raise RiccatiDivergence(f"Riccati residual {residual:.3e} too large")
    return P, residual


def design_feedback(A: np.ndarray, B: np.ndarray, rank_rtol: float = RANK_RTOL) -> np.ndarray:
    """State feedback K = -B* P making A + B K Hurwitz (unit-weight Riccati)."""
    A = np.atleast_2d(np.asarray(A, dtype=np.complex128))
    n = A.shape[0]
    B = _as_2d(B, rows=n)
    if not _pbh_dense(A, B, rank_rtol):
        raise NotStabilizable("an eigenvalue with Re >= 0 is unreachable from the input")
    P, _ = care_stabilizing_solution(A, B)
    K = -B.conj().T @ P
    if n:
        closed = np.max(np.linalg.eigvals(A + B @ K).real)
        if closed >= 0.0:
            raise RiccatiDivergence(f"designed feedback leaves abscissa {closed:g} >= 0")
    if np.max(np.abs(A.imag), initial=0.0) == 0.0 and np.max(np.abs(B.imag), initial=0.0) == 0.0:
        # Real data gives a real P; drop complex-Schur roundoff in the gain.
        K = K.real.astype(np.complex128)
    return K


def design_observer(A: np.ndarray, C: np.ndarray, rank_rtol: float = RANK_RTOL) -> np.ndarray:
    """Observer injection L making A + L C Hurwitz; dual of design_feedback."""
    A = np.atleast_2d(np.asarray(A, dtype=np.complex128))
    n = A.shape[0]
    C = _as_2d(C, cols=n)
    try:
        K_dual = design_feedback(A.conj().T, C.conj().T, rank_rtol)
    except NotStabilizable as exc:
        raise NotDetectable("an eigenvalue with Re >= 0 is invisible at the output") from exc
    return K_dual.conj().T


@dataclass(frozen=True)
class DesignInfo:
    """Rates and residuals recorded during synthesis."""

    feedback_rate: float
    observer_rate: float
    feedback_residual: float
    observer_residual: float


@dataclass(frozen=True)
class ObserverController:
    """Dynamic output-feedback controller w' = E w + F y, u = G w."""

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    K_u: np.ndarray
    L_u: np.ndarray
    n_unstable: int
    n_retained: int
    info: DesignInfo = None

    def as_state_space(self) -> StateSpaceSystem:
        return StateSpaceSystem(self.E, self.F, self.G)

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
    A, B, C = truncated.A, truncated.B, truncated.C
    A_u = A[:n_u, :n_u]
    B_u = B[:n_u, :]
    C_u = C[:, :n_u]

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
        K_u=K_u, L_u=L_u, n_unstable=n_u, n_retained=n - n_u, info=info)


def reduced_R_system(A_u: np.ndarray, B_u: np.ndarray, C_u: np.ndarray,
                     K_u: np.ndarray, L_u: np.ndarray) -> StateSpaceSystem:
    """Controller-loop system reduced to the unstable data.

    The loop of the observer controller with the truncated plant, driven by
    an output disturbance and read at the control signal, has exactly the
    input-output behavior of

        x' = [[A+BK, BK], [0, A+LC]] x + [0; -L] v,   u = [K, K] x,

    independent of how many stable modes the observer retains.
    """
    A_u = np.atleast_2d(np.asarray(A_u, dtype=np.complex128))
    n = A_u.shape[0]
    B_u = _as_2d(B_u, rows=n)
    C_u = _as_2d(C_u, cols=n)
    K_u = _as_2d(K_u, cols=n)
    L_u = _as_2d(L_u, rows=n)
    if K_u.shape[0] != B_u.shape[1]:
        raise DimensionMismatch("K rows must match input count")
    if L_u.shape[1] != C_u.shape[0]:
        raise DimensionMismatch("L columns must match output count")
    A_fb = A_u + B_u @ K_u
    A_ob = A_u + L_u @ C_u
    if n:
        for name, mat in (("A + BK", A_fb), ("A + LC", A_ob)):
            top = float(np.max(np.linalg.eigvals(mat).real))
            if top >= 0.0:
                raise NotHurwitz(f"{name} has spectral abscissa {top:g} >= 0")
    A = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    A[:n, :n] = A_fb
    A[:n, n:] = B_u @ K_u
    A[n:, n:] = A_ob
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
    from .modal import closed_loop_matrix

    A = closed_loop_matrix(truncated, controller)
    n, q = truncated.n, controller.n
    B = np.zeros((n + q, controller.m), dtype=np.complex128)
    B[n:, :] = controller.B
    C = np.zeros((controller.p, n + q), dtype=np.complex128)
    C[:, n:] = controller.C
    return StateSpaceSystem(A, B, C)


def matches_observer_structure(truncated: StateSpaceSystem, controller: ObserverController,
                               rtol: float = 1e-8) -> bool:
    """Verify the observer block identities entrywise against the plant.

    Checks E = A + [L;0] C + B [K,0], F = -[L;0], G = [K,0].  Only when these
    hold may the reduced controller-loop bound be used for an imported
    controller.
    """
    n = truncated.n
    n_u = controller.n_unstable
    if controller.n != n or n_u > n:
        return False
    ref = observer_controller(truncated, controller.K_u, controller.L_u, controller.info)
    scale = 1.0 + max(float(np.linalg.norm(truncated.A)), float(np.linalg.norm(ref.E)))
    return all(float(np.linalg.norm(mine - theirs)) <= rtol * bound for mine, theirs, bound in (
        (controller.E, ref.E, scale),
        (controller.F, ref.F, 1.0 + float(np.linalg.norm(ref.F))),
        (controller.G, ref.G, 1.0 + float(np.linalg.norm(ref.G)))))
