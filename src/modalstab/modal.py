"""Block-modal state space types and the operations that act on them.

A plant is stored as a finite list of small (1x1 .. 3x3) modal blocks plus a
``TailModel`` summarizing the infinitely many remaining modes by a decay
envelope and input/output norm bounds.  Everything downstream (truncation,
controller synthesis, small-gain certification) works on this representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    InfiniteUnstablePart,
    NotReachable,
    ResolventAtEigenvalue,
    UnstableModeDiscarded,
)

# Eigenvalue coincidence test: |lambda - eig| < RTOL * (1 + |lambda|).
EIG_COINCIDENCE_RTOL = 1e-9
# The matrix-sign iteration stops once its step predicts an iterate at
# relative accuracy SIGN_TOL, and gives up after SIGN_MAX_STEPS steps.
SIGN_TOL = 1e-14
SIGN_MAX_STEPS = 100


def _freeze_abc(obj, names: tuple) -> int:
    """Check and freeze the (A, B, C) fields ``names`` of a frozen dataclass.

    Each becomes a read-only complex 2-D matrix with finite entries; A must be
    square n x n, B have n rows and C n columns.  Returns n.
    """
    for name in names:
        arr = np.atleast_2d(np.asarray(getattr(obj, name), dtype=np.complex128))
        if arr.ndim != 2:
            raise DimensionMismatch(f"{name} must be a 2-D matrix, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError(f"{name} contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    A, B, C = (getattr(obj, name) for name in names)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch(f"{names[0]} must be square, got {A.shape}")
    if B.shape[0] != n:
        raise DimensionMismatch(f"{names[1]} has {B.shape[0]} rows, expected {n}")
    if C.shape[1] != n:
        raise DimensionMismatch(f"{names[2]} has {C.shape[1]} columns, expected {n}")
    return n


@dataclass(frozen=True)
class ModalBlock:
    """One finite-dimensional block of a modal system.

    Attributes
    ----------
    block_matrix : (d, d) complex
        Generator restricted to this block, d is tiny (1..3).
    input_row : (d, m) complex
        Modal input coefficients.
    output_col : (p, d) complex
        Modal output coefficients.
    label : int
        Mode index; unique within a system.
    """

    block_matrix: np.ndarray
    input_row: np.ndarray
    output_col: np.ndarray
    label: int

    def __post_init__(self):
        if _freeze_abc(self, ("block_matrix", "input_row", "output_col")) < 1:
            raise DimensionMismatch("block_matrix must be nonempty")

    @property
    def dim(self) -> int:
        return self.block_matrix.shape[0]

    @property
    def input_dim(self) -> int:
        return self.input_row.shape[1]

    @property
    def output_dim(self) -> int:
        return self.output_col.shape[0]

    def eigenvalues(self) -> np.ndarray:
        if self.dim == 1:
            return self.block_matrix[0, :1].copy()
        if self.dim == 2:
            # quadratic formula: exact ties in Re keep the block ordering
            # deterministic where a dense eigensolver would inject noise
            (a11, a12), (a21, a22) = self.block_matrix
            tr = a11 + a22
            root = np.sqrt((a11 - a22) ** 2 + 4.0 * a12 * a21)
            return np.array([(tr + root) / 2.0, (tr - root) / 2.0])
        return np.linalg.eigvals(self.block_matrix)

    def max_real(self) -> float:
        return float(np.max(self.eigenvalues().real))

    def min_singular_value(self) -> float:
        return float(np.linalg.svd(self.block_matrix, compute_uv=False)[-1])

    def eigenvector_condition(self) -> float:
        """2-norm condition number of the unit-column eigenvector matrix.

        Returns 1.0 for scalar blocks and +inf for defective blocks.
        """
        if self.dim == 1:
            return 1.0
        _, vecs = np.linalg.eig(self.block_matrix)
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        sv = np.linalg.svd(vecs, compute_uv=False)
        if sv[-1] <= 1e-300:
            return float("inf")
        return float(sv[0] / sv[-1])

    @cached_property
    def tail_terms(self) -> tuple:
        """What this block adds to a tail that absorbs it.

        ``(||input_row||^2, graph output bound^2, -max_real, eigenvector
        condition)``, computed once per block: every truncation order tried
        on a plant reuses them.
        """
        return (float(np.linalg.norm(self.input_row)) ** 2, _graph_output_bound(self) ** 2,
                -self.max_real(), self.eigenvector_condition())

    def _sort_key(self) -> tuple:
        eigs = self.eigenvalues()
        max_re = float(np.max(eigs.real))
        rightmost = eigs[np.isclose(eigs.real, max_re, rtol=0.0, atol=1e-12 * (1.0 + abs(max_re)))]
        min_im = float(np.min(np.abs(rightmost.imag)))
        return (-max_re, min_im, self.label)


@dataclass(frozen=True)
class TailModel:
    """Envelope data for the not-explicitly-resolved part of the spectrum.

    ``decay_alpha`` may be <= 0 at construction (e.g. an undamped wave tail);
    such tails are rejected with ``InfiniteUnstablePart`` as soon as a
    spectrum partition is requested.
    """

    decay_alpha: float
    input_norm: float
    output_graph_norm: float
    amplitude_a: float = 1.0

    def __post_init__(self):
        for name in ("decay_alpha", "input_norm", "output_graph_norm", "amplitude_a"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not np.isfinite(v):
                raise ValueError(f"TailModel.{name} must be finite, got {v}")
        if self.input_norm < 0 or self.output_graph_norm < 0:
            raise ValueError("TailModel norms must be nonnegative")
        if self.amplitude_a < 1.0:
            raise ValueError("TailModel.amplitude_a must be >= 1")


@dataclass(frozen=True)
class ModalSystem:
    """Ordered modal blocks plus a tail envelope.

    Blocks are stored in canonical order: descending real part of the
    rightmost eigenvalue, ties broken by ascending |Im|, then ascending
    label.  Any non-stable blocks therefore occupy a prefix, whose length
    ``n_unstable`` is derived from the blocks and cannot be set.
    """

    blocks: tuple
    tail: TailModel
    input_dim: int
    output_dim: int
    n_unstable: int = field(init=False)

    def __post_init__(self):
        keyed = sorted(((blk._sort_key(), blk) for blk in self.blocks), key=lambda kb: kb[0])
        blocks = tuple(blk for _, blk in keyed)
        object.__setattr__(self, "blocks", blocks)
        # a block is unstable when its rightmost eigenvalue has Re >= 0
        object.__setattr__(self, "n_unstable", sum(1 for key, _ in keyed if key[0] <= 0.0))
        labels = [blk.label for blk in blocks]
        if len(set(labels)) != len(labels):
            raise ValueError("block labels must be distinct")
        for blk in blocks:
            if blk.input_dim != self.input_dim:
                raise DimensionMismatch(
                    f"block {blk.label} has input dim {blk.input_dim}, system has {self.input_dim}")
            if blk.output_dim != self.output_dim:
                raise DimensionMismatch(
                    f"block {blk.label} has output dim {blk.output_dim}, system has {self.output_dim}")

    @cached_property
    def _input_suffix_sq(self) -> np.ndarray:
        """Entry N: squared tail input norm after keeping the first N blocks."""
        count = len(self.blocks)
        suffix_sq = np.zeros(count + 1)
        suffix_sq[count] = self.tail.input_norm ** 2
        for i in range(count - 1, -1, -1):
            suffix_sq[i] = suffix_sq[i + 1] + self.blocks[i].tail_terms[0]
        return suffix_sq


@dataclass(frozen=True)
class StateSpaceSystem:
    """Dense finite-dimensional strictly proper LTI system (A, B, C)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        _freeze_abc(self, ("A", "B", "C"))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class SpectrumPartition:
    """Canonical split of resolved blocks into unstable / retained stable.

    ``unstable_indices`` and ``retained_stable_indices`` hold block labels in
    canonical order; ``unstable_dim`` is the total state dimension of the
    unstable prefix; ``margin_omega`` < 0 bounds every stable eigenvalue.
    """

    unstable_indices: tuple
    retained_stable_indices: tuple
    tail: TailModel
    margin_omega: float
    unstable_dim: int


def partition_spectrum(sys: ModalSystem) -> SpectrumPartition:
    """Split the blocks after the unstable prefix of ``sys.n_unstable`` blocks.

    A block is unstable when any of its eigenvalues has Re >= 0.  The
    rightmost stable real part, the tail's -decay_alpha included, is
    reported as ``margin_omega``.

    Raises ``InfiniteUnstablePart`` when the tail itself is not strictly
    stable (decay_alpha <= 0), since then infinitely many non-decaying modes
    are implied.
    """
    tail = sys.tail
    if tail.decay_alpha <= 0.0:
        raise InfiniteUnstablePart(
            f"tail decay rate {tail.decay_alpha:g} <= 0 implies infinitely many non-decaying modes")

    unstable, stable = sys.blocks[:sys.n_unstable], sys.blocks[sys.n_unstable:]
    # canonical order puts the rightmost stable block first
    omega = max(-tail.decay_alpha, stable[0].max_real()) if stable else -tail.decay_alpha
    return SpectrumPartition(
        unstable_indices=tuple(blk.label for blk in unstable),
        retained_stable_indices=tuple(blk.label for blk in stable),
        tail=tail,
        margin_omega=omega,
        unstable_dim=sum(blk.dim for blk in unstable),
    )


def closed_loop_matrix(plant: StateSpaceSystem, controller: StateSpaceSystem) -> np.ndarray:
    """Generator of the output-feedback interconnection in direct coordinates.

    Plant (A,B,C) in feedback with controller (E,F,G): u = G w, controller is
    driven by y = C x.
    """
    if plant.m != controller.p:
        raise DimensionMismatch(f"controller emits {controller.p} inputs, plant expects {plant.m}")
    if plant.p != controller.m:
        raise DimensionMismatch(f"plant emits {plant.p} outputs, controller expects {controller.m}")
    n, q = plant.n, controller.n
    M = np.zeros((n + q, n + q), dtype=np.complex128)
    M[:n, :n] = plant.A
    M[:n, n:] = plant.B @ controller.C
    M[n:, :n] = controller.B @ plant.C
    M[n:, n:] = controller.A
    return M


def _matrix_sign(M: np.ndarray) -> np.ndarray:
    """sign(M) by the determinant-scaled Newton iteration.

    Z <- (Z / c + c Z^{-1}) / 2 with c = |det Z|^{1/n} (Roberts 1980; Kenney
    and Laub 1995).  Near convergence the step obeys
    ||Z_next - sign|| ~ ||Z^{-1}|| ||Z_next - Z||^2 / 2, so the iteration
    stops once that predicted error is below SIGN_TOL ||Z_next|| (Higham,
    *Functions of Matrices*, 2008, section 5.8).  Raises
    ``np.linalg.LinAlgError`` when an iterate is singular or not finite, or
    when SIGN_MAX_STEPS steps do not converge; an eigenvalue of M on the
    imaginary axis ends in one of these.
    """
    Z = np.asarray(M)
    n = Z.shape[0]
    with np.errstate(all="ignore"):
        for _ in range(SIGN_MAX_STEPS):
            Z_inv = np.linalg.inv(Z)
            _, logdet = np.linalg.slogdet(Z)
            c = np.exp(logdet / n)
            Z_next = 0.5 * (Z / c + c * Z_inv)
            step = np.linalg.norm(Z_next - Z, 1)
            if not np.isfinite(step):
                raise np.linalg.LinAlgError("matrix sign iteration is not finite")
            Z = Z_next
            if step * step <= SIGN_TOL * np.linalg.norm(Z, 1) / np.linalg.norm(Z_inv, 1):
                return Z
    raise np.linalg.LinAlgError(f"matrix sign iteration did not converge in {SIGN_MAX_STEPS} steps")


def close_loop(plant: StateSpaceSystem, controller: StateSpaceSystem, lam: complex) -> np.ndarray:
    """Closed-loop generator in shift-transformed coordinates.

    Uses the bounded output read-out C_lam = C (lam - A)^{-1} instead of C
    itself; the result is similar to :func:`closed_loop_matrix` via
    (x, w) -> (x, w + F C_lam x), so both share their spectrum.  ``lam`` must
    stay away from the plant spectrum.
    """
    if plant.m != controller.p or plant.p != controller.m:
        raise DimensionMismatch("plant/controller input-output dimensions do not match")
    lam = complex(lam)
    eigs = np.linalg.eigvals(plant.A)
    tol = EIG_COINCIDENCE_RTOL * (1.0 + abs(lam))
    if eigs.size and np.min(np.abs(eigs - lam)) < tol:
        raise ResolventAtEigenvalue(f"lambda = {lam:g} is too close to a plant eigenvalue")
    n, q = plant.n, controller.n
    A, B, C = plant.A, plant.B, plant.C
    E, F, G = controller.A, controller.B, controller.C
    C_lam = C @ np.linalg.inv(lam * np.eye(n, dtype=np.complex128) - A)
    FC_lam = F @ C_lam
    M = np.zeros((n + q, n + q), dtype=np.complex128)
    M[:n, :n] = A - B @ G @ FC_lam
    M[:n, n:] = B @ G
    M[n:, :n] = lam * FC_lam - E @ FC_lam - FC_lam @ B @ G @ FC_lam
    M[n:, n:] = E + FC_lam @ B @ G
    return M


def _graph_output_bound(blk: ModalBlock) -> float:
    """Per-block contribution to the domain-graph-norm output bound.

    For state x in the block, |C x| <= ||C|| ||x|| and (1 + sigma_min) ||x||
    <= ||x|| + ||A x||, so the block contributes ||C|| / (1 + sigma_min).
    """
    c_norm = float(np.linalg.norm(blk.output_col, 2))
    return c_norm / (1.0 + blk.min_singular_value())


def truncate_tail(sys: ModalSystem, N: int) -> TailModel:
    """The tail left after keeping the first N blocks: ``truncate(sys, N)[1]``.

    Costs scalar work only, so each candidate truncation order is cheap.
    Raises ``UnstableModeDiscarded`` if N < ``sys.n_unstable``.
    """
    N = int(N)
    if N < 0 or N > len(sys.blocks):
        raise ValueError(f"N must lie in [0, {len(sys.blocks)}], got {N}")
    if N < sys.n_unstable:
        blk = sys.blocks[N]
        raise UnstableModeDiscarded(
            f"block {blk.label} has eigenvalue real part {blk.max_real():g} >= 0")
    tail = sys.tail
    input_sq = tail.input_norm ** 2
    output_sq = tail.output_graph_norm ** 2
    alpha = tail.decay_alpha
    amp = tail.amplitude_a
    for blk in sys.blocks[N:]:
        blk_input_sq, blk_output_sq, blk_decay, blk_condition = blk.tail_terms
        input_sq += blk_input_sq
        output_sq += blk_output_sq
        alpha = min(alpha, blk_decay)
        amp = max(amp, blk_condition)
    return TailModel(
        decay_alpha=alpha,
        input_norm=float(np.sqrt(input_sq)),
        output_graph_norm=float(np.sqrt(output_sq)),
        amplitude_a=amp if np.isfinite(amp) else 1e308,
    )


def truncate(sys: ModalSystem, N: int):
    """Keep the first N blocks dense; absorb the rest into the tail.

    Returns ``(StateSpaceSystem, TailModel)``; the tail is
    ``truncate_tail(sys, N)``, whose checks apply.
    """
    tail = truncate_tail(sys, N)
    kept = sys.blocks[:int(N)]
    n = sum(blk.dim for blk in kept)
    A = np.zeros((n, n), dtype=np.complex128)
    B = np.zeros((n, sys.input_dim), dtype=np.complex128)
    C = np.zeros((sys.output_dim, n), dtype=np.complex128)
    pos = 0
    for blk in kept:
        d = blk.dim
        A[pos:pos + d, pos:pos + d] = blk.block_matrix
        B[pos:pos + d, :] = blk.input_row
        C[:, pos:pos + d] = blk.output_col
        pos += d
    return StateSpaceSystem(A, B, C), tail


def select_truncation(sys: ModalSystem, epsilon: float) -> int:
    """Smallest admissible N with post-truncation tail input norm < epsilon.

    N never drops below ``sys.n_unstable``.  Raises
    ``NotReachable`` when keeping every resolved block still leaves
    ||B_tail|| >= epsilon.
    """
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon:g}")
    count = len(sys.blocks)
    suffix_sq = sys._input_suffix_sq
    for N in range(sys.n_unstable, count + 1):
        if np.sqrt(suffix_sq[N]) < epsilon:
            return N
    raise NotReachable(
        f"tail input norm {np.sqrt(suffix_sq[count]):.6g} >= epsilon {epsilon:.6g} "
        f"even with all {count} blocks retained; increase the resolution N_max")
