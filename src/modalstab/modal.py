"""Block-modal state space types and the operations that act on them.

A plant is stored as a finite list of small (1x1 .. 3x3) modal blocks plus a
``TailModel`` summarizing the infinitely many remaining modes by a decay
envelope and input/output norm bounds.  Everything downstream (truncation,
controller synthesis, small-gain certification) works on this representation.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(value, dtype=np.complex128))
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


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
        object.__setattr__(self, "block_matrix", _as_matrix(self.block_matrix, "block_matrix"))
        object.__setattr__(self, "input_row", _as_matrix(self.input_row, "input_row"))
        object.__setattr__(self, "output_col", _as_matrix(self.output_col, "output_col"))
        d = self.block_matrix.shape[0]
        if self.block_matrix.shape != (d, d) or d < 1:
            raise DimensionMismatch(f"block_matrix must be square and nonempty, got {self.block_matrix.shape}")
        if self.input_row.shape[0] != d:
            raise DimensionMismatch(f"input_row has {self.input_row.shape[0]} rows, expected {d}")
        if self.output_col.shape[1] != d:
            raise DimensionMismatch(f"output_col has {self.output_col.shape[1]} columns, expected {d}")

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
    label.  Any non-stable blocks therefore occupy a prefix.
    """

    blocks: tuple
    tail: TailModel
    input_dim: int
    output_dim: int

    def __post_init__(self):
        blocks = tuple(sorted(self.blocks, key=lambda blk: blk._sort_key()))
        object.__setattr__(self, "blocks", blocks)
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
    """Dense finite-dimensional LTI system (A, B, C, D)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray = None

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        # 1-D convenience: a length-n B is a single input column, a length-n
        # C a single output row.
        B = np.asarray(self.B, dtype=np.complex128)
        if B.ndim == 1 and n > 0:
            B = B.reshape(n, -1)
        B = _as_matrix(B, "B")
        C = np.asarray(self.C, dtype=np.complex128)
        if C.ndim == 1 and n > 0:
            C = C.reshape(-1, n)
        C = _as_matrix(C, "C")
        if B.shape[0] != n:
            raise DimensionMismatch(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise DimensionMismatch(f"C has {C.shape[1]} columns, expected {n}")
        if self.D is None:
            D = np.zeros((C.shape[0], B.shape[1]), dtype=np.complex128)
        else:
            D = _as_matrix(self.D, "D")
            if D.shape != (C.shape[0], B.shape[1]):
                raise DimensionMismatch(
                    f"D must have shape {(C.shape[0], B.shape[1])}, got {D.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

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


def partition_spectrum(sys: ModalSystem, margin: float = None) -> SpectrumPartition:
    """Classify blocks by the sign of their rightmost eigenvalue real part.

    A block is unstable when any of its eigenvalues has Re >= 0.  ``margin``
    (default: -tail.decay_alpha) must dominate the tail; the achieved stable
    margin is reported as ``margin_omega``.

    Raises ``InfiniteUnstablePart`` when the tail itself is not strictly
    stable (decay_alpha <= 0), since then infinitely many non-decaying modes
    are implied.
    """
    tail = sys.tail
    if tail.decay_alpha <= 0.0:
        raise InfiniteUnstablePart(
            f"tail decay rate {tail.decay_alpha:g} <= 0 implies infinitely many non-decaying modes")
    if margin is None:
        margin = -tail.decay_alpha
    margin = float(margin)
    if margin >= 0.0:
        raise ValueError(f"margin must be negative, got {margin:g}")
    if -tail.decay_alpha > margin:
        raise ValueError(
            f"tail eigenvalues reach Re = {-tail.decay_alpha:g} > margin {margin:g}")

    unstable, stable = [], []
    stable_res = [-tail.decay_alpha]
    for blk in sys.blocks:
        top = blk.max_real()
        if top >= 0.0:
            unstable.append(blk)
        else:
            stable.append(blk)
            stable_res.append(top)
    # Canonical ordering puts unstable blocks first; paranoid double-check.
    if any(blk.max_real() >= 0.0 for blk in sys.blocks[len(unstable):]):
        raise AssertionError("canonical block order violated")
    omega = float(max(stable_res))
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
    driven by y = C x.  Feedthrough terms are not supported.
    """
    if plant.m != controller.p:
        raise DimensionMismatch(f"controller emits {controller.p} inputs, plant expects {plant.m}")
    if plant.p != controller.m:
        raise DimensionMismatch(f"plant emits {plant.p} outputs, controller expects {controller.m}")
    if np.any(plant.D != 0) or np.any(controller.D != 0):
        raise ValueError("closed loop requires strictly proper plant and controller")
    n, q = plant.n, controller.n
    M = np.zeros((n + q, n + q), dtype=np.complex128)
    M[:n, :n] = plant.A
    M[:n, n:] = plant.B @ controller.C
    M[n:, :n] = controller.B @ plant.C
    M[n:, n:] = controller.A
    return M


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
    Raises ``UnstableModeDiscarded`` if any discarded block has an eigenvalue
    with Re >= 0.
    """
    N = int(N)
    if N < 0 or N > len(sys.blocks):
        raise ValueError(f"N must lie in [0, {len(sys.blocks)}], got {N}")
    tail = sys.tail
    input_sq = tail.input_norm ** 2
    output_sq = tail.output_graph_norm ** 2
    alpha = tail.decay_alpha
    amp = tail.amplitude_a
    for blk in sys.blocks[N:]:
        blk_input_sq, blk_output_sq, blk_decay, blk_condition = blk.tail_terms
        if blk_decay <= 0.0:
            raise UnstableModeDiscarded(
                f"block {blk.label} has eigenvalue real part {blk.max_real():g} >= 0")
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

    N never drops below the number of unstable blocks.  Raises
    ``NotReachable`` when keeping every resolved block still leaves
    ||B_tail|| >= epsilon.
    """
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon:g}")
    n_unstable = sum(1 for blk in sys.blocks if blk.tail_terms[2] <= 0.0)
    count = len(sys.blocks)
    suffix_sq = sys._input_suffix_sq
    for N in range(n_unstable, count + 1):
        if np.sqrt(suffix_sq[N]) < epsilon:
            return N
    raise NotReachable(
        f"tail input norm {np.sqrt(suffix_sq[count]):.6g} >= epsilon {epsilon:.6g} "
        f"even with all {count} blocks retained; increase the resolution N_max")
