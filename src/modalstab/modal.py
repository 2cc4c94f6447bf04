"""Block-modal state space types and the operations that act on them.

A plant is stored as a finite set of small (1x1 .. 3x3) modal blocks plus a
``TailModel`` summarizing the infinitely many remaining modes by a decay
envelope and input/output norm bounds.  ``ModalSystem`` keeps the blocks as
a table: one ``BlockStack`` per block dimension d holds the (k, d, d),
(k, d, m) and (k, p, d) arrays of its k blocks, and one batched pass per
stack gives every block's eigenvalues, canonical sort key, coefficient norms
and the terms it adds to a tail that absorbs it.  Everything downstream
(truncation, controller synthesis, small-gain certification) reads this
table, so a plant costs a fixed number of numpy calls, not a few per mode.

The package's value types are ``_Record``s, frozen records whose fields are read once per
class from its annotations: importing the package generates no code as ``dataclasses`` does.
"""

from __future__ import annotations

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


class _Record:
    """Frozen value type whose fields are its class's annotated names (an assigned
    one is the default), read once per class with no code generated.  A record runs
    ``__post_init__`` once built, compares and hashes by its fields; ``replace`` copies it."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields, values = self._fields, self.__dict__    # a frozen record is set through __dict__
        values.update(self._defaults)
        values.update(zip(fields, args), **kwargs)
        if (len(args) > len(fields) or len(values) < len(fields)
                or kwargs and not kwargs.keys() <= set(fields[len(args):])):
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}, "
                            f"got {len(args)} by position and {sorted(kwargs)} by name")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):    # __dict__ holds the fields and nothing else
        return other.__class__ is self.__class__ and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(map(self.__dict__.__getitem__, self._fields)))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        return type(self)(**dict(self.__dict__, **changes))


def _freeze_abc(obj, names: tuple, stacked: bool = False) -> int:
    """Check and freeze the (A, B, C) fields ``names`` of a frozen record.

    Each becomes a read-only complex 2-D matrix with finite entries, or with
    ``stacked`` a (k, ., .) stack of k such matrices; A must be square n x n,
    B have n rows and C n columns, and stacks must hold equally many.
    Returns n.
    """
    ndim = 3 if stacked else 2
    for name in names:
        arr = np.asarray(getattr(obj, name), dtype=np.complex128)
        if not stacked:
            arr = np.atleast_2d(arr)
        if arr.ndim != ndim:
            raise DimensionMismatch(f"{name} must have {ndim} axes, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError(f"{name} contains non-finite entries")
        arr.setflags(write=False)
        obj.__dict__[name] = arr
    A, B, C = (getattr(obj, name) for name in names)
    n = A.shape[-1]
    if A.shape[-2] != n:
        raise DimensionMismatch(f"{names[0]} must be square, got {A.shape}")
    if B.shape[-2] != n:
        raise DimensionMismatch(f"{names[1]} has {B.shape[-2]} rows, expected {n}")
    if C.shape[-1] != n:
        raise DimensionMismatch(f"{names[2]} has {C.shape[-1]} columns, expected {n}")
    if stacked and not len(A) == len(B) == len(C):
        raise DimensionMismatch(f"stacks hold {len(A)}, {len(B)} and {len(C)} blocks")
    return n


def _eigenvalues(A: np.ndarray) -> np.ndarray:
    """(k, d) eigenvalues of a (k, d, d) stack of blocks.

    Read off for d = 1; the quadratic formula for d = 2, so that exact ties
    in Re keep the block order deterministic where a dense eigensolver would
    inject noise; LAPACK for d = 3.
    """
    d = A.shape[-1]
    if d == 1:
        return A[:, 0, :].copy()
    if d == 2:
        a11, a12, a21, a22 = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
        tr, diff = a11 + a22, a11 - a22
        root = np.sqrt(diff ** 2 + 4.0 * a12 * a21)
        # 2^e near max(|a11 - a22|, sqrt|a12 a21|): where it is so far from 1
        # that the squares may leave the normal range, the discriminant's terms
        # are scaled by 2^-e (a finite power); the scaling is exact, and other
        # blocks keep their bits
        e = np.frexp(np.maximum(np.abs(diff), np.sqrt(np.abs(a12)) * np.sqrt(np.abs(a21))))[1]
        far = np.flatnonzero(np.abs(e) > 460)
        if far.size:
            s = np.ldexp(1.0, np.clip(-e[far], -1000, 1000))
            root[far] = np.sqrt((diff[far] * s) ** 2
                                + 4.0 * (a12[far] * s) * (a21[far] * s)) / s
        return np.stack([(tr + root) / 2.0, (tr - root) / 2.0], axis=1)
    return np.linalg.eigvals(A)


def _frobenius(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, summed as ``np.linalg.norm`` does."""
    flat = M.reshape(len(M), -1)
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def _squares(x: np.ndarray) -> np.ndarray:
    """x ** 2 by Python's float power (C ``pow``), not numpy's x * x: the two
    differ in the last bit about once in a thousand values."""
    return np.array([v ** 2 for v in x.tolist()])


def _block_columns(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> tuple:
    """One batched pass over k stacked d x d blocks: arrays over the blocks of
    (eigenvalues, rightmost real part, smallest |Im| among the eigenvalues
    tied with it up to 1e-12 (1 + |Re|), ||B||_F, ||C||_F, and what the block
    adds to a tail that absorbs it: ||B||_F^2, the graph-norm output bound
    squared and the unit-column eigenvector condition number, +inf if
    defective).  For state x in the block, |C x| <= ||C||_2 ||x|| and
    (1 + sigma_min(A)) ||x|| <= ||x|| + ||A x||, so the bound is
    ||C||_2 / (1 + sigma_min(A)).
    """
    eigs = _eigenvalues(A)
    max_re = eigs.real.max(axis=1)
    if np.isnan(max_re).any():
        raise ValueError("block eigenvalues are not finite")
    tied = np.isclose(eigs.real, max_re[:, None], rtol=0.0,
                      atol=1e-12 * (1.0 + np.abs(max_re))[:, None])
    min_im = np.min(np.abs(eigs.imag), axis=1, where=tied, initial=np.inf)
    input_norm = _frobenius(B)
    if A.shape[-1] == 1:
        # sigma_min(a) = |a| and ||c||_2 = |c|: on real blocks bit for bit the SVD
        c_norm = np.hypot.reduce(np.abs(C[:, :, 0]), axis=1)
        sigma_min = np.abs(A[:, 0, 0])
        condition = np.ones(len(A))
    else:
        c_norm = np.linalg.svd(C, compute_uv=False)[:, 0]
        sigma_min = np.linalg.svd(A, compute_uv=False)[:, -1]
        _, vecs = np.linalg.eig(A)
        sv = np.linalg.svd(vecs / np.linalg.norm(vecs, axis=-2, keepdims=True),
                           compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            condition = np.where(sv[:, -1] <= 1e-300, np.inf, sv[:, 0] / sv[:, -1])
    return (eigs, max_re, min_im, input_norm, _frobenius(C), _squares(input_norm),
            _squares(c_norm / (1.0 + sigma_min)), condition)


class ModalBlock(_Record):
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

    def eigenvalues(self) -> np.ndarray:
        return _eigenvalues(self.block_matrix[None])[0]


class BlockStack(_Record):
    """k modal blocks of one dimension d, stacked along a leading axis.

    ``A`` (k, d, d), ``B`` (k, d, m) and ``C`` (k, p, d) hold the blocks'
    generators and input and output coefficients, checked and frozen as
    ``ModalBlock`` checks its matrices; ``labels`` (k,) their mode indices.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        d = _freeze_abc(self, ("A", "B", "C"), stacked=True)
        labels = np.asarray(self.labels, dtype=np.int64)
        if d < 1 or labels.shape != self.A.shape[:1]:
            raise DimensionMismatch(
                f"a stack of {len(self.A)} blocks of dimension {d} has labels of shape "
                f"{labels.shape}")
        self.__dict__["labels"] = labels

    @property
    def dim(self) -> int:
        return self.A.shape[-1]


class TailModel(_Record):
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
            self.__dict__[name] = v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"TailModel.{name} must be finite, got {v}")
        if self.input_norm < 0 or self.output_graph_norm < 0:
            raise ValueError("TailModel norms must be nonnegative")
        if self.amplitude_a < 1.0:
            raise ValueError("TailModel.amplitude_a must be >= 1")


def _merge(stacks: list) -> BlockStack:
    if len(stacks) == 1:
        return stacks[0]
    return BlockStack(*(np.concatenate([getattr(s, name) for s in stacks])
                        for name in ("A", "B", "C", "labels")))


class ModalSystem:
    """Modal blocks in canonical order plus a tail envelope.

    ``blocks`` holds ``ModalBlock`` and ``BlockStack`` items with distinct
    labels.  Canonical order: descending real part of the rightmost
    eigenvalue, ties broken by ascending |Im|, then ascending label, so any
    non-stable blocks (rightmost Re >= 0) form a prefix of length
    ``n_unstable``.  The blocks are kept as ``stacks``, one ``BlockStack``
    per dimension, and a table with one entry per block in canonical order:
    ``labels``, ``dims``, ``max_real``, ``input_norms`` and ``output_norms``
    (Frobenius norms of B and C), ``conditions`` (the unit-column
    eigenvector condition number, +inf if defective), and the terms a
    truncation adds to the tail.  ``len(sys)`` counts the blocks;
    ``block(i)``, ``eigenvalues(i)`` and ``blocks`` give them one at a time.
    """

    def __init__(self, blocks, tail: TailModel, input_dim: int, output_dim: int):
        self.tail, self.input_dim, self.output_dim = tail, int(input_dim), int(output_dim)
        by_dim = {}
        for item in blocks:
            if isinstance(item, ModalBlock):
                item = BlockStack(item.block_matrix[None], item.input_row[None],
                                  item.output_col[None], [item.label])
            if not len(item.labels):
                continue
            for what, have, want in (("input", item.B.shape[-1], self.input_dim),
                                     ("output", item.C.shape[-2], self.output_dim)):
                if have != want:
                    raise DimensionMismatch(f"block {item.labels[0]} has {what} dim {have}, "
                                            f"system has {want}")
            by_dim.setdefault(item.dim, []).append(item)
        self.stacks = tuple(_merge(by_dim[d]) for d in sorted(by_dim))
        self._eigs, parts = [], []
        for g, s in enumerate(self.stacks):
            eigs, *columns = _block_columns(s.A, s.B, s.C)
            self._eigs.append(eigs)
            k = len(s.labels)
            parts.append([s.labels, np.full(k, s.dim), np.full(k, g), np.arange(k), *columns])
        columns = ([np.concatenate(col) for col in zip(*parts)] if parts
                   else [np.zeros(0, dtype=np.int64)] * 4 + [np.zeros(0)] * 7)
        labels, _, _, _, max_re, min_im = columns[:6]
        if len(set(labels.tolist())) != len(labels):
            raise ValueError("block labels must be distinct")
        order = np.lexsort((labels, min_im, -max_re))
        columns = [col[order] for col in columns]
        for col in columns:
            col.setflags(write=False)
        (self.labels, self.dims, self._group, self._row, self.max_real, _, self.input_norms,
         self.output_norms, self._input_sq, self._output_sq, self.conditions) = columns
        # a block is unstable when its rightmost eigenvalue has Re >= 0
        self.n_unstable = int(np.count_nonzero(self.max_real >= 0.0))

    def __len__(self) -> int:
        return len(self.labels)

    def block(self, i: int) -> ModalBlock:
        s, row = self.stacks[self._group[i]], self._row[i]
        return ModalBlock(s.A[row], s.B[row], s.C[row], int(s.labels[row]))

    def eigenvalues(self, i: int) -> np.ndarray:
        return self._eigs[self._group[i]][self._row[i]]

    @cached_property
    def blocks(self) -> tuple:
        return tuple(self.block(i) for i in range(len(self)))

    @cached_property
    def _input_suffix_sq(self) -> np.ndarray:
        """Entry N: squared tail input norm after keeping the first N blocks,
        summed from the last block forward."""
        return np.cumsum(np.concatenate(([self.tail.input_norm ** 2],
                                         self._input_sq[::-1])))[::-1]


class StateSpaceSystem(_Record):
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


class SpectrumPartition(_Record):
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

    n_u = sys.n_unstable
    # canonical order puts the rightmost stable block first
    omega = (max(-tail.decay_alpha, float(sys.max_real[n_u])) if n_u < len(sys)
             else -tail.decay_alpha)
    return SpectrumPartition(
        unstable_indices=tuple(sys.labels[:n_u].tolist()),
        retained_stable_indices=tuple(sys.labels[n_u:].tolist()),
        tail=tail,
        margin_omega=omega,
        unstable_dim=int(sys.dims[:n_u].sum()),
    )


def closed_loop_matrix(plant: StateSpaceSystem, controller: StateSpaceSystem) -> np.ndarray:
    """Generator of the output-feedback interconnection in direct coordinates.

    Plant (A,B,C) in feedback with controller (E,F,G): u = G w, controller is
    driven by y = C x.  The result is float64 when every entry is real, as
    for every shipped plant and controller document, so that :mod:`.simulate`
    exponentiates, steps and eigen-solves a real loop in real arithmetic;
    otherwise it is complex128.
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
    if not np.any(M.imag):
        return np.ascontiguousarray(M.real)
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


def _sum_forward(first: float, terms: np.ndarray) -> float:
    """first + terms[0] + terms[1] + ..., added in that order."""
    return float(np.cumsum(np.concatenate(([first], terms)))[-1])


def truncate_tail(sys: ModalSystem, N: int) -> TailModel:
    """The tail left after keeping the first N blocks: ``truncate(sys, N)[1]``.

    Reads the block table only, so each candidate truncation order is cheap.
    Raises ``UnstableModeDiscarded`` if N < ``sys.n_unstable``.
    """
    N = int(N)
    if N < 0 or N > len(sys):
        raise ValueError(f"N must lie in [0, {len(sys)}], got {N}")
    if N < sys.n_unstable:
        raise UnstableModeDiscarded(
            f"block {sys.labels[N]} has eigenvalue real part {sys.max_real[N]:g} >= 0")
    tail = sys.tail
    amp = max(tail.amplitude_a, float(np.max(sys.conditions[N:], initial=1.0)))
    return TailModel(
        decay_alpha=min(tail.decay_alpha, -float(np.max(sys.max_real[N:], initial=-np.inf))),
        input_norm=np.sqrt(_sum_forward(tail.input_norm ** 2, sys._input_sq[N:])),
        output_graph_norm=np.sqrt(_sum_forward(tail.output_graph_norm ** 2,
                                               sys._output_sq[N:])),
        amplitude_a=amp if np.isfinite(amp) else 1e308,
    )


def leading_blocks(sys: ModalSystem, n: int):
    """How many leading blocks span n states; None if n ends inside or past one."""
    totals = np.concatenate(([0], np.cumsum(sys.dims)))
    count = int(np.searchsorted(totals, n))
    return count if count < len(totals) and totals[count] == n else None


def truncate(sys: ModalSystem, N: int):
    """Keep the first N blocks dense; absorb the rest into the tail.

    Returns ``(StateSpaceSystem, TailModel)``; the tail is
    ``truncate_tail(sys, N)``, whose checks apply.
    """
    tail = truncate_tail(sys, N)
    dims = sys.dims[:int(N)]
    starts = np.cumsum(dims) - dims
    n = int(dims.sum())
    A = np.zeros((n, n), dtype=np.complex128)
    B = np.zeros((n, sys.input_dim), dtype=np.complex128)
    C = np.zeros((sys.output_dim, n), dtype=np.complex128)
    for g, s in enumerate(sys.stacks):
        kept = sys._group[:len(dims)] == g
        rows = sys._row[:len(dims)][kept]
        idx = starts[kept][:, None] + np.arange(s.dim)
        A[idx[:, :, None], idx[:, None, :]] = s.A[rows]
        B[idx] = s.B[rows]
        C[:, idx] = s.C[rows].transpose(1, 0, 2)
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
    count = len(sys)
    suffix_sq = sys._input_suffix_sq
    for N in range(sys.n_unstable, count + 1):
        if np.sqrt(suffix_sq[N]) < epsilon:
            return N
    raise NotReachable(
        f"tail input norm {np.sqrt(suffix_sq[count]):.6g} >= epsilon {epsilon:.6g} "
        f"even with all {count} blocks retained; increase the resolution N_max")
