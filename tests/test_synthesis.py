import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalstab import (SourceProfile, StateSpaceSystem, build_heat,
                       check_stabilizable, design_feedback,
                       design_observer, loop_system, matches_observer_structure,
                       partition_spectrum, reduced_R_system, synthesize_controller,
                       truncate)
from modalstab.errors import DimensionMismatch, NotDetectable, NotStabilizable, RiccatiDivergence
from modalstab.gains import loop_bounds
from modalstab.modal import ModalBlock, ModalSystem, TailModel, closed_loop_matrix
from modalstab.synthesis import DesignInfo, care_stabilizing_solution, observer_controller

from conftest import eig_match_distance, random_hurwitz


def _heat_plant(b=5.0, n_max=8):
    vals = [1.0 / (k + 1) ** 2 for k in range(48)]
    return build_heat(b, SourceProfile.coefficients(vals), N_max=n_max)


def _synthesized(b=5.0, N=4, n_max=8):
    sys_ = _heat_plant(b, n_max)
    part = partition_spectrum(sys_)
    truncated, _ = truncate(sys_, N)
    return part, truncated, synthesize_controller(part, truncated)


def test_care_scalar_oracle():
    # By hand: 5p + 5p - p^2 + 1 = 0 gives p = 5 + sqrt(26).
    P, residual = care_stabilizing_solution(np.array([[5.0]]), np.array([[1.0]]))
    assert P[0, 0].real == pytest.approx(5.0 + math.sqrt(26.0), rel=1e-12)
    assert residual < 1e-8


def test_care_integrator_oracle():
    P, _ = care_stabilizing_solution(np.array([[0.0]]), np.array([[1.0]]))
    assert P[0, 0].real == pytest.approx(1.0, rel=1e-12)


def test_care_empty_system():
    P, residual = care_stabilizing_solution(np.zeros((0, 0)), np.zeros((0, 1)))
    assert P.shape == (0, 0) and residual == 0.0


def test_care_rejects_imaginary_axis_hamiltonian():
    # An unreachable oscillator puts eigenvalues +-i on the Hamiltonian.
    with pytest.raises(RiccatiDivergence):
        care_stabilizing_solution(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 1)))


def test_design_feedback_scalar_closed_loop():
    K = design_feedback(np.array([[5.0]]), np.array([[1.0]]))
    assert K[0, 0].real == pytest.approx(-(5.0 + math.sqrt(26.0)), rel=1e-12)
    assert 5.0 + K[0, 0].real == pytest.approx(-math.sqrt(26.0), rel=1e-12)


def test_design_feedback_random_instances(rng):
    for _ in range(10):
        n = int(rng.integers(1, 6))
        A = random_hurwitz(rng, n) + 0.8 * np.eye(n)
        B = rng.standard_normal((n, 1))
        K = design_feedback(A, B)
        top = np.max(np.linalg.eigvals(A + B @ K).real)
        assert top < 0.0
        assert np.max(np.abs(K.imag)) == 0.0  # real data keeps the gain real


def test_design_observer_dual(rng):
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    C = np.array([[1.0, 0.0]])
    L = design_observer(A, C)
    assert np.max(np.linalg.eigvals(A + L @ C).real) < 0.0
    K = design_feedback(A.T, C.T)
    assert np.allclose(L, K.T.conj())


def test_design_rejects_hidden_unstable_mode():
    A = np.diag([1.0, 2.0])
    with pytest.raises(NotStabilizable):
        design_feedback(A, np.array([[1.0], [0.0]]))
    with pytest.raises(NotDetectable):
        design_observer(A, np.array([[1.0, 0.0]]))


def test_check_stabilizable_flags_zero_coefficient():
    # b = 15 makes modes 0 and 1 unstable; mode 1 of f = 1 has no input.
    sys_ = build_heat(15.0, SourceProfile.constant(1.0), N_max=8)
    report = check_stabilizable(sys_)
    assert not report.stabilizable
    assert report.offending_stabilizable == (1,)
    assert report.detectable  # unit output weight on every heat mode
    labels = sys_.labels.tolist()
    assert sys_.input_norms[labels.index(1)] == 0.0
    assert report.stab_margins[labels.index(1)] == 0.0
    assert 0 not in report.offending_stabilizable
    # block 2 is stable: no rank test, no margin
    assert len(report.stab_margins) == sys_.n_unstable == labels.index(2)


def test_check_stabilizable_flags_an_all_zero_pencil():
    # b = 0 and f = 0: A_u = 0 and B_u = 0 leave no scale to measure against.
    report = check_stabilizable(build_heat(0.0, SourceProfile.constant(0.0), N_max=4))
    assert report.offending_stabilizable == (0,)
    assert report.stab_margins[0] == 0.0 and report.detectable


def test_check_detectable_flags_zero_output():
    blocks = (ModalBlock([[1.0]], [[1.0]], [[0.0]], label=0),)
    tail = TailModel(decay_alpha=1.0, input_norm=0.0, output_graph_norm=0.0)
    report = check_stabilizable(ModalSystem(blocks, tail, 1, 1))
    assert report.stabilizable and not report.detectable
    assert report.offending_detectable == (0,)


def test_nearly_invisible_unstable_block_is_not_detectable():
    # Block 1's own pencil [0; 1e-30] has full rank relative to itself; relative
    # to the unstable prefix it is rank deficient, as the observer design finds.
    blocks = (ModalBlock([[2.0]], [[1.0]], [[1.0]], label=0),
              ModalBlock([[1.0]], [[1.0]], [[1e-30]], label=1),
              ModalBlock([[-3.0]], [[1.0]], [[1.0]], label=2))
    tail = TailModel(decay_alpha=4.0, input_norm=0.0, output_graph_norm=0.0)
    sys_ = ModalSystem(blocks, tail, 1, 1)
    report = check_stabilizable(sys_)
    assert report.stabilizable and not report.detectable
    assert report.offending_detectable == (1,)
    assert report.det_margins[1] < 1e-29
    prefix, _ = truncate(sys_, sys_.n_unstable)
    design_feedback(prefix.A, prefix.B)
    with pytest.raises(NotDetectable):
        design_observer(prefix.A, prefix.C)


# A modal coefficient: an exact zero, or +-10^e with e down to -30.
_COEFFICIENT = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.floats(-30.0, 0.0)))


@st.composite
def _block(draw, unstable: bool):
    """A 1x1 block at a real eigenvalue or a 2x2 rotation block at re +- i im."""
    re = draw(st.floats(0.0, 10.0) if unstable else st.floats(-10.0, -0.1))
    if draw(st.booleans()):
        A = [[re]]
    else:
        im = draw(st.floats(0.1, 10.0))
        A = [[re, im], [-im, re]]
    B = [[draw(_COEFFICIENT)] for _ in A]
    C = [[draw(_COEFFICIENT) for _ in A]]
    return A, B, C


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(unstable=st.lists(_block(True), min_size=1, max_size=4),
       stable=st.lists(_block(False), max_size=2))
def test_rank_report_predicts_the_designs(unstable, stable):
    blocks = [ModalBlock(A, B, C, label=k) for k, (A, B, C) in enumerate(unstable + stable)]
    tail = TailModel(decay_alpha=20.0, input_norm=0.0, output_graph_norm=0.0)
    sys_ = ModalSystem(blocks, tail, 1, 1)
    report = check_stabilizable(sys_)
    prefix, _ = truncate(sys_, sys_.n_unstable)
    for design, X, verdict, rank_error in (
            (design_feedback, prefix.B, report.stabilizable, NotStabilizable),
            (design_observer, prefix.C, report.detectable, NotDetectable)):
        try:
            design(prefix.A, X)
        except rank_error:
            assert not verdict
        except RiccatiDivergence:
            # raised past the rank test, which the report must have passed too
            assert verdict
        else:
            assert verdict


def test_synthesize_controller_structure():
    part, truncated, ctrl = _synthesized()
    n, n_u = truncated.n, part.unstable_dim
    assert ctrl.n_unstable == n_u and ctrl.n == n
    assert np.all(ctrl.F[n_u:, :] == 0.0)
    assert np.all(ctrl.G[:, n_u:] == 0.0)
    design = matches_observer_structure(_heat_plant(), ctrl)
    assert (design.N, design.k_u) == (4, n_u)
    assert ctrl.info.feedback_rate > 0.0 and ctrl.info.observer_rate > 0.0
    assert ctrl.info.feedback_residual < 1e-8


def test_synthesize_separation_principle():
    # Feedback and observer designs coincide on this self-dual scalar block,
    # so the closed loop has a defective double eigenvalue that rounding
    # splits by about sqrt(eps) times its scale: its computed spectrum says
    # little.  The structure is exact instead: in coordinates (x, x - w) the
    # closed loop is [[A + BK, -BK], [0, A + LC]].
    _, truncated, ctrl = _synthesized()
    n = truncated.n
    A, B, C = truncated.A, truncated.B, truncated.C
    M = closed_loop_matrix(truncated, ctrl.as_state_space())
    eye, zero = np.eye(n), np.zeros((n, n))
    T = np.block([[eye, zero], [eye, -eye]])  # its own inverse
    M_xe = T @ M @ T
    tol = 1e-12 * np.linalg.norm(M)
    assert np.linalg.norm(M_xe[n:, :n]) <= tol
    assert np.linalg.norm(M_xe[:n, :n] - (A + B @ ctrl.G)) <= tol
    assert np.linalg.norm(M_xe[n:, n:] - (A - ctrl.F @ C)) <= tol
    assert np.max(np.linalg.eigvals(M).real) < 0.0


def test_synthesize_separation_principle_spectrum():
    # Input weight 2 on the unstable mode separates the feedback and
    # observer eigenvalues, so the closed-loop spectrum is well conditioned.
    vals = [2.0 / (k + 1) ** 2 for k in range(48)]
    sys_ = build_heat(5.0, SourceProfile.coefficients(vals), N_max=8)
    truncated, _ = truncate(sys_, 4)
    ctrl = synthesize_controller(partition_spectrum(sys_), truncated)
    n_u = ctrl.n_unstable
    A, B, C = truncated.A, truncated.B, truncated.C
    A_s = A[n_u:, n_u:]
    fb = A[:n_u, :n_u] + B[:n_u, :] @ ctrl.K_u
    ob = A[:n_u, :n_u] + ctrl.L_u @ C[:, :n_u]
    expected = np.concatenate([
        np.linalg.eigvals(fb), np.linalg.eigvals(ob),
        np.diag(A_s), np.diag(A_s)])
    closed = np.linalg.eigvals(closed_loop_matrix(truncated, ctrl.as_state_space()))
    assert eig_match_distance(closed, expected) < 1e-6
    assert np.max(closed.real) < 0.0


def test_synthesize_stable_plant_gives_empty_design():
    sys_ = _heat_plant(b=-1.0)
    part = partition_spectrum(sys_)
    truncated, _ = truncate(sys_, 3)
    ctrl = synthesize_controller(part, truncated)
    assert ctrl.n_unstable == 0
    assert ctrl.K_u.shape == (1, 0) and ctrl.L_u.shape == (0, 1)
    assert np.all(ctrl.G == 0.0) and np.all(ctrl.F == 0.0)
    assert ctrl.info.feedback_rate == math.inf


def _transfer(sys_, s):
    n = sys_.n
    return sys_.C @ np.linalg.solve(s * np.eye(n) - sys_.A, sys_.B)


def test_reduced_R_matches_full_loop_transfer():
    part, truncated, ctrl = _synthesized()
    n_u = ctrl.n_unstable
    A, B, C = truncated.A, truncated.B, truncated.C
    red = reduced_R_system(A[:n_u, :n_u], B[:n_u, :], C[:, :n_u],
                           ctrl.K_u, ctrl.L_u)
    full = loop_system(truncated, ctrl.as_state_space())
    for s in (1.0 + 0.7j, 2.5, 0.3 - 1.1j):
        assert np.allclose(_transfer(red, s), _transfer(full, s),
                           rtol=1e-9, atol=1e-12)


def test_reduced_R_independent_of_retained_count():
    systems = []
    for N in (1, 4, 7):
        part, truncated, ctrl = _synthesized(N=N)
        n_u = ctrl.n_unstable
        A, B, C = truncated.A, truncated.B, truncated.C
        systems.append(reduced_R_system(A[:n_u, :n_u], B[:n_u, :], C[:, :n_u],
                                        ctrl.K_u, ctrl.L_u))
    base = systems[0]
    for other in systems[1:]:
        assert np.array_equal(base.A, other.A)
        assert np.array_equal(base.B, other.B)
        assert np.array_equal(base.C, other.C)


def test_reduced_R_rejects_non_hurwitz_design():
    # K = 0 leaves A + BK = 1: the system is built, and only its bounds reject it
    loop = loop_bounds(reduced_R_system([[1.0]], [[1.0]], [[1.0]], [[0.0]], [[-3.0]]))
    assert loop.env is None
    assert loop.failure == "spectral abscissa 1 >= 0"


def test_reduced_R_dimension_checks():
    with pytest.raises(DimensionMismatch):
        reduced_R_system([[1.0]], [[1.0]], [[1.0]],
                         np.zeros((2, 1)), [[-3.0]])


def test_matches_observer_structure_rejects_perturbation():
    part, truncated, ctrl = _synthesized()
    bent = ctrl.replace(E=ctrl.E + 1e-3)
    assert matches_observer_structure(_heat_plant(), bent).k_u is None
    other_plant = _heat_plant(n_max=2)  # three blocks, fewer states than the controller
    with pytest.raises(DimensionMismatch, match="matches no truncation"):
        matches_observer_structure(other_plant, ctrl)


def test_matches_observer_structure_needs_a_block_aligned_cover_of_the_unstable_blocks():
    # heat b=15 has two unstable blocks: gains on the first alone leave
    # 15 - pi^2 = 5.13 outside the prefix; gains on three blocks cover both
    sys_ = _heat_plant(b=15.0)
    truncated, _ = truncate(sys_, len(sys_))
    info = DesignInfo(1.0, 1.0, 0.0, 0.0)
    covers = {}
    for n_u in (1, 3):
        A, B, C = truncated.A[:n_u, :n_u], truncated.B[:n_u], truncated.C[:, :n_u]
        ctrl = observer_controller(truncated, design_feedback(A, B), design_observer(A, C), info)
        covers[n_u] = matches_observer_structure(sys_, ctrl)
    assert sys_.n_unstable == 2 and covers[1].k_u is None
    assert (covers[3].N, covers[3].k_u) == (len(sys_), 3)
    # a prefix of two states ends inside the second, 2x2 unstable block
    blocks = [ModalBlock([[1.0]], [[1.0]], [[1.0]], label=0),
              ModalBlock([[0.5, 1.0], [0.0, 0.5]], [[0.0], [1.0]], [[1.0, 0.0]], label=1)]
    split_sys = ModalSystem(blocks, TailModel(decay_alpha=10.0, input_norm=0.0,
                                              output_graph_norm=0.0), 1, 1)
    split, _ = truncate(split_sys, 2)
    ctrl = observer_controller(split, np.array([[-1.0, -1.0]]), np.array([[-1.0], [-1.0]]), info)
    assert matches_observer_structure(split_sys, ctrl).k_u is None


def test_loop_system_wiring():
    part, truncated, ctrl = _synthesized()
    loop = loop_system(truncated, ctrl.as_state_space())
    n, q = truncated.n, ctrl.n
    assert loop.n == n + q
    assert np.all(loop.B[:n, :] == 0.0)
    assert np.all(loop.C[:, :n] == 0.0)
    assert np.max(np.linalg.eigvals(loop.A).real) < 0.0
