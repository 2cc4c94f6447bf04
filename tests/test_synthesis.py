import dataclasses
import math

import numpy as np
import pytest

from modalstab import (SourceProfile, StateSpaceSystem, build_heat,
                       check_stabilizable, design_feedback,
                       design_observer, loop_system, matches_observer_structure,
                       partition_spectrum, reduced_R_system, synthesize_controller,
                       truncate)
from modalstab.errors import (DimensionMismatch, NotDetectable, NotHurwitz,
                              NotStabilizable, RiccatiDivergence)
from modalstab.modal import ModalBlock, ModalSystem, TailModel, closed_loop_matrix
from modalstab.synthesis import care_stabilizing_solution

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
    by_label = {blk.label: blk for blk in report.blocks}
    assert by_label[1].input_coefficient == 0.0
    assert by_label[1].stab_margin == 0.0
    assert by_label[0].stabilizable
    assert by_label[2].unstable_eigenvalues == ()


def test_check_detectable_flags_zero_output():
    blocks = (ModalBlock([[1.0]], [[1.0]], [[0.0]], label=0),)
    tail = TailModel(decay_alpha=1.0, input_norm=0.0, output_graph_norm=0.0)
    report = check_stabilizable(ModalSystem(blocks, tail, 1, 1))
    assert report.stabilizable and not report.detectable
    assert report.offending_detectable == (0,)


def test_synthesize_controller_structure():
    part, truncated, ctrl = _synthesized()
    n, n_u = truncated.n, part.unstable_dim
    assert ctrl.n_unstable == n_u and ctrl.n == n
    assert np.all(ctrl.F[n_u:, :] == 0.0)
    assert np.all(ctrl.G[:, n_u:] == 0.0)
    assert matches_observer_structure(truncated, ctrl)
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
    with pytest.raises(NotHurwitz):
        reduced_R_system([[1.0]], [[1.0]], [[1.0]], [[0.0]], [[-3.0]])


def test_reduced_R_dimension_checks():
    with pytest.raises(DimensionMismatch):
        reduced_R_system([[1.0]], [[1.0]], [[1.0]],
                         np.zeros((2, 1)), [[-3.0]])


def test_matches_observer_structure_rejects_perturbation():
    part, truncated, ctrl = _synthesized()
    bent = dataclasses.replace(ctrl, E=ctrl.E + 1e-3)
    assert not matches_observer_structure(truncated, bent)
    other_plant, _ = truncate(_heat_plant(), 2)
    assert not matches_observer_structure(other_plant, ctrl)


def test_loop_system_wiring():
    part, truncated, ctrl = _synthesized()
    loop = loop_system(truncated, ctrl.as_state_space())
    n, q = truncated.n, ctrl.n
    assert loop.n == n + q
    assert np.all(loop.B[:n, :] == 0.0)
    assert np.all(loop.C[:, :n] == 0.0)
    assert np.max(np.linalg.eigvals(loop.A).real) < 0.0
