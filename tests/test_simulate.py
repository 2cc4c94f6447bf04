import math

import numpy as np
import pytest
import scipy.linalg

from modalstab import (SourceProfile, StateSpaceSystem, brute_force_gain,
                       build_heat, closed_loop_matrix, decay_envelope, estimate_decay_rate,
                       gain_strong, matrix_exponential, partition_spectrum, simulate_autonomous,
                       simulate_closed_loop, simulate_modal, spectral_abscissa,
                       matches_observer_structure, reduced_R_system, synthesize_controller,
                       truncate)
from modalstab.errors import DegenerateTrajectory, DimensionMismatch
from modalstab.gains import loop_bounds
from modalstab.modal import ModalBlock, ModalSystem, TailModel
from modalstab.simulate import (BRUTE_FORCE_MAX_STEPS, BRUTE_FORCE_OMEGAS, CONDITION_MAX,
                                SEPARATION_RTOL, Trajectory, observer_loop, row_norms)

from conftest import random_hurwitz, random_system


def test_matrix_exponential_against_scipy(rng):
    for _ in range(12):
        n = int(rng.integers(1, 9))
        A = rng.standard_normal((n, n))
        if rng.integers(2):
            A = A + 1j * rng.standard_normal((n, n))
        t = float(rng.uniform(0.0, 3.0))
        ours = matrix_exponential(A, t)
        ref = scipy.linalg.expm(A * t)
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-13)


def test_matrix_exponential_large_norm(rng):
    A = 300.0 * rng.standard_normal((5, 5))
    A -= 400.0 * np.eye(5)  # keep the result representable
    assert np.allclose(matrix_exponential(A, 1.0), scipy.linalg.expm(A),
                       rtol=1e-9, atol=1e-12)


def test_matrix_exponential_special_cases():
    assert matrix_exponential(np.zeros((0, 0))).shape == (0, 0)
    assert np.array_equal(matrix_exponential(np.diag([2.0, -1.0]), 0.0), np.eye(2))
    out = matrix_exponential(np.diag([1.0, -3.0]), 0.5)
    assert np.allclose(np.diag(out), [math.exp(0.5), math.exp(-1.5)], rtol=1e-14)
    with pytest.raises(DimensionMismatch):
        matrix_exponential(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        matrix_exponential(np.eye(2), -1.0)
    with pytest.raises(ValueError):
        matrix_exponential(np.array([[np.nan]]))


def test_simulate_autonomous_is_exact_at_grid_points():
    traj = simulate_autonomous(np.array([[-0.7]]), [2.0], T=5.0, dt=0.25)
    ref = 2.0 * np.exp(-0.7 * traj.times)
    assert np.allclose(traj.states[:, 0].real, ref, rtol=1e-13)


def test_simulate_step_size_invariance(rng):
    A = random_hurwitz(rng, 4)
    x0 = rng.standard_normal(4)
    coarse = simulate_autonomous(A, x0, T=4.0, dt=0.2)
    fine = simulate_autonomous(A, x0, T=4.0, dt=0.05)
    shared = fine.states[::4]
    scale = np.max(np.abs(coarse.states))
    assert np.max(np.abs(coarse.states - shared)) < 1e-12 * scale


def test_simulate_modal_matches_dense(rng):
    sys_ = build_heat(5.0, SourceProfile.coefficients([1.0, 0.5, 0.25]), N_max=6)
    dims = sum(blk.dim for blk in sys_.blocks)
    x0 = rng.standard_normal(dims)
    dense_A = scipy.linalg.block_diag(*[blk.block_matrix for blk in sys_.blocks])
    by_block = simulate_modal(sys_.blocks, x0, T=10.0, dt=0.1)
    dense = simulate_autonomous(dense_A, x0, T=10.0, dt=0.1)
    # Mode 0 grows like e^{5t}; only a relative comparison is meaningful.
    rel = np.abs(by_block.states - dense.states) / (1.0 + np.abs(dense.states))
    assert np.max(rel) < 1e-10


def test_simulate_closed_loop_wiring(rng):
    sys_ = build_heat(5.0, SourceProfile.coefficients([1.0, 0.5, 0.25]), N_max=6)
    part = partition_spectrum(sys_)
    truncated, _ = truncate(sys_, 3)
    ctrl = synthesize_controller(part, truncated)
    n = truncated.n
    x0 = rng.standard_normal(n)
    traj = simulate_closed_loop(truncated, ctrl.as_state_space(), x0, T=12.0, dt=0.05)
    assert traj.states.shape == (241, 2 * n)
    assert np.allclose(traj.outputs, traj.states[:, :n] @ truncated.C.T)
    assert np.allclose(traj.inputs, traj.states[:, n:] @ ctrl.G.T)
    assert traj.state_norms()[-1] < 1e-2 * traj.state_norms()[0]


def _observer_case(stable_blocks):
    """(plant, truncation, controller): one unstable mode a = b = c = 1, whose
    feedback and observer both place -sqrt(2), then the given stable
    (A, B, C) blocks, all retained."""
    blocks = [ModalBlock([[1.0]], [[1.0]], [[1.0]], label=0)]
    blocks += [ModalBlock(*blk, label=i + 1) for i, blk in enumerate(stable_blocks)]
    sys_ = ModalSystem(blocks, TailModel(decay_alpha=10.0, input_norm=0.0,
                                         output_graph_norm=0.0), 1, 1)
    truncated, _ = truncate(sys_, len(sys_))
    return sys_, truncated, synthesize_controller(partition_spectrum(sys_), truncated)


def _near_core(factor):
    # a stable mode factor * SEPARATION_RTOL (1 + |lam|) left of A_c's
    # double, defective eigenvalue -sqrt(2): the closest the closed forms get
    lam = -math.sqrt(2.0)
    return [([[lam - factor * SEPARATION_RTOL * (1.0 - lam)]], [[1.0]], [[1.0]])]


def _conditioned(kappa):
    # [[-3, c], [0, -4]] has unit-column eigenvector condition
    # sqrt((1 + cos) / (1 - cos)) with cos = c / sqrt(c^2 + 1), so kappa at
    # c = (kappa^2 - 1) / (2 kappa)
    c = (kappa * kappa - 1.0) / (2.0 * kappa)
    return [([[-3.0, c], [0.0, -4.0]], [[1.0], [1.0]], [[1.0, 1.0]])]


@pytest.mark.parametrize("blocks, structured", [
    (_near_core(0.5), False), (_near_core(2.0), True),
    (_conditioned(2.0 * CONDITION_MAX), False), (_conditioned(0.5 * CONDITION_MAX), True),
], ids=["core_near", "core_apart", "ill_conditioned", "conditioned"])
def test_observer_loop_falls_back_at_its_thresholds(rng, blocks, structured):
    sys_, truncated, ctrl = _observer_case(blocks)
    loop = observer_loop(sys_, matches_observer_structure(sys_, ctrl), ctrl)
    assert (loop is not None) == structured
    if not structured:
        return
    x0 = rng.standard_normal(truncated.n)
    got = np.concatenate([b.states for b in loop.blocks(x0, 5.0, 0.05)])
    dense = simulate_closed_loop(truncated, ctrl.as_state_space(), x0, 5.0, 0.05).states
    assert got.dtype == np.float64
    err = np.max(np.abs(got - dense), axis=1) / np.max(np.abs(dense), axis=1)
    assert np.max(err) <= 1e-9


def test_observer_loop_leaves_complex_data_to_the_dense_path():
    sys_, truncated, ctrl = _observer_case([([[-3.0 + 1.0j]], [[1.0]], [[1.0]])])
    assert observer_loop(sys_, matches_observer_structure(sys_, ctrl), ctrl) is None


def test_observer_loop_spectrum_is_the_separation_spectrum():
    # spec(A_u + B_u K_u) u spec(A_u + L_u C_u) u the retained modes: the
    # witness is the rightmost, of least |Im| among ties, with Im >= 0
    w = 2.0
    sys_, truncated, ctrl = _observer_case([([[-0.5, w], [-w, -0.5]], [[1.0], [0.0]],
                                             [[1.0, 0.0]]),
                                            ([[-0.5, 1.0], [-1.0, -0.5]], [[1.0], [1.0]],
                                             [[0.0, 1.0]])])
    loop = observer_loop(sys_, matches_observer_structure(sys_, ctrl), ctrl)
    assert loop.abscissa == -0.5 and loop.witness == complex(-0.5, 1.0)
    dense = np.linalg.eigvals(closed_loop_matrix(truncated, ctrl.as_state_space()))
    assert np.max(dense.real) == pytest.approx(-0.5, abs=1e-6)


def test_estimate_decay_rate_oracle():
    times = np.arange(0.0, 10.0001, 0.1)
    states = np.exp(-0.7 * times)
    traj = Trajectory(times, states, states, np.zeros((len(times), 0)), dt=0.1)
    assert estimate_decay_rate(traj) == pytest.approx(0.7, rel=1e-10)


def test_estimate_decay_rate_rejects_zero_trajectory():
    times = np.arange(0.0, 1.01, 0.1)
    traj = Trajectory(times, np.zeros_like(times), np.zeros_like(times),
                      np.zeros((len(times), 0)), dt=0.1)
    with pytest.raises(DegenerateTrajectory):
        estimate_decay_rate(traj)


def test_state_norms_survive_underflowing_squares(rng):
    # e^{-0.7 t} reaches 1e-304 at t = 1000, where its square is no longer a
    # normal double; 0 and subnormal rows keep their exact norms.
    times = np.arange(0.0, 1000.0001, 1.0)
    decay = np.exp(-0.7 * times)
    states = np.column_stack([3.0 * decay, -4.0 * decay, 0.0 * decay])
    traj = Trajectory(times, states, states, np.zeros((len(times), 0)), dt=1.0)
    assert np.allclose(traj.state_norms(), 5.0 * decay, rtol=1e-15, atol=0.0)
    assert estimate_decay_rate(traj) == pytest.approx(0.7, rel=1e-10)
    assert list(row_norms(np.array([[0.0, 0.0], [5e-324, 0.0]]))) == [0.0, 5e-324]
    # rows whose squares stay normal keep their bits, complex ones too
    for tiny in (1e-141 * rng.standard_normal((30, 6)),
                 1e-141 * (rng.standard_normal((30, 6)) + 1j * rng.standard_normal((30, 6)))):
        assert np.array_equal(row_norms(tiny), np.linalg.norm(tiny, axis=1))


def test_trajectory_validation():
    with pytest.raises(DimensionMismatch):
        Trajectory(np.arange(3.0), np.zeros((4, 1)), np.zeros((3, 1)),
                   np.zeros((3, 0)), dt=1.0)


def test_spectral_abscissa_witness_follows_the_structured_rule():
    # -1 +- 2i ties -1 exactly; a real matrix's witness is the tied
    # eigenvalue of least |Im|, as the structured spectrum reports it
    assert spectral_abscissa(scipy.linalg.block_diag([[-1.0, 2.0], [-2.0, -1.0]], [[-1.0]])) == (
        -1.0, complex(-1.0, 0.0))
    # a complex matrix keeps its own first eigenvalue of largest real part
    assert spectral_abscissa(np.diag([-1.0 + 2.0j, -1.0 + 0.0j])) == (-1.0, complex(-1.0, 2.0))


def test_spectral_abscissa():
    top, witness = spectral_abscissa(np.diag([-3.0, -0.25, -7.0]))
    assert top == pytest.approx(-0.25)
    assert witness == pytest.approx(-0.25 + 0.0j)
    top, _ = spectral_abscissa(np.zeros((0, 0)))
    assert top == -math.inf


def test_brute_force_gain_first_order_lag():
    # H(s) = 1/(s+1): the weighted gain at beta = 0 is exactly 1 (DC).
    sys_ = StateSpaceSystem([[-1.0]], [[1.0]], [[1.0]])
    probe = brute_force_gain(sys_, 0.0, horizon=40.0)
    assert 0.9 < probe.value <= 1.0 + 1e-9
    assert probe.peak_family in ("sin", "cos", "step")
    assert probe.tail_estimate < 1e-10


def test_brute_force_gain_validation():
    with pytest.raises(ValueError):
        brute_force_gain(StateSpaceSystem([[0.5]], [[1.0]], [[1.0]]), 0.0)
    with pytest.raises(ValueError):
        brute_force_gain(StateSpaceSystem([[-1.0 + 1j]], [[1.0]], [[1.0]]), 0.0)
    empty = brute_force_gain(StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 1)),
                                              np.zeros((1, 0))), 0.1)
    assert empty.value == 0.0 and empty.peak_family == "empty"


def test_brute_force_gain_below_certified_bound(rng):
    for _ in range(5):
        n = int(rng.integers(1, 6))
        sys_ = random_system(rng, n, margin=0.5)
        env = decay_envelope(sys_.A, 0.2)
        beta = 0.5 * env.alpha
        norm_b = float(np.linalg.norm(sys_.B, 2))
        norm_c = float(np.linalg.norm(sys_.C, 2))
        norm_a = float(np.linalg.norm(sys_.A, 2))
        _, bound = gain_strong(env, beta, norm_b, norm_c, norm_a)
        probe = brute_force_gain(sys_, beta)
        assert probe.value <= bound.value * (1.0 + 1e-9)


def _readme_reduced_loop():
    # the README plant's reduced controller loop: a Jordan block, cond(V) ~ 1e16
    sys_ = build_heat(5.0, SourceProfile.constant(1.0), N_max=64)
    truncated, _tail = truncate(sys_, 4)
    ctrl = synthesize_controller(partition_spectrum(sys_), truncated)
    n_u = ctrl.n_unstable
    return reduced_R_system(truncated.A[:n_u, :n_u], truncated.B[:n_u, :],
                            truncated.C[:, :n_u], ctrl.K_u, ctrl.L_u)


def test_brute_force_gain_step_recursion_on_a_defective_loop():
    red = _readme_reduced_loop()
    assert np.linalg.cond(np.linalg.eig(red.A)[1]) > 1e8  # the step-recursion branch
    bounds = loop_bounds(red)
    beta = bounds.env.alpha / 2.0
    probe = brute_force_gain(red, beta)
    _, bound = gain_strong(bounds.env, beta, bounds.norm_b, bounds.norm_c, bounds.norm_a)
    assert probe.value <= bound.value
    assert probe.peak_family == "step"
    # the step input u = e^{-beta t} is the state of u' = -beta u, so the
    # augmented generator [[A, B], [0, -beta]] from (0, 1) yields y = C x
    n, horizon = red.n, 20.0
    n_steps = BRUTE_FORCE_MAX_STEPS
    assert n_steps < horizon * 8.0 * BRUTE_FORCE_OMEGAS[-1] / (2.0 * np.pi)  # the probe's grid
    dt = horizon / n_steps
    M = np.zeros((n + 1, n + 1))
    M[:n, :n], M[:n, n:], M[n, n] = red.A.real, red.B.real, -beta
    Phi = scipy.linalg.expm(M * dt)
    z = np.zeros(n + 1)
    z[n] = 1.0
    weighted = np.empty(n_steps + 1)
    for i in range(n_steps + 1):
        weighted[i] = math.exp(beta * i * dt) * float(np.max(np.abs(red.C.real @ z[:n])))
        z = Phi @ z
    assert probe.value == pytest.approx(float(np.max(weighted)), rel=1e-9)


def test_brute_force_gain_step_recursion_matches_closed_form(rng, monkeypatch):
    sys_ = random_system(rng, 4, m=2, p=2, margin=0.5)
    beta = 0.2
    closed = brute_force_gain(sys_, beta)
    monkeypatch.setattr(np.linalg, "cond", lambda *args, **kwargs: np.inf)
    stepped = brute_force_gain(sys_, beta)
    assert stepped.value == pytest.approx(closed.value, rel=1e-9)
    assert (stepped.peak_omega, stepped.peak_family) == (closed.peak_omega, closed.peak_family)
