import numpy as np
import pytest

from modalstab import (ModalBlock, ModalSystem, StateSpaceSystem, TailModel,
                       close_loop, closed_loop_matrix, partition_spectrum,
                       select_truncation, truncate)
from modalstab.errors import (DimensionMismatch, InfiniteUnstablePart, NotReachable,
                              ResolventAtEigenvalue, UnstableModeDiscarded)
from modalstab.plants import SourceProfile, build_heat, build_wave

from conftest import eig_match_distance, random_system

PI2 = np.pi ** 2


def scalar_block(lam, b=1.0, c=1.0, label=0):
    return ModalBlock(block_matrix=[[lam]], input_row=[[b]], output_col=[[c]], label=label)


def toy_system(lams, tail_alpha=100.0):
    blocks = [scalar_block(lam, label=i) for i, lam in enumerate(lams)]
    tail = TailModel(decay_alpha=tail_alpha, input_norm=0.0, output_graph_norm=0.0)
    return ModalSystem(blocks=blocks, tail=tail, input_dim=1, output_dim=1)


def test_block_dimensions_and_eigenvalues():
    blk = scalar_block(-2.5)
    assert blk.dim == 1
    assert blk.eigenvalues() == pytest.approx([-2.5])

    M = np.array([[0.0, 1.0], [-4.0, -1.0]])
    blk2 = ModalBlock(block_matrix=M, input_row=[[0.0], [1.0]],
                      output_col=[[1.0, 0.0]], label=3)
    expected = np.sort_complex(np.linalg.eigvals(M))
    got = np.sort_complex(blk2.eigenvalues())
    assert np.max(np.abs(got - expected)) < 1e-12


def test_two_by_two_eigenvalues_tie_exactly():
    # Equal damping across blocks must give bitwise-equal real parts so the
    # canonical order falls through to the |Im| tie-break.
    kappa = 0.8
    res = []
    for k in (0.5, 1.5, 2.5):
        M = [[0.0, 1.0], [-(PI2 * k * k), -kappa]]
        blk = ModalBlock(block_matrix=M, input_row=[[0.0], [1.0]],
                         output_col=[[1.0, 0.0]], label=int(k))
        res.append(blk.max_real())
    assert res[0] == res[1] == res[2] == -kappa / 2.0


def test_canonical_block_order_is_input_order_independent():
    lams = [-3.0, 2.0, -1.0, 0.0, -7.0]
    sys1 = toy_system(lams)
    rng = np.random.default_rng(7)
    blocks = [scalar_block(lam, label=i) for i, lam in enumerate(lams)]
    for _ in range(5):
        perm = rng.permutation(len(blocks))
        sys2 = ModalSystem(blocks=[blocks[i] for i in perm], tail=sys1.tail,
                           input_dim=1, output_dim=1)
        assert [b.label for b in sys2.blocks] == [b.label for b in sys1.blocks]
    # Descending rightmost real part: 2, 0, -1, -3, -7.
    assert [b.label for b in sys1.blocks] == [1, 3, 2, 0, 4]


def test_modal_system_rejects_duplicate_labels():
    tail = TailModel(decay_alpha=1.0, input_norm=0.0, output_graph_norm=0.0)
    with pytest.raises(ValueError):
        ModalSystem(blocks=[scalar_block(-1.0, label=0), scalar_block(-2.0, label=0)],
                    tail=tail, input_dim=1, output_dim=1)


def test_partition_heat_b5():
    sys_ = build_heat(5.0, SourceProfile.constant(1.0), N_max=8)
    part = partition_spectrum(sys_)
    assert part.unstable_indices == (0,)
    assert part.unstable_dim == 1
    assert set(part.retained_stable_indices) == set(range(1, 9))
    # Stable part is bounded by the k=1 eigenvalue 5 - pi^2.
    assert part.margin_omega == pytest.approx(5.0 - PI2)


def test_partition_heat_stable():
    sys_ = build_heat(-1.0, SourceProfile.constant(1.0), N_max=8)
    part = partition_spectrum(sys_)
    assert part.unstable_indices == ()
    assert part.margin_omega == pytest.approx(-1.0)


def test_partition_undamped_wave_raises():
    sys_ = build_wave(1.0, 0.0, SourceProfile.constant(1.0), N_max=8)
    with pytest.raises(InfiniteUnstablePart):
        partition_spectrum(sys_)


def test_partition_is_idempotent():
    sys_ = build_heat(15.0, SourceProfile.indicator(0.0, 0.5), N_max=12)
    p1 = partition_spectrum(sys_)
    p2 = partition_spectrum(sys_)
    assert p1 == p2


def test_partition_margin_validation():
    sys_ = toy_system([-1.0, -2.0], tail_alpha=0.5)
    with pytest.raises(ValueError):
        partition_spectrum(sys_, margin=0.0)
    with pytest.raises(ValueError):
        # Tail reaches Re = -0.5, stricter margin claims are rejected.
        partition_spectrum(sys_, margin=-1.0)


def test_close_loop_zero_controller():
    rng = np.random.default_rng(3)
    plant = random_system(rng, 4)
    zero = StateSpaceSystem(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)))
    M = close_loop(plant, zero, 5.0)
    got = np.sort_complex(np.linalg.eigvals(M))
    expected = np.sort_complex(np.concatenate([np.linalg.eigvals(plant.A), [0.0, 0.0]]))
    assert np.max(np.abs(got - expected)) < 1e-9


def test_close_loop_scalar_example():
    plant = StateSpaceSystem([[1.0]], [[1.0]], [[1.0]])
    controller = StateSpaceSystem([[-3.0]], [[1.0]], [[-4.0]])
    M = close_loop(plant, controller, 2.0)
    # Double root at -1: a defective eigenvalue splits by sqrt(roundoff).
    assert eig_match_distance(np.linalg.eigvals(M), [-1.0, -1.0]) < 1e-6
    direct = closed_loop_matrix(plant, controller)
    assert eig_match_distance(np.linalg.eigvals(direct), [-1.0, -1.0]) < 1e-6


def test_close_loop_similarity_random(rng):
    for _ in range(20):
        plant = random_system(rng, rng.integers(1, 5), m=1, p=1)
        controller = random_system(rng, rng.integers(1, 5), m=1, p=1)
        lam = 30.0 + rng.standard_normal()
        shifted = np.linalg.eigvals(close_loop(plant, controller, lam))
        direct = np.linalg.eigvals(closed_loop_matrix(plant, controller))
        assert eig_match_distance(shifted, direct) < 1e-9


def test_close_loop_lambda_independence(rng):
    plant = random_system(rng, 3)
    controller = random_system(rng, 2)
    e1 = np.linalg.eigvals(close_loop(plant, controller, 17.0))
    e2 = np.linalg.eigvals(close_loop(plant, controller, -41.0 + 3.0j))
    assert eig_match_distance(e1, e2) < 1e-8


def test_close_loop_rejects_plant_eigenvalue():
    plant = StateSpaceSystem([[1.0]], [[1.0]], [[1.0]])
    controller = StateSpaceSystem([[-3.0]], [[1.0]], [[-4.0]])
    with pytest.raises(ResolventAtEigenvalue):
        close_loop(plant, controller, 1.0)


def test_truncate_all_blocks_keeps_tail():
    sys_ = build_heat(5.0, SourceProfile.constant(1.0), N_max=8)
    _, tail = truncate(sys_, len(sys_.blocks))
    assert tail == sys_.tail


def test_truncate_constant_profile_has_zero_tail_input():
    # f = 1 excites only the k = 0 mode.
    sys_ = build_heat(0.0, SourceProfile.constant(1.0), N_max=8)
    for N in (1, 3, 8):
        _, tail = truncate(sys_, N)
        assert tail.input_norm == 0.0


def test_truncate_refuses_to_discard_unstable():
    sys_ = build_heat(5.0, SourceProfile.constant(1.0), N_max=8)
    with pytest.raises(UnstableModeDiscarded):
        truncate(sys_, 0)


def test_truncate_absorbs_discarded_blocks():
    sys_ = build_heat(-1.0, SourceProfile.indicator(0.0, 0.5), N_max=16)
    dense, tail = truncate(sys_, 4)
    assert dense.n == 4
    # Parseval over the discarded blocks plus the analytic tail.
    expect_sq = sys_.tail.input_norm ** 2 + sum(
        float(np.linalg.norm(blk.input_row)) ** 2 for blk in sys_.blocks[4:])
    assert tail.input_norm ** 2 == pytest.approx(expect_sq, rel=1e-13)
    # The slowest discarded mode sets the decay rate.
    assert tail.decay_alpha == pytest.approx(-sys_.blocks[4].max_real())


def test_truncate_tail_input_monotone_in_N():
    sys_ = build_heat(5.0, SourceProfile.indicator(0.0, 0.5), N_max=24)
    norms = [truncate(sys_, N)[1].input_norm for N in range(1, len(sys_.blocks) + 1)]
    assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_select_truncation_partial_sum_oracle():
    count = 65
    vals = [1.0 / (k + 1) ** 2 for k in range(count + 40)]
    sys_ = build_heat(5.0, SourceProfile.coefficients(vals), N_max=count - 1)
    eps = 0.1
    N = select_truncation(sys_, eps)
    # Independent partial-sum computation over the full coefficient list.
    def tail_norm(n):
        return np.sqrt(sum(v * v for v in vals[n:]))
    assert tail_norm(N) < eps <= tail_norm(N - 1)


def test_select_truncation_trivial_cases():
    sys_ = build_heat(5.0, SourceProfile.constant(1.0), N_max=8)
    assert select_truncation(sys_, 1e-12) == 1
    assert select_truncation(sys_, 1e9) == 1  # unstable floor


def test_select_truncation_not_reachable():
    vals = [1.0 / (k + 1) for k in range(200)]
    sys_ = build_heat(5.0, SourceProfile.coefficients(vals), N_max=4)
    with pytest.raises(NotReachable):
        select_truncation(sys_, 1e-6)


def test_state_space_validation():
    with pytest.raises(DimensionMismatch):
        StateSpaceSystem(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)))
    with pytest.raises(DimensionMismatch):
        StateSpaceSystem(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        StateSpaceSystem([[np.nan]], [[1.0]], [[1.0]])
