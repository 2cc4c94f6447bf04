import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalstab import (BlockStack, ModalBlock, ModalSystem, StateSpaceSystem, TailModel,
                       check_stabilizable, close_loop, closed_loop_matrix, partition_spectrum,
                       select_truncation, truncate)
from modalstab.errors import (DimensionMismatch, InfiniteUnstablePart, NotReachable,
                              ResolventAtEigenvalue, UnstableModeDiscarded)
from modalstab.modal import truncate_tail
from modalstab.plants import SourceProfile, build_heat, build_heat_boundary, build_wave

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
        res.append(max(blk.eigenvalues().real))
    assert res[0] == res[1] == res[2] == -kappa / 2.0


def test_two_by_two_eigenvalues_survive_a_tiny_discriminant():
    # (a11 - a22)^2 = 1e-400 underflows to 0 in float64, which put both
    # eigenvalues at -5e-201 and lost the exact 0 of this kernel block
    blk = ModalBlock(block_matrix=[[0.0, 0.0], [2.0, -1e-200]], input_row=[[1.0], [0.0]],
                     output_col=[[1.0, 1.0]], label=-1)
    assert sorted(blk.eigenvalues().real.tolist()) == [-1e-200, 0.0]
    x = 1e-300  # 4 a12 a21 = -4e-600 underflows too
    rotation = ModalBlock(block_matrix=[[x, x], [-x, x]], input_row=[[1.0], [0.0]],
                          output_col=[[1.0, 0.0]], label=0)
    assert rotation.eigenvalues().tolist() == [complex(x, x), complex(x, -x)]


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


def test_n_unstable_is_the_unstable_prefix():
    # Random 1x1 and 2x2 blocks in random order, real parts exactly 0 included:
    # n_unstable, the partition and the truncation bounds must all agree with
    # the per-block definition "unstable iff an eigenvalue has Re >= 0".
    rng = np.random.default_rng(11)
    reals = [-2.0, -0.5, -0.0, 0.0, 0.5, 3.0]
    for _ in range(60):
        blocks = []
        for label in range(int(rng.integers(0, 8))):
            re, kind = float(rng.choice(reals)), int(rng.integers(3))
            if kind == 0:
                blocks.append(scalar_block(re, label=label))
                continue
            if kind == 1:  # eigenvalues re +- i w
                w = float(rng.choice([0.5, 2.0]))
                M = [[re, w], [-w, re]]
            else:  # eigenvalues re and another real part
                M = [[re, 1.0], [0.0, float(rng.choice(reals))]]
            blocks.append(ModalBlock(M, [[0.0], [1.0]], [[1.0, 0.0]], label=label))
        tail = TailModel(decay_alpha=float(rng.choice([0.25, 4.0])), input_norm=0.0,
                         output_graph_norm=0.0)
        sys_ = ModalSystem(blocks=blocks, tail=tail, input_dim=1, output_dim=1)
        unstable = [max(blk.eigenvalues().real) >= 0.0 for blk in sys_.blocks]
        n_u = sys_.n_unstable
        assert n_u == sum(unstable)
        assert unstable == [True] * n_u + [False] * (len(unstable) - n_u)
        part = partition_spectrum(sys_)
        assert part.unstable_indices == tuple(
            blk.label for blk, u in zip(sys_.blocks, unstable) if u)
        assert part.retained_stable_indices == tuple(
            blk.label for blk, u in zip(sys_.blocks, unstable) if not u)
        assert part.unstable_dim == sum(
            blk.dim for blk, u in zip(sys_.blocks, unstable) if u)
        assert part.margin_omega == max([-tail.decay_alpha] + [
            max(blk.eigenvalues().real) for blk, u in zip(sys_.blocks, unstable) if not u])
        assert select_truncation(sys_, 1e9) == n_u
        truncate_tail(sys_, n_u)
        if n_u:
            with pytest.raises(UnstableModeDiscarded):
                truncate_tail(sys_, n_u - 1)
    with pytest.raises(TypeError):
        ModalSystem(blocks=blocks, tail=tail, input_dim=1, output_dim=1, n_unstable=0)


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


def _assembled_loop(plant, controller):
    return np.block([[plant.A, plant.B @ controller.C], [controller.B @ plant.C, controller.A]])


def test_closed_loop_matrix_is_float64_for_a_real_loop(rng):
    plant = random_system(rng, 4, m=2, p=3)
    controller = random_system(rng, 3, m=3, p=2)
    M = closed_loop_matrix(plant, controller)
    assert M.dtype == np.float64 and M.flags.c_contiguous
    assert np.array_equal(M, _assembled_loop(plant, controller))


@pytest.mark.parametrize("side, name", [(side, name) for side in ("plant", "controller")
                                        for name in "ABC"])
def test_closed_loop_matrix_stays_complex_for_a_complex_block(rng, side, name):
    loop = {"plant": random_system(rng, 4, m=2, p=3),
            "controller": random_system(rng, 3, m=3, p=2)}
    entries = getattr(loop[side], name).copy()
    entries[0, 0] += 1e-3j
    loop[side] = loop[side].replace(**{name: entries})
    M = closed_loop_matrix(loop["plant"], loop["controller"])
    assert M.dtype == np.complex128 and np.any(M.imag)
    assert np.array_equal(M, _assembled_loop(loop["plant"], loop["controller"]))


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
    assert tail.decay_alpha == pytest.approx(-sys_.blocks[4].eigenvalues()[0].real)


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


# The block table against a per-block oracle: every column the batched pass
# fills, recomputed one block at a time with plain numpy calls.
def _oracle(blk):
    M, B, C = blk.block_matrix, blk.input_row, blk.output_col
    if len(M) == 1:
        eigs = M[0, :1].copy()
    elif len(M) == 2:
        (a11, a12), (a21, a22) = M
        tr, root = a11 + a22, np.sqrt((a11 - a22) ** 2 + 4.0 * a12 * a21)
        eigs = np.array([(tr + root) / 2.0, (tr - root) / 2.0])
    else:
        eigs = np.linalg.eigvals(M)
    max_re = float(np.max(eigs.real))
    tied = eigs[np.isclose(eigs.real, max_re, rtol=0.0, atol=1e-12 * (1.0 + abs(max_re)))]
    condition = 1.0
    if len(M) > 1:
        vecs = np.linalg.eig(M)[1]
        sv = np.linalg.svd(vecs / np.linalg.norm(vecs, axis=0), compute_uv=False)
        condition = float("inf") if sv[-1] <= 1e-300 else float(sv[0] / sv[-1])
    graph = float(np.linalg.norm(C, 2)) / (1.0 + float(np.linalg.svd(M, compute_uv=False)[-1]))
    return {"eigs": eigs, "max_re": max_re,
            "key": (-max_re, float(np.min(np.abs(tied.imag))), blk.label),
            "in_norm": float(np.linalg.norm(B)), "out_norm": float(np.linalg.norm(C)),
            "out_sq": graph ** 2, "condition": condition}


# exact ties in Re, +-0.0 included, next to arbitrary reals
ENTRIES = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0]),
                    st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def random_block(draw, m):
    kind = draw(st.sampled_from(["scalar", "pair", "triangular", "defective", "near_tie",
                                 "dense2", "dense3"]))
    r = draw(ENTRIES)
    if kind == "scalar":
        M = [[r]]
    elif kind == "pair":  # eigenvalues r +- i|w|, real part exactly r
        w = draw(ENTRIES)
        M = [[r, w], [-w, r]]
    elif kind == "triangular":
        M = [[r, draw(ENTRIES)], [0.0, draw(ENTRIES)]]
    elif kind == "defective":  # a Jordan block: eigenvector condition inf
        M = [[-1e-20, 0.0], [1.0, -1e-20]]
    elif kind == "near_tie":  # r +- 2i and a real eigenvalue within the tie tolerance
        M = [[r, 2.0, 0.0], [-2.0, r, 0.0], [0.0, 0.0, r - 1e-13]]
    else:
        d = int(kind[-1])
        M = [[draw(ENTRIES) for _ in range(d)] for _ in range(d)]
    d = len(M)
    B = [[draw(ENTRIES) for _ in range(m)] for _ in range(d)]
    C = [[draw(ENTRIES) for _ in range(d)]]
    return M, B, C


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_block_table_matches_per_block_oracle(data):
    m = data.draw(st.sampled_from([1, 2]))
    raw = data.draw(st.lists(random_block(m), max_size=8))
    labels = data.draw(st.permutations(range(-2, len(raw) - 2)))
    blocks = [ModalBlock(M, B, C, label=lab) for (M, B, C), lab in zip(raw, labels)]
    items = blocks
    if data.draw(st.booleans()):  # the same blocks as one stack per dimension
        items = [BlockStack(*(np.stack([getattr(blk, name) for blk in group])
                              for name in ("block_matrix", "input_row", "output_col")),
                            [blk.label for blk in group])
                 for group in ([blk for blk in blocks if blk.dim == d] for d in (1, 2, 3))
                 if group]
    tail = TailModel(decay_alpha=data.draw(st.sampled_from([0.25, 4.0])), input_norm=0.5,
                     output_graph_norm=0.25, amplitude_a=data.draw(st.sampled_from([1.0, 3.0])))
    sys_ = ModalSystem(items, tail, m, 1)

    oracle = {blk.label: _oracle(blk) for blk in blocks}
    order = sorted(oracle, key=lambda lab: oracle[lab]["key"])
    assert sys_.labels.tolist() == order == [blk.label for blk in sys_.blocks]
    n_u = sum(o["max_re"] >= 0.0 for o in oracle.values())
    assert sys_.n_unstable == n_u
    assert [oracle[lab]["max_re"] >= 0.0 for lab in order] == [True] * n_u + [False] * (
        len(order) - n_u)
    for i, lab in enumerate(order):
        expected = oracle[lab]["eigs"].tobytes()
        assert sys_.eigenvalues(i).tobytes() == expected
        assert sys_.blocks[i].eigenvalues().tobytes() == expected
    for N in range(len(order) + 1):
        if N < n_u:
            with pytest.raises(UnstableModeDiscarded):
                truncate_tail(sys_, N)
            continue
        input_sq, output_sq = tail.input_norm ** 2, tail.output_graph_norm ** 2
        alpha, amp = tail.decay_alpha, tail.amplitude_a
        for lab in order[N:]:
            o = oracle[lab]
            input_sq += o["in_norm"] ** 2
            output_sq += o["out_sq"]
            alpha = min(alpha, -o["max_re"])
            amp = max(amp, o["condition"])
        assert truncate_tail(sys_, N) == TailModel(
            alpha, float(np.sqrt(input_sq)), float(np.sqrt(output_sq)),
            amp if np.isfinite(amp) else 1e308)
    assert sys_.labels.tolist() == order
    assert list(zip(sys_.input_norms.tolist(), sys_.output_norms.tolist())) == [
        (oracle[lab]["in_norm"], oracle[lab]["out_norm"]) for lab in order]
    report = check_stabilizable(sys_)
    assert len(report.stab_margins) == len(report.det_margins) == n_u
    assert report.prefix.n == int(sys_.dims[:n_u].sum())


def test_block_table_edge_cases():
    tail = TailModel(decay_alpha=2.0, input_norm=0.0, output_graph_norm=0.0)
    empty = ModalSystem((), tail, 1, 1)
    assert len(empty) == 0 and empty.n_unstable == 0 and empty.blocks == ()
    no_rows = BlockStack(np.zeros((0, 3, 3)), np.zeros((0, 3, 2)), np.zeros((0, 1, 3)), [])
    assert len(ModalSystem([no_rows, scalar_block(-1.0)], tail, 1, 1)) == 1
    assert truncate_tail(empty, 0) == tail
    assert partition_spectrum(empty).margin_omega == -2.0
    # equal rightmost Re: the real eigenvalue 1e-13 left of it still counts for |Im|
    near_tie = ModalBlock([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, -1.0 - 1e-13]],
                          np.ones((3, 1)), np.ones((1, 3)), label=0)
    pair = ModalBlock([[-1.0, 1.0], [-1.0, -1.0]], [[0.0], [1.0]], [[1.0, 0.0]], label=-1)
    assert ModalSystem([pair, near_tie], tail, 1, 1).labels.tolist() == [0, -1]
    jordan = ModalBlock([[-1e-20, 0.0], [1.0, -1e-20]], [[0.0], [1.0]], [[1.0, 0.0]], label=0)
    assert truncate_tail(ModalSystem([jordan], tail, 1, 1), 0).amplitude_a == 1e308
    two_inputs = ModalBlock([[-1.0]], [[1.0, 2.0]], [[1.0]], label=1)
    with pytest.raises(DimensionMismatch):
        ModalSystem([scalar_block(-2.0), two_inputs], tail, 1, 1)
    with pytest.raises(DimensionMismatch):
        ModalSystem([scalar_block(-2.0), ModalBlock([[-1.0]], [[1.0]], [[1.0], [2.0]], 1)],
                    tail, 1, 1)
    with pytest.raises(DimensionMismatch):
        BlockStack(np.zeros((2, 1, 1)), np.zeros((3, 1, 1)), np.zeros((2, 1, 1)), [0, 1])
    with pytest.raises(DimensionMismatch):
        BlockStack(np.zeros((2, 1, 1)), np.zeros((2, 1, 1)), np.zeros((2, 1, 1)), [0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            BlockStack(np.full((2, 1, 1), bad), np.zeros((2, 1, 1)), np.zeros((2, 1, 1)), [0, 1])
    stack = BlockStack(-np.ones((2, 1, 1)), np.ones((2, 1, 1)), np.ones((2, 1, 1)), [0, 1])
    with pytest.raises(ValueError, match="distinct"):
        ModalSystem([stack, scalar_block(-3.0, label=1)], tail, 1, 1)


def test_scalar_block_closed_form_equals_the_svd():
    # A 1x1 block's tail output term (|c| / (1 + |a|))^2 is read off instead of
    # taken from two SVDs; on the real scalar blocks of the heat and boundary
    # survey plants the two agree bit for bit.
    profiles = (SourceProfile.constant(1.0), SourceProfile.indicator(0.0, 0.5),
                SourceProfile.indicator(0.1, 0.6), SourceProfile.cosine(1.5))
    checked = 0
    for b in (5.0, 15.0, 30.0, 60.0):
        for f in profiles:
            for N_max in (64, 256):
                for sys_ in (build_heat(b, f, N_max),
                             build_heat_boundary(b, f, [b + 7.0], N_max)[0]):
                    for blk, got in zip(sys_.blocks, sys_._output_sq):
                        if blk.dim == 1:
                            c_norm = float(np.linalg.norm(blk.output_col, 2))
                            sigma = float(np.linalg.svd(blk.block_matrix, compute_uv=False)[0])
                            assert got == (c_norm / (1.0 + sigma)) ** 2
                            checked += 1
    assert checked == 10_336
