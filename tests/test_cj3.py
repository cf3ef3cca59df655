"""Explicit three-user witness construction on diagonal channels.

The verifier is the oracle; beyond it, the three span conditions that make
the construction work are re-checked directly from the output subspaces.
"""

from fractions import Fraction

import numpy as np
import pytest

from align_lab.cj3 import Cj3Instance, build_instance, construct
from align_lab.counting import cj_config, cj_parameters, tdma_baseline
from align_lab.errors import DegenerateSpan, DimensionMismatch, NumericOverflow, SingularChannel
from align_lab.model import (
    ChannelSet,
    IaSolution,
    diagonal_config,
    generic_config,
    sample_channels,
)
from align_lab.subspaces import numerical_rank
from align_lab.verify import check


def span_rank(*blocks):
    return numerical_rank(np.hstack(blocks))


def test_smallest_instance_verifies():
    inst = build_instance(1, seed=1)
    res = check(inst.channels, inst.solution)
    assert res.leakage < 1e-9
    assert res.direct_ranks == (2, 1, 1)


def test_mid_size_instance_verifies_and_beats_time_sharing():
    inst = build_instance(3, seed=42)
    res = check(inst.channels, inst.solution)
    assert res.leakage < 1e-9
    assert res.direct_ranks == (4, 3, 3)
    # 10 streams over 7 slots for 3 users: 10/21 of the cake, above 1/3
    assert cj_parameters(3, 3).d_bar > tdma_baseline(3)
    assert Fraction(10, 21) > Fraction(1, 3)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_span_conditions_hold(n):
    inst = build_instance(n, seed=6)
    h = inst.channels.matrices
    v1, v2, v3 = inst.solution.V
    # interference from users 2 and 3 coincides at receiver 0
    assert span_rank(h[0][1] @ v2) == n
    assert span_rank(h[0][2] @ v3) == n
    assert span_rank(h[0][1] @ v2, h[0][2] @ v3) == n
    # at receivers 1 and 2 the stray block lands inside user 1's image
    assert span_rank(h[1][0] @ v1) == n + 1
    assert span_rank(h[1][0] @ v1, h[1][2] @ v3) == n + 1
    assert span_rank(h[2][0] @ v1, h[2][1] @ v2) == n + 1


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_decoders_are_orthonormal_and_orthogonal_to_interference(n):
    inst = build_instance(n, seed=3)
    h = inst.channels.matrices
    v = inst.solution.V
    for k, u in enumerate(inst.solution.U):
        assert np.allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-12)
        for j in range(3):
            if j != k:
                assert np.max(np.abs(u.conj().T @ h[k][j] @ v[j])) < 1e-12


def one_ulp_up(v):
    return np.nextafter(v.real, np.inf) + 1j * np.nextafter(v.imag, np.inf)


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_decoders_move_only_in_their_last_bits(n):
    # each decoder is tied to its interference span, not to rounding noise:
    # a one-ulp change to every channel entry barely moves it
    cfg = cj_config(3, n, seed=0)
    ch = sample_channels(cfg)
    moved = ChannelSet(cfg, [[one_ulp_up(v) for v in row] for row in ch.free])
    for a, b in zip(construct(ch, n).U, construct(moved, n).U):
        assert np.max(np.abs(a - b)) < 1e-10


def test_total_streams_fill_the_odd_dimension_plus_signal():
    for n in (1, 2, 5):
        inst = build_instance(n, seed=0)
        assert inst.channels.N[0] == 2 * n + 1
        assert sum(inst.solution.d) == 3 * n + 1
        assert cj_parameters(3, n).d_bar > tdma_baseline(3)


def test_construct_rejects_nonpositive_index():
    ch = sample_channels(diagonal_config(3, 3, (2, 1, 1)))
    with pytest.raises(ValueError):
        construct(ch, 0)


def test_construct_rejects_wrong_dimension():
    ch = sample_channels(diagonal_config(3, 4, (2, 1, 1)))
    with pytest.raises(DimensionMismatch):
        construct(ch, 1)


def test_construct_rejects_dense_channels():
    ch = sample_channels(generic_config(3, 3, (2, 1, 1)))
    with pytest.raises(DimensionMismatch):
        construct(ch, 1)


def test_construct_rejects_diagonal_values_in_the_generic_layout():
    # the construction reads diagonal-layout sets only; from_dense gathers one
    cfg = diagonal_config(3, 3, (2, 1, 1), seed=2)
    mats = sample_channels(cfg).matrices
    dense = ChannelSet.from_dense(generic_config(3, 3, (2, 1, 1)), mats)
    with pytest.raises(DimensionMismatch, match="generic layout"):
        construct(dense, 1)
    construct(ChannelSet.from_dense(cfg, mats), 1)


def test_construct_rejects_wrong_user_count():
    ch = sample_channels(diagonal_config(4, 3, 1))
    with pytest.raises(DimensionMismatch):
        construct(ch, 1)


def zeroed_entry_channels():
    cfg = diagonal_config(3, 3, (2, 1, 1), seed=2)
    mats = [[m.copy() for m in row] for row in sample_channels(cfg).matrices]
    mats[0][1][1, 1] = 0.0
    return ChannelSet.from_dense(cfg, mats)


def test_construct_rejects_singular_channel():
    with pytest.raises(SingularChannel):
        construct(zeroed_entry_channels(), 1)


def all_ones_channels(n_s):
    eye = np.eye(n_s, dtype=complex)
    return ChannelSet.from_dense(diagonal_config(3, n_s, 1), [[eye] * 3] * 3)


def test_identical_channels_collapse_the_chain():
    # every ratio equals one, so the chain never leaves its first direction
    with pytest.raises(DegenerateSpan):
        construct(all_ones_channels(5), 2)


def test_rescaled_precoders_that_lose_rank_raise():
    # a huge slot in H[1][0] and H[2][0] swamps the rescaled copies of the
    # Krylov basis, so orthonormalizing them loses a direction
    ch = sample_channels(cj_config(3, 2, seed=0))
    free = [[v.copy() for v in row] for row in ch.free]
    for k in (1, 2):
        free[k][0][0] *= 1e16
    with pytest.raises(DegenerateSpan, match=r"^rescaled precoders lost rank \(1, 1 < 2\)$"):
        construct(ChannelSet(ch, free), 2)


def test_start_vector_beyond_float64_is_named():
    # |t|^(-n/2) at seed 0 overflows from about n=140 on; numpy's warning is
    # silenced and the overflow named before the chain divides by the norm
    with pytest.raises(NumericOverflow, match=r"^the Krylov start vector \|t\|\^\(-100\.0\) "):
        build_instance(200, seed=0)


def test_instance_shape_guard():
    inst = build_instance(1, seed=0)
    with pytest.raises(DimensionMismatch):
        Cj3Instance(n=2, channels=inst.channels, solution=inst.solution)


@pytest.mark.parametrize("swap,message", [
    ("channels", "channels: N=(5, 5, 5) is not three copies of 2n+1=3 for n=1"),
    ("solution", "solution: N=(5, 5, 5) is not three copies of 2n+1=3 for n=1"),
    ("streams", "stream split (1, 1, 1) is not (n+1, n, n) for n=1"),
])
def test_instance_guard_names_what_is_wrong(swap, message):
    one, two = build_instance(1, seed=0), build_instance(2, seed=0)
    ones = (np.ones((3, 1)),) * 3
    parts = {"channels": (two.channels, one.solution),
             "solution": (one.channels, two.solution),
             "streams": (one.channels, IaSolution(V=ones, U=ones))}[swap]
    with pytest.raises(DimensionMismatch) as exc:
        Cj3Instance(1, *parts)
    assert str(exc.value) == message


def test_instance_rejects_channels_of_another_index():
    # the guard reads the channels it holds, not a stored copy of their shape
    one, two = build_instance(1, seed=0), build_instance(2, seed=0)
    with pytest.raises(DimensionMismatch, match="channels"):
        Cj3Instance(n=1, channels=two.channels, solution=one.solution)
    with pytest.raises(DimensionMismatch):
        Cj3Instance(n=2, channels=two.channels, solution=one.solution)


def test_build_instance_is_deterministic():
    a = build_instance(2, seed=9)
    b = build_instance(2, seed=9)
    for x, y in zip(a.solution.V + a.solution.U, b.solution.V + b.solution.U):
        assert np.array_equal(x, y)


def test_distinct_seeds_give_distinct_channels():
    a = build_instance(2, seed=0)
    b = build_instance(2, seed=1)
    assert not np.allclose(a.channels.matrices[0][1], b.channels.matrices[0][1])
