"""Explicit three-user witness construction on diagonal channels.

The verifier is the oracle; beyond it, the three span conditions that make
the construction work are re-checked directly from the output subspaces.
"""

from fractions import Fraction

import numpy as np
import pytest

from align_lab.cj3 import Cj3Instance, build_instance, construct, exceeds_tdma
from align_lab.errors import DegenerateSpan, DimensionMismatch, SingularChannel
from align_lab.model import (
    ChannelSet,
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
    assert exceeds_tdma(inst)
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


def test_decoders_are_orthonormal_and_orthogonal_to_interference():
    inst = build_instance(2, seed=3)
    h = inst.channels.matrices
    v = inst.solution.V
    for k, u in enumerate(inst.solution.U):
        assert np.allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-12)
        for j in range(3):
            if j != k:
                assert np.max(np.abs(u.conj().T @ h[k][j] @ v[j])) < 1e-12


def test_total_streams_fill_the_odd_dimension_plus_signal():
    for n in (1, 2, 5):
        inst = build_instance(n, seed=0)
        assert inst.N_s == 2 * n + 1
        assert sum(inst.solution.d) == 3 * n + 1
        assert exceeds_tdma(inst)


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
    # the construction reads diagonal-layout sets only; in_layout moves one there
    cfg = diagonal_config(3, 3, (2, 1, 1), seed=2)
    dense = ChannelSet(sample_channels(cfg).matrices)
    with pytest.raises(DimensionMismatch, match="generic layout"):
        construct(dense, 1)
    construct(dense.in_layout(cfg), 1)


def test_construct_rejects_wrong_user_count():
    ch = sample_channels(diagonal_config(4, 3, 1))
    with pytest.raises(DimensionMismatch):
        construct(ch, 1)


def zeroed_entry_channels():
    cfg = diagonal_config(3, 3, (2, 1, 1), seed=2)
    mats = [[m.copy() for m in row] for row in sample_channels(cfg).matrices]
    mats[0][1][1, 1] = 0.0
    return ChannelSet(matrices=tuple(tuple(r) for r in mats)).in_layout(cfg)


def test_construct_rejects_singular_channel():
    with pytest.raises(SingularChannel):
        construct(zeroed_entry_channels(), 1)


def all_ones_channels(n_s):
    eye = np.eye(n_s, dtype=complex)
    dense = ChannelSet(matrices=tuple(tuple(eye for _ in range(3)) for _ in range(3)))
    return dense.in_layout(diagonal_config(3, n_s, 1))


def test_identical_channels_collapse_the_chain():
    # every ratio equals one, so the chain never leaves its first direction
    with pytest.raises(DegenerateSpan):
        construct(all_ones_channels(5), 2)


def test_instance_shape_guard():
    inst = build_instance(1, seed=0)
    with pytest.raises(DimensionMismatch):
        Cj3Instance(n=2, N_s=3, channels=inst.channels, solution=inst.solution)


def test_build_instance_is_deterministic():
    a = build_instance(2, seed=9)
    b = build_instance(2, seed=9)
    for x, y in zip(a.solution.V + a.solution.U, b.solution.V + b.solution.U):
        assert np.array_equal(x, y)


def test_distinct_seeds_give_distinct_channels():
    a = build_instance(2, seed=0)
    b = build_instance(2, seed=1)
    assert not np.allclose(a.channels.matrices[0][1], b.channels.matrices[0][1])
