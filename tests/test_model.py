"""Configuration, sampling, and serialization round-trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from align_lab.counting import dim_channel_space
from align_lab.errors import DimensionMismatch, InvalidSpec, StreamOverflow
from align_lab.model import (
    ChannelSet,
    IaSolution,
    StructureKind,
    SystemConfig,
    block_diagonal_config,
    channels_from_json,
    channels_to_json,
    complex_normal,
    config_from_json,
    config_to_json,
    diagonal_config,
    generic_config,
    pair_support,
    sample_channels,
    solution_from_json,
    solution_to_json,
    substream,
    validate_config,
    with_seed,
)


def test_generic_factory_coerces_scalars_to_tuples():
    cfg = generic_config(3, 2, 1, seed=7)
    assert cfg.N == (2, 2, 2)
    assert cfg.d == (1, 1, 1)
    assert cfg.K == 3
    assert cfg.seed == 7
    assert cfg.structure.kind is StructureKind.GENERIC


def test_diagonal_factory_sets_common_dimension():
    cfg = diagonal_config(3, 5, (3, 2, 2))
    assert cfg.N == (5, 5, 5)
    assert cfg.n_s == 5
    assert cfg.structure.kind is StructureKind.DIAGONAL


def test_block_diagonal_factory_multiplies_blocks():
    cfg = block_diagonal_config(2, (2, 3), 4, (1, 1))
    assert cfg.M == (2, 3)
    assert cfg.N == (8, 12)
    assert cfg.structure.subcarriers == 4
    assert cfg.structure.kind is StructureKind.BLOCK_DIAGONAL


def test_validate_rejects_streams_exceeding_dimension():
    with pytest.raises(StreamOverflow):
        validate_config(generic_config(2, 2, (3, 1)))


def test_validate_rejects_length_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_config(SystemConfig(K=3, N=(2, 2), d=(1, 1, 1),
                                     structure=generic_config(3, 2, 1).structure))


def test_validate_rejects_nonpositive_users():
    with pytest.raises(DimensionMismatch):
        validate_config(generic_config(0, 2, 1))


def test_validate_rejects_seed_out_of_range():
    with pytest.raises(InvalidSpec):
        validate_config(generic_config(2, 2, 1, seed=-1))
    with pytest.raises(InvalidSpec):
        validate_config(generic_config(2, 2, 1, seed=2 ** 64))


def test_n_s_property_requires_common_dimension():
    with pytest.raises(DimensionMismatch):
        _ = generic_config(2, (2, 3), 1).n_s


def free_entries(cfg):
    """(j, k, row, col) of every free cross entry, in canonical order."""
    return [(j, k, t, r) for j in range(cfg.K) for k in range(cfg.K) if j != k
            for t, r in zip(*(a.tolist() for a in pair_support(cfg, j, k)))]


@pytest.mark.parametrize("cfg,count", [
    (generic_config(3, 2, 1), 24),
    (diagonal_config(4, 5, 1), 60),
    (block_diagonal_config(2, (2, 3), 4, 1), 48),
])
def test_free_entry_count_matches_enumeration(cfg, count):
    entries = free_entries(cfg)
    assert len(entries) == count
    assert dim_channel_space(cfg) == count
    assert entries == sorted(entries)
    assert len(set(entries)) == count


def test_diagonal_free_entries_stay_on_the_diagonal():
    cfg = diagonal_config(3, 4, 1)
    assert all(t == r for _, _, t, r in free_entries(cfg))


def test_block_diagonal_free_entries_respect_blocks():
    cfg = block_diagonal_config(2, (2, 3), 2, 1)
    for j, k, t, r in free_entries(cfg):
        m_rows, m_cols = (2, 3) if (j, k) == (0, 1) else (3, 2)
        assert t // m_rows == r // m_cols


def test_substream_is_deterministic_and_key_sensitive():
    a = substream(5, 1, 2).normal(size=4)
    b = substream(5, 1, 2).normal(size=4)
    c = substream(5, 1, 3).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_complex_normal_shape_and_scale():
    rng = substream(0, 99)
    z = complex_normal(rng, 2000)
    assert z.shape == (2000,)
    assert z.dtype == complex
    # unit total variance: real and imaginary parts carry half each
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.1


def test_sample_channels_is_reproducible():
    cfg = diagonal_config(3, 4, 1, seed=11)
    ch1 = sample_channels(cfg)
    ch2 = sample_channels(cfg)
    for j in range(3):
        for k in range(3):
            assert np.array_equal(ch1.matrices[j][k], ch2.matrices[j][k])


def test_sample_channels_changes_with_seed():
    a = sample_channels(generic_config(2, 2, 1, seed=0))
    b = sample_channels(generic_config(2, 2, 1, seed=1))
    assert not np.allclose(a.matrices[0][1], b.matrices[0][1])


@pytest.mark.parametrize("cfg", [
    generic_config(3, (2, 3, 4), (1, 1, 2), seed=3),
    diagonal_config(3, 5, (2, 1, 1), seed=3),
    block_diagonal_config(3, (2, 1, 3), 3, 1, seed=3),
])
def test_sampled_channels_conform_to_their_structure(cfg):
    ch = sample_channels(cfg)
    assert ch.K == cfg.K
    assert ch.N == cfg.N
    for j in range(cfg.K):
        for k in range(cfg.K):
            h = ch.matrices[j][k]
            outside = np.ones(h.shape, dtype=bool)
            outside[pair_support(cfg, j, k)] = False
            assert np.all(h[outside] == 0), (j, k)
            assert np.all(h[~outside] != 0), (j, k)


def test_sampled_channels_are_read_only():
    ch = sample_channels(generic_config(2, 2, 1))
    with pytest.raises(ValueError):
        ch.matrices[0][1][0, 0] = 0.0


def test_cross_pairs_excludes_direct_links():
    ch = sample_channels(generic_config(3, 2, 1))
    pairs = list(ch.cross_pairs())
    assert len(pairs) == 6
    assert all(j != k for j, k in pairs)


def test_channel_set_copies_caller_arrays():
    h = np.ones((2, 2), dtype=complex)
    ch = ChannelSet(matrices=((h, h), (h, h)))
    h[0, 0] = 5.0
    assert all(np.array_equal(m, np.ones((2, 2))) for row in ch.matrices for m in row)
    # a read-only view of a writeable base could still change: copied too
    view = h[:, :]
    view.flags.writeable = False
    ch = ChannelSet(matrices=((view, view), (view, view)))
    h[0, 0] = 7.0
    assert ch.matrices[0][0][0, 0] == 5.0


def test_channel_set_takes_over_read_only_arrays():
    ch = sample_channels(generic_config(2, 2, 1))
    again = ChannelSet(ch.matrices)
    assert all(a is b for ra, rb in zip(ch.matrices, again.matrices)
               for a, b in zip(ra, rb))


def test_with_seed_replaces_only_the_seed():
    cfg = diagonal_config(3, 5, (2, 1, 1), seed=4)
    other = with_seed(cfg, 9)
    assert other.seed == 9
    assert (other.K, other.N, other.d, other.structure) == \
        (cfg.K, cfg.N, cfg.d, cfg.structure)


@pytest.mark.parametrize("cfg", [
    generic_config(3, (2, 3, 4), (1, 1, 2), seed=13),
    diagonal_config(4, 5, 1, seed=0),
    block_diagonal_config(2, (2, 3), 4, (1, 2), seed=2 ** 63),
])
def test_config_json_round_trip(cfg):
    assert config_from_json(config_to_json(cfg)) == cfg


def test_channels_json_round_trip_is_exact():
    ch = sample_channels(generic_config(3, (2, 3, 2), 1, seed=21))
    back = channels_from_json(channels_to_json(ch))
    for j in range(3):
        for k in range(3):
            assert np.array_equal(back.matrices[j][k], ch.matrices[j][k])


def test_solution_json_round_trip_is_exact():
    rng = substream(17, 0)
    sol = IaSolution(V=(complex_normal(rng, 4, 2), complex_normal(rng, 3, 1)),
                     U=(complex_normal(rng, 4, 2), complex_normal(rng, 3, 1)))
    back = solution_from_json(solution_to_json(sol))
    assert back.d == sol.d
    for a, b in zip(back.V + back.U, sol.V + sol.U):
        assert np.array_equal(a, b)


@given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2 ** 64 - 1))
def test_any_symmetric_diagonal_config_survives_json(k, n_s, seed):
    d = min(1, n_s)
    cfg = diagonal_config(k, n_s, d, seed=seed)
    validate_config(cfg)
    assert config_from_json(config_to_json(cfg)) == cfg


@given(st.integers(2, 5), st.integers(1, 4), st.integers(1, 3))
def test_free_entry_count_agrees_with_iteration(k, m, n_c):
    cfg = block_diagonal_config(k, m, n_c, 1)
    assert dim_channel_space(cfg) == len(free_entries(cfg))
    assert dim_channel_space(cfg) == k * (k - 1) * n_c * m * m
