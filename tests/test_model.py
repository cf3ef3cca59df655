"""Configuration, sampling, and serialization round-trips."""

import dataclasses
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from align_lab.cli import _matrices_from_json, _pairs
from align_lab.counting import (cj_config, cj_parameters, dim_channel_space, equation_count,
                                improper_by_threshold, min_improper_n, symmetric_bound,
                                tdma_baseline)
from align_lab.errors import DimensionMismatch, InvalidSpec, StreamOverflow
from align_lab.model import (
    ChannelSet,
    ChannelStructure,
    IaSolution,
    StructureKind,
    SystemConfig,
    block_diagonal_config,
    complex_normal,
    config_from_json,
    config_to_json,
    cross_pairs,
    diagonal_config,
    generic_config,
    pair_support,
    sample_channels,
    substream,
)
from align_lab.probe import run_probe
from align_lab.solve import SolverOptions


def test_generic_factory_coerces_scalars_to_tuples():
    cfg = generic_config(3, 2, 1, seed=7)
    assert cfg.N == (2, 2, 2)
    assert cfg.d == (1, 1, 1)
    assert cfg.K == 3
    assert cfg.seed == 7
    assert cfg.structure.kind is StructureKind.GENERIC


@pytest.mark.parametrize("name,value,build", [
    ("N", 2, lambda x: generic_config(3, x, 1)),
    ("d", 1, lambda x: generic_config(3, 2, x)),
    ("d", 1, lambda x: diagonal_config(3, 4, x)),
    ("M", 2, lambda x: block_diagonal_config(3, x, 2, 1)),
    ("d", 1, lambda x: block_diagonal_config(3, 2, 2, x)),
], ids=["generic-N", "generic-d", "diagonal-d", "block-diagonal-M", "block-diagonal-d"])
def test_config_builders_broadcast_any_integer_scalar(name, value, build):
    cfg = build(np.int64(value))
    assert cfg == build(value)
    assert all(type(x) is int for x in cfg.N + cfg.d)
    with pytest.raises(InvalidSpec) as exc:
        build(float(value))
    assert str(exc.value) == f"{name} must be an integer, got {float(value)!r}"


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
        generic_config(2, 2, (3, 1))


def test_validate_rejects_length_mismatch():
    with pytest.raises(DimensionMismatch):
        SystemConfig(K=3, N=(2, 2), d=(1, 1, 1),
                     structure=generic_config(3, 2, 1).structure)


GENERIC, DIAGONAL = ChannelStructure("generic"), ChannelStructure("diagonal")
OFDM_2 = ChannelStructure("block-diagonal", 2)


@pytest.mark.parametrize("build,message", [
    (lambda: SystemConfig(2, (2, 2), (1,), GENERIC), "d has 1 entries for K=2 users"),
    (lambda: SystemConfig(2, (2, 0), (1, 1), GENERIC),
     "signal dimensions must be positive, got N=(2, 0)"),
    (lambda: SystemConfig(2, (2, 2), (1, 0), GENERIC),
     "stream counts must be positive, got d=(1, 0)"),
    (lambda: SystemConfig(2, (2, 2), (1, 1), ChannelStructure("block-diagonal"), M=(1, 1)),
     "block-diagonal structure requires a positive subcarrier count"),
    (lambda: SystemConfig(2, (2, 2), (1, 1), ChannelStructure("block-diagonal", 0), M=(2, 2)),
     "block-diagonal structure requires a positive subcarrier count"),
    (lambda: SystemConfig(2, (2, 2), (1, 1), OFDM_2, M=(1,)),
     "block-diagonal structure requires per-user antenna counts M"),
    (lambda: SystemConfig(2, (2, 2), (1, 1), OFDM_2, M=(1, 0)),
     "antenna counts must be positive, got M=(1, 0)"),
    (lambda: SystemConfig(2, (2, 3), (1, 1), OFDM_2, M=(1, 1)),
     "user 1: N_k=3 is not M_k*N_c=1*2=2"),
    (lambda: SystemConfig(2, (2, 2), (1, 1), ChannelStructure("generic", 2)),
     "subcarrier count is only meaningful for block-diagonal structures, got kind=generic"),
    (lambda: SystemConfig(2, (2, 2), (1, 1), DIAGONAL, M=(1, 1)),
     "antenna counts M are only meaningful for block-diagonal structures"),
    (lambda: SystemConfig(2, (2, 3), (1, 1), DIAGONAL),
     "diagonal structure requires a common signal dimension, got N=(2, 3)"),
    (lambda: ChannelSet(generic_config(2, 2, 1), [[np.zeros(4), np.zeros(3)],
                                                  [np.zeros(4), np.zeros(4)]]),
     "H[0][1] has free entries of shape (3,), expected (4,)"),
    (lambda: IaSolution(V=(np.ones((2, 1)),) * 2, U=(np.ones((2, 1)),) * 3),
     "2 precoders vs 3 decoders"),
    (lambda: IaSolution(V=(np.ones((2, 1)), np.ones((3, 1))), U=(np.ones((2, 1)),) * 2),
     "user 1: precoder shape (3, 1) vs decoder shape (2, 1)"),
    (lambda: IaSolution(V=(np.ones((2, 1)), np.ones(2)), U=(np.ones((2, 1)), np.ones(2))),
     "user 1: precoder shape (2,) vs decoder shape (2,)"),
    (lambda: IaSolution(V=(np.ones((2, 3)),), U=(np.ones((2, 3)),)),
     "user 0: 3 streams do not fit in dimension 2"),
    (lambda: IaSolution(V=(np.ones((2, 0)),), U=(np.ones((2, 0)),)),
     "user 0: 0 streams do not fit in dimension 2"),
], ids=["d-length", "N-positive", "d-positive", "no-subcarriers", "zero-subcarriers",
        "M-length", "M-positive", "N-is-M-times-Nc", "generic-subcarriers", "diagonal-M",
        "diagonal-common-N", "free-entry-shape", "user-counts", "user-shapes", "user-ndim",
        "too-many-streams", "no-streams"])
def test_model_objects_name_what_is_wrong(build, message):
    with pytest.raises(DimensionMismatch) as exc:
        build()
    assert str(exc.value) == message


def test_validate_rejects_nonpositive_users():
    with pytest.raises(DimensionMismatch):
        generic_config(0, 2, 1)


def test_validate_rejects_seed_out_of_range():
    with pytest.raises(InvalidSpec, match="seed must be non-negative, got -1"):
        generic_config(2, 2, 1, seed=-1)
    # no upper limit: seed sequences take integers of any size
    assert generic_config(2, 2, 1, seed=2 ** 70).seed == 2 ** 70


def _probe_draws(draws):
    report = run_probe(generic_config(3, 2, 1), draws)
    json.dumps(dataclasses.asdict(report), default=_pairs)    # the probe payload must encode
    return report.draws


# every count the package takes: its name, its least value and a call that
# returns what its callee keeps or computes from it
COUNTS = [
    pytest.param("d[1]", 1, lambda x: equation_count((2, x, 1)), id="equation_count"),
    pytest.param("M", 1, lambda x: symmetric_bound(x, 3), id="symmetric_bound-M"),
    pytest.param("K", 2, lambda x: symmetric_bound(1, x), id="symmetric_bound-K"),
    pytest.param("K", 1, tdma_baseline, id="tdma_baseline"),
    pytest.param("K", 3, lambda x: cj_parameters(x, 1), id="cj_parameters-K"),
    pytest.param("n", 1, lambda x: cj_parameters(4, x), id="cj_parameters-n"),
    pytest.param("K", 3, lambda x: min_improper_n(x, 6), id="min_improper_n-K"),
    pytest.param("n_max", 1, lambda x: min_improper_n(4, x), id="min_improper_n-n_max"),
    pytest.param("K", 3, lambda x: improper_by_threshold(x, 5), id="improper_by_threshold-K"),
    pytest.param("n", 1, lambda x: improper_by_threshold(4, x), id="improper_by_threshold-n"),
    pytest.param("max_iters", 1, lambda x: SolverOptions(max_iters=x), id="max_iters"),
    pytest.param("trials", 1, lambda x: SolverOptions(trials=x), id="trials"),
    pytest.param("draws", 1, _probe_draws, id="run_probe"),
]


@pytest.mark.parametrize("name,least,call", COUNTS)
def test_counts_follow_one_rule(name, least, call):
    for bad in (2.0, True):
        with pytest.raises(InvalidSpec) as exc:
            call(bad)
        assert str(exc.value) == f"{name} must be an integer, got {bad!r}"
    with pytest.raises(ValueError) as exc:
        call(least - 1)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"{name} must be at least {least}, got {least - 1}"
    # a numpy integer is taken as the int it equals
    for n in (least, least + 1):
        out, ref = call(np.int64(n)), call(n)
        assert type(out) is type(ref) and out == ref and repr(out) == repr(ref)


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


def per_kind_pair_support(cfg, j, k):
    """The three per-kind formulas that the one block layout replaced."""
    kind = cfg.structure.kind
    if kind is StructureKind.GENERIC:
        return np.divmod(np.arange(cfg.N[j] * cfg.N[k]), cfg.N[k])
    if kind is StructureKind.DIAGONAL:
        return np.arange(cfg.N[j]), np.arange(cfg.N[k])
    b, p, q = np.indices((cfg.structure.subcarriers, cfg.M[j], cfg.M[k])).reshape(3, -1)
    return b * cfg.M[j] + p, b * cfg.M[k] + q


@pytest.mark.parametrize("cfg", [
    generic_config(3, 3, 1),
    generic_config(3, (2, 3, 4), (1, 1, 2)),
    diagonal_config(4, 7, 1),
    block_diagonal_config(3, 2, 3, 1),
    block_diagonal_config(3, (1, 2, 3), 3, 1),
], ids=["generic", "generic-234", "diagonal", "block-M2", "block-M123"])
def test_pair_support_matches_the_per_kind_formulas(cfg):
    for j in range(cfg.K):
        for k in range(cfg.K):
            got, want = pair_support(cfg, j, k), per_kind_pair_support(cfg, j, k)
            assert all(np.array_equal(a, b) and a.dtype == b.dtype
                       for a, b in zip(got, want)), (j, k)


@pytest.mark.parametrize("as_blocks, plain", [
    (block_diagonal_config(3, 1, 5, (2, 1, 1), seed=7),
     diagonal_config(3, 5, (2, 1, 1), seed=7)),
    (block_diagonal_config(4, 1, 3, 1, seed=2), diagonal_config(4, 3, 1, seed=2)),
    (block_diagonal_config(3, 3, 1, 1, seed=7), generic_config(3, 3, 1, seed=7)),
    (block_diagonal_config(3, (2, 3, 4), 1, (1, 1, 2), seed=7),
     generic_config(3, (2, 3, 4), (1, 1, 2), seed=7)),
], ids=["diagonal-5", "diagonal-K4", "generic-3", "generic-234"])
def test_diagonal_and_generic_are_cases_of_block_diagonal(as_blocks, plain):
    # M = 1 is a diagonal structure and N_c = 1 a generic one: same layout, same draws
    assert dim_channel_space(as_blocks) == dim_channel_space(plain)
    a, b = sample_channels(as_blocks), sample_channels(plain)
    for j in range(plain.K):
        for k in range(plain.K):
            assert all(np.array_equal(x, y) for x, y in
                       zip(pair_support(as_blocks, j, k), pair_support(plain, j, k)))
            assert np.array_equal(a.free[j][k], b.free[j][k])
            assert np.array_equal(a.matrices[j][k], b.matrices[j][k])


def test_sampled_channels_are_read_only():
    ch = sample_channels(generic_config(2, 2, 1))
    with pytest.raises(ValueError):
        ch.matrices[0][1][0, 0] = 0.0


def test_cross_pairs_excludes_direct_links():
    pairs = list(cross_pairs(3))
    assert len(pairs) == 6
    assert all(j != k for j, k in pairs)
    assert pairs == sorted(pairs)


def test_channel_set_copies_caller_arrays():
    cfg = generic_config(2, 2, 1)
    h = np.ones((2, 2), dtype=complex)
    ch = ChannelSet.from_dense(cfg, ((h, h), (h, h)))
    h[0, 0] = 5.0
    assert all(np.array_equal(m, np.ones((2, 2))) for row in ch.matrices for m in row)
    # a writeable vector, and a read-only view of a writeable base, are copied
    v = np.ones(4, dtype=complex)
    view = v[:]
    view.flags.writeable = False
    ch = ChannelSet(cfg, ((v, view), (view, v)))
    v[0] = 7.0
    assert all(w[0] == 1.0 for row in ch.free for w in row)
    # so are read-only complex arrays that own their data: a caller who makes
    # them writeable again cannot edit the set
    owned = [[np.ones(4, dtype=complex) for _ in range(2)] for _ in range(2)]
    for row in owned:
        for w in row:
            w.flags.writeable = False
    ch = ChannelSet(cfg, owned)
    for row in owned:
        for w in row:
            w.flags.writeable = True
            w[0] = 99.0
    assert all(w[0] == 1.0 for row in ch.free for w in row)
    assert all(np.array_equal(m, np.ones((2, 2))) for row in ch.matrices for m in row)
    assert not any(w.flags.writeable for row in ch.free for w in row)


def test_channel_set_counts_rows_as_they_arrive():
    cfg = generic_config(2, 2, 1)
    v = np.ones(4, dtype=complex)
    with pytest.raises(DimensionMismatch, match="^3 channel rows for K=2$"):
        ChannelSet(cfg, ((v, v) for _ in range(3)))
    with pytest.raises(DimensionMismatch, match="^1 channel rows for K=2$"):
        ChannelSet(cfg, iter([iter([v, v])]))
    with pytest.raises(DimensionMismatch, match="^channel row 1 has 4 entries for K=2$"):
        ChannelSet(cfg, (iter([v, v]), iter([v] * 4)))
    with pytest.raises(DimensionMismatch, match="^channel row 0 has 1 entries for K=2$"):
        ChannelSet(cfg, [[v], [v, v]])
    h = np.ones((2, 2), dtype=complex)
    with pytest.raises(DimensionMismatch, match="^channel row 0 has 3 entries for K=2$"):
        ChannelSet.from_dense(cfg, [[h, h, h], [h, h]])
    ch = ChannelSet(cfg, ((v for _ in range(2)) for _ in range(2)))
    assert all(np.array_equal(w, v) for row in ch.free for w in row)


def test_channel_set_reports_its_counts_first():
    # with several faults in one input, the row count is named before the
    # shape of any vector
    cfg = generic_config(2, 2, 1)
    v, bad = np.ones(4, dtype=complex), np.ones(3, dtype=complex)
    with pytest.raises(DimensionMismatch, match="^3 channel rows for K=2$"):
        ChannelSet(cfg, [[bad, v], [v, v], [v, v]])
    with pytest.raises(DimensionMismatch, match="^channel row 1 has 3 entries for K=2$"):
        ChannelSet(cfg, [[bad, v], [v, v, v]])
    with pytest.raises(DimensionMismatch, match=r"^H\[0\]\[0\] has free entries of shape "
                                                r"\(3,\), expected \(4,\)$"):
        ChannelSet(cfg, [[bad, v], [v, v]])


def test_sampling_copies_one_draw_at_a_time():
    # the draws are read into lists, and each is then replaced by its stored
    # copy in turn, so a draw and its copy coexist for one pair only and the
    # peak stays near the bytes held (2.0x when every draw outlived its copy)
    cfg = cj_config(4, 5)
    sample_channels(cj_config(3, 1))  # one-time set-up is no part of a draw
    tracemalloc.start()
    try:
        ch = sample_channels(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(v.nbytes for row in ch.free for v in row)
    assert peak < 1.5 * held


def test_ia_solution_copies_caller_arrays():
    v, u = np.ones((3, 1), dtype=complex), np.ones((3, 1), dtype=complex)
    u.flags.writeable = False
    sol = IaSolution(V=(v, v), U=(u, u))
    v[0, 0] = 7.0
    u.flags.writeable = True
    u[0, 0] = 99.0
    assert all(np.array_equal(x, np.ones((3, 1))) for x in sol.V + sol.U)
    assert not any(x.flags.writeable for x in sol.V + sol.U)


def dense_sampler(cfg):
    """The dense sampler free-entry storage replaced: zeros plus a scatter."""
    mats = []
    for j in range(cfg.K):
        row = []
        for k in range(cfg.K):
            rows, cols = pair_support(cfg, j, k)
            h = np.zeros((cfg.N[j], cfg.N[k]), dtype=complex)
            h[rows, cols] = complex_normal(substream(cfg.seed, j, k), rows.size)
            row.append(h)
        mats.append(row)
    return mats


SHAPES = [
    generic_config(3, 3, 1),
    generic_config(3, (2, 3, 4), (1, 1, 2)),
    diagonal_config(4, 7, 1),
    block_diagonal_config(3, (1, 2, 3), 3, 1),
]


@pytest.mark.parametrize("cfg", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2 ** 40 + 7, 2 ** 64 - 1])
def test_sampled_channels_match_the_dense_sampler(cfg, seed):
    cfg = replace(cfg, seed=seed)
    ch = sample_channels(cfg)
    assert ch.structure == cfg.structure and ch.M == cfg.M
    for j, row in enumerate(dense_sampler(cfg)):
        for k, h in enumerate(row):
            assert np.array_equal(ch.matrices[j][k], h), (j, k)
            assert ch.free[j][k].shape == (pair_support(cfg, j, k)[0].size,)


@pytest.mark.parametrize("cfg", SHAPES)
def test_apply_matches_the_dense_product(cfg):
    ch = sample_channels(replace(cfg, seed=5))
    rng = substream(5, 1)
    for j in range(cfg.K):
        for k in range(cfg.K):
            h = ch.matrices[j][k]
            assert not h.flags.writeable
            with pytest.raises(ValueError):
                h[0, 0] = 1.0
            for cols in (1, 3):
                x = complex_normal(rng, cfg.N[k], cols)
                got, want = ch.apply(j, k, x), h @ x
                assert got.shape == (cfg.N[j], cols)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (j, k)
                # nested lists are read as the array they spell
                assert np.array_equal(ch.apply(j, k, x.tolist()), got), (j, k)


def test_dense_view_is_built_on_access():
    ch = sample_channels(diagonal_config(3, 5, 1))
    assert ch.matrices[0][1] is not ch.matrices[0][1]
    assert [len(row) for row in ch.matrices] == [3, 3, 3]
    assert np.array_equal(ch.matrices[2][-1], ch.matrices[2][2])
    with pytest.raises(IndexError):
        ch.matrices[0][3]
    # nothing dense is kept: the set holds K*K vectors of N_s entries
    assert sum(v.nbytes for row in ch.free for v in row) == 9 * 5 * 16
    with pytest.raises(AttributeError):
        ch.free = ()


def test_dense_row_slices_like_a_tuple():
    row = sample_channels(diagonal_config(3, 4, 1)).matrices[0]
    dense = (row[0], row[1], row[2])
    for s in (slice(0, 2), slice(None, None, -1), slice(-2, None), slice(5, 9)):
        got = row[s]
        assert isinstance(got, tuple) and len(got) == len(dense[s]), s
        assert all(np.array_equal(a, b) for a, b in zip(got, dense[s])), s
    assert np.array_equal(row[-1], dense[2]) and np.array_equal(row[-3], dense[0])
    for k in (3, -4):
        with pytest.raises(IndexError):
            row[k]


@pytest.mark.parametrize("cfg", [generic_config(3, 4, 1), diagonal_config(3, 4, 1),
                                 block_diagonal_config(3, 2, 2, 1)],
                         ids=["generic", "diagonal", "block-diagonal"])
@pytest.mark.parametrize("shape", [(4,), (3, 1), (5, 1), (4, 1, 1)],
                         ids=["1-D", "N_k-1-rows", "N_k+1-rows", "3-D"])
def test_apply_rejects_an_input_that_is_not_n_k_rows(cfg, shape):
    # unchecked, a 1-D input broadcasts into a wrong (4, 4) answer on the
    # diagonal layout and fails inside numpy on the others
    with pytest.raises(DimensionMismatch) as exc:
        sample_channels(cfg).apply(0, 1, np.ones(shape))
    assert str(exc.value) == f"H[0][1] @ x needs an N_k x c array with N_k=4, got shape {shape}"


@pytest.mark.parametrize("cfg", SHAPES[1:])
def test_from_dense_round_trips_the_free_entries(cfg):
    ch = sample_channels(replace(cfg, seed=3))
    back = ChannelSet.from_dense(cfg, ch.matrices)
    assert back.structure == cfg.structure and back.M == cfg.M
    assert all(np.array_equal(a, b) for ra, rb in zip(ch.free, back.free)
               for a, b in zip(ra, rb))


def test_from_dense_names_a_nonzero_confined_entry():
    cfg = block_diagonal_config(2, (1, 2), 2, 1, seed=1)
    mats = [[h.copy() for h in row] for row in sample_channels(cfg).matrices]
    mats[1][0][0, 1] = 0.5 - 2j
    with pytest.raises(DimensionMismatch, match=r"H\[1\]\[0\] has entry \(0, 1\)"):
        ChannelSet.from_dense(cfg, mats)
    with pytest.raises(DimensionMismatch, match="2 channel rows for K=3"):
        ChannelSet.from_dense(generic_config(3, 4, 1), mats)
    with pytest.raises(DimensionMismatch,
                       match=r"H\[0\]\[0\] has shape \(2, 2\), expected \(4, 4\)"):
        ChannelSet.from_dense(generic_config(2, 4, 1), mats)


def test_replace_changes_only_the_seed_and_validates():
    cfg = diagonal_config(3, 5, (2, 1, 1), seed=4)
    other = replace(cfg, seed=9)
    assert other.seed == 9
    assert (other.K, other.N, other.d, other.structure) == \
        (cfg.K, cfg.N, cfg.d, cfg.structure)
    with pytest.raises(InvalidSpec):
        replace(cfg, seed=-1)


@pytest.mark.parametrize("cfg", [
    generic_config(3, (2, 3, 4), (1, 1, 2), seed=13),
    diagonal_config(4, 5, 1, seed=0),
    block_diagonal_config(2, (2, 3), 4, (1, 2), seed=2 ** 63),
])
def test_config_json_round_trip(cfg):
    assert config_from_json(config_to_json(cfg)) == cfg


# channel and solution files are written and read by the CLI alone

def test_channels_json_round_trip_is_exact():
    for cfg in (generic_config(3, (2, 3, 2), 1, seed=21), *SHAPES[2:]):
        ch = sample_channels(cfg)
        doc = json.loads(json.dumps([list(row) for row in ch.matrices], default=_pairs))
        back = ChannelSet.from_dense(cfg, _matrices_from_json(doc, "channels"))
        assert (back.N, back.structure, back.M) == (ch.N, ch.structure, ch.M)
        assert all(np.array_equal(a, b) for ra, rb in zip(ch.free, back.free)
                   for a, b in zip(ra, rb))


def test_solution_json_round_trip_is_exact():
    rng = substream(17, 0)
    sol = IaSolution(V=(complex_normal(rng, 4, 2), complex_normal(rng, 3, 1)),
                     U=(complex_normal(rng, 4, 2), complex_normal(rng, 3, 1)))
    doc = json.loads(json.dumps({"V": sol.V, "U": sol.U}, default=_pairs))
    back = IaSolution(*_matrices_from_json(doc, "solution", ("V", "U")))
    assert back.d == sol.d
    for a, b in zip(back.V + back.U, sol.V + sol.U):
        assert np.array_equal(a, b)


def test_json_matrices_keep_the_sign_of_zero():
    doc = {"V": [[[[-0.0, 0.0]]], [[[0.0, -0.0]]]],
           "U": [[[[-0.0, -0.0]]], [[[1.0, -0.0]]]]}
    sol = IaSolution(*_matrices_from_json(doc, "solution", ("V", "U")))
    got = np.signbit(np.concatenate([m.view(float).ravel() for m in sol.V + sol.U]))
    assert got.tolist() == [True, False, False, True, True, True, False, True]
    # and the writer puts them back as they were read
    assert json.dumps({"V": sol.V, "U": sol.U}, default=_pairs) == json.dumps(doc)


@given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2 ** 64 - 1))
def test_any_symmetric_diagonal_config_survives_json(k, n_s, seed):
    d = min(1, n_s)
    cfg = diagonal_config(k, n_s, d, seed=seed)
    assert config_from_json(config_to_json(cfg)) == cfg


@given(st.integers(2, 5), st.integers(1, 4), st.integers(1, 3))
def test_free_entry_count_agrees_with_iteration(k, m, n_c):
    cfg = block_diagonal_config(k, m, n_c, 1)
    assert dim_channel_space(cfg) == len(free_entries(cfg))
    assert dim_channel_space(cfg) == k * (k - 1) * n_c * m * m
