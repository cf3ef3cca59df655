"""Linearized channel probing: P's per-pair blocks, nullspaces, span growth."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from align_lab import probe
from align_lab.cli import _pairs, main
from align_lab.counting import dim_channel_space, equation_count
from align_lab.model import (
    ChannelSet,
    IaSolution,
    block_diagonal_config,
    complex_normal,
    config_to_json,
    diagonal_config,
    generic_config,
    pair_support,
    sample_channels,
    substream,
)
from align_lab.probe import (
    ProbeReport,
    pair_block,
    run_probe,
)
from align_lab.subspaces import nullspace_basis, numerical_rank, orthonormal_columns
from align_lab.verify import check

ALL_STRUCTURES = [
    generic_config(3, (2, 3, 2), 1, seed=4),
    diagonal_config(3, 4, 1, seed=4),
    block_diagonal_config(3, 2, 2, 1, seed=4),
]


def cross_pairs(cfg):
    return [(j, k) for j in range(cfg.K) for k in range(cfg.K) if j != k]


def p_blocks(cfg, sol):
    """P's diagonal blocks, one per ordered cross pair."""
    return [pair_block(sol.U[j], sol.V[k], *pair_support(cfg, j, k))
            for j, k in cross_pairs(cfg)]


def lone_pair_channels(cfg, j, k, h):
    """Channels whose one nonzero link is pair (j, k), with free entries ``h``."""
    return ChannelSet(cfg, [[h if (a, b) == (j, k) else
                             np.zeros(pair_support(cfg, a, b)[0].size, dtype=complex)
                             for b in range(cfg.K)] for a in range(cfg.K)])


def test_p_matrix_shape_diagonal_example():
    cfg = diagonal_config(3, 2, 1)
    sol = IaSolution(*probe._draw(cfg, substream(0, 1)))
    assert [b.shape for b in p_blocks(cfg, sol)] == [(1, 2)] * 6


def test_all_ones_diagonal_case_forces_rank_six():
    cfg = diagonal_config(3, 2, 1)
    ones = np.ones((2, 1), dtype=complex)
    sol = IaSolution(V=(ones,) * 3, U=(ones,) * 3)
    blocks = p_blocks(cfg, sol)
    assert sum(np.linalg.matrix_rank(b) for b in blocks) == 6
    assert sum(nullspace_basis(b).shape[1] for b in blocks) == 6
    # each equation touches exactly its own pair's two slots
    assert all(np.count_nonzero(row) == 2 for b in blocks for row in b)


@pytest.mark.parametrize("cfg", ALL_STRUCTURES)
def test_p_times_h_reproduces_cross_terms(cfg):
    """Each block depends on (U,V) only; block @ h_jk is that pair's cross term."""
    ch = sample_channels(cfg)
    sol = IaSolution(*probe._draw(cfg, substream(9, 2)))
    for j, k in cross_pairs(cfg):
        rows, cols = pair_support(cfg, j, k)
        lhs = pair_block(sol.U[j], sol.V[k], rows, cols) @ ch.matrices[j][k][rows, cols]
        cross = sol.U[j].conj().T @ ch.matrices[j][k] @ sol.V[k]
        assert np.allclose(lhs, cross.reshape(-1), atol=1e-12), (j, k)
    blocks = p_blocks(cfg, sol)
    assert sum(b.shape[0] for b in blocks) == equation_count(cfg.d)
    assert sum(b.shape[1] for b in blocks) == dim_channel_space(cfg)


@pytest.mark.parametrize("cfg", ALL_STRUCTURES)
def test_nullspace_vectors_assemble_into_aligned_channels(cfg):
    rng = substream(3, 5)
    sol = IaSolution(*probe._draw(cfg, rng))
    checked = 0
    for (j, k), block in zip(cross_pairs(cfg), p_blocks(cfg, sol)):
        for h in nullspace_basis(block).T:
            assert check(lone_pair_channels(cfg, j, k, h), sol).leakage <= 1e-8
            checked += 1
    assert checked


def test_generic_fill_example():
    cfg = generic_config(3, 2, 1, seed=0)
    rep = run_probe(cfg, draws=4, seed=0)
    assert rep.dim_target == 24
    assert rep.span_rank == 24
    assert rep.filled
    assert rep.draws == 4
    assert rep.nontrivial_draws == 4
    # generic draws are full rank: nullity is dim minus equation count
    assert all(nu == 24 - 6 for nu in rep.per_draw_nullity)


def test_single_slot_diagonal_probe_finds_nothing():
    cfg = diagonal_config(3, 1, 1, seed=0)
    rep = run_probe(cfg, draws=100, seed=0)
    assert rep.span_rank == 0
    assert not rep.filled
    assert rep.nontrivial_draws == 0


def test_positive_deficit_forces_trivial_nullspaces():
    cfg = diagonal_config(3, 3, 2, seed=0)
    assert equation_count(cfg.d) > dim_channel_space(cfg)
    rep = run_probe(cfg, draws=10, seed=0)
    assert rep.span_rank == 0
    assert all(nu == 0 for nu in rep.per_draw_nullity)


def test_span_rank_is_monotone_in_draws():
    cfg = diagonal_config(3, 5, (2, 1, 1), seed=6)
    ranks = [run_probe(cfg, draws=m, seed=11).span_rank for m in range(1, 6)]
    assert ranks == sorted(ranks)
    assert all(0 <= r <= dim_channel_space(cfg) for r in ranks)


def test_probe_is_deterministic():
    cfg = generic_config(3, 2, 1, seed=5)
    a = run_probe(cfg, draws=3, seed=21)
    b = run_probe(cfg, draws=3, seed=21)
    assert a == b
    # the probe seed steers the sampled solutions, not the channel model
    s1 = IaSolution(*probe._draw(cfg, substream(21, 0)))
    s2 = IaSolution(*probe._draw(cfg, substream(22, 0)))
    assert not np.allclose(s1.V[0], s2.V[0])


def test_span_accumulation_survives_compression():
    # 3 null directions per pair and draw against a cap of 4 x 4 columns per
    # pair: eight draws force compression passes without changing the answer
    cfg = generic_config(2, 2, 1, seed=2)
    rep = run_probe(cfg, draws=8, seed=2)
    assert rep.dim_target == 8
    assert rep.per_draw_nullity == (6,) * 8
    assert rep.span_rank == 8
    assert rep.filled


def probe_json(tmp_path, cfg, draws, seed):
    """The ``probe`` subcommand's JSON report on ``cfg``."""
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "probe.json"
    cfg_path.write_text(json.dumps(config_to_json(cfg)))
    assert main(["probe", "--config", str(cfg_path), "--draws", str(draws),
                 "--seed", str(seed), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_report_serialization_fields(tmp_path):
    cfg = generic_config(3, 2, 1, seed=5)
    doc = probe_json(tmp_path, cfg, draws=2, seed=1)
    assert doc["draws"] == 2
    assert doc["dim_target"] == 24
    assert isinstance(doc["per_draw_nullity"], list)
    assert doc["filled"] == (doc["span_rank"] == doc["dim_target"])


@pytest.mark.parametrize("cfg,draws,seed,expected", [
    (block_diagonal_config(3, 2, 4, 2), 4, 3,
     {"draws": 4, "per_draw_nullity": [72, 72, 72, 72],
      "span_rank": 96, "dim_target": 96, "filled": True}),
    (generic_config(4, 5, 2), 2, 1,
     {"draws": 2, "per_draw_nullity": [252, 252],
      "span_rank": 300, "dim_target": 300, "filled": True}),
    (diagonal_config(3, 7, (4, 3, 3)), 4, 5,
     {"draws": 4, "per_draw_nullity": [0, 0, 0, 0],
      "span_rank": 0, "dim_target": 42, "filled": False}),
])
def test_probe_reports_are_pinned(tmp_path, cfg, draws, seed, expected):
    """Reports recorded with the dense-P probe; the per-pair probe must match."""
    doc = probe_json(tmp_path, cfg, draws, seed)
    assert (doc.pop("config"), doc.pop("draws_seed")) == (config_to_json(cfg), seed)
    assert doc == expected


# ---------------------------------------------------------------------------
# the batched probe against the per-draw loop it replaced

def _loop_block(u, v, rows, cols):
    """Reference: the one-draw ``pair_block`` expression."""
    return (u.conj()[rows, :, None] * v[cols, None, :]).reshape(rows.size, -1).T


def _loop_reports(cfg, counts, seed):
    """Reference: one nullspace SVD per draw and pair, spans grown draw by draw.

    The report of each draw count in ``counts``, from one pass over the draws.
    """
    supports = [(j, k, *pair_support(cfg, j, k)) for j, k in cross_pairs(cfg)]
    spans = [np.zeros((rows.size, 0), dtype=complex) for _, _, rows, _ in supports]
    nullities, reports = [], []
    dim_target = dim_channel_space(cfg)
    for i in range(max(counts)):
        sol = IaSolution(*probe._draw(cfg, substream(seed, probe._DRAW_SALT, i)))
        nullity = 0
        for s, (j, k, rows, cols) in enumerate(supports):
            basis = nullspace_basis(_loop_block(sol.U[j], sol.V[k], rows, cols))
            nullity += basis.shape[1]
            spans[s] = np.hstack([spans[s], basis])
            if spans[s].shape[1] > 4 * rows.size:
                spans[s], _ = orthonormal_columns(spans[s])
        nullities.append(nullity)
        if i + 1 in counts:
            span_rank = sum(numerical_rank(span) for span in spans)
            reports.append(ProbeReport(draws=i + 1,
                                       per_draw_nullity=tuple(nullities),
                                       span_rank=span_rank,
                                       dim_target=dim_target,
                                       filled=span_rank == dim_target))
    return reports


def _loop_probe(cfg, draws, seed):
    return _loop_reports(cfg, (draws,), seed)[0]


PROBE_SPAN_CONFIGS = [
    generic_config(4, 5, 2),
    generic_config(3, 2, 1),
    block_diagonal_config(3, 2, 4, 2),
    diagonal_config(4, 6, 1),
    diagonal_config(3, 7, (4, 3, 3)),
]


@pytest.mark.parametrize("cfg", [
    generic_config(3, (2, 3, 2), 1),
    block_diagonal_config(3, (1, 2, 3), 2, 1),
    *PROBE_SPAN_CONFIGS,      # diagonal 7 with d = (4, 3, 3) among them
])
def test_batched_probe_matches_the_per_draw_loop(cfg):
    counts = (1, 2, 4, 9, 50)
    for seed in (0, 1, 2):
        for draws, ref in zip(counts, _loop_reports(cfg, counts, seed)):
            assert run_probe(cfg, draws, seed) == ref, (draws, seed)


@pytest.mark.parametrize("budget", [1, 5000, 40_000])
@pytest.mark.parametrize("cfg", [generic_config(4, 5, 2), generic_config(3, 2, 1),
                                 block_diagonal_config(3, (1, 2, 3), 2, 1)])
def test_small_batch_budgets_split_calls_not_reports(monkeypatch, cfg, budget):
    """Budgets below one draw's blocks split draws and SVD calls; the report holds."""
    monkeypatch.setattr(probe, "_BATCH_BYTES", budget)
    assert run_probe(cfg, 9, 3) == _loop_probe(cfg, 9, 3)


@st.composite
def small_configs(draw):
    K = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["generic", "diagonal", "block-diagonal"]))
    if kind == "generic":
        N = draw(st.lists(st.integers(1, 4), min_size=K, max_size=K))
        return generic_config(K, N, [draw(st.integers(1, n)) for n in N])
    if kind == "diagonal":
        n_s = draw(st.integers(1, 6))
        return diagonal_config(K, n_s, draw(st.lists(st.integers(1, n_s), min_size=K,
                                                     max_size=K)))
    n_c = draw(st.integers(1, 3))
    M = draw(st.lists(st.integers(1, 2), min_size=K, max_size=K))
    return block_diagonal_config(K, M, n_c, [draw(st.integers(1, m * n_c)) for m in M])


@given(small_configs(), st.integers(1, 12), st.integers(0, 2**16))
def test_batched_probe_matches_the_loop_on_small_configs(cfg, draws, seed):
    assert run_probe(cfg, draws, seed) == _loop_probe(cfg, draws, seed)


def counted_intersections(monkeypatch):
    """Widths of the bases that ``probe._intersect`` returns, call by call."""
    widths = []
    intersect = probe._intersect

    def counted(q, r):
        basis = intersect(q, r)
        widths.append(basis.shape[1])
        return basis

    monkeypatch.setattr(probe, "_intersect", counted)
    return widths


def test_a_full_span_ends_its_pair_span_work(monkeypatch):
    """Row spaces are lines in C^4: the second draw's line misses the first.

    Each pair's first draw sets its basis and its second empties it, so two
    pairs make two intersections in all, however many draws follow.
    """
    cfg = generic_config(2, 2, 1)
    widths = counted_intersections(monkeypatch)
    rep = run_probe(cfg, 50, seed=0)
    assert widths == [0, 0]
    assert rep.span_rank == rep.dim_target == 8
    assert rep == _loop_probe(cfg, 50, 0)


def test_row_spaces_that_still_meet_keep_their_pair_span_work(monkeypatch):
    """Two 4-dimensional row spaces in C^7 meet in a line; a third misses it."""
    cfg = diagonal_config(3, 7, 2)
    widths = counted_intersections(monkeypatch)
    two = run_probe(cfg, 2, seed=0)
    assert widths == [1] * 6
    assert (two.span_rank, two.dim_target) == (36, 42)
    assert two == _loop_probe(cfg, 2, 0)
    widths.clear()
    three = run_probe(cfg, 3, seed=0)
    assert sorted(widths) == [0] * 6 + [1] * 6      # pair by pair, a line, then nothing
    assert three.span_rank == 42 and three.filled
    assert three == _loop_probe(cfg, 3, 0)


def test_pair_block_takes_stacks():
    cfg = block_diagonal_config(3, (1, 2, 3), 2, (1, 2, 2))
    sols = [IaSolution(*probe._draw(cfg, substream(7, i))) for i in range(5)]
    for j, k in cross_pairs(cfg):
        rows, cols = pair_support(cfg, j, k)
        one = [pair_block(sol.U[j], sol.V[k], rows, cols) for sol in sols]
        # the one-draw call keeps its bytes and its layout
        assert all(b.tobytes() == _loop_block(sol.U[j], sol.V[k], rows, cols).tobytes()
                   and b.strides == _loop_block(sol.U[j], sol.V[k], rows, cols).strides
                   for b, sol in zip(one, sols))
        us = np.stack([sol.U[j] for sol in sols]).reshape(5, 1, cfg.N[j], cfg.d[j])
        vs = np.stack([sol.V[k] for sol in sols])
        stacked = pair_block(us, vs, rows, cols)     # (5, 1) against (5,) broadcasts
        assert stacked.shape == (5, 5, cfg.d[j] * cfg.d[k], rows.size)
        for a in range(5):
            for b in range(5):
                expect = pair_block(sols[a].U[j], sols[b].V[k], rows, cols)
                assert stacked[a, b].tobytes() == expect.tobytes()


def _low_rank_stack(rng, lead, m, n):
    """Random m x n matrices of every rank 0..min(m, n) over the ``lead`` stack."""
    count = int(np.prod(lead))
    ranks = rng.integers(0, min(m, n) + 1, size=count)
    mats = [complex_normal(rng, m, r) @ complex_normal(rng, r, n) for r in ranks]
    return np.array(mats, dtype=complex).reshape(*lead, m, n)


@pytest.mark.parametrize("lead,m,n", [
    ((7,), 3, 5), ((7,), 6, 2), ((2, 4), 4, 4), ((3,), 1, 9),
    ((0,), 3, 4), ((2,), 0, 3), ((2,), 3, 0), ((2, 0), 2, 2),
])
def test_stacked_ranks_match_numerical_rank_per_matrix(lead, m, n):
    rng = substream(5, m, n)
    stack = _low_rank_stack(rng, lead, m, n)
    if stack.size:
        stack[(0,) * len(lead)] = 0.0     # an all-zero block has rank 0
    ranks = numerical_rank(stack)
    assert ranks.shape == lead
    for idx in np.ndindex(*lead):
        assert ranks[idx] == numerical_rank(stack[idx])
    if stack.size:
        assert ranks[(0,) * len(lead)] == 0


@pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (0, 0)])
def test_empty_matrices_have_rank_zero_and_complete_nullspaces(m, n):
    a = np.zeros((m, n), dtype=complex)
    rank = numerical_rank(a)
    assert type(rank) is int and rank == 0
    assert json.dumps({"direct_ranks": [rank]}, default=_pairs) == '{"direct_ranks": [0]}'
    q, rank = orthonormal_columns(a)
    assert q.shape == (m, 0) and q.dtype == complex
    assert type(rank) is int and rank == 0
    null = nullspace_basis(a)
    assert null.shape == (n, n) and null.dtype == complex
    assert np.array_equal(null, np.eye(n))     # with no equations, all of C^n


def test_probe_memory_stays_at_one_block_per_call():
    """Thin SVDs of 1 x 201 blocks share calls under the batch budget, and each
    pair keeps a basis of at most one column: the peak stays below the loop's."""
    cfg = diagonal_config(3, 201, 1)
    run_probe(cfg, 1)
    tracemalloc.start()
    try:
        run_probe(cfg, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the per-draw loop peaks at 19.7 MiB here; one uncapped stack at 196 MiB
    assert peak < 1.1 * 19.7 * 2**20
