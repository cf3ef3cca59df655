"""Linearized channel probing: P's per-pair blocks, nullspaces, span growth."""

import json

import numpy as np
import pytest

from align_lab.cli import main
from align_lab.counting import dim_channel_space, equation_count, sparse_dim_deficit
from align_lab.model import (
    ChannelSet,
    IaSolution,
    block_diagonal_config,
    config_to_json,
    diagonal_config,
    generic_config,
    pair_support,
    sample_channels,
    substream,
)
from align_lab.probe import (
    draw_random_solution,
    pair_block,
    run_probe,
)
from align_lab.subspaces import nullspace_basis
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
    sol = draw_random_solution(cfg, substream(0, 1))
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
    sol = draw_random_solution(cfg, substream(9, 2))
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
    sol = draw_random_solution(cfg, rng)
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
    assert rep.sd_upper_bound == 23
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
    assert sparse_dim_deficit(cfg) > 0
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
    s1 = draw_random_solution(cfg, substream(21, 0))
    s2 = draw_random_solution(cfg, substream(22, 0))
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
    assert doc["sd_upper_bound"] == 23
    assert isinstance(doc["per_draw_nullity"], list)
    assert doc["filled"] == (doc["span_rank"] == doc["dim_target"])


@pytest.mark.parametrize("cfg,draws,seed,expected", [
    (block_diagonal_config(3, 2, 4, 2), 4, 3,
     {"draws": 4, "nontrivial_draws": 4, "per_draw_nullity": [72, 72, 72, 72],
      "span_rank": 96, "dim_target": 96, "sd_upper_bound": 95, "filled": True}),
    (generic_config(4, 5, 2), 2, 1,
     {"draws": 2, "nontrivial_draws": 2, "per_draw_nullity": [252, 252],
      "span_rank": 300, "dim_target": 300, "sd_upper_bound": 299, "filled": True}),
    (diagonal_config(3, 7, (4, 3, 3)), 4, 5,
     {"draws": 4, "nontrivial_draws": 0, "per_draw_nullity": [0, 0, 0, 0],
      "span_rank": 0, "dim_target": 42, "sd_upper_bound": 41, "filled": False}),
])
def test_probe_reports_are_pinned(tmp_path, cfg, draws, seed, expected):
    """Reports recorded with the dense-P probe; the per-pair probe must match."""
    doc = probe_json(tmp_path, cfg, draws, seed)
    assert (doc.pop("config"), doc.pop("draws_seed")) == (config_to_json(cfg), seed)
    assert doc == expected
