"""Alignment verifier: leakage metric, rank verdicts, gauge normalization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from align_lab.cj3 import build_instance
from align_lab.errors import RankDeficient, SingularGaugeBlock
from align_lab.model import (
    ChannelSet,
    IaSolution,
    complex_normal,
    diagonal_config,
    generic_config,
    sample_channels,
    substream,
)
from align_lab.verify import check, normalize_gauge, result_to_json


def identity_case(k=2, n=2, d=1):
    """K users, identity direct links, zero cross links, canonical bases."""
    mats = []
    for j in range(k):
        row = []
        for kk in range(k):
            row.append(np.eye(n, dtype=complex) if j == kk
                       else np.zeros((n, n), dtype=complex))
        mats.append(tuple(row))
    ch = ChannelSet(matrices=tuple(mats))
    basis = np.eye(n, dtype=complex)[:, :d]
    sol = IaSolution(V=(basis,) * k, U=(basis,) * k)
    return ch, sol


def random_solution(cfg, seed=0):
    rng = substream(seed, 7777)
    v = tuple(complex_normal(rng, nk, dk) for nk, dk in zip(cfg.N, cfg.d))
    u = tuple(complex_normal(rng, nk, dk) for nk, dk in zip(cfg.N, cfg.d))
    return IaSolution(V=v, U=u)


def test_identity_case_is_aligned_with_full_rank():
    ch, sol = identity_case()
    res = check(ch, sol)
    assert res.aligned and res.rank_ok
    assert res.leakage == 0.0
    assert res.direct_ranks == (1, 1)


def test_rank_deficient_precoder_is_rejected():
    ch, sol = identity_case(n=3, d=2)
    bad_v = sol.V[0].copy()
    bad_v[:, 1] = bad_v[:, 0]  # duplicated column: rank 1 < d=2
    bad = IaSolution(V=(bad_v, sol.V[1]), U=sol.U)
    with pytest.raises(RankDeficient):
        check(ch, bad)


def test_constructed_witness_verifies():
    inst = build_instance(2, seed=1234)
    res = check(inst.channels, inst.solution)
    assert res.aligned and res.rank_ok
    assert res.direct_ranks == (3, 2, 2)


def test_random_pair_leaks():
    cfg = generic_config(3, 2, 1, seed=0)
    ch = sample_channels(cfg)
    res = check(ch, random_solution(cfg))
    assert not res.aligned
    # pilot over 1000 seeds put the minimum misalignment at 1.6; the
    # acceptance threshold 1e-3 leaves three orders of margin
    assert res.leakage > 1e-3
    assert res.min_cross_residual > 0


def test_leakage_is_gauge_invariant():
    inst = build_instance(1, seed=5)
    base = check(inst.channels, inst.solution).leakage
    rng = substream(5, 31)
    v = tuple(vk @ (complex_normal(rng, vk.shape[1], vk.shape[1])
                    + 3 * np.eye(vk.shape[1]))
              for vk in inst.solution.V)
    u = tuple(uk @ (complex_normal(rng, uk.shape[1], uk.shape[1])
                    + 3 * np.eye(uk.shape[1]))
              for uk in inst.solution.U)
    mixed = check(inst.channels, IaSolution(V=v, U=u)).leakage
    assert abs(mixed - base) < 1e-10


def test_scaling_does_not_change_leakage():
    cfg = generic_config(3, (3, 2, 2), 1, seed=8)
    ch = sample_channels(cfg)
    sol = random_solution(cfg, seed=8)
    scaled = IaSolution(V=tuple(17.0 * v for v in sol.V),
                        U=tuple(0.01 * u for u in sol.U))
    assert abs(check(ch, sol).leakage - check(ch, scaled).leakage) < 1e-12


def test_normalize_gauge_puts_identity_on_top():
    rng = substream(3, 11)
    v = complex_normal(rng, 3, 1)
    sol = IaSolution(V=(v,), U=(complex_normal(rng, 3, 1),))
    out = normalize_gauge(sol)
    assert np.allclose(out.V[0][0, 0], 1.0)
    assert np.allclose(out.U[0][0, 0], 1.0)


def test_normalize_gauge_preserves_leakage():
    inst = build_instance(2, seed=77)
    normalized = normalize_gauge(inst.solution)
    before = check(inst.channels, inst.solution).leakage
    after = check(inst.channels, normalized).leakage
    assert abs(before - after) < 1e-10
    for k in range(3):
        top = normalized.V[k][: inst.solution.d[k]]
        assert np.allclose(top, np.eye(inst.solution.d[k]), atol=1e-9)


def test_normalize_gauge_rejects_singular_top_block():
    v = np.zeros((3, 1), dtype=complex)
    v[1, 0] = 1.0
    v[2, 0] = 1.0
    sol = IaSolution(V=(v,), U=(np.ones((3, 1), dtype=complex),))
    with pytest.raises(SingularGaugeBlock):
        normalize_gauge(sol)


def test_result_serialization_round_trips_through_json():
    inst = build_instance(1, seed=2)
    doc = result_to_json(check(inst.channels, inst.solution))
    assert doc["aligned"] is True
    assert doc["rank_ok"] is True
    assert doc["direct_ranks"] == [2, 1, 1]
    assert doc["tolerances"]["tol_align"] == 1e-8
    assert isinstance(doc["leakage"], float)


def test_tighter_tolerance_flips_the_verdict():
    cfg = generic_config(2, 2, 1, seed=3)
    ch = sample_channels(cfg)
    sol = random_solution(cfg, seed=3)
    loose = check(ch, sol, tol_align=1e9)
    strict = check(ch, sol, tol_align=1e-8)
    assert loose.aligned and not strict.aligned


@given(st.integers(0, 10 ** 6))
def test_misalignment_threshold_over_random_seeds(seed):
    cfg = generic_config(3, 2, 1, seed=seed)
    ch = sample_channels(cfg)
    assert check(ch, random_solution(cfg, seed=seed)).leakage > 1e-3


def test_paper_scale_diagonal_channels_are_checked():
    # K=4, n=5 of the extension series: N_s=10901, the first improper K=4
    # configuration; dense storage would need about 30 GB
    cfg = diagonal_config(4, 10901, 1, seed=2)
    ch = sample_channels(cfg)
    assert sum(v.size for row in ch.free for v in row) == 16 * 10901
    res = check(ch, random_solution(cfg))
    assert np.isfinite(res.leakage) and res.leakage > 0
    assert res.direct_ranks == (1, 1, 1, 1)
