"""Alignment verifier: leakage metric and rank verdicts."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from align_lab.cj3 import build_instance
from align_lab.cli import _verification_json
from align_lab.errors import DimensionMismatch, NumericOverflow, RankDeficient
from align_lab.model import (
    ChannelSet,
    IaSolution,
    complex_normal,
    diagonal_config,
    generic_config,
    sample_channels,
    substream,
)
from align_lab.solve import SolverOptions
from align_lab.verify import TOL_ISR, check


def identity_case(k=2, n=2, d=1):
    """K users, identity direct links, zero cross links, canonical bases."""
    mats = []
    for j in range(k):
        row = []
        for kk in range(k):
            row.append(np.eye(n, dtype=complex) if j == kk
                       else np.zeros((n, n), dtype=complex))
        mats.append(tuple(row))
    ch = ChannelSet.from_dense(generic_config(k, n, d), mats)
    basis = np.eye(n, dtype=complex)[:, :d]
    sol = IaSolution(V=(basis,) * k, U=(basis,) * k)
    return ch, sol


def random_solution(cfg, seed=0):
    rng = substream(seed, 7777)
    v = tuple(complex_normal(rng, nk, dk) for nk, dk in zip(cfg.N, cfg.d))
    u = tuple(complex_normal(rng, nk, dk) for nk, dk in zip(cfg.N, cfg.d))
    return IaSolution(V=v, U=u)


@pytest.mark.parametrize("channels,solution,message", [
    (generic_config(3, 2, 1), generic_config(2, 2, 1), "solution has 2 users, channels have 3"),
    (generic_config(2, 3, 1), generic_config(2, (3, 2), 1),
     "solution dimensions (3, 2) do not match channel dimensions (3, 3)"),
])
def test_check_names_mismatched_dimensions(channels, solution, message):
    with pytest.raises(DimensionMismatch) as exc:
        check(sample_channels(channels), random_solution(solution))
    assert str(exc.value) == message


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
    assert max(res.interference_to_signal) < TOL_ISR


def test_interference_to_signal_follows_its_definition():
    cfg = generic_config(3, (3, 4, 5), (1, 2, 2), seed=3)
    ch = sample_channels(cfg)
    sol = random_solution(cfg, seed=3)
    us, vs = ([np.linalg.qr(x)[0] for x in xs] for xs in (sol.U, sol.V))
    res = check(ch, sol)
    for k in range(cfg.K):
        interference = sum(np.linalg.norm(us[k].conj().T @ ch.matrices[k][j] @ vs[j]) ** 2
                           for j in range(cfg.K) if j != k)
        signal = np.linalg.svd(us[k].conj().T @ ch.matrices[k][k] @ vs[k],
                               compute_uv=False).min()
        assert res.interference_to_signal[k] == pytest.approx(interference / signal ** 2,
                                                              rel=1e-10)
    assert check(*identity_case()).interference_to_signal == (0.0, 0.0)


def test_lost_direct_link_has_infinite_interference_to_signal():
    ch, sol = identity_case()
    dense = [list(row) for row in ch.matrices]
    dense[0][0] = np.zeros_like(dense[0][0])
    res = check(ChannelSet.from_dense(generic_config(2, 2, 1), dense), sol)
    assert res.aligned and not res.rank_ok
    assert res.interference_to_signal == (float("inf"), 0.0)


HUGE = np.array([[1e200, 1e200], [1e200, -1e200]], dtype=complex)
MAX = np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]], dtype=complex)
E1 = np.array([[1.0], [0.0]], dtype=complex)
SPREAD = np.array([[0.6], [0.8]], dtype=complex)


@pytest.mark.parametrize("direct, cross, v, message", [
    (HUGE, HUGE, E1, "leakage overflows float64 at receiver 0"),
    (np.eye(2), HUGE, E1, "leakage overflows float64 at receiver 0"),
    (HUGE, np.zeros((2, 2)), E1, "signal power of user 0 overflows float64"),
    (np.eye(2), MAX, SPREAD, "leakage overflows float64 at receiver 0"),
    (MAX, np.zeros((2, 2)), SPREAD, "direct product of user 0 overflows float64"),
], ids=["all-huge", "huge-cross", "huge-direct", "max-cross", "max-direct"])
def test_overflowing_figures_raise(direct, cross, v, message):
    # entries of 1e200 square past float64 in the leakage or in sigma_min^2;
    # with V = U = (0.6, 0.8), entries of 1.7e308 overflow the products H V
    # themselves. Warnings are errors here, so no RuntimeWarning passes either
    sol = IaSolution(V=(v, v), U=(v, v))
    dense = [[direct if j == k else cross for k in range(2)] for j in range(2)]
    with pytest.raises(NumericOverflow) as exc:
        check(ChannelSet.from_dense(generic_config(2, 2, 1), dense), sol)
    assert str(exc.value) == message


def test_random_pair_leaks():
    cfg = generic_config(3, 2, 1, seed=0)
    ch = sample_channels(cfg)
    res = check(ch, random_solution(cfg))
    assert not res.aligned
    # pilot over 1000 seeds put the minimum misalignment at 1.6; the
    # acceptance threshold 1e-3 leaves three orders of margin
    assert res.leakage > 1e-3
    assert res.max_cross_residual > 0


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


def test_result_serialization_round_trips_through_json():
    inst = build_instance(1, seed=2)
    doc = json.loads(json.dumps(_verification_json(check(inst.channels, inst.solution))))
    assert doc["aligned"] is True
    assert doc["rank_ok"] is True
    assert doc["direct_ranks"] == [2, 1, 1]
    assert doc["tolerances"]["tol_align"] == 1e-8
    assert isinstance(doc["leakage"], float)


@pytest.mark.parametrize("tol", [True, False, "1e-8", None, 1e-8j, np.bool_(True)],
                         ids=["True", "False", "str", "None", "complex", "numpy-bool"])
def test_tolerance_must_be_a_real_number(tol):
    cfg = generic_config(2, 2, 1)
    with pytest.raises(ValueError, match="tol_align must be finite and positive, got "):
        SolverOptions(tol_align=tol)
    with pytest.raises(ValueError, match="tol_align must be finite and positive, got "):
        check(sample_channels(cfg), random_solution(cfg), tol_align=tol)


def test_tolerance_is_stored_as_a_float():
    ch, sol = identity_case()
    for tol in (1, np.float32(0.5), 1e-8):
        stored = (SolverOptions(tol_align=tol).tol_align, check(ch, sol, tol_align=tol).tol_align)
        assert all(type(x) is float and x == float(tol) for x in stored)


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
