"""Exact integer and rational bookkeeping for the bound calculators.

Everything here is integer arithmetic; no tolerances anywhere.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from align_lab.cli import build_parser
from align_lab.counting import (
    cj_config,
    cj_parameters,
    dim_channel_space,
    equation_count,
    improper_by_threshold,
    is_proper,
    min_improper_n,
    symmetric_bound,
    tdma_baseline,
    variable_count,
)
from align_lab.model import (
    block_diagonal_config,
    diagonal_config,
    generic_config,
)


def test_equation_count_ordered_pairs():
    assert equation_count((2, 1, 1)) == 10
    assert equation_count((1, 1)) == 2
    assert equation_count((1, 1, 1)) == 6


def test_equation_count_rejects_nonpositive_streams():
    with pytest.raises(ValueError):
        equation_count((2, 0, 1))


def test_variable_count_generic_symmetric():
    # each user contributes 2*(N*d - d^2) free coordinates
    assert variable_count(generic_config(3, 2, 1)) == 6
    assert variable_count(generic_config(3, (2, 3, 4), (1, 1, 2))) == \
        2 * ((2 - 1) + (3 - 1) + (2 * 4 - 4))


def test_is_proper_small_cases():
    rep = is_proper(generic_config(3, 2, 1))
    assert rep.proper
    assert (rep.N_e, rep.N_v) == (6, 6)
    assert rep.slack == 0

    rep = is_proper(generic_config(3, 2, 2))
    assert not rep.proper
    assert rep.N_e == 24
    assert rep.N_v == 0


def test_properness_matches_closed_form_on_symmetric_configs():
    for k in range(2, 11):
        for m in range(1, 9):
            for d in range(1, m + 1):
                cfg = generic_config(k, m, d)
                assert is_proper(cfg).proper == (Fraction(d) <= symmetric_bound(m, k)), \
                    (k, m, d)


def test_symmetric_bound_values():
    assert symmetric_bound(2, 3) == 1
    assert symmetric_bound(4, 7) == 1
    assert symmetric_bound(3, 4) == Fraction(6, 5)


def test_tdma_baseline_is_one_over_k():
    assert tdma_baseline(10) == Fraction(1, 10)
    assert tdma_baseline(3) == Fraction(1, 3)


def test_cj_parameters_three_users():
    p = cj_parameters(3, 1)
    assert p.N_exp == 1
    assert p.N_s == 3
    assert p.d == (2, 1, 1)
    assert p.d_total == 4
    assert p.d_bar == Fraction(4, 9)


def test_cj_parameters_four_users_big_integers():
    p = cj_parameters(4, 5)
    assert p.N_exp == 5
    assert p.N_s == 6 ** 5 + 5 ** 5 == 10901
    assert p.d[0] == 6 ** 5
    assert p.d[1:] == (5 ** 5,) * 3
    assert p.d_bar < Fraction(1, 2)


def test_cj_parameters_rejects_small_networks():
    with pytest.raises(ValueError):
        cj_parameters(2, 1)
    with pytest.raises(ValueError):
        cj_parameters(3, 0)


def test_normalized_dof_increases_toward_one_half():
    for k in (3, 4, 5, 6):
        prev = Fraction(0)
        for n in range(1, 51):
            p = cj_parameters(k, n)
            assert prev < p.d_bar < Fraction(1, 2), (k, n)
            prev = p.d_bar


def test_cj_config_matches_parameters():
    p = cj_parameters(3, 2)
    cfg = cj_config(3, 2, seed=9)
    assert cfg.n_s == p.N_s
    assert cfg.d == p.d
    assert cfg.seed == 9


def test_min_improper_n_known_values():
    assert min_improper_n(4, 100) == 5
    assert min_improper_n(5, 100) == 6


def test_min_improper_n_three_users_always_proper():
    assert min_improper_n(3, 10_000) is None


def test_min_improper_threshold_agreement():
    # the sweep and the closed inequality must flip at the same n
    for k in (4, 5, 6):
        n_star = min_improper_n(k, 50)
        assert n_star is not None
        for n in range(1, n_star):
            assert not improper_by_threshold(k, n)
            assert is_proper(cj_config(k, n)).proper
        assert improper_by_threshold(k, n_star)
        assert not is_proper(cj_config(k, n_star)).proper


def test_min_improper_n_bisection_matches_a_linear_sweep():
    for k in range(3, 13):
        flags = [improper_by_threshold(k, n) for n in range(1, 151)]
        for n_max in range(1, 151):
            linear = next((n for n in range(1, n_max + 1) if flags[n - 1]), None)
            assert min_improper_n(k, n_max) == linear, (k, n_max)


def test_improper_configuration_counts_at_the_flip():
    rep = is_proper(cj_config(4, 5))
    assert rep.N_e == 204_393_750
    assert rep.N_v == 194_400_000
    assert not rep.proper


@pytest.mark.parametrize("cfg,dim", [
    (generic_config(3, 2, 1), 24),
    (diagonal_config(4, 5, 1), 60),
    (block_diagonal_config(2, (2, 3), 4, 1), 48),
])
def test_dim_channel_space(cfg, dim):
    assert dim_channel_space(cfg) == dim


def test_bound_sweep_rows_cover_the_grid():
    args = build_parser().parse_args(["bounds", "--K", "3:6", "--n", "1:5", "--M", "1:2"])
    rows = args.run(args)["rows"]
    bound_a = [r for r in rows if r["source"] == "BoundA"]
    assert len(bound_a) == 20
    assert all(Fraction(r["exact"]) < Fraction(1, 2) for r in bound_a)
    bound_b = [r for r in rows if r["source"] == "BoundB"]
    tdma = [r for r in rows if r["source"] == "TDMA"]
    assert len(bound_b) == 8 and len(tdma) == 4
    k3m2 = next(r for r in bound_b if r["K"] == 3 and r["param"] == 2)
    assert Fraction(k3m2["exact"]) == 1


@given(st.integers(2, 8), st.permutations(list(range(4))))
def test_equation_count_is_permutation_invariant(k, perm):
    d = tuple(2 + i for i in range(4))
    assert equation_count(d) == equation_count(tuple(d[i] for i in perm))


@given(st.integers(2, 6), st.integers(1, 6), st.data())
def test_properness_is_permutation_invariant(k, m, data):
    d = tuple(data.draw(st.integers(1, m)) for _ in range(k))
    perm = data.draw(st.permutations(list(range(k))))
    cfg = generic_config(k, m, d)
    permuted = generic_config(k, m, tuple(d[i] for i in perm))
    assert is_proper(cfg).proper == is_proper(permuted).proper
    assert equation_count(cfg.d) == equation_count(permuted.d)


@given(st.integers(2, 6), st.integers(1, 8), st.data())
def test_slack_sign_matches_verdict(k, m, data):
    d = tuple(data.draw(st.integers(1, m)) for _ in range(k))
    rep = is_proper(generic_config(k, m, d))
    assert rep.slack == rep.N_v - rep.N_e
    assert rep.proper == (rep.slack >= 0)
