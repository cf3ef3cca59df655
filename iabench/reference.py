"""Reference computations the benchmark checks align_lab's outputs against.

Nothing here imports align_lab. Every figure is recomputed from the
benchmark's own inputs with numpy (its own QR, SVD and rank cutoff) or with
exact integers and fractions, so a fault in the program cannot hide in the
check that judges it. Each ``check_*`` function raises ``Rejected`` with a
reason when an output is wrong and returns None when it is right.

Configs are plain dicts in the program's config-JSON layout:
``{"K", "N", "d", "structure": {"kind", "N_c"?}, "M"?, "seed"}``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

TOL_LEAKAGE = 1e-8         # the program's documented alignment tolerance
TOL_ORTHONORMAL = 1e-10    # ||Q^H Q - I||_max for solver iterates
TOL_MONOTONE = 1e-12       # largest allowed rise between trajectory points
POLY_SLACK = 1e3           # allowed residual of the exported polynomials, in eps * cond(gauge)
_EPS = np.finfo(float).eps


class Rejected(Exception):
    """A program output failed a reference check."""


# ---------------------------------------------------------------------------
# linear algebra of the benchmark's own

def rank(a: np.ndarray) -> int:
    """Numerical rank with numpy's SVD and the cutoff max(m, n) * eps * s_max."""
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > max(a.shape) * _EPS * s[0]))


def orthonormal(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of a full-column-rank matrix by Householder QR."""
    q, r = np.linalg.qr(np.asarray(a, dtype=complex))
    diag = np.abs(np.diagonal(r))
    if diag.size and diag.min() <= max(a.shape) * _EPS * diag.max():
        raise Rejected(f"matrix of shape {a.shape} has deficient column rank")
    return q


def witness_figures(diags, V, U) -> tuple[float, tuple[int, ...]]:
    """Leakage and direct ranks of (U, V) on diagonal channels.

    ``diags[j][k]`` is the diagonal of H[j][k]; products are formed as
    row scalings, never as dense matrices.
    """
    qv = [orthonormal(v) for v in V]
    qu = [orthonormal(u) for u in U]
    K = len(qv)
    leak = 0.0
    for j in range(K):
        for k in range(K):
            if j != k:
                leak += float(np.linalg.norm(qu[j].conj().T @ (diags[j][k][:, None] * qv[k])) ** 2)
    ranks = tuple(rank(qu[k].conj().T @ (diags[k][k][:, None] * qv[k])) for k in range(K))
    return leak, ranks


def check_witness(diags, V, U, n: int) -> None:
    """The three-user witness aligns and keeps direct ranks (n+1, n, n)."""
    leak, ranks = witness_figures(diags, V, U)
    if not leak <= TOL_LEAKAGE:
        raise Rejected(f"witness n={n}: leakage {leak:.3e} > {TOL_LEAKAGE:g}")
    if ranks != (n + 1, n, n):
        raise Rejected(f"witness n={n}: direct ranks {ranks} != {(n + 1, n, n)}")


def check_dbar(text: str, n: int) -> None:
    """d_bar is exactly (3n+1) / (3(2n+1)) and beats time sharing's 1/3."""
    value = Fraction(text)
    if value != Fraction(3 * n + 1, 3 * (2 * n + 1)):
        raise Rejected(f"d_bar {text} is not (3n+1)/(3(2n+1)) for n={n}")
    if not value > Fraction(1, 3):
        raise Rejected(f"d_bar {text} does not exceed 1/3")


def check_diagonal_channels(matrices, n_s: int) -> None:
    """Every matrix is n_s x n_s, finite, with a nonzero diagonal and exact zeros off it."""
    for j, row in enumerate(matrices):
        for k, h in enumerate(row):
            if h.shape != (n_s, n_s):
                raise Rejected(f"H[{j}][{k}] has shape {h.shape}, expected {(n_s, n_s)}")
            if not np.isfinite(h).all():
                raise Rejected(f"H[{j}][{k}] has non-finite entries")
            on = np.count_nonzero(np.diagonal(h))
            if on != n_s or np.count_nonzero(h) != on:
                raise Rejected(f"H[{j}][{k}] is not diagonal with a nonzero diagonal")


# ---------------------------------------------------------------------------
# counts from the structure alone

def _pair_shapes(cfg: dict):
    """(rows, cols) of each ordered pair's block of the probe matrix P.

    Rows are the d_j * d_k cross equations of the pair; columns its free
    channel entries.
    """
    K, N, d = cfg["K"], cfg["N"], cfg["d"]
    kind = cfg["structure"]["kind"]
    for j in range(K):
        for k in range(K):
            if j == k:
                continue
            if kind == "generic":
                cols = N[j] * N[k]
            elif kind == "diagonal":
                cols = N[j]
            else:
                cols = cfg["structure"]["N_c"] * cfg["M"][j] * cfg["M"][k]
            yield d[j] * d[k], cols


def channel_space_dim(cfg: dict) -> int:
    """Number of free cross-channel entries of the structure."""
    return sum(cols for _, cols in _pair_shapes(cfg))


def probe_nullity(cfg: dict) -> int:
    """Nullity of P for generic (U, V): each pair block has full rank min(rows, cols)."""
    return sum(cols - min(rows, cols) for rows, cols in _pair_shapes(cfg))


def check_probe(report, cfg: dict, draws: int) -> None:
    """Per-draw nullities and the span rank agree with the structure's counts."""
    nullity = probe_nullity(cfg)
    target = channel_space_dim(cfg)
    if report.draws != draws or len(report.per_draw_nullity) != draws:
        raise Rejected(f"probe made {len(report.per_draw_nullity)} draws, asked {draws}")
    bad = [x for x in report.per_draw_nullity if x != nullity]
    if bad:
        raise Rejected(f"probe nullities {report.per_draw_nullity}, expected {nullity}")
    if report.dim_target != target:
        raise Rejected(f"dim_target {report.dim_target}, expected {target}")
    if not 0 <= report.span_rank <= target:
        raise Rejected(f"span_rank {report.span_rank} outside [0, {target}]")
    if report.nontrivial_draws != (draws if nullity else 0):
        raise Rejected(f"nontrivial_draws {report.nontrivial_draws} for nullity {nullity}")
    if report.filled != (report.span_rank == target):
        raise Rejected("filled disagrees with span_rank == dim_target")


def equations(d) -> int:
    """N_e: one equation per stream pair of every ordered user pair j != k."""
    return sum(d[j] * d[k] for j in range(len(d)) for k in range(len(d)) if j != k)


def series_counts(K: int, n: int) -> tuple[int, int]:
    """Exact (N_e, N_v) of the time-extension series config at index n.

    Streams ((n+1)^E, n^E, ..., n^E) with E = (K-1)(K-2) - 1 on
    N_s = (n+1)^E + n^E diagonal slots; each user has d_k (N_s - d_k) free
    precoder entries and as many decoder entries once the gauge is fixed.
    """
    e = (K - 1) * (K - 2) - 1
    d = [(n + 1) ** e] + [n ** e] * (K - 1)
    n_s = d[0] + d[1]
    return equations(d), sum(2 * dk * (n_s - dk) for dk in d)


def first_improper(K: int, n_max: int) -> int | None:
    """Smallest n <= n_max with N_e > N_v, or None."""
    for n in range(1, n_max + 1):
        n_e, n_v = series_counts(K, n)
        if n_e > n_v:
            return n
    return None


def check_min_improper(result, expected) -> None:
    if result != expected:
        raise Rejected(f"min_improper_n returned {result}, expected {expected}")


# ---------------------------------------------------------------------------
# solver verdicts

def check_verdict(verdict, tol: float, improper: bool, witness: bool) -> None:
    """A classify verdict is consistent with its own run records.

    Trajectories never rise, iterates have orthonormal columns, each record's
    success follows from its leakage and rank flag, no run of an improper
    generic config succeeds, and the classification follows the documented
    rule: LikelyFeasible when a witness exists or at least half the runs
    succeed; LikelyInfeasible when none succeeds and the best leakage exceeds
    100 * tol; Inconclusive otherwise.
    """
    records = verdict.records
    if not records:
        raise Rejected("verdict has no run records")
    for rec in records:
        traj = np.asarray(rec.trajectory)
        if traj.size < 1 or np.any(np.diff(traj) > TOL_MONOTONE):
            raise Rejected(f"trial {rec.trial}: trajectory rises")
        for mat in rec.solution.U + rec.solution.V:
            gram = mat.conj().T @ mat
            if np.abs(gram - np.eye(gram.shape[0])).max() > TOL_ORTHONORMAL:
                raise Rejected(f"trial {rec.trial}: iterate columns are not orthonormal")
        if rec.aligned != (rec.final_leakage <= tol):
            raise Rejected(f"trial {rec.trial}: aligned flag disagrees with leakage")
        if rec.success != (rec.aligned and rec.rank_ok):
            raise Rejected(f"trial {rec.trial}: success is not aligned and rank_ok")
    successes = sum(1 for r in records if r.success)
    if improper and successes:
        raise Rejected(f"{successes} runs succeeded on an improper generic config")
    if verdict.success_rate != successes / len(records):
        raise Rejected(f"success rate {verdict.success_rate} != {successes}/{len(records)}")
    best = min(r.final_leakage for r in records)
    if verdict.best_leakage != best:
        raise Rejected(f"best leakage {verdict.best_leakage} != {best}")
    if verdict.witness_found != witness:
        raise Rejected(f"witness_found is {verdict.witness_found}, expected {witness}")
    if witness or verdict.success_rate >= 0.5:
        expected = "LikelyFeasible"
    elif successes == 0 and best > 100 * tol:
        expected = "LikelyInfeasible"
    else:
        expected = "Inconclusive"
    if verdict.classification.value != expected:
        raise Rejected(f"classification {verdict.classification.value}, rule gives {expected}")


# ---------------------------------------------------------------------------
# exported polynomial systems

def _parse_term(term: str):
    close = term.index(")")
    re_s, im_s = term[1:close].split(",")
    factors = [f for f in term[close + 1:].split("*") if f]
    return complex(float(re_s), float(im_s)), factors


def poly_residual(text: str, U, V) -> tuple[int, float, float]:
    """Number of polynomials, their worst relative residual at (U, V), and
    the largest condition number of the gauge blocks.

    The text's unknowns are gauge-fixed: u_j_t_m = conj(U^[j][t, m]) and
    v_k_r_n = V^[k][r, n] after each U^[k], V^[k] is right-multiplied by the
    inverse of its top d_k x d_k block. A residual is |sum of terms| over
    sum of |terms|, so it is independent of the coefficients' scale; the
    gauge fixing alone leaves residuals up to about eps times the
    condition number of the top blocks.
    """
    tops = [m[:m.shape[1]] for m in list(U) + list(V)]
    cond = max(float(np.linalg.cond(top)) for top in tops)
    ug = [u @ np.linalg.inv(u[:u.shape[1]]) for u in U]
    vg = [v @ np.linalg.inv(v[:v.shape[1]]) for v in V]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    worst = 0.0
    for line in lines:
        total, scale = 0j, 0.0
        for term in line.split(" + "):
            value, factors = _parse_term(term)
            for f in factors:
                kind, user, row, col = f.split("_")
                if kind == "u":
                    value *= ug[int(user)][int(row), int(col)].conjugate()
                else:
                    value *= vg[int(user)][int(row), int(col)]
            total += value
            scale += abs(value)
        if scale > 0:
            worst = max(worst, abs(total) / scale)
    return len(lines), worst, cond


def check_poly(text: str, U, V, d) -> None:
    """One polynomial per cross equation, each vanishing at the witness."""
    count, worst, cond = poly_residual(text, U, V)
    if count != equations(d):
        raise Rejected(f"export-poly wrote {count} polynomials, N_e = {equations(d)}")
    tol = POLY_SLACK * _EPS * cond
    if not worst <= tol:
        raise Rejected(f"export-poly residual {worst:.3e} at the witness > {tol:.3e}")
