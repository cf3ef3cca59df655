"""Command-line front end: experiments in, machine-readable reports out.

Every subcommand is deterministic given its flags (seeds included), writes
one report to --out or stdout, and exits 0 on success, 2 on an invalid
experiment spec, 3 on a numerical failure, 1 on an I/O failure. ``export-poly``
writes plain text; every other report is JSON that follows its schema in
``align_lab/schemas/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cj3 as cj3_mod
from .counting import (cj_config, cj_parameters, is_proper, min_improper_n,
                       symmetric_bound, tdma_baseline)
from .errors import (DegenerateSpan, DimensionMismatch, InvalidSpec, NumericOverflow,
                     RankDeficient, SingularChannel, StreamOverflow)
from .model import (ChannelSet, IaSolution, SystemConfig, config_from_json,
                    config_to_json, cross_pairs, pair_support, sample_channels)
from .probe import run_probe
from .solve import SolverOptions, classify
from .verify import TOL_ALIGN, VerificationResult, check

__all__ = ["main", "polynomial_system_text"]


def parse_range(text: str) -> list[int]:
    """Inclusive integer range: '7' or 'LO:HI'."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(text)]
    except ValueError as exc:
        raise InvalidSpec(f"bad integer range {text!r}, expected 'N' or 'LO:HI'") from exc
    if not values:
        raise InvalidSpec(f"range {text!r} is empty")
    return values


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_channels(args: argparse.Namespace, cfg: SystemConfig) -> ChannelSet:
    """Channels from --channels, read into ``cfg``'s layout, or sampled from ``cfg``."""
    if args.channels is None:
        return sample_channels(cfg)
    matrices = _matrices_from_json(_load_json(args.channels), "channels")
    return ChannelSet.from_dense(cfg, matrices)


# ---------------------------------------------------------------------------
# subcommand bodies: each reads the parsed arguments and returns its report,
# a JSON payload or, for export-poly, text; no other module builds one

def _frac(x: Fraction) -> tuple[str, float]:
    return str(x), float(x)


def cmd_bounds(args: argparse.Namespace):
    Ks, ns, Ms = parse_range(args.K), parse_range(args.n), parse_range(args.M)
    rows = []
    for K in Ks:
        bounds = [(n, cj_parameters(K, n).d_bar, "BoundA") for n in ns if K >= 3]
        bounds += [(M, symmetric_bound(M, K), "BoundB") for M in Ms]
        bounds.append((None, tdma_baseline(K), "TDMA"))
        for param, bound, source in bounds:
            exact, value = _frac(bound)
            rows.append({"K": K, "param": param, "exact": exact, "value": value,
                         "source": source})
    return {"rows": rows}


def cmd_cj_params(args: argparse.Namespace):
    rows = []
    Ks, ns = parse_range(args.K), parse_range(args.n)
    for K in Ks:
        for n in ns:
            p = cj_parameters(K, n)
            exact, value = _frac(p.d_bar)
            rows.append({"K": p.K, "n": p.n, "N_exp": p.N_exp, "N_s": p.N_s,
                         "d": list(p.d), "d_total": p.d_total,
                         "d_bar": exact, "d_bar_value": value})
    return {"rows": rows}


def cmd_contradiction(args: argparse.Namespace):
    Ks = parse_range(args.K)
    if any(k < 3 or k > 12 for k in Ks):
        raise InvalidSpec(f"user counts must lie in [3, 12], got {Ks}")
    rows = []
    for K in Ks:
        found = min_improper_n(K, args.n_max)
        row = {"K": K, "min_improper_n": found, "N_s": None, "d_first": None,
               "d_other": None, "N_e": None, "N_v": None}
        if found is not None:
            p = cj_parameters(K, found)
            report = is_proper(cj_config(K, found))
            assert not report.proper
            row.update({"N_s": p.N_s, "d_first": p.d[0], "d_other": p.d[1],
                        "N_e": report.N_e, "N_v": report.N_v})
        rows.append(row)
    return {"n_max": args.n_max, "rows": rows}


def _verification_json(res: VerificationResult) -> dict:
    return {"leakage": res.leakage, "max_cross_residual": res.max_cross_residual,
            "direct_ranks": list(res.direct_ranks), "aligned": res.aligned,
            "rank_ok": res.rank_ok, "tolerances": {"tol_align": res.tol_align}}


def cmd_cj3(args: argparse.Namespace):
    p = cj_parameters(3, args.n)
    inst = cj3_mod.build_instance(args.n, seed=args.seed)
    res = check(inst.channels, inst.solution)
    exact, value = _frac(p.d_bar)
    return {
        "n": p.n, "d_bar": exact, "d_bar_value": value,
        "verification": _verification_json(res),
        "config": config_to_json(cj_config(3, args.n, seed=args.seed)),
        "channels": [list(row) for row in inst.channels.matrices],
        "solution": {"V": inst.solution.V, "U": inst.solution.U},
    }


def cmd_probe(args: argparse.Namespace):
    # --seed steers the draws, not the channels: the config keeps its seed
    cfg = config_from_json(_load_json(args.config))
    report = run_probe(cfg, args.draws, seed=args.seed)
    return {"config": config_to_json(cfg), "draws_seed": args.seed,
            **dataclasses.asdict(report)}


def cmd_solve(args: argparse.Namespace):
    cfg = config_from_json(_load_json(args.config))
    opts = SolverOptions(max_iters=args.max_iters, tol_align=args.tol,
                         trials=args.trials, seed=args.seed)
    verdict = classify(cfg, opts)
    # a singular direct product gives an infinite ratio, which JSON cannot hold
    runs = [{"trial": r.trial, "iters": r.iters, "stop_reason": r.stop_reason,
             "final_leakage": r.final_leakage,
             "max_interference_to_signal": (r.max_interference_to_signal
                                            if np.isfinite(r.max_interference_to_signal)
                                            else None),
             "rank_ok": r.rank_ok}
            for r in verdict.records]
    median, p90 = verdict.leakage_quantiles
    return {
        "config": config_to_json(cfg),
        "success_rate": verdict.success_rate,
        "best_leakage": verdict.best_leakage,
        "leakage_quantiles": {"median": median, "p90": p90},
        "classification": verdict.classification.value,
        "witness_status": verdict.witness_status,
        "evidence": dataclasses.asdict(verdict.evidence),
        "runs": runs,
        "options": {"trials": opts.trials, "max_iters": opts.max_iters,
                    "tol_align": opts.tol_align, "seed": opts.seed},
    }


def cmd_verify(args: argparse.Namespace):
    cfg = config_from_json(_load_json(args.config))
    ch = _load_channels(args, cfg)
    V, U = _matrices_from_json(_load_json(args.solution), "solution", ("V", "U"))
    sol = IaSolution(V=V, U=U)
    for k, (got, want) in enumerate(zip(sol.d, cfg.d)):
        if got != want:
            raise DimensionMismatch(f"user {k}: the solution has {got} streams, "
                                    f"the config names d_k={want}")
    res = check(ch, sol, tol_align=args.tol)
    return {"config": config_to_json(cfg), "result": _verification_json(res)}


def cmd_export_poly(args: argparse.Namespace):
    cfg = config_from_json(_load_json(args.config))
    return polynomial_system_text(cfg, _load_channels(args, cfg))


# ---------------------------------------------------------------------------
# polynomial export

def _coeff_text(z: complex) -> str:
    return f"({float(z.real)!r},{float(z.imag)!r})"


def polynomial_system_text(cfg: SystemConfig, ch: ChannelSet) -> str:
    """The cross equations as a plain-text polynomial system.

    One polynomial per line, ``term + term`` with ``*`` for products; each
    coefficient is an exact (re,im) pair. The gauge is fixed: the first d_k
    rows of every U and V are identity constants, so the unknowns are
    u_j_t_m (the conjugated decoder entry U^[j][t, m], rows t >= d_j) and
    v_k_r_n (the precoder entry V^[k][r, n], rows r >= d_k), all indices
    0-based. Writing the equations in the conjugated decoder entries makes
    the system plain bilinear polynomials in its unknowns. ``ch`` must be
    stored in ``cfg``'s layout; DimensionMismatch otherwise.
    """
    if (ch.N, ch.structure, ch.M) != (cfg.N, cfg.structure, cfg.M):
        raise DimensionMismatch(
            f"channels ({ch.structure.kind.value}, N={ch.N}, M={ch.M}) are not in the "
            f"layout of the config ({cfg.structure.kind.value}, N={cfg.N}, M={cfg.M})")
    structure = cfg.structure.kind.value
    if cfg.structure.subcarriers is not None:
        structure += f"/{cfg.structure.subcarriers}"
    lines = [
        f"# K={cfg.K} N={','.join(map(str, cfg.N))} d={','.join(map(str, cfg.d))} "
        f"structure={structure} seed={cfg.seed}",
        "# unknowns: u_j_t_m = conj(U[j][t,m]) for t >= d_j, "
        "v_k_r_n = V[k][r,n] for r >= d_k; first d rows are identity",
    ]
    for j, k in cross_pairs(cfg.K):
        rows, cols = pair_support(cfg, j, k)
        coeffs = ch.free[j][k]
        text = [_coeff_text(z) for z in coeffs.tolist()]
        u_free, v_free = rows >= cfg.d[j], cols >= cfg.d[k]
        for m in range(cfg.d[j]):
            # a gauge row t < d_j is the identity: it enters equation m = t only
            in_m = (coeffs != 0) & (u_free | (rows == m))
            for n in range(cfg.d[k]):
                terms = []
                for i in np.flatnonzero(in_m & (v_free | (cols == n))).tolist():
                    factors = [text[i]]
                    if u_free[i]:
                        factors.append(f"u_{j}_{rows[i]}_{m}")
                    if v_free[i]:
                        factors.append(f"v_{k}_{cols[i]}_{n}")
                    terms.append("*".join(factors))
                lines.append(" + ".join(terms) if terms else "(0.0,0.0)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON: a complex matrix is rows of [re, im] pairs, written and read here alone

def _pairs(value) -> list:
    """``json.dumps``'s ``default``: a complex matrix as rows of [re, im] pairs.

    TypeError for anything else, as json raises for a type it cannot write.
    """
    if isinstance(value, np.ndarray) and value.dtype == complex:
        return np.ascontiguousarray(value).view(float).reshape(*value.shape, 2).tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _matrix_from_json(rows) -> np.ndarray:
    """The complex matrix that ``_pairs`` wrote as rows of [re, im] pairs, every bit kept.

    ValueError unless ``rows`` is a rectangle of [re, im] pairs of numbers
    or booleans. An empty matrix passes through for the caller's shape
    checks to name.
    """
    a = np.array(rows)
    if a.size == 0 and a.ndim < 3:
        return a.astype(complex)
    if a.dtype.kind not in "biuf" or a.ndim != 3 or a.shape[2] != 2:
        raise ValueError(f"expected rows of [re, im] number pairs, got {a.dtype} "
                         f"entries of shape {a.shape}")
    return a.astype(float).view(complex)[..., 0]


def _matrices_from_json(doc, what: str, keys: tuple[str, ...] | None = None
                        ) -> list[list[np.ndarray]]:
    """Lists of matrices: ``doc`` itself, or its entries under ``keys`` in order.

    DimensionMismatch, naming a malformed ``what`` document, when one is
    missing or is not a list of matrices.
    """
    try:
        return [[_matrix_from_json(m) for m in entries]
                for entries in (doc if keys is None else (doc[key] for key in keys))]
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed {what} document: {exc}") from exc


# ---------------------------------------------------------------------------
# wiring

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared; never change it.

    ``parse_args`` leaves it as it is, so every call parses alike.
    """
    parser = argparse.ArgumentParser(
        prog="align-lab",
        description="Numerical laboratory for interference-alignment feasibility")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, run, seed_help=None, seed=None):
        """--out; --seed if it is read."""
        sp.add_argument("--out", type=Path, help="output file (default stdout)")
        if seed_help is not None:
            sp.add_argument("--seed", type=int, default=seed, help=seed_help)
        sp.set_defaults(run=run)

    sp = sub.add_parser("bounds", help="bound-comparison table over K, n, M sweeps")
    sp.add_argument("--K", default="3:6", help="user-count range LO:HI")
    sp.add_argument("--n", default="1:5", help="series-index range LO:HI")
    sp.add_argument("--M", default="1:4", help="antenna-count range LO:HI")
    common(sp, cmd_bounds)

    sp = sub.add_parser("cj-params", help="extension-series parameters, exact")
    sp.add_argument("--K", required=True, help="user count or range LO:HI")
    sp.add_argument("--n", default="1:10", help="series-index range LO:HI")
    common(sp, cmd_cj_params)

    sp = sub.add_parser("contradiction",
                        help="first series index where properness fails, per K")
    sp.add_argument("--K", default="3:6", help="user-count range within [3,12]")
    sp.add_argument("--n-max", type=int, default=100, dest="n_max",
                    help="sweep ceiling")
    common(sp, cmd_contradiction)

    sp = sub.add_parser("cj3", help="explicit K=3 witness on fresh diagonal channels")
    sp.add_argument("--n", type=int, default=3, help="extension index (N_s=2n+1)")
    common(sp, cmd_cj3, seed_help="channel seed (default 0)", seed=0)

    sp = sub.add_parser("probe", help="nullspace probing of the channel space")
    sp.add_argument("--config", type=Path, required=True, help="config JSON path")
    sp.add_argument("--draws", type=int, default=50, help="number of (U,V) draws")
    common(sp, cmd_probe, seed_help="draw seed (default 0; channel seed unused here)",
           seed=0)

    sp = sub.add_parser("solve", help="Monte Carlo feasibility classification")
    opts = SolverOptions()
    sp.add_argument("--config", type=Path, required=True, help="config JSON path")
    sp.add_argument("--trials", type=int, default=opts.trials, help="channel draws")
    sp.add_argument("--max-iters", type=int, default=opts.max_iters, dest="max_iters",
                    help="iteration cap per run")
    sp.add_argument("--tol", type=float, default=opts.tol_align, help="leakage tolerance")
    common(sp, cmd_solve, seed_help="solver seed (default 0)", seed=opts.seed)

    sp = sub.add_parser("verify", help="check a stored solution against channels")
    sp.add_argument("--config", type=Path, required=True, help="config JSON path")
    sp.add_argument("--solution", type=Path, required=True, help="solution JSON path")
    sp.add_argument("--channels", type=Path, default=None,
                    help="channels JSON path (default: sample from config)")
    sp.add_argument("--tol", type=float, default=TOL_ALIGN, help="leakage tolerance")
    common(sp, cmd_verify)

    sp = sub.add_parser("export-poly",
                        help="write the alignment equations as a polynomial system")
    sp.add_argument("--config", type=Path, required=True, help="config JSON path")
    sp.add_argument("--channels", type=Path, default=None,
                    help="channels JSON path (default: sample from config)")
    common(sp, cmd_export_poly)
    return parser


def _emit(args: argparse.Namespace, report) -> None:
    """Write ``report`` to --out or stdout: text as it is, a payload as one line
    of compact JSON (with no ``indent``, ``json.dumps`` runs its C encoder)."""
    text = report if isinstance(report, str) else json.dumps(report, default=_pairs) + "\n"
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args, args.run(args))
    except (SingularChannel, DegenerateSpan, RankDeficient, NumericOverflow,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidSpec, DimensionMismatch, StreamOverflow, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
