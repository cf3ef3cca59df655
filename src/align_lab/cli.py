"""Command-line front end: experiments in, machine-readable reports out.

Every subcommand is deterministic given its flags (seeds included), writes
JSON or CSV to --out or stdout, and exits 0 on success, 2 on an invalid
experiment spec, 3 on a numerical failure, 1 on an I/O failure. JSON outputs
follow the schemas shipped in ``align_lab/schemas/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cj3 as cj3_mod
from .counting import (bound_sweep_rows, cj_config, cj_parameters,
                       improper_by_threshold, is_proper, min_improper_n)
from .errors import (DegenerateSpan, DimensionMismatch, InvalidSpec, RankDeficient,
                     SingularChannel, SingularGaugeBlock, StreamOverflow)
from .model import (ChannelSet, SystemConfig, channels_from_json, channels_to_json,
                    config_from_json, config_to_json, diagonal_config,
                    pair_support, sample_channels, solution_from_json,
                    solution_to_json, with_seed)
from .solve import SolverOptions, classify, run_record_row, verdict_to_json
from .verify import TOL_ALIGN, check, result_to_json

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


def _load_config(path: Path, seed: int | None) -> SystemConfig:
    cfg = config_from_json(_load_json(path))
    return with_seed(cfg, seed) if seed is not None else cfg


def _load_channels(args: argparse.Namespace, cfg: SystemConfig) -> ChannelSet:
    """Channels from --channels, stored in ``cfg``'s layout, or sampled from ``cfg``."""
    if args.channels is None:
        return sample_channels(cfg)
    # a nonzero entry that cfg's structure confines to zero is an error
    return channels_from_json(_load_json(args.channels)).in_layout(cfg)


# ---------------------------------------------------------------------------
# subcommand bodies: each reads the parsed arguments and returns
# (json payload, csv rows, raw text)

def _frac(x: Fraction) -> tuple[str, float]:
    return str(x), float(x)


def cmd_bounds(args: argparse.Namespace):
    rows = []
    for raw in bound_sweep_rows(parse_range(args.K), parse_range(args.n),
                                parse_range(args.M)):
        exact, value = _frac(raw["value"])
        rows.append({"K": raw["K"], "param": raw["param"], "exact": exact,
                     "value": value, "source": raw["source"]})
    return {"rows": rows}, rows, None


def cmd_cj_params(args: argparse.Namespace):
    payload_rows, csv_rows = [], []
    Ks, ns = parse_range(args.K), parse_range(args.n)
    for K in Ks:
        for n in ns:
            p = cj_parameters(K, n)
            exact, value = _frac(p.d_bar)
            payload_rows.append({"K": p.K, "n": p.n, "N_exp": p.N_exp, "N_s": p.N_s,
                                 "d": list(p.d), "d_total": p.d_total,
                                 "d_bar": exact, "d_bar_value": value})
            csv_rows.append({"K": p.K, "n": p.n, "N_exp": p.N_exp, "N_s": p.N_s,
                             "d_first": p.d[0], "d_other": p.d[1],
                             "d_total": p.d_total, "d_bar": exact,
                             "d_bar_value": value})
    return {"rows": payload_rows}, csv_rows, None


def cmd_contradiction(args: argparse.Namespace):
    Ks = parse_range(args.K)
    if any(k < 3 or k > 12 for k in Ks):
        raise InvalidSpec(f"user counts must lie in [3, 12], got {Ks}")
    rows = []
    for K in Ks:
        found = min_improper_n(K, args.n_max)
        row = {"K": K, "min_improper_n": found, "N_s": None, "d_first": None,
               "d_other": None, "N_e": None, "N_v": None,
               "improper_by_threshold": None}
        if found is not None:
            p = cj_parameters(K, found)
            report = is_proper(cj_config(K, found))
            assert not report.proper
            row.update({"N_s": p.N_s, "d_first": p.d[0], "d_other": p.d[1],
                        "N_e": report.N_e, "N_v": report.N_v,
                        "improper_by_threshold": improper_by_threshold(K, found)})
        rows.append(row)
    return {"n_max": args.n_max, "rows": rows}, rows, None


def cmd_cj3(args: argparse.Namespace):
    inst = cj3_mod.build_instance(args.n, seed=args.seed)
    res = check(inst.channels, inst.solution, tol_align=args.tol)
    exact, value = _frac(Fraction(3 * inst.n + 1, 3 * inst.N_s))
    cfg = diagonal_config(3, inst.N_s, (inst.n + 1, inst.n, inst.n), seed=args.seed)
    payload = {
        "n": inst.n, "N_s": inst.N_s, "seed": args.seed,
        "d": [inst.n + 1, inst.n, inst.n],
        "d_bar": exact, "d_bar_value": value,
        "exceeds_tdma": cj3_mod.exceeds_tdma(inst),
        "verification": result_to_json(res),
        "config": config_to_json(cfg),
        "channels": channels_to_json(inst.channels),
        "solution": solution_to_json(inst.solution),
    }
    row = {"n": inst.n, "N_s": inst.N_s, "seed": args.seed,
           "leakage": res.leakage, "min_cross_residual": res.min_cross_residual,
           "direct_ranks": ";".join(str(r) for r in res.direct_ranks),
           "aligned": res.aligned, "rank_ok": res.rank_ok,
           "d_bar": exact, "d_bar_value": value,
           "exceeds_tdma": cj3_mod.exceeds_tdma(inst)}
    return payload, [row], None


def cmd_probe(args: argparse.Namespace):
    from .probe import report_to_json, run_probe
    # --seed steers the draws, not the channels: the config keeps its seed
    cfg = _load_config(args.config, None)
    report = run_probe(cfg, args.draws, seed=args.seed)
    payload = {"config": config_to_json(cfg), "draws_seed": args.seed,
               **report_to_json(report)}
    rows = [{"draw": i, "nullity": x}
            for i, x in enumerate(report.per_draw_nullity)]
    return payload, rows, None


def cmd_solve(args: argparse.Namespace):
    cfg = _load_config(args.config, None)
    opts = SolverOptions(max_iters=args.max_iters, tol_align=args.tol,
                         restarts=args.restarts, trials=args.trials, seed=args.seed)
    verdict = classify(cfg, opts)
    payload = verdict_to_json(cfg, verdict)
    payload["options"] = {"trials": opts.trials, "restarts": opts.restarts,
                          "max_iters": opts.max_iters, "tol_align": opts.tol_align,
                          "seed": opts.seed}
    rows = [run_record_row(cfg, r) for r in verdict.records]
    return payload, rows, None


def cmd_verify(args: argparse.Namespace):
    cfg = _load_config(args.config, args.seed)
    ch = _load_channels(args, cfg)
    sol = solution_from_json(_load_json(args.solution))
    res = check(ch, sol, tol_align=args.tol)
    payload = {"config": config_to_json(cfg), "result": result_to_json(res)}
    row = {"leakage": res.leakage, "min_cross_residual": res.min_cross_residual,
           "direct_ranks": ";".join(str(r) for r in res.direct_ranks),
           "aligned": res.aligned, "rank_ok": res.rank_ok}
    return payload, [row], None


def cmd_export_poly(args: argparse.Namespace):
    cfg = _load_config(args.config, args.seed)
    return None, None, polynomial_system_text(cfg, _load_channels(args, cfg))


# ---------------------------------------------------------------------------
# polynomial export

def _fmt_coeff(z: complex) -> str:
    return f"({float(z.real)!r},{float(z.imag)!r})"


def polynomial_system_text(cfg: SystemConfig, ch: ChannelSet) -> str:
    """The cross equations as a plain-text polynomial system.

    One polynomial per line, ``term + term`` with ``*`` for products; each
    coefficient is an exact (re,im) pair. The gauge is fixed: the first d_k
    rows of every U and V are identity constants, so the unknowns are
    u_j_t_m (the conjugated decoder entry U^[j][t, m], rows t >= d_j) and
    v_k_r_n (the precoder entry V^[k][r, n], rows r >= d_k), all indices
    0-based. Writing the equations in the conjugated decoder entries makes
    the system plain bilinear polynomials in its unknowns. Channels are read
    in ``cfg``'s layout, so a nonzero entry outside its structure raises
    DimensionMismatch.
    """
    ch = ch.in_layout(cfg)
    structure = cfg.structure.kind.value
    if cfg.structure.subcarriers is not None:
        structure += f"/{cfg.structure.subcarriers}"
    lines = [
        f"# K={cfg.K} N={','.join(map(str, cfg.N))} d={','.join(map(str, cfg.d))} "
        f"structure={structure} seed={cfg.seed}",
        "# unknowns: u_j_t_m = conj(U[j][t,m]) for t >= d_j, "
        "v_k_r_n = V[k][r,n] for r >= d_k; first d rows are identity",
    ]
    for j in range(cfg.K):
        for k in range(cfg.K):
            if j == k:
                continue
            rows, cols = pair_support(cfg, j, k)
            coeffs = ch.free[j][k]
            text = [_fmt_coeff(z) for z in coeffs.tolist()]
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
# wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="align-lab",
        description="Numerical laboratory for interference-alignment feasibility")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, run, seed_help="seed override", seed=None):
        sp.add_argument("--out", type=Path, help="output file (default stdout)")
        sp.add_argument("--format", choices=["json", "csv"], default="json",
                        dest="fmt", help="output format")
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
    sp.add_argument("--tol", type=float, default=TOL_ALIGN, help="leakage tolerance")
    common(sp, cmd_cj3, seed_help="channel seed (default 0)", seed=0)

    sp = sub.add_parser("probe", help="nullspace probing of the channel space")
    sp.add_argument("--config", type=Path, required=True, help="config JSON path")
    sp.add_argument("--draws", type=int, default=50, help="number of (U,V) draws")
    common(sp, cmd_probe, seed_help="draw seed (default 0; channel seed unused here)",
           seed=0)

    sp = sub.add_parser("solve", help="Monte Carlo feasibility classification")
    sp.add_argument("--config", type=Path, required=True, help="config JSON path")
    sp.add_argument("--trials", type=int, default=20, help="channel draws")
    sp.add_argument("--restarts", type=int, default=1, help="restarts per draw")
    sp.add_argument("--max-iters", type=int, default=1000, dest="max_iters",
                    help="iteration cap per run")
    sp.add_argument("--tol", type=float, default=TOL_ALIGN, help="leakage tolerance")
    common(sp, cmd_solve, seed_help="solver seed (default 0)", seed=0)

    sp = sub.add_parser("verify", help="check a stored solution against channels")
    sp.add_argument("--config", type=Path, required=True, help="config JSON path")
    sp.add_argument("--solution", type=Path, required=True, help="solution JSON path")
    sp.add_argument("--channels", type=Path, default=None,
                    help="channels JSON path (default: sample from config)")
    sp.add_argument("--tol", type=float, default=TOL_ALIGN, help="leakage tolerance")
    common(sp, cmd_verify, seed_help="channel seed override")

    sp = sub.add_parser("export-poly",
                        help="write the alignment equations as a polynomial system")
    sp.add_argument("--config", type=Path, required=True, help="config JSON path")
    sp.add_argument("--channels", type=Path, default=None,
                    help="channels JSON path (default: sample from config)")
    common(sp, cmd_export_poly, seed_help="channel seed override")
    return parser


def _emit(args: argparse.Namespace, payload, rows, text) -> None:
    if text is None:
        if args.fmt == "json":
            text = json.dumps(payload, indent=2) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()),
                                    lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
            text = buf.getvalue()
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args, *args.run(args))
    except (SingularChannel, DegenerateSpan, RankDeficient, SingularGaugeBlock,
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
