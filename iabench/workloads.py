"""The benchmark's three workloads: fixed job lists made from a seed.

A job is one call a user makes into align_lab, paired with a check against
``reference``. ``build`` generates a workload's inputs from its seed, writes
the files its CLI jobs read, and makes one untimed warm-up call of each job
kind, so no timed job pays a cold first call. Every call goes through a
module attribute (``al_solve.classify``, not a bound name), so the tracer's
wrappers see it.

The workloads and why each was chosen:

* solve-grid: classify verdicts on four configs. The K=3 runs converge with
  a heavy tail, the K=5 (improper) runs plateau far above tolerance, the
  K=4 N=5 runs hit their iteration cap, and the diagonal config also builds
  the three-user witness. Time goes to solver sweeps and verify.check; the
  probe, counting and CLI layers do nothing.
* probe-span: run_probe reports on five structures. Time goes to building
  P and to the subspace SVDs; no solver runs. One config has a 48 x 300 P
  beside four small ones, and trivial nullspaces sit beside non-trivial ones.
* diagonal-series: the time-extension side. Witnesses for n = 1..6, dense
  diagonal channel draws at N_s = 501 and 1001, min_improper_n sweeps and
  in-process CLI cj3 / verify / export-poly jobs. The solver and the probe do
  nothing. Three witness jobs at n = 16 and 24 on fixed seeds fail today
  (the float64 construction loses direct rank or its Krylov chain
  collapses); they are kept and counted as failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import align_lab.cj3 as al_cj3
import align_lab.cli as al_cli
import align_lab.counting as al_counting
import align_lab.model as al_model
import align_lab.probe as al_probe
import align_lab.solve as al_solve
import align_lab.verify as al_verify
import reference as ref
from reference import Rejected

@dataclass
class Job:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    known_fault: bool = False     # fails today on inputs that do not depend on the seed


def _generic(K, N, d):
    return {"K": K, "N": [N] * K, "d": [d] * K, "structure": {"kind": "generic"}}


def _diagonal(K, n_s, d):
    d = list(d) if isinstance(d, tuple) else [d] * K
    return {"K": K, "N": [n_s] * K, "d": d, "structure": {"kind": "diagonal"}}


def _block_diagonal(K, M, n_c, d):
    return {"K": K, "N": [M * n_c] * K, "d": [d] * K, "M": [M] * K,
            "structure": {"kind": "block-diagonal", "N_c": n_c}}


def _seeds(seed: int, salt: int):
    """Endless stream of 32-bit seeds derived from (seed, salt)."""
    rng = np.random.default_rng([seed, salt])
    while True:
        yield int(rng.integers(2**32))


def _interleave(groups: list[list[Job]]) -> list[Job]:
    """Round-robin over the groups, so each config is spread across the round."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def _warm_up(jobs: list[Job]) -> None:
    """Run and check the first job of each kind once, untimed."""
    seen = set()
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            job.check(job.call())


# ---------------------------------------------------------------------------
# solve-grid

# (kind, config, trials, max_iters, jobs, improper, witness)
SOLVE_GRID = (
    ("classify:generic-3-2-1", _generic(3, 2, 1), 2, 500, 30, False, False),
    ("classify:generic-5-2-1", _generic(5, 2, 1), 2, 200, 25, True, False),
    ("classify:generic-4-5-2", _generic(4, 5, 2), 1, 40, 30, False, False),
    ("classify:diagonal-3-7", _diagonal(3, 7, (4, 3, 3)), 1, 100, 15, False, True),
)


def _solve_grid(seed: int, workdir: Path) -> list[Job]:
    seeds = _seeds(seed, 1)
    groups = []
    for kind, doc, trials, max_iters, count, improper, witness in SOLVE_GRID:
        group = []
        for _ in range(count):
            cfg = al_model.config_from_json({**doc, "seed": next(seeds)})
            opts = al_solve.SolverOptions(max_iters=max_iters, trials=trials, seed=next(seeds))
            if witness:
                # the witness classify builds must verify by the benchmark's own algebra
                n = (cfg.n_s - 1) // 2
                ch = al_model.sample_channels(cfg)
                sol = al_cj3.construct(ch, n)
                ref.check_witness(_diagonals(ch.matrices), sol.V, sol.U, n)

            def check(verdict, tol=opts.tol_align, improper=improper, witness=witness):
                ref.check_verdict(verdict, tol, improper, witness)

            group.append(Job(kind, lambda cfg=cfg, opts=opts: al_solve.classify(cfg, opts), check))
        groups.append(group)
    return _interleave(groups)


# ---------------------------------------------------------------------------
# probe-span

# (kind, config, draws, jobs)
PROBE_SPAN = (
    ("probe:generic-4-5-2", _generic(4, 5, 2), 2, 20),
    ("probe:generic-3-2-1", _generic(3, 2, 1), 4, 20),
    ("probe:block-diagonal-3-2-4-2", _block_diagonal(3, 2, 4, 2), 4, 20),
    ("probe:diagonal-4-6-1", _diagonal(4, 6, 1), 4, 20),
    ("probe:diagonal-3-7", _diagonal(3, 7, (4, 3, 3)), 4, 20),
)


def _probe_span(seed: int, workdir: Path) -> list[Job]:
    seeds = _seeds(seed, 2)
    groups = []
    for kind, doc, draws, count in PROBE_SPAN:
        cfg = al_model.config_from_json({**doc, "seed": 0})

        def check(report, doc=doc, draws=draws):
            ref.check_probe(report, doc, draws)

        groups.append([Job(kind, lambda s=next(seeds), cfg=cfg, draws=draws:
                           al_probe.run_probe(cfg, draws, seed=s), check)
                       for _ in range(count)])
    return _interleave(groups)


# ---------------------------------------------------------------------------
# diagonal-series

WITNESS_N = range(1, 7)         # n <= 6: no failure seen in 40000 seeds at n = 6
WITNESS_SEEDS_PER_N = 7
# fixed (n, seed) witnesses that fail in float64 today
KNOWN_FAULTS = ((16, 3), (16, 7), (24, 7))
CHANNEL_JOBS = ((501, 4), (1001, 2))        # (N_s, draws)
SERIES_K = (3, 4, 5, 6)
SERIES_N_MAX = (2500, 5000, 10000, 20000)
CLI_N = (2, 3, 4, 5)
CLI_SEEDS_PER_N = 3


def _diagonals(matrices):
    return [[np.diagonal(h) for h in row] for row in matrices]


def _dense(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _witness_job(n: int, seed: int, known_fault: bool = False) -> Job:
    def call():
        inst = al_cj3.build_instance(n, seed=seed)
        return inst, al_verify.check(inst.channels, inst.solution)

    def check(out):
        inst, res = out
        if not (res.aligned and res.rank_ok):
            raise Rejected(f"witness n={n} seed={seed}: verify reports aligned={res.aligned}, "
                           f"rank_ok={res.rank_ok}, direct_ranks={res.direct_ranks}")
        ref.check_witness(_diagonals(inst.channels.matrices), inst.solution.V,
                          inst.solution.U, n)

    return Job("witness", call, check, known_fault)


def _channel_job(n_s: int, seed: int) -> Job:
    cfg = al_model.config_from_json({**_diagonal(3, n_s, 1), "seed": seed})
    return Job(f"channels:{n_s}", lambda: al_model.sample_channels(cfg),
               lambda ch: ref.check_diagonal_channels(ch.matrices, n_s))


def _series_job(K: int, n_max: int, expected: dict) -> Job:
    def check(result):
        if (K, n_max) not in expected:
            expected[K, n_max] = ref.first_improper(K, n_max)
        ref.check_min_improper(result, expected[K, n_max])

    return Job("min_improper_n", lambda: al_counting.min_improper_n(K, n_max), check)


def _cli_jobs(n: int, seed: int, workdir: Path) -> list[Job]:
    """cj3 writes a witness as JSON; verify and export-poly read it back."""
    base = workdir / f"cj3-{n}-{seed}"
    out, cfg_path = base.with_suffix(".json"), base.with_name(base.name + "-config.json")
    ch_path = base.with_name(base.name + "-channels.json")
    sol_path = base.with_name(base.name + "-solution.json")
    verify_out = base.with_name(base.name + "-verify.json")
    poly_out = base.with_name(base.name + "-poly.txt")
    cfg_path.write_text(json.dumps({**_diagonal(3, 2 * n + 1, (n + 1, n, n)), "seed": seed}))
    witness = {}

    def check_cj3(code):
        if code != 0:
            raise Rejected(f"cj3 --n {n} exited {code}")
        doc = json.loads(out.read_text())
        if not (doc["verification"]["aligned"] and doc["verification"]["rank_ok"]):
            raise Rejected(f"cj3 --n {n}: verification {doc['verification']}")
        ref.check_dbar(doc["d_bar"], n)
        matrices = [[_dense(h) for h in row] for row in doc["channels"]]
        ref.check_diagonal_channels(matrices, 2 * n + 1)
        witness["V"] = [_dense(v) for v in doc["solution"]["V"]]
        witness["U"] = [_dense(u) for u in doc["solution"]["U"]]
        ref.check_witness(_diagonals(matrices), witness["V"], witness["U"], n)
        # the files verify and export-poly read
        ch_path.write_text(json.dumps(doc["channels"]))
        sol_path.write_text(json.dumps(doc["solution"]))

    def check_verify(code):
        if code != 0:
            raise Rejected(f"verify exited {code}")
        result = json.loads(verify_out.read_text())["result"]
        if not (result["aligned"] and result["rank_ok"]):
            raise Rejected(f"cj3 -> verify round trip does not align: {result}")

    def check_poly(code):
        if code != 0:
            raise Rejected(f"export-poly exited {code}")
        ref.check_poly(poly_out.read_text(), witness["U"], witness["V"], (n + 1, n, n))

    cj3_argv = ["cj3", "--n", str(n), "--seed", str(seed), "--out", str(out)]
    verify_argv = ["verify", "--config", str(cfg_path), "--channels", str(ch_path),
                   "--solution", str(sol_path), "--out", str(verify_out)]
    poly_argv = ["export-poly", "--config", str(cfg_path), "--channels", str(ch_path),
                 "--out", str(poly_out)]
    return [Job("cli:cj3", lambda: al_cli.main(cj3_argv), check_cj3),
            Job("cli:verify", lambda: al_cli.main(verify_argv), check_verify),
            Job("cli:export-poly", lambda: al_cli.main(poly_argv), check_poly)]


def _diagonal_series(seed: int, workdir: Path) -> list[Job]:
    seeds = _seeds(seed, 3)
    witness = [_witness_job(n, next(seeds)) for n in WITNESS_N
               for _ in range(WITNESS_SEEDS_PER_N)]
    witness += [_witness_job(n, s, known_fault=True) for n, s in KNOWN_FAULTS]
    channels = [_channel_job(n_s, next(seeds)) for n_s, count in CHANNEL_JOBS
                for _ in range(count)]
    expected: dict = {}
    series = [_series_job(K, n_max, expected) for n_max in SERIES_N_MAX for K in SERIES_K]
    # each CLI triple stays in order: verify and export-poly read what cj3 wrote
    triples = [_cli_jobs(n, next(seeds), workdir) for n in CLI_N
               for _ in range(CLI_SEEDS_PER_N)]
    jobs = _interleave([witness, channels, series, triples])
    return [job for item in jobs for job in (item if isinstance(item, list) else [item])]


_BUILDERS = {"solve-grid": _solve_grid, "probe-span": _probe_span,
             "diagonal-series": _diagonal_series}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, workdir: Path) -> list[Job]:
    """Inputs for one workload, generated from ``seed``, with modules warmed up."""
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = _BUILDERS[name](seed, workdir)
    _warm_up(jobs)
    return jobs
