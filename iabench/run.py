"""align-lab benchmark: one workload, one process, a closed loop of jobs.

    python3 iabench/run.py --workload solve-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; align_lab is imported from ``src/``. One
caller runs the workload's fixed job list in rounds, each job started when
the previous one returned, until ``--seconds`` have passed (whole rounds
only). Every job's output is checked against ``reference``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of ``spans.Tracer``,
from rounds that alternate untraced and traced. BLAS and OpenMP run one
thread: on a 2-core host the second thread adds import time and run-to-run
spread to calls on matrices this small.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy is imported

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".iabench_out"
SETUP_SAMPLES = 3    # fresh processes timed for setup_s


class Tally:
    """Jobs attempted and failed, per kind; failures outside known faults."""

    def __init__(self) -> None:
        self.attempted: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.unexpected: list[str] = []

    def add(self, job, error) -> None:
        self.attempted[job.kind] += 1
        if error is not None:
            self.failed[job.kind] += 1
            if not job.known_fault:
                self.unexpected.append(f"{job.kind}: {type(error).__name__}: {error}")


def run_round(jobs, tally: Tally) -> list[float]:
    """Each job once, in order; returns the job times in seconds."""
    times = []
    for job in jobs:
        error = None
        start = time.perf_counter()
        try:
            out = job.call()
        except Exception as exc:      # a raising job is a failed job; keep going
            out, error = None, exc
        times.append(time.perf_counter() - start)
        if error is None:
            try:
                job.check(out)
            except Exception as exc:  # includes outputs too malformed to check
                error = exc
        del out
        tally.add(job, error)
    return times


def measure_setup(args) -> float:
    """Median time from process start to the first timed job, over fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", repr(started)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup process failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=float, default=None, metavar="EPOCH",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "align_lab" / "__init__.py").is_file():
        print(f"error: no align_lab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        if args.setup_only is not None:
            print(json.dumps({"setup_s": time.time() - args.setup_only}))
            return 0

        tally = Tally()
        walls, job_times, traced_walls = [], [], []
        tracer = Tracer()
        start = time.perf_counter()
        while True:
            times = run_round(jobs, tally)
            walls.append(sum(times))
            job_times.extend(times)
            if args.trace:
                tracer.install()
                try:
                    traced_walls.append(sum(run_round(jobs, tally)))
                finally:
                    tracer.uninstall()
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kinds = {k: {"attempted": tally.attempted[k], "failed": tally.failed[k]}
             for k in sorted(tally.attempted)}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": len(walls),
                      "jobs_per_round": len(jobs), "jobs_by_kind": kinds}))
    for line in tally.unexpected[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)

    if args.trace:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        values = tracer.layer_metrics(len(traced_walls))
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "job_p50_s": statistics.median(job_times),
            "job_p90_s": statistics.quantiles(job_times, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": measure_setup(args),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if sorted(values) != sorted(m["name"] for m in spec):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    result = {
        "correct": not tally.unexpected,
        "attempted": sum(tally.attempted.values()),
        "failed": sum(tally.failed.values()),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
