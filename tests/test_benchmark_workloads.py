"""One round of every benchmark workload, each job checked by ``iabench/reference.py``.

A change to a report or a result that the benchmark parses then fails here,
in the test suite, rather than first in a benchmark run. The workloads are
loaded from ``iabench/`` as its own self-test loads them, through
``sys.path``. All three take about 3 s on a 2-core host.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "iabench"))

import workloads                                    # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_job_passes_its_check_but_known_faults(tmp_path, name):
    jobs = workloads.build(name, 1, tmp_path / name)
    assert jobs
    unexpected = []
    for job in jobs:
        try:
            job.check(job.call())
        except Exception as exc:    # as iabench/run.py counts a failed job
            if not job.known_fault:
                unexpected.append(f"{job.kind}: {type(exc).__name__}: {exc}")
    assert unexpected == []
