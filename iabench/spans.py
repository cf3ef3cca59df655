"""Spans around align_lab's public functions, recorded from outside the package.

``Tracer.install`` replaces every function named in a module's ``__all__``
with a timing wrapper, under every name in the package that binds it: the
modules import one another's functions by name, so ``align_lab.solve.check``
is rebound as well as ``align_lab.verify.check``. ``uninstall`` restores the
originals. Spans stay in memory until ``write`` is called.

A span's self time is its duration minus the durations of the spans it
caused; its total time includes them. Hooks keyed by span name turn arguments and results into work
counters (sweeps, matrix entries, bytes written).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("model", "verify", "solve", "probe", "subspaces", "cj3", "counting", "cli")
_SVD_FUNCTIONS = ("numerical_rank", "orthonormal_columns", "nullspace_basis",
                  "orthogonal_complement")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []          # [span id, name, child seconds]
        self._next_id = 0
        self._bindings: list[tuple[object, str, object, object]] = []
        self._hooks = {
            "model.sample_channels": self._on_sample_channels,
            "solve.minimize_leakage": self._on_minimize_leakage,
            "solve.classify": self._on_classify,
            "probe.run_probe": self._on_run_probe,
            "probe.build_p_matrix": self._on_build_p_matrix,
            "counting.min_improper_n": self._on_min_improper_n,
            "cli.main": self._on_cli_main,
        }
        for fn in _SVD_FUNCTIONS:
            self._hooks[f"subspaces.{fn}"] = self._on_svd

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "align_lab" or name.startswith("align_lab.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"align_lab.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if callable(fn) and getattr(fn, "__module__", None) == mod.__name__ \
                        and not isinstance(fn, type):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bindings.append((mod, attr, value, wrapper))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)
        self._bindings.clear()

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, name, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += end - start
                self.self_s[name] += end - start - frame[2]
                self.spans.append((frame[0], parent[0] if parent else -1, name, start, end))
            if hook is not None:
                hook(args, kwargs, result, end - start, parent[1] if parent else None)
            if parent is not None:
                # hook time is the tracer's, not the caller's
                parent[2] += time.perf_counter() - start
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    def _on_sample_channels(self, args, kwargs, ch, dur, parent):
        self.counters["channel_bytes"] += sum(h.nbytes for row in ch.matrices for h in row)

    def _on_minimize_leakage(self, args, kwargs, result, dur, parent):
        opts = args[2] if len(args) > 2 else kwargs["opts"]
        sweeps = len(result[1]) - 1
        self.counters["sweeps"] += sweeps
        self.counters["runs_at_cap"] += sweeps >= opts.max_iters
        self.counters["run_sweeps_max"] = max(self.counters["run_sweeps_max"], sweeps)

    def _on_classify(self, args, kwargs, verdict, dur, parent):
        self.counters["runs"] += len(verdict.records)
        self.counters["runs_ok"] += sum(1 for r in verdict.records if r.success)

    def _on_run_probe(self, args, kwargs, report, dur, parent):
        self.counters["draws"] += report.draws

    def _on_build_p_matrix(self, args, kwargs, p, dur, parent):
        self.counters["p_entries"] += p.size

    def _on_min_improper_n(self, args, kwargs, result, dur, parent):
        n_max = args[1] if len(args) > 1 else kwargs["n_max"]
        self.counters["series_indices"] += n_max if result is None else result

    def _on_cli_main(self, args, kwargs, code, dur, parent):
        argv = list(args[0] if args else kwargs["argv"])
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                self.counters["cli_out_bytes"] += os.path.getsize(path)

    def _on_svd(self, args, kwargs, result, dur, parent):
        shape = getattr(args[0], "shape", (0, 0))
        if shape[0] * shape[1] > 0:
            self.counters["svd_calls"] += 1
            self.counters["svd_entries"] += shape[0] * shape[1]
        if parent == "probe.run_probe":
            # the span accumulator's SVDs run directly under run_probe
            self.counters["span_svd_s"] += dur

    # -- output ------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures for one round of the job list (sums over ``rounds``)."""
        s, c, k = self.self_s, self.calls, self.counters
        subspaces_s = sum(v for name, v in s.items() if name.startswith("subspaces."))
        sweeps = k["sweeps"]
        per_round = {
            "model.sample_channels.calls": c["model.sample_channels"],
            "model.sample_channels.s": s["model.sample_channels"],
            "model.channel_mib": k["channel_bytes"] / 2**20,
            "model.channels_json.s": s["model.channels_to_json"] + s["model.channels_from_json"],
            "solve.minimize_leakage.calls": c["solve.minimize_leakage"],
            "solve.minimize_leakage.s": s["solve.minimize_leakage"],
            "solve.sweeps": sweeps,
            "solve.runs_at_cap": k["runs_at_cap"],
            "verify.check.calls": c["verify.check"],
            "verify.check.s": s["verify.check"],
            "probe.run_probe.calls": c["probe.run_probe"],
            "probe.draws": k["draws"],
            "probe.build_p_matrix.s": s["probe.build_p_matrix"],
            "probe.p_entries": k["p_entries"],
            "probe.nullspace.s": self.total_s["probe.nullspace"],
            "probe.span.s": s["probe.run_probe"] + k["span_svd_s"],
            "subspaces.svd_calls": k["svd_calls"],
            "subspaces.svd_entries": k["svd_entries"],
            "subspaces.s": subspaces_s,
            "cj3.construct.calls": c["cj3.construct"],
            "cj3.construct.s": s["cj3.construct"],
            "counting.min_improper_n.s": s["counting.min_improper_n"],
            "counting.series_indices": k["series_indices"],
            "cli.main.calls": c["cli.main"],
            "cli.main.s": s["cli.main"],
            "cli.out_mib": k["cli_out_bytes"] / 2**20,
            "cli.polynomial_system_text.s": s["cli.polynomial_system_text"],
        }
        out = {name: value / rounds for name, value in per_round.items()}
        out["solve.sweep_us"] = 1e6 * s["solve.minimize_leakage"] / sweeps if sweeps else 0.0
        out["solve.run_sweeps_max"] = k["run_sweeps_max"]
        out["solve.run_success_ratio"] = k["runs_ok"] / k["runs"] if k["runs"] else 0.0
        return out

    def write(self, path) -> None:
        """One JSON line per span: id, parent id (-1 at the top), name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
