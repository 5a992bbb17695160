"""Run one shotsvm CLI command in this process and record what the benchmark needs.

Usage: python3 launch.py RECORD_JSON {plain|trace} CLI_ARG...

The CLI receives exactly CLI_ARG. The record (JSON) holds the CLOCK_MONOTONIC
time at which the subcommand function started, which the parent process turns
into set-up time. In trace mode the record also holds one span per call into
each wrapped layer function made by this process:

    [name, start, end, parent span index or -1, info]

Spans are kept in memory and written when the command returns. Nothing inside
the package is instrumented: each public layer function is wrapped from here at
every module attribute that binds it, because ``from .x import f`` gives the
importing module its own reference. Pool workers forked from this process
inherit the wrappers but record nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

# span name -> (defining module, attribute, info taken from (args, kwargs, result))
LAYER_FUNCTIONS = {
    "solver.train": (
        "shotsvm.solver", "train",
        lambda a, k, r: [r.n_iter, r.kkt_violation]),
    "kernels.simulate_counts": (
        "shotsvm.kernels", "simulate_counts",
        lambda a, k, r: int(np.sum(a[2] if len(a) > 2 else k["counts"]))),
    "kernels.assemble_estimate": ("shotsvm.kernels", "assemble_estimate", None),
    "allocation.multinomial_draw": ("shotsvm.allocation", "multinomial_draw", None),
    "allocation.uniform_allocation": ("shotsvm.allocation", "uniform_allocation", None),
    "sensitivity.allocation_scores": (
        "shotsvm.sensitivity", "allocation_scores", lambda a, k, r: bool(r[1])),
    "sensitivity.decision_variance": ("shotsvm.sensitivity", "decision_variance", None),
    "sensitivity.margin_residuals": ("shotsvm.sensitivity", "margin_residuals", None),
    "sensitivity.sv_transition_prob": ("shotsvm.sensitivity", "sv_transition_prob", None),
    "metrics.compute_bundle": ("shotsvm.metrics", "compute_bundle", None),
    "datasets.make_blobs": ("shotsvm.datasets", "make_blobs", None),
    "datasets.rbf_kernel": ("shotsvm.datasets", "rbf_kernel", None),
    "driver.run_adaptive": (
        "shotsvm.driver", "run_adaptive", lambda a, k, r: len(r.rounds) - 1),
    "driver.run_uniform": ("shotsvm.driver", "run_uniform", None),
    "experiments.stage_rows": ("shotsvm.experiments", "stage_rows", None),
    "experiments.run_stage_trial": ("shotsvm.experiments", "run_stage_trial", None),
    "experiments.run_regime_trial": ("shotsvm.experiments", "run_regime_trial", None),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self.sites: list[str] = []
        self._stack: list[int] = []
        self._active = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self._active = False

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            self.calls[name] = self.calls.get(name, 0) + 1
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result
        return traced

    def wrap_generator(self, name: str, fn):
        """One span per resumption, so a span's self time is the time the
        consumer waited on the generator beyond the traced work it ran."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                yield from fn(*args, **kwargs)
                return
            self.calls[name] = self.calls.get(name, 0) + 1
            inner = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield item
        return traced

    def patch_everywhere(self, original, wrapped) -> None:
        """Replace ``original`` at every shotsvm module attribute bound to it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "shotsvm" and not mod_name.startswith("shotsvm."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self.sites.append(f"{mod_name}.{attr}")

    def install(self) -> None:
        for name, (mod_name, attr, info) in LAYER_FUNCTIONS.items():
            original = getattr(importlib.import_module(mod_name), attr)
            self.patch_everywhere(original, self.wrap(name, original, info))
        experiments = importlib.import_module("shotsvm.experiments")
        original = experiments.map_trials
        self.patch_everywhere(original, self.wrap_generator("experiments.map_trials", original))
        writer = importlib.import_module("shotsvm.cli").ResultWriter
        writer.write_rows = self.wrap(
            "cli.write_rows", writer.write_rows, lambda a, k, r: len(a[1]))
        self.sites.append("shotsvm.cli.ResultWriter.write_rows")

    def dump(self) -> dict:
        return {"spans": self.spans, "calls": self.calls, "sites": self.sites}


def main() -> int:
    record_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from shotsvm import cli

    record: dict = {"cmd_start": None}

    def mark_start(fn):
        @functools.wraps(fn)
        def started(args):
            record["cmd_start"] = time.monotonic()
            return fn(args)
        return started

    # build_parser reads these module globals when main() runs, so the marks apply.
    for name in [n for n in vars(cli) if n.startswith("cmd_")]:
        setattr(cli, name, mark_start(getattr(cli, name)))
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            record.update(tracer.dump())
        with open(record_path, "w") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main())
