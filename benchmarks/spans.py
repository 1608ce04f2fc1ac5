"""Per-layer tracing from outside the program.

A traced run replaces each module binding a caller uses with a timing
wrapper.  Every call records a span (name, binding, start, end, parent span,
op id, work) in memory; the spans are written out when the run ends and
folded into the per-layer metrics listed in BENCHMARK.json.  Nothing in the
program changes: the wrappers sit on the names, and `uninstall` puts the
originals back.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from time import perf_counter

import numpy as np
import numpy.linalg

import binomcap
import binomcap.cli
import binomcap.density
import binomcap.distributions
import binomcap.kernel
import binomcap.oracles
import binomcap.solver

PROBE = "probe"


def _cells(result):
    return int(result.shape[0]) * int(result.shape[1])


def _nfev(result):
    return int(result.nfev)


def _iters(result):
    return int(result.iterations)


# (module, attribute, span name, work counter).  One line per binding: a
# function imported into several modules is wrapped at each of them, and the
# binding ("via") says which layer asked for the work.  The private solver
# functions split a solve into its phases: seeding, Blahut-Arimoto, Newton
# (_kkt_system), L-BFGS (scipy.minimize) and certification.  A binding the
# program no longer has is skipped and its metrics read 0.
BINDINGS = [
    (binomcap.kernel, "log_pmf_matrix", "kernel.log_pmf_matrix", _cells),
    (binomcap.solver, "log_pmf_matrix", "kernel.log_pmf_matrix", _cells),
    (binomcap.distributions, "log_pmf_matrix", "kernel.log_pmf_matrix", _cells),
    (binomcap.oracles, "log_pmf_matrix", "kernel.log_pmf_matrix", _cells),
    (binomcap.density, "log_pmf_matrix", "kernel.log_pmf_matrix", _cells),
    (binomcap.kernel, "log_binom_coeffs", "kernel.log_binom_coeffs", None),
    (binomcap.distributions, "log_binom_coeffs", "kernel.log_binom_coeffs", None),
    (numpy.linalg, "solve", "numpy.linalg.solve", None),
    (binomcap.solver, "minimize", "scipy.minimize", _nfev),
    (binomcap.solver, "_seed_support", "solver._seed_support", None),
    (binomcap.solver, "_ba_core", "solver._ba_core", None),
    (binomcap.solver, "_kkt_system", "solver._kkt_system", None),
    (binomcap.solver, "_certify", "solver._certify", None),
    (binomcap.solver, "log_output_pmf", "distributions.log_output_pmf", None),
    (binomcap.distributions, "log_output_pmf", "distributions.log_output_pmf", None),
    (binomcap.solver, "induce_output", "distributions.induce_output", None),
    (binomcap.distributions, "induce_output", "distributions.induce_output", None),
    (binomcap, "solve_capacity", "solver.solve_capacity", _iters),
    (binomcap.cli, "solve_capacity", "solver.solve_capacity", _iters),
    (binomcap, "blahut_arimoto", "solver.blahut_arimoto", _iters),
    (binomcap, "kkt_verify", "solver.kkt_verify", None),
    (binomcap.cli, "kkt_verify", "solver.kkt_verify", None),
    (binomcap, "report_for_distribution", "solver.report_for_distribution", None),
    (binomcap.cli, "report_for_distribution", "solver.report_for_distribution", None),
    (binomcap.solver, "report_for_distribution", "solver.report_for_distribution", None),
    (binomcap, "brute_force_grid_capacity", "oracles.brute_force_grid_capacity", None),
    (binomcap.cli, "main", "cli.main", None),
    (binomcap.cli, "dumps", "serialize.dumps", None),
    (binomcap.cli, "atomic_write", "serialize.atomic_write", None),
]

# Per-layer metrics: name -> (unit, span name, statistic, binding filter).
# Statistics: calls, s (inclusive time), self_s (time not covered by child
# spans) and work (the binding's work counter).  Probe spans only count
# towards the metrics of the probed functions.
LAYER_METRICS = {
    "kernel.log_pmf_matrix.calls": ("count", "kernel.log_pmf_matrix", "calls", None),
    "kernel.log_pmf_matrix.s": ("s", "kernel.log_pmf_matrix", "s", None),
    "kernel.log_pmf_matrix.cells": ("count", "kernel.log_pmf_matrix", "work", None),
    "kernel.log_binom_coeffs.calls": ("count", "kernel.log_binom_coeffs", "calls", None),
    "kernel.log_binom_coeffs.s": ("s", "kernel.log_binom_coeffs", "s", None),
    "solver.kernel_calls": ("count", "kernel.log_pmf_matrix", "calls", "binomcap.solver"),
    "solver.kernel_cells": ("count", "kernel.log_pmf_matrix", "work", "binomcap.solver"),
    "numpy.linalg.solve.calls": ("count", "numpy.linalg.solve", "calls", None),
    "numpy.linalg.solve.s": ("s", "numpy.linalg.solve", "s", None),
    "scipy.minimize.calls": ("count", "scipy.minimize", "calls", None),
    "scipy.minimize.s": ("s", "scipy.minimize", "s", None),
    "scipy.minimize.nfev": ("count", "scipy.minimize", "work", None),
    "solver.solve_capacity.calls": ("count", "solver.solve_capacity", "calls", None),
    "solver.solve_capacity.s": ("s", "solver.solve_capacity", "s", None),
    "solver.solve_capacity.self_s": ("s", "solver.solve_capacity", "self_s", None),
    "solver.solve_capacity.outer_iters": ("count", "solver.solve_capacity", "work", None),
    "solver._seed_support.s": ("s", "solver._seed_support", "s", None),
    "solver._ba_core.calls": ("count", "solver._ba_core", "calls", None),
    "solver._ba_core.s": ("s", "solver._ba_core", "s", None),
    "solver._kkt_system.calls": ("count", "solver._kkt_system", "calls", None),
    "solver._kkt_system.s": ("s", "solver._kkt_system", "s", None),
    "solver._certify.calls": ("count", "solver._certify", "calls", None),
    "solver._certify.s": ("s", "solver._certify", "s", None),
    "solver.blahut_arimoto.s": ("s", "solver.blahut_arimoto", "s", None),
    "solver.blahut_arimoto.iters": ("count", "solver.blahut_arimoto", "work", None),
    "solver.kkt_verify.calls": ("count", "solver.kkt_verify", "calls", None),
    "solver.kkt_verify.s": ("s", "solver.kkt_verify", "s", None),
    "solver.report_for_distribution.calls":
        ("count", "solver.report_for_distribution", "calls", None),
    "solver.report_for_distribution.s": ("s", "solver.report_for_distribution", "s", None),
    "distributions.kernel_calls":
        ("count", "kernel.log_pmf_matrix", "calls", "binomcap.distributions"),
    "distributions.kernel_cells":
        ("count", "kernel.log_pmf_matrix", "work", "binomcap.distributions"),
    "distributions.log_output_pmf.calls":
        ("count", "distributions.log_output_pmf", "calls", None),
    "distributions.log_output_pmf.s": ("s", "distributions.log_output_pmf", "s", None),
    "distributions.induce_output.calls":
        ("count", "distributions.induce_output", "calls", None),
    "distributions.induce_output.s": ("s", "distributions.induce_output", "s", None),
    "oracles.brute_force_grid_capacity.calls":
        ("count", "oracles.brute_force_grid_capacity", "calls", None),
    "oracles.brute_force_grid_capacity.s":
        ("s", "oracles.brute_force_grid_capacity", "s", None),
    "oracles.kernel_cells": ("count", "kernel.log_pmf_matrix", "work", "binomcap.oracles"),
    "cli.main.calls": ("count", "cli.main", "calls", None),
    "cli.main.s": ("s", "cli.main", "s", None),
    "cli.main.self_s": ("s", "cli.main", "self_s", None),
    "serialize.dumps.s": ("s", "serialize.dumps", "s", None),
    "serialize.atomic_write.s": ("s", "serialize.atomic_write", "s", None),
}
PROBED = {"solver.blahut_arimoto", "solver.kkt_verify", "solver.report_for_distribution"}


class Tracer:
    """Span recorder; `op` is set by the caller before each operation."""

    def __init__(self):
        self.spans = []     # [name, via, start, end, parent, op, work]
        self.stack = []
        self.op = None
        self.reports = []   # solve_capacity results of the operations, for probes
        self._saved = []

    def _wrap(self, module, attr, name, work):
        orig = getattr(module, attr)
        via = module.__name__

        def traced(*args, **kwargs):
            span = [name, via, perf_counter(), None, self.stack[-1] if self.stack else -1,
                    self.op, 0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self.stack.pop()
            if work is not None:
                span[6] = work(result)
            if name == "solver.solve_capacity" and self.op != PROBE:
                self.reports.append(result)
            return result

        self._saved.append((module, attr, orig))
        setattr(module, attr, traced)

    def install(self):
        for module, attr, name, work in BINDINGS:
            if hasattr(module, attr):
                self._wrap(module, attr, name, work)

    def uninstall(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def write(self, path: str) -> None:
        keys = ("name", "via", "start", "end", "parent", "op", "work")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self) -> dict:
        """Fold the spans into the per-layer metrics."""
        child_s = np.zeros(len(self.spans))
        for s in self.spans:
            if s[4] >= 0:
                child_s[s[4]] += s[3] - s[2]
        stats = defaultdict(float)
        for i, (name, via, t0, t1, _, op, work) in enumerate(self.spans):
            if op == PROBE and name not in PROBED:
                continue
            for key in (None, via):
                stats[name, key, "calls"] += 1
                stats[name, key, "s"] += t1 - t0
                stats[name, key, "self_s"] += t1 - t0 - child_s[i]
                stats[name, key, "work"] += work
        return {metric: {"value": stats[name, via, stat], "unit": unit}
                for metric, (unit, name, stat, via) in LAYER_METRICS.items()}
