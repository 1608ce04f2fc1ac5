"""Benchmark of binomcap: one workload per process, closed loop, one caller.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The run measures set-up (median of
separate set-up processes), then makes the number of passes over the
workload's fixed operation list that --seconds fixes (workloads.passes),
checks every output after each pass, and prints one JSON object as the last
line of stdout.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it runs one untraced and one traced pass and reports the per-layer
metrics and the tracing overhead.  The line before it carries the run
environment and the per-operation details.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
SCRATCH = ".bench_tmp"
SPAN_DIR = ".bench_spans"


def _blas_threads() -> int:
    """Pin BLAS to at most nproc threads; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            threads = min(threads, int(os.environ[var]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep", "hard-n", "verify", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every workload to a few quick operations (self-test)")
    p.add_argument("--corrupt", action="store_true",
                   help="damage the first output before checking it (self-test)")
    p.add_argument("--out", help="also write the full result record to this JSON file")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(args, workdir):
    """Everything before the first timed op: imports and input generation."""
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import workloads
    plan = workloads.make_plan(args.workload, args.seed, args.tiny)
    workloads.write_inputs(plan, workdir)
    return plan


def _measure_setup(argv) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *argv,
                        "--setup-probe"], check=True)
        times.append(time.perf_counter() - t0)
    return times


def _run_pass(plan, tracer=None):
    """Run every op once; return (wall, [(seconds, raw output, error)])."""
    import workloads
    results = []
    t_pass = time.perf_counter()
    for i, op in enumerate(plan):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            raw, err = workloads.run_op(op), None
        except Exception as exc:  # an op that raises is a counted failure
            raw, err = None, f"{type(exc).__name__}: {exc}"
        results.append((time.perf_counter() - t0, raw, err))
    return time.perf_counter() - t_pass, results


def _check_pass(plan, results, corrupt):
    """Verdicts ('ok' | 'fail' | 'wrong', reason) per op, outside the timing."""
    import workloads
    verdicts = []
    for i, (op, (_, raw, err)) in enumerate(zip(plan, results)):
        if err is not None:
            verdicts.append(("fail", err))
            continue
        out = workloads.read_output(op, raw)
        if corrupt and i == 0:
            out = workloads.corrupt(op, out)
        verdicts.append(workloads.check(op, out))
    return verdicts


def _environment(threads):
    import numpy
    import scipy
    digest = hashlib.sha256()
    src = os.path.join("src", "binomcap")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(".git"):  # never let git search above the checkout
        try:
            git = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if not os.path.isfile(os.path.join("src", "binomcap", "__init__.py")):
        print("error: run from the repository root (src/binomcap not found)", file=sys.stderr)
        return 2
    threads = _blas_threads()
    sys.path[:0] = [os.path.abspath("src"), HERE]
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        if args.setup_probe:
            _setup(args, workdir)
            return 0
        return _benchmark(args, argv, workdir, threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _benchmark(args, argv, workdir, threads) -> int:
    import workloads
    setup_times = _measure_setup(argv)
    plan = _setup(args, workdir)

    passes, untraced_wall = [], None
    n_passes = 1 if args.trace else workloads.passes(args.workload, args.seconds)
    for _ in range(n_passes):
        wall, results = _run_pass(plan)
        passes.append((wall, results, _check_pass(plan, results, args.corrupt)))
    if args.trace:
        import spans
        untraced_wall = passes[0][0]
        tracer = spans.Tracer()
        tracer.install()
        try:
            wall, results = _run_pass(plan, tracer)
            tracer.op = spans.PROBE
            _probe(tracer.reports)
        finally:
            tracer.uninstall()
        passes.append((wall, results, _check_pass(plan, results, args.corrupt)))
        os.makedirs(SPAN_DIR, exist_ok=True)
        span_file = os.path.join(SPAN_DIR, f"{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(span_file)

    op_times = [t for _, results, _ in passes for t, _, _ in results]
    verdicts = [v for _, _, vs in passes for v in vs]
    attempted = len(verdicts)
    failed = sum(v != "ok" for v, _ in verdicts)
    tail_s, tail_pct = _tail(op_times)
    if args.trace:
        metrics = tracer.layer_metrics()
        metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": wall - untraced_wall, "unit": "s"}
        metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(w for w, _, _ in passes), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "fraction"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": _environment(threads),
        "plan": [op["n"] for op in plan], "passes": len(passes), "ops": attempted,
        "op_tail_pct": tail_pct, "fail_frac": failed / attempted,
        "op_median_s": [statistics.median(results[i][0] for _, results, _ in passes)
                        for i in range(len(plan))],
        "setup_samples_s": setup_times, "pass_walls_s": [w for w, _, _ in passes],
        "untraced_wall_s": untraced_wall,
        "not_ok": [{"pass": p, "op": i, "n": plan[i]["n"], "verdict": v, "reason": r}
                   for p, (_, _, vs) in enumerate(passes)
                   for i, (v, r) in enumerate(vs) if v != "ok"],
    }
    result = {"correct": not any(v == "wrong" for v, _ in verdicts),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def _tail(times):
    """(time, percentile) at the highest percentile that still has at least
    10 ops beyond it; with fewer than 11 ops, the slowest op (100th)."""
    ranked = sorted(times)
    k = len(ranked) - 11 if len(ranked) >= 11 else len(ranked) - 1
    return ranked[k], 100.0 * (k + 1) / len(ranked)


def _probe(reports):
    """Probe calls on each distinct solved n, for the per-layer metrics."""
    import numpy as np
    import binomcap
    grid = np.linspace(0.0, 1.0, 2049)
    for report in {r.n: r for r in reports}.values():
        spec = binomcap.ChannelSpec(report.n)
        binomcap.blahut_arimoto(spec, grid, 1e-6, 2000)
        binomcap.kkt_verify(report, spec)
        binomcap.report_for_distribution(report.input, spec)


if __name__ == "__main__":
    sys.exit(main())
