"""Summarise result files written by `run.py --out FILE`.

    python3 benchmarks/summarize.py A1.json A2.json ... [--against B1.json ...] [--json]

Groups the results by workload and trace mode and prints, per metric, the
median, the quartiles and the spread (interquartile range over median, the
quartiles as Python's statistics.quantiles(values, n=4) gives them).  Result
files are only compared when their run environments match (nproc, BLAS
threads, Python, numpy, scipy); within one set the source digest must match
too.  With --against, each median of the first set is also given relative to
the second set's median, and an end-to-end metric that is worse by more than
its bound in BENCHMARK.json is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

ENV_KEYS = ("nproc", "blas_threads", "python", "numpy", "scipy")


def load_set(paths):
    records = [json.load(open(p)) for p in paths]
    envs = {tuple(r["detail"]["env"][k] for k in ENV_KEYS) for r in records}
    sources = {r["detail"]["env"]["src_sha256"] for r in records}
    if len(envs) > 1 or len(sources) > 1:
        sys.exit("error: the result files come from different environments or sources")
    groups = defaultdict(lambda: defaultdict(list))
    for r in records:
        d = r["detail"]
        for name, m in r["result"]["metrics"].items():
            groups[d["workload"], d["trace"]][name].append(m["value"])
        groups[d["workload"], d["trace"]]["failed/attempted"].append(
            r["result"]["failed"] / r["result"]["attempted"])
    return envs.pop(), records[0]["detail"]["env"], groups


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("results", nargs="+")
    p.add_argument("--against", nargs="+", default=[])
    p.add_argument("--json", action="store_true", help="print one JSON summary instead")
    args = p.parse_args(argv)
    env_key, env, groups = load_set(args.results)
    other = None
    if args.against:
        other_key, _, other = load_set(args.against)
        if other_key != env_key:
            sys.exit("error: the two sets were measured in different environments")
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    metric_spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    summary = {"env": env, "workloads": {}}
    worse = 0
    for (workload, trace), metrics in sorted(groups.items()):
        rows = {}
        for name, values in metrics.items():
            row = stats(values)
            spec = metric_spec.get(name)
            if other is not None and other[workload, trace].get(name):
                base = statistics.median(other[workload, trace][name])
                row["vs_other"] = row["median"] / base if base else None
                if spec and "bound" in spec and base:
                    change = (row["median"] - base) / base
                    row["worse_than_bound"] = (change if spec["better"] == "lower"
                                               else -change) > spec["bound"]
                    worse += row["worse_than_bound"]
            rows[name] = row
        summary["workloads"][f"{workload} trace={trace}"] = rows
    if args.json:
        print(json.dumps(summary, indent=1))
        return 0
    print("env:", json.dumps(env))
    for key, rows in summary["workloads"].items():
        print(f"\n{key}")
        for name, r in rows.items():
            line = (f"  {name:40s} median {r['median']:<12.6g} q1 {r['q1']:<12.6g} "
                    f"q3 {r['q3']:<12.6g} spread {r['spread'] if r['spread'] is None else round(r['spread'], 4)}")
            if "vs_other" in r:
                line += f"  x{r['vs_other']:.4f}" if r["vs_other"] else "  x-"
                if r.get("worse_than_bound"):
                    line += "  WORSE THAN BOUND"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
