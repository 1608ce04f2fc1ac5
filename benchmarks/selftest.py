"""Harness self-test.  Run from the repository root:

    python3 benchmarks/selftest.py

Runs every workload at a tiny size and checks that (1) every metric named in
BENCHMARK.json is emitted with its unit, traced and untraced; (2) a
deliberately corrupted output is counted as failed and marks the run
incorrect; (3) the seed changes the drawn inputs.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    problems = []
    for w in (wl["name"] for wl in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = _run(w, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != want:
                problems.append(f"{w} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"or their units differ from BENCHMARK.json")
            if not res["correct"]:
                problems.append(f"{w} trace={trace}: an unmodified output was judged wrong")
        res = _run(w, 0, "--corrupt")
        if res["correct"] or res["failed"] < 1:
            problems.append(f"{w}: a corrupted output was not counted as failed")

    sys.path[:0] = [os.path.abspath("src"), HERE]
    import workloads
    for w in ("verify", "oracle"):
        plans = {json.dumps(workloads.make_plan(w, seed, tiny=True)) for seed in range(8)}
        if len(plans) < 2:
            problems.append(f"{w}: eight seeds all drew the same inputs")
    drawn = {tuple(op["n"] for op in workloads.make_plan("oracle", s)) for s in range(8)}
    if len(drawn) < 2:
        problems.append("oracle: the seed does not change the drawn n")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
