"""Steadiness check: two sets of ten runs of the same code, against the bounds.

    python3 perfbench/steady.py

Runs every workload of ``BENCHMARK.json`` with seeds 0-9 (set 0) and 10-19
(set 1) for ``run_seconds`` each.  For each workload and end-to-end metric
it prints the median, the quartiles and the spread (quartile distance over
the median) of each set, and whether the sets agree: every spread within the
metric's bound (``setup_s`` is reported but not gated, as its samples are
whole process starts), the two medians apart by at most the bound in either
direction, and the same share of failed operations.  Raw results go to
``.perfbench_run/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path("BENCHMARK.json")
OUT = Path(".perfbench_run") / "steady.json"
SEEDS_PER_SET = 10
#: the spread of set-up time is shown, not gated
UNGATED_SPREAD = ("setup_s",)


def one_run(bench, workload, seed) -> dict:
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    wall = time.time() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    bench = json.loads(BENCH.read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: [[], []] for w in workloads}
    for k in (0, 1):
        for workload in workloads:
            for seed in range(k * SEEDS_PER_SET, (k + 1) * SEEDS_PER_SET):
                r = one_run(bench, workload, seed)
                runs[workload][k].append(r)
                print(f"set {k} {workload} seed {seed}: wall {r['wall_s']:.1f}s failed "
                      f"{r['failed']}/{r['attempted']} " + " ".join(
                          f"{n}={m['value']:.6g}" for n, m in r["metrics"].items()), flush=True)
                OUT.parent.mkdir(exist_ok=True)
                OUT.write_text(json.dumps(runs, indent=1))

    agree = True
    for workload, sets in runs.items():
        shares = {Fraction(sum(r["failed"] for r in s), sum(r["attempted"] for r in s)) for s in sets}
        print(f"\n{workload}: failed share {', '.join(str(x) for x in shares)}")
        if len(shares) > 1:
            agree = False
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in s]) for s in sets]
            verdict = []
            for k, st in enumerate(stats):
                gated = name not in UNGATED_SPREAD
                print(f"  {workload}/{name} set {k}: median {st['median']:.6g} "
                      f"q1 {st['q1']:.6g} q3 {st['q3']:.6g} spread {st['spread']:.3f} "
                      f"(bound {bound}{'' if gated else ', not gated'})")
                if gated and st["spread"] > bound:
                    verdict.append(f"set {k} spread above bound")
            a, b = stats[0]["median"], stats[1]["median"]
            shift = (b - a) / a
            print(f"  {workload}/{name}: second median {shift:+.3f} of the first")
            if abs(shift) > bound:
                verdict.append("medians differ by more than the bound")
            if verdict:
                agree = False
                print(f"  {workload}/{name}: NOT STEADY ({'; '.join(verdict)})")
    print("\nsets agree within the bounds" if agree else "\nsets do NOT agree within the bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
