"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload burgers_ensemble --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Each process it starts has one
numeric thread (BLAS and OpenMP pinned to 1; ensembles run with ``--jobs 1``)
and imports the program from ``src``.  With ``--trace 0`` it starts
``SETUP_PROBES`` set-up probes and then the measured process, and prints the
end-to-end metrics; with ``--trace 1`` it starts one traced process and
prints the per-layer metrics.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("burgers_ensemble", "rsw_control", "scalar_lab")
#: processes that only set up; with the measured process they give the
#: set-up samples whose median is setup_s
SETUP_PROBES = 3
#: limit on any one process, inside the 180 s a run may take
PROCESS_TIMEOUT_S = 150.0
RUN_DIR = Path(".perfbench_run")

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(Path("src").resolve())
    env.pop("STOCHTAME_SEED", None)
    env.pop("STOCHTAME_PURE_PYTHON", None)
    return env


def start_worker(args, role: str, trace: int, index: int) -> dict:
    run_dir = RUN_DIR / args.workload
    run_dir.mkdir(parents=True, exist_ok=True)
    result = run_dir / f"result_{role}_{index}.json"
    result.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--role", role,
        "--run-dir", str(run_dir),
        "--result", str(result),
    ]
    t_spawn = time.time()
    proc = subprocess.run(
        cmd + ["--t-spawn", repr(t_spawn)],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {role} process exited with {proc.returncode}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    if not (Path("src") / "stochtame" / "__init__.py").is_file():
        print("perfbench: run from the root of a stochtame source checkout", file=sys.stderr)
        return 2

    if args.trace:
        main_run = start_worker(args, "main", 1, 0)
        metrics = main_run["per_layer"]
    else:
        setups = [start_worker(args, "setup", 0, i)["setup_s"] for i in range(SETUP_PROBES)]
        main_run = start_worker(args, "main", 0, 0)
        setups.append(main_run["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "paths_per_s": {"value": main_run["paths_per_s"], "unit": "1/s"},
            "steps_per_s": {"value": main_run["steps_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
        }
    print(f"# {main_run['environment']}")
    for message in main_run["messages"]:
        print(f"# check failed: {message}")
    print(f"# rounds={main_run['rounds']} measured_s={main_run['measured_s']:.3f}")
    for i, (paths, steps, interval, traced) in enumerate(main_run["round_log"]):
        print(f"# round {i}: paths={paths} steps={steps} seconds={interval:.4f} traced={traced}")
    print(json.dumps({
        "correct": main_run["failed"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
