"""One benchmark process: set up, run whole rounds, check, write a result.

``run.py`` starts this file in a fresh interpreter.  With ``--role setup`` the
process stops at the start of its first path (or kernel call) and reports
only its set-up time; with ``--role main`` it runs rounds until their
measured time reaches ``--seconds``, checks every round after its timed
interval, and writes the metrics to ``--result`` as JSON.

With ``--trace 1`` the even rounds run under the tracer and each odd round
repeats the inputs of the round before it without the tracer, so one process
gives both the per-layer numbers and the tracing overhead of identical work.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

#: stop starting rounds once this much wall time has passed, whatever the
#: measured time, so that a run always ends well inside its time limit
WALL_CAP_S = 120.0


class SetupDone(Exception):
    """Raised at the first path of a set-up probe."""


class Capture:
    """Wraps the experiments binding every path goes through.

    Keeps the returned trajectory records (with their cutoff) and the wall
    time of the first call: the end of set-up and the start of a round's
    timed interval.
    """

    def __init__(self, module, attr, stop_at_first=False):
        self.module = module
        self.attr = attr
        self.stop_at_first = stop_at_first
        self.records = []
        self.first_wall = None
        self.first_perf = None

    def install(self):
        self.inner = getattr(self.module, self.attr)

        def hook(*args, **kwargs):
            if self.first_perf is None:
                self.first_wall = time.time()
                self.first_perf = time.perf_counter()
                if self.stop_at_first:
                    raise SetupDone
            rec = self.inner(*args, **kwargs)
            self.records.append((kwargs.get("cutoff"), rec))
            return rec

        setattr(self.module, self.attr, hook)

    def uninstall(self):
        setattr(self.module, self.attr, self.inner)

    def reset(self):
        self.records = []
        self.first_perf = None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--role", choices=("main", "setup"), default="main")
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    t_import = time.perf_counter()
    import stochtame
    import stochtame._backend
    import stochtame.cli
    import stochtame.config
    import stochtame.experiments
    import stochtame.trajio

    import_s = time.perf_counter() - t_import

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    out_dir = run_dir / "out"
    experiments = stochtame.experiments

    tracer = None
    if args.trace and args.role == "main":
        from tracing import Tracer

        tracer = Tracer()

    if isinstance(wl, workloads.FieldWorkload):
        # the noise advisor's audit runs once, as set-up; every round then
        # invokes the CLI with the advised (theta, alpha) written out
        advisor_path = wl.write_config(run_dir, wl.config, "_advisor")
        if tracer is not None:
            tracer.install()
        try:
            noise = stochtame.config.build_noise(
                stochtame.config.parse_config(advisor_path.read_text())
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        config_path = wl.write_config(run_dir, wl.round_config(noise))
        capture = Capture(experiments, wl.capture, stop_at_first=args.role == "setup")

        def one_round(index):
            return timed(lambda: stochtame.cli.main(wl.argv(config_path, args.seed, index, out_dir)))

        def check(output):
            cfg = stochtame.config.parse_config(config_path.read_text())
            return wl.check_round(capture.records, out_dir, stochtame.config.build_drift(cfg))
    else:
        capture = Capture(experiments, "envelope_chunk", stop_at_first=args.role == "setup")

        def one_round(index):
            # the studies draw their paths from the call on: time from there
            return timed(lambda: wl.run_round(args.seed, index), from_call=True)

        def check(output):
            return wl.check_round(output)

    def timed(call, from_call=False):
        """(interval, output, error) of one round; a raised error fails it."""
        capture.reset()
        capture.install()
        output = error = None
        t_call = time.perf_counter()
        try:
            output = call()
        except SetupDone:
            raise
        except Exception as exc:  # the round's operations count as failed
            error = f"{type(exc).__name__}: {exc}"
        finally:
            end = time.perf_counter()
            capture.uninstall()
        start = t_call if from_call or capture.first_perf is None else capture.first_perf
        return end - start, output, error

    if args.role == "setup":
        try:
            one_round(0)
        except SetupDone:
            pass
        _write(args.result, {"setup_s": capture.first_wall - args.t_spawn})
        return 0

    rounds = []
    traced = []
    measured = 0.0
    wall0 = time.perf_counter()
    index = 0
    setup_s = None
    while True:
        tracing_now = tracer is not None and index % 2 == 0
        if tracing_now:
            tracer.install()
        try:
            # a traced run gives rounds 2i and 2i + 1 the same inputs
            interval, output, error = one_round(index if tracer is None else index // 2)
        finally:
            if tracing_now:
                tracer.uninstall()
        if setup_s is None:
            setup_s = capture.first_wall - args.t_spawn
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if error is None:
            result = check(output)
        else:
            result = wl.failed_round(error)
        result.interval = interval
        if tracing_now and isinstance(wl, workloads.FieldWorkload):
            result.written = sum(f.stat().st_size for f in out_dir.iterdir())
        del output
        rounds.append(result)
        traced.append(tracing_now)
        measured += interval
        index += 1
        done = measured >= args.seconds and (tracer is None or index % 2 == 0)
        if done or time.perf_counter() - wall0 > WALL_CAP_S:
            break

    untraced = [r for r, t in zip(rounds, traced) if not t]
    payload = {
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "messages": [m for r in rounds for m in r.messages][:20],
        "rounds": len(rounds),
        "import_s": import_s,
        "setup_s": setup_s,
        "paths_per_s": lower_quartile([r.paths / r.interval for r in untraced]),
        "steps_per_s": lower_quartile([r.steps / r.interval for r in untraced]),
        "peak_rss_mb": peak_rss_mb,
        "measured_s": measured,
        "round_log": [[r.paths, r.steps, r.interval, t] for r, t in zip(rounds, traced)],
        "environment": environment(),
    }
    if tracer is not None:
        from layers import per_layer_metrics

        tracer.save(run_dir / "trace.npz")
        payload["per_layer"] = per_layer_metrics(
            tracer, [r for r, t in zip(rounds, traced) if t], untraced, import_s
        )  # traced round i and untraced round i ran the same inputs
    _write(args.result, payload)
    return 0


def lower_quartile(values):
    """The rate of the slower rounds.

    The machine alternates between a slow and a fast state about 1.5x
    apart; the slow state is present in nearly every run, so the lower
    quartile of the round rates repeats from run to run where the median
    follows whichever state held the run's majority.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def environment() -> str:
    import os
    import platform

    import numpy
    import scipy
    import stochtame

    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} stochtame={stochtame.__version__} "
        f"kernel_backend={stochtame.KERNEL_BACKEND}"
    )


def _write(path, payload):
    Path(path).write_text(json.dumps(payload))


if __name__ == "__main__":
    sys.exit(main())
