"""Command line front end.

Subcommands: ``simulate`` (one path), ``ensemble`` (Monte Carlo study with
CSV tables), ``audit`` (drift growth constants), ``gbm`` and ``scalefn`` (the
1D laboratory) and ``verify`` (structural/acceptance suites; nonzero exit on
failure).

``simulate`` and ``ensemble`` build each path one way
(:func:`~stochtame.experiments.run_path`), so both follow the config's
``control.enabled``.  Each builds the config's noise once
(:func:`~stochtame.config.build_noise`), so the advisor's audit runs at the
config's own ``ensemble.base_seed`` whatever ``--seed`` says.  On a switching
config ``simulate`` also writes ``events.csv`` and, when the schedule fails
validation, prints each failure to stderr and exits 1.

Every subcommand that takes a seed resolves it one way: the ``--seed`` flag,
else the subcommand's default: the config's ``ensemble.base_seed``, 0 for
``gbm`` and the suite seed for ``verify``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import KERNEL_BACKEND, __version__


def _load_config(path: str):
    from .config import ConfigError, parse_config

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SystemExit(f"cannot read config {path}: {exc}")
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise SystemExit(f"invalid config {path}: {exc}")


def _resolve_seed(args, default: int) -> int:
    return default if args.seed is None else args.seed


def _out_dir(args, cfg) -> Path:
    from .trajio import ensure_dir

    directory = args.out or (cfg.output.directory if cfg else "out")
    return Path(ensure_dir(directory))


def _step_accounting(record) -> str:
    """A path's trials, rejections by cause, finest level, drift evaluations,
    Wiener draws by level and wall time."""
    rejections = ",".join(f"{cause}:{n}" for cause, n in record.rejections.items())
    draws = ",".join(f"{level}:{n}" for level, n in enumerate(record.wiener_draws))
    return (
        f"trials={record.trials} rejections={rejections} "
        f"finest_level={record.finest_level} drift_evals={record.drift_evals} "
        f"wiener_draws={draws} wall_s={record.wall_s:.4g}"
    )


def cmd_simulate(args) -> int:
    from .config import build_noise, config_hash
    from .experiments import run_path
    from .trajio import EVENTS_HEADER, write_table, write_trajectory

    cfg = _load_config(args.config)
    seed = _resolve_seed(args, cfg.ensemble.base_seed)
    record, report = run_path(cfg, build_noise(cfg), cfg.stepper, seed)
    h = config_hash(cfg)
    out = _out_dir(args, cfg)
    write_trajectory(out / "trajectory.csv", record, h)
    if report is None:
        norms = f"G={record.norm_G[-1]:.6g},F0={record.norm_F0[-1]:.6g}"
        tail = f"rows={record.n_rows} final_norms={norms}"
        written = f"{out}/trajectory.csv"
    else:
        events = [asdict(e) for e in record.events]
        write_table(out / "events.csv", events, EVENTS_HEADER, h, seed)
        tail = f"events={len(record.events)} valid={report.passed} dwell={report.alpha_dwell}"
        written = f"{out}/trajectory.csv, {out}/events.csv"
        for failure in report.failures:
            print(f"schedule check failed: {failure}", file=sys.stderr)
    if not args.quiet:
        print(f"status={record.status} {_step_accounting(record)} {tail}")
        print(f"wrote {written}")
    return 0 if report is None or report.passed else 1


def cmd_ensemble(args) -> int:
    from .config import build_noise, config_hash
    from .experiments import run_ensemble, uniform_control_report
    from .trajio import (
        ALDOUS_HEADER,
        PATHS_HEADER,
        UNIFORM_HEADER,
        write_keyvalue,
        write_table,
    )

    cfg = _load_config(args.config)
    seed = _resolve_seed(args, cfg.ensemble.base_seed)
    noise = build_noise(cfg)
    run = replace(cfg.ensemble, n_paths=args.paths or cfg.ensemble.n_paths, base_seed=seed)
    stats = run_ensemble(replace(cfg, ensemble=run), noise, jobs=args.jobs)
    h = config_hash(cfg)
    out = _out_dir(args, cfg)
    write_table(out / "uniform_control.csv", stats.sup_table("F0"), UNIFORM_HEADER, h, seed)
    write_table(out / "time_integral.csv", stats.int_table(), UNIFORM_HEADER, h, seed)
    summary = {}
    if len(cfg.ensemble.d_list) >= 2:
        rep = uniform_control_report(stats, cfg.ensemble.epsilon_target)
        summary.update(asdict(rep))
    if stats.delta_grid:
        write_table(
            out / "aldous.csv", stats.aldous_table(cfg.ensemble.eta), ALDOUS_HEADER, h, seed
        )
    for d in cfg.ensemble.d_list:
        summary[f"numeric_failures_d{d}"] = stats.n_numeric_failures(d)
    write_keyvalue(out / "report.csv", summary, h, seed)
    write_table(out / "paths.csv", stats.path_table(), PATHS_HEADER, h, seed)
    if not args.quiet:
        print(json.dumps({k: v for k, v in summary.items()}, default=str, indent=2))
        print(f"wrote tables under {out}")
    return 0


def cmd_audit(args) -> int:
    from .config import build_drift, config_hash
    from .experiments import assumption_audit
    from .trajio import write_keyvalue

    cfg = _load_config(args.config)
    seed = _resolve_seed(args, cfg.ensemble.base_seed)
    drift = build_drift(cfg)
    constants, report = assumption_audit(drift, n_samples=args.samples, seed=seed)
    payload = {**asdict(constants), **{f"report_{k}": v for k, v in report.items()}}
    out = _out_dir(args, cfg)
    write_keyvalue(out / "audit.csv", payload, config_hash(cfg), seed)
    if not args.quiet:
        for key in ("C1", "gamma1", "C2", "gamma13"):
            print(f"{key} = {getattr(constants, key):.6g}")
        print(f"wrote {out}/audit.csv")
    return 0


def cmd_gbm(args) -> int:
    from .experiments import gbm_study
    from .noise import GbmSpec

    seed = _resolve_seed(args, 0)
    rows = gbm_study(
        [GbmSpec(args.a, args.b, args.f0)],
        n_paths=args.paths,
        T=args.T,
        seed=seed,
        threshold=args.threshold,
    )
    print(json.dumps(asdict(rows[0]), indent=2))
    return 0


def cmd_scalefn(args) -> int:
    from .noise import ScaleFunctionSpec, gbm_scale_closed_form, scale_function

    spec = ScaleFunctionSpec(lambda y: args.a * y, lambda y: args.b * y, c=args.c)
    value = scale_function(spec, args.x)
    closed = gbm_scale_closed_form(args.a, args.b, args.c, args.x)
    print(json.dumps({"x": args.x, "scale": value, "closed_form": closed}, indent=2))
    return 0


def cmd_verify(args) -> int:
    from .acceptance import ALL_CRITERIA, SUITE_SEED, TRIVIAL_CRITERIA, run_acceptance

    names = {
        "trivial": TRIVIAL_CRITERIA,
        "acceptance": ALL_CRITERIA,
    }[args.suite]
    echo = (lambda *_: None) if args.quiet else print
    results = run_acceptance(names, seed=_resolve_seed(args, SUITE_SEED), echo=echo)
    failed = [r.name for r in results if not r.passed]
    if failed and not args.quiet:
        print(f"FAILED: {', '.join(failed)}")
    return 1 if failed else 0


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochtame",
        description="Pseudo-spectral simulation of blow-up taming by superlinear noise",
    )
    parser.add_argument("--version", action="version", version=f"stochtame {__version__} ({KERNEL_BACKEND} kernels)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("simulate", help="integrate one path, switching when control.enabled")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ensemble", help="Monte Carlo ensemble with summary tables")
    common(p)
    p.add_argument("--paths", type=positive_int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("audit", help="fit drift growth constants")
    common(p)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("gbm", help="geometric Brownian motion laboratory")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=2.0)
    p.add_argument("--f0", type=float, default=1.0)
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--threshold", type=float, default=1e-2)
    p.add_argument("--paths", type=positive_int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gbm)

    p = sub.add_parser("scalefn", help="scale function of a 1D diffusion (mu=a*x, sigma=b*x)")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=2.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=cmd_scalefn)

    p = sub.add_parser("verify", help="run the structural/acceptance suites")
    p.add_argument("--suite", choices=("trivial", "acceptance"), default="trivial")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
