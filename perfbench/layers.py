"""Per-layer metrics from the spans and counters of a traced run.

Layer time totals leave out the spans below a noise-advisor audit, which is
set-up work; the audit itself is reported as ``experiments.audit_s``.
Totals and counts cover the traced rounds only.
"""

from __future__ import annotations

import statistics

#: (name, unit) of every per-layer metric, in the order they are printed
PER_LAYER = (
    ("stochtame.import_s", "s"),
    ("config.parse_s", "s"),
    ("config.build_noise_s", "s"),
    ("experiments.audit_s", "s"),
    ("experiments.ensemble_self_s", "s"),
    ("experiments.report_s", "s"),
    ("experiments.scalar_self_s", "s"),
    ("integrators.paths", "count"),
    ("integrators.self_s", "s"),
    ("integrators.self_us_per_step", "us"),
    ("integrators.accepted_steps", "count"),
    ("integrators.accept_ratio", "ratio"),
    ("control.runs", "count"),
    ("control.self_s", "s"),
    ("control.events", "count"),
    ("control.stochastic_share", "ratio"),
    ("control.validate_s", "s"),
    ("models.drift_calls", "count"),
    ("models.drift_s", "s"),
    ("models.drift_us_per_call", "us"),
    ("models.drift_calls_per_step", "calls/step"),
    ("spectral.norm_calls", "count"),
    ("spectral.norm_s", "s"),
    ("spectral.norms_per_step", "calls/step"),
    ("spectral.project_calls", "count"),
    ("spectral.project_s", "s"),
    ("noise.increments", "count"),
    ("noise.increment_s", "s"),
    ("noise.increment_us_per_call", "us"),
    ("noise.refined_share", "ratio"),
    ("backend.envelope_s", "s"),
    ("backend.envelope_ns_per_elem", "ns"),
    ("backend.envelope_mb_moved", "MB"),
    ("backend.gbm_s", "s"),
    ("backend.gbm_ns_per_elem", "ns"),
    ("backend.gbm_mb_moved", "MB"),
    ("trajio.write_s", "s"),
    ("trajio.bytes", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def per_layer_metrics(tracer, traced_rounds, untraced_rounds, import_s) -> dict:
    s = tracer.summary()
    c = tracer.counters
    steps = sum(r.steps for r in traced_rounds)
    s_steps = sum(r.s_steps for r in traced_rounds)
    increments = s.calls("noise.increment")
    drift_calls = s.calls("models.drift")
    norm_calls = s.calls("spectral.sobolev_norm")
    control_runs = s.calls("control.control_run")
    integrators_self = s.self_total("integrators.integrate_path") + s.self_total("integrators.rk4_step")
    envelope_s = s.total("backend.envelope_chunk")
    gbm_s = s.total("backend.tamed_gbm_chunk")

    values = {
        "stochtame.import_s": import_s,
        "config.parse_s": s.median("config.parse_config"),
        "config.build_noise_s": s.total("config.build_noise"),
        "experiments.audit_s": s.total("experiments.assumption_audit"),
        "experiments.ensemble_self_s": s.self_total("experiments.run_ensemble"),
        "experiments.report_s": s.self_total("experiments.report"),
        "experiments.scalar_self_s": s.self_total("experiments.scalar_study"),
        "integrators.paths": s.calls("integrators.integrate_path"),
        "integrators.self_s": integrators_self,
        "integrators.self_us_per_step": _ratio(integrators_self, steps, 1e6),
        "integrators.accepted_steps": steps if drift_calls else 0,
        "integrators.accept_ratio": _ratio(s_steps, increments),
        "control.runs": control_runs,
        "control.self_s": s.self_total("control.control_run"),
        "control.events": sum(r.events for r in traced_rounds),
        "control.stochastic_share": _ratio(s_steps, steps) if control_runs else 0.0,
        "control.validate_s": s.total("control.validate_schedule"),
        "models.drift_calls": drift_calls,
        "models.drift_s": s.total("models.drift"),
        "models.drift_us_per_call": _ratio(s.total("models.drift"), drift_calls, 1e6),
        "models.drift_calls_per_step": _ratio(drift_calls, steps),
        "spectral.norm_calls": norm_calls,
        "spectral.norm_s": s.total("spectral.sobolev_norm"),
        "spectral.norms_per_step": _ratio(norm_calls, steps),
        "spectral.project_calls": s.calls("spectral.galerkin_project"),
        "spectral.project_s": s.total("spectral.galerkin_project"),
        "noise.increments": increments,
        "noise.increment_s": s.total("noise.increment"),
        "noise.increment_us_per_call": _ratio(s.total("noise.increment"), increments, 1e6),
        "noise.refined_share": _ratio(c.get("noise.refined", 0.0), increments),
        "backend.envelope_s": envelope_s,
        "backend.envelope_ns_per_elem": _ratio(envelope_s, c.get("backend.envelope_elems", 0.0), 1e9),
        "backend.envelope_mb_moved": c.get("backend.envelope_bytes", 0.0) / 1e6,
        "backend.gbm_s": gbm_s,
        "backend.gbm_ns_per_elem": _ratio(gbm_s, c.get("backend.gbm_elems", 0.0), 1e9),
        "backend.gbm_mb_moved": c.get("backend.gbm_bytes", 0.0) / 1e6,
        "trajio.write_s": s.total("trajio.write"),
        "trajio.bytes": sum(r.written for r in traced_rounds),
        # median over pairs of rounds with identical inputs, untraced rate
        # over traced rate; an unpaired last traced round is left out
        "trace.overhead_pct": (
            statistics.median(
                (u.steps / u.interval) / (t.steps / t.interval)
                for t, u in zip(traced_rounds, untraced_rounds)
            )
            - 1.0
        )
        * 100.0,
        "trace.spans": len(s.dur),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
