"""In-memory spans around the program's public functions.

The wrappers live in the benchmark, not in the program: ``Tracer.install``
replaces every binding of a wrapped function in the ``stochtame`` modules,
including names a module imported from another one (``sobolev_norm`` inside
``integrators``, ``control``, ``noise`` and ``experiments``; ``envelope_chunk``
inside ``experiments``), and ``Tracer.uninstall`` restores them.

Each span stores a name id, start, end and the index of its parent span in
flat arrays (24 bytes a span), so a traced run keeps millions of spans in
memory and writes them out once, at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: (owner, attribute, span label).  Owners are module names, or
#: ``module:Class`` for methods.
TARGETS = (
    ("stochtame.config", "parse_config", "config.parse_config"),
    ("stochtame.config", "build_noise", "config.build_noise"),
    ("stochtame.experiments", "assumption_audit", "experiments.assumption_audit"),
    ("stochtame.experiments", "run_ensemble", "experiments.run_ensemble"),
    ("stochtame.experiments", "uniform_control_report", "experiments.report"),
    ("stochtame.experiments:SummaryStats", "sup_table", "experiments.report"),
    ("stochtame.experiments:SummaryStats", "int_table", "experiments.report"),
    ("stochtame.experiments:SummaryStats", "aldous_table", "experiments.report"),
    ("stochtame.experiments", "exp_law_study", "experiments.scalar_study"),
    ("stochtame.experiments", "revuz_yor_study", "experiments.scalar_study"),
    ("stochtame.integrators", "integrate_path", "integrators.integrate_path"),
    ("stochtame.integrators", "rk4_deterministic_step", "integrators.rk4_step"),
    ("stochtame.control", "control_run", "control.control_run"),
    ("stochtame.control", "validate_schedule", "control.validate_schedule"),
    ("stochtame.models:DriftOperator", "__call__", "models.drift"),
    ("stochtame.spectral", "sobolev_norm", "spectral.sobolev_norm"),
    ("stochtame.spectral", "galerkin_project", "spectral.galerkin_project"),
    ("stochtame.noise:WienerPath", "increment", "noise.increment"),
    ("stochtame._backend", "envelope_chunk", "backend.envelope_chunk"),
    ("stochtame._backend", "tamed_gbm_chunk", "backend.tamed_gbm_chunk"),
    ("stochtame.trajio", "write_table", "trajio.write"),
    ("stochtame.trajio", "write_keyvalue", "trajio.write"),
)


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, cls) if cls else module


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self._wrappers: list[tuple[object, str, object, object]] = []

    def label_id(self, label: str) -> int:
        if label not in self._label_id:
            self._label_id[label] = len(self.labels)
            self.labels.append(label)
        return self._label_id[label]

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(self, label: str, fn, on_call=None):
        nid = self.label_id(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # installation ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every target and every by-name binding of it."""
        if self._wrappers:
            return
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("stochtame") and m]
        for owner_name, attr, label in TARGETS:
            owner = _resolve(owner_name)
            original = owner.__dict__[attr]
            wrapper = self.wrap(label, original, _ON_CALL.get(label))
            self._wrappers.append((owner, attr, original, wrapper))
            setattr(owner, attr, wrapper)
            if ":" in owner_name:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and not (module is owner and key == attr):
                        self._wrappers.append((module, key, original, wrapper))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._wrappers):
            setattr(owner, attr, original)
        self._wrappers = []

    # results --------------------------------------------------------------
    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        return name, parent, start, end

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(
            path,
            name=name,
            parent=parent,
            start=start,
            end=end,
            labels=np.asarray(self.labels),
        )

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.labels, *self.arrays())


class SpanSummary:
    """Durations and self times by label, with audit spans set apart."""

    def __init__(self, labels, name, parent, start, end):
        self.labels = list(labels)
        self.name = name
        self.parent = parent
        self.dur = end - start
        has_parent = parent >= 0
        covered = np.zeros_like(self.dur)
        np.add.at(covered, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - covered
        # spans below an audit are set-up work, not path work
        audit = self._ids("experiments.assumption_audit")
        under = np.zeros(len(name), dtype=bool)
        is_audit = np.isin(name, audit)
        for i in range(len(name)):
            p = parent[i]
            if p >= 0 and (under[p] or is_audit[p]):
                under[i] = True
        self.under_audit = under

    def _ids(self, label):
        return [i for i, lab in enumerate(self.labels) if lab == label]

    def _mask(self, label, include_audit=False):
        m = np.isin(self.name, self._ids(label))
        if not include_audit:
            m &= ~self.under_audit
        return m

    def calls(self, label) -> int:
        return int(self._mask(label).sum())

    def total(self, label) -> float:
        return float(self.dur[self._mask(label)].sum())

    def self_total(self, label) -> float:
        return float(self.self_time[self._mask(label)].sum())

    def median(self, label) -> float:
        d = self.dur[self._mask(label, include_audit=True)]
        return float(np.median(d)) if len(d) else 0.0


def _count_increment(tracer, args, kwargs):
    level = kwargs.get("level", args[2] if len(args) > 2 else 0)
    if level > 0:
        tracer.count("noise.refined")


def _count_envelope(tracer, args, kwargs):
    z, rec, dw, u = args[:4]
    steps, paths = dw.shape
    # dw and u read once; z and rec read and written once per step
    moved = dw.nbytes + (u.nbytes if u is not None else 0) + steps * 2 * (z.nbytes + rec.nbytes)
    tracer.count("backend.envelope_elems", steps * paths)
    tracer.count("backend.envelope_bytes", moved)


def _count_gbm(tracer, args, kwargs):
    x, _a, _b, dw = args[:4]
    steps, paths = dw.shape
    # dw read once; x read and written once per step
    tracer.count("backend.gbm_elems", steps * paths)
    tracer.count("backend.gbm_bytes", dw.nbytes + steps * 2 * x.nbytes)


_ON_CALL = {
    "noise.increment": _count_increment,
    "backend.envelope_chunk": _count_envelope,
    "backend.tamed_gbm_chunk": _count_gbm,
}
