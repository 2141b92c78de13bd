"""Run configuration: a JSON document with strict validation.

Sections: ``model`` (kind, resolution, parameters, ladder overrides, initial
state), ``noise`` (theta/alpha/case or "advisor"), ``stepper``, ``control``,
``ensemble`` and ``output``.  Unknown keys are rejected with their dotted
location; cross-field rules (case vs declared initial space, initial kind vs
model kind, Galerkin cutoffs vs resolution) are enforced at parse time.
``serialize_config`` emits a canonical form whose parse returns an equal
RunConfig, and ``config_hash`` stamps every output file for provenance.

The facts behind the rules are read, not restated: the case rule (which
space a noise case needs the initial state in, and the noise norm it takes)
from :data:`stochtame.noise.NOISE_CASES` through
:meth:`~stochtame.noise.NoiseSpec.admits_initial_space`, and each model
kind's dimension, components, initial kinds and random states from
:data:`stochtame.models.CATALOGUE`.  ``output.save_stride`` is the one row
stride of every command.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .control import ControlSchedule
from .integrators import SCHEMES, StepperConfig
from .models import (
    CATALOGUE,
    MODEL_KINDS,
    DriftOperator,
    ModelParams,
    default_ladder,
    random_state,
)
from .noise import NOISE_CASES, NoiseSpec, advisor_constants, theta_advisor
from .spectral import (
    LADDER_SPACES,
    SpaceLadder,
    SpectralField,
    TorusGrid,
    random_field,
    two_thirds_cutoff,
)


class ConfigError(ValueError):
    """Invalid configuration; message carries the dotted key location."""


@dataclass(frozen=True)
class InitialSection:
    kind: str = "sine"  # sine | random | rest_height; unset: the model kind's first
    amplitude: float = 1.0
    space: str = "D"  # ladder space the initial state is declared to lie in
    seed: int = 0
    decay_exponent: float = 6.0
    mean_height: float = 1.0  # rest_height only


@dataclass(frozen=True)
class ModelSection:
    kind: str = "Burgers1D"
    resolution: int = 256
    nu: float = 0.0
    eta: float = 0.0
    f_coriolis: float = 1.0
    rossby: float = 1.0
    froude: float = 1.0
    epsilon_sobolev: float = 0.1
    ladder: tuple[float, float, float, float] | None = None
    initial: InitialSection = field(default_factory=InitialSection)


@dataclass(frozen=True)
class NoiseSection:
    theta: float = 0.0
    alpha: float = 0.0
    case: str = "I"
    advisor: bool = False
    advisor_epsilon: float = 0.25
    advisor_level: float = 2.0


@dataclass(frozen=True)
class StepperSection:
    scheme: str = "TamedEulerMaruyama"
    dt: float = 1e-3
    t_end: float = 1.0
    dt_min_exponent: int = 20  # dt_min = dt * 2**-exponent
    adapt: bool = True
    growth_trigger: float = 0.10
    stiff_cap: float = 0.5
    blowup_threshold: float | None = None
    mart_epsilon: float = 0.25


@dataclass(frozen=True)
class ControlSection:
    enabled: bool = False
    K: float = 1.0
    C: float = 1.0
    max_stochastic_duration: float | None = None


@dataclass(frozen=True)
class EnsembleSection:
    n_paths: int = 16
    base_seed: int = 0
    d_list: tuple[int, ...] = (8, 16)
    K_grid: tuple[float, ...] = ()
    T: float | None = None
    epsilon_target: float = 0.1
    delta_grid: tuple[float, ...] = ()
    eta: float | None = None


@dataclass(frozen=True)
class OutputSection:
    directory: str = "out"
    save_stride: int = 1


@dataclass(frozen=True)
class RunConfig:
    model: ModelSection = field(default_factory=ModelSection)
    noise: NoiseSection = field(default_factory=NoiseSection)
    stepper: StepperSection = field(default_factory=StepperSection)
    control: ControlSection = field(default_factory=ControlSection)
    ensemble: EnsembleSection = field(default_factory=EnsembleSection)
    output: OutputSection = field(default_factory=OutputSection)


_SECTION_TYPES = {
    "model": ModelSection,
    "noise": NoiseSection,
    "stepper": StepperSection,
    "control": ControlSection,
    "ensemble": EnsembleSection,
    "output": OutputSection,
}

_LIST_FIELDS = {"d_list", "K_grid", "delta_grid", "ladder"}


def _coerce_section(cls, data: dict, where: str):
    defaults = cls()
    kwargs = {}
    for key, value in data.items():
        if key == "initial" and cls is ModelSection:
            if not isinstance(value, dict):
                raise ConfigError(f"{where}.initial must be a table")
            kwargs["initial"] = _coerce_section(InitialSection, value, f"{where}.initial")
            continue
        if not hasattr(defaults, key):
            raise ConfigError(f"unknown key {where}.{key}")
        if key in _LIST_FIELDS:
            if value is not None and not isinstance(value, (list, tuple)):
                raise ConfigError(f"{where}.{key} must be a list")
            value = tuple(value) if value is not None else None
        kwargs[key] = value
    return cls(**kwargs)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object")
    sections = {}
    for key, value in data.items():
        if key not in _SECTION_TYPES:
            raise ConfigError(f"unknown section {key!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"section {key!r} must be an object")
        sections[key] = _coerce_section(_SECTION_TYPES[key], value, key)
    cfg = RunConfig(**sections)
    m = cfg.model
    if "kind" not in data.get("model", {}).get("initial", {}) and m.kind in CATALOGUE:
        initial = replace(m.initial, kind=CATALOGUE[m.kind].initial_kinds[0])
        cfg = replace(cfg, model=replace(m, initial=initial))
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    m = cfg.model
    if m.kind not in MODEL_KINDS:
        raise ConfigError(f"model.kind must be one of {MODEL_KINDS}, got {m.kind!r}")
    if m.resolution < 4 or m.resolution % 2:
        raise ConfigError("model.resolution must be even and >= 4")
    initial_kinds = CATALOGUE[m.kind].initial_kinds
    if m.initial.kind not in initial_kinds:
        raise ConfigError(
            f"model.initial.kind of {m.kind} must be one of {initial_kinds}, "
            f"got {m.initial.kind!r}"
        )
    if m.initial.space not in LADDER_SPACES:
        raise ConfigError(f"model.initial.space must be one of {LADDER_SPACES}")
    if cfg.noise.case not in NOISE_CASES:
        raise ConfigError("noise.case must be I, II or III")
    if cfg.stepper.scheme not in SCHEMES:
        raise ConfigError(f"stepper.scheme must be one of {SCHEMES}")
    if cfg.stepper.dt <= 0:
        raise ConfigError("stepper.dt must be positive")

    if cfg.noise.theta > 0 or cfg.noise.advisor:
        try:
            spec = NoiseSpec.for_case(cfg.noise.theta, cfg.noise.alpha, cfg.noise.case)
        except ValueError as exc:
            raise ConfigError(f"noise: {exc}") from None
        if not spec.admits_initial_space(m.initial.space):
            raise ConfigError(
                f"noise.case {cfg.noise.case} requires initial data in "
                f"{spec.required_initial_space}; model.initial.space declares only "
                f"{m.initial.space}"
            )

    if not cfg.ensemble.d_list:
        raise ConfigError("ensemble.d_list must hold at least one cutoff")
    cutoff_limit = two_thirds_cutoff(m.resolution)
    for d in cfg.ensemble.d_list:
        if d > cutoff_limit:
            raise ConfigError(
                f"ensemble.d_list entry {d} exceeds the dealiased closure limit "
                f"(resolution - 1)//3 = {cutoff_limit}"
            )
    if list(cfg.ensemble.d_list) != sorted(cfg.ensemble.d_list):
        raise ConfigError("ensemble.d_list must be increasing")
    if cfg.control.enabled and math.isfinite(cfg.control.K):
        if math.exp(cfg.control.K) <= cfg.control.C:
            raise ConfigError("control.K must satisfy exp(K) > C")


def serialize_config(cfg: RunConfig) -> str:
    """Canonical JSON (sorted keys); parse(serialize(cfg)) == cfg."""

    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in sorted(obj.items())}
        if isinstance(obj, tuple):
            return [clean(v) for v in obj]
        return obj

    return json.dumps(clean(asdict(cfg)), indent=2, sort_keys=True)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:12]


# --- materialising runtime objects from the config ---------------------------


def build_grid(cfg: RunConfig) -> TorusGrid:
    return TorusGrid(CATALOGUE[cfg.model.kind].dim, cfg.model.resolution)


def build_drift(cfg: RunConfig) -> DriftOperator:
    m = cfg.model
    params = ModelParams(
        nu=m.nu,
        eta=m.eta,
        f_coriolis=m.f_coriolis,
        rossby=m.rossby,
        froude=m.froude,
        epsilon_sobolev=m.epsilon_sobolev,
    )
    ladder = SpaceLadder(*m.ladder) if m.ladder is not None else default_ladder(m.kind, params)
    return DriftOperator(m.kind, params, ladder)


def build_stepper(cfg: RunConfig) -> StepperConfig:
    s = cfg.stepper
    return StepperConfig(
        scheme=s.scheme,
        dt=s.dt,
        t_end=s.t_end,
        dt_min=s.dt * 2.0**-s.dt_min_exponent,
        adapt=s.adapt,
        growth_trigger=s.growth_trigger,
        stiff_cap=s.stiff_cap,
        blowup_threshold=s.blowup_threshold,
        save_stride=cfg.output.save_stride,
        mart_epsilon=s.mart_epsilon,
    )


def build_schedule(cfg: RunConfig) -> ControlSchedule | None:
    if not cfg.control.enabled:
        return None
    return ControlSchedule(
        K=cfg.control.K,
        C=cfg.control.C,
        max_stochastic_duration=cfg.control.max_stochastic_duration,
    )


class InitialBuilder:
    """Picklable initial-state factory resolved from the config."""

    def __init__(self, model: ModelSection):
        self.section = model.initial
        self.kind = model.kind

    def __call__(self, grid: TorusGrid) -> SpectralField:
        init = self.section
        components = CATALOGUE[self.kind].components
        if init.kind == "sine":
            values = np.zeros((components,) + (grid.n,) * grid.dim)
            values[0] = init.amplitude * np.sin(grid.coordinates()[0])
            return SpectralField(grid, grid.half.from_physical(values))
        if init.kind == "random":
            return random_state(self.kind, grid, init.decay_exponent, init.amplitude, init.seed)
        if init.kind == "rest_height":
            # small random velocity over a positive mean height column
            f = random_field(grid, components, init.decay_exponent, init.amplitude, init.seed)
            f.coeffs[2, (0,) * grid.dim] = init.mean_height
            return f
        raise ConfigError(f"unknown initial kind {init.kind!r}")


def build_noise(cfg: RunConfig, drift: DriftOperator | None = None) -> NoiseSpec | None:
    n = cfg.noise
    if n.advisor:
        from .experiments import assumption_audit

        drift = drift or build_drift(cfg)
        constants, report = assumption_audit(drift, n_samples=200, seed=cfg.ensemble.base_seed)
        constants = advisor_constants(n.case, constants, report)
        return theta_advisor(n.case, constants, n.advisor_epsilon, level=n.advisor_level).spec()
    if n.theta == 0.0:
        return None
    return NoiseSpec.for_case(n.theta, n.alpha, n.case)
