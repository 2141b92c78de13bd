"""Run configuration: a JSON document, checked in full before any work starts.

Sections: ``model`` (kind, resolution, parameters, ladder overrides, initial
state), ``noise`` (theta/alpha/case or "advisor"), ``stepper``, ``control``,
``ensemble`` and ``output``.  The ``stepper`` section is
:class:`~stochtame.integrators.StepperConfig` itself, key for key; the others
are the dataclasses below.  ``serialize_config`` emits a canonical form whose
parse returns an equal RunConfig, and ``config_hash`` stamps every output
file for provenance.

:func:`parse_config` refuses every value a run would refuse, before any path
or audit runs, with a :class:`ConfigError` naming the dotted key or section:

* unknown keys, and values of the wrong JSON type for their field's
  annotation (a float key takes an integer, no number key a boolean, a list
  key a list of numbers, and only an optional key null);
* what the runtime objects refuse: it builds the grid, the drift with its
  parameters and ladder, the stepper (also to ``ensemble.T``), the drift
  kernel of each ``ensemble.d_list`` cutoff, the schedule when
  ``control.enabled``, the noise spec and the initial state
  (:func:`initial_state`), and checks the advisor's epsilon and level
  without running its audit.  Kernels are cached on their grid, so the
  paths reuse the ones parsing builds;
* the rules only the config states (:func:`validate_config`);
* a ``stepper.blowup_threshold`` at or below the F0 norm of the initial
  state at the dealias cutoff, the largest cutoff a command runs.

The facts behind the rules are read, not restated: the case rule (which
space a noise case needs the initial state in, and the noise norm it takes)
from :data:`stochtame.noise.NOISE_CASES` through
:meth:`~stochtame.noise.NoiseSpec.admits_initial_space`, and each model
kind's dimension, components, initial kinds and random states from
:data:`stochtame.models.CATALOGUE`.  ``output.save_stride`` is the one row
stride of every command.
"""

from __future__ import annotations

import functools
import hashlib
import json
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from .control import ControlSchedule
from .integrators import StepperConfig, check_scheme_carries
from .models import (
    CATALOGUE,
    DriftOperator,
    ModelParams,
    model_kind,
    random_state,
)
from .noise import NoiseSpec, check_advisor_inputs
from .spectral import (
    SpaceLadder,
    SpectralField,
    TorusGrid,
    dealias,
    random_field,
    sobolev_norm,
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
    nu: float = ModelParams.nu  # the physical parameters default as ModelParams does
    eta: float = ModelParams.eta
    f_coriolis: float = ModelParams.f_coriolis
    rossby: float = ModelParams.rossby
    froude: float = ModelParams.froude
    epsilon_sobolev: float = ModelParams.epsilon_sobolev
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
class ControlSection:
    enabled: bool = False
    K: float = 1.0
    C: float = ControlSchedule.C
    max_stochastic_duration: float | None = ControlSchedule.max_stochastic_duration


#: the uniform-control tables' squared-norm thresholds when ``ensemble.K_grid`` is empty
DEFAULT_K_GRID = tuple(float(x) for x in np.logspace(-2, 10, 49))


@dataclass(frozen=True)
class EnsembleSection:
    n_paths: int = 16
    base_seed: int = 0
    d_list: tuple[int, ...] = (8, 16)
    K_grid: tuple[float, ...] = ()  # empty: DEFAULT_K_GRID
    T: float | None = None  # the paths' horizon; unset: stepper.t_end
    epsilon_target: float = 0.1
    delta_grid: tuple[float, ...] = ()  # increment windows; empty: no Aldous table
    eta: float | None = None


@dataclass(frozen=True)
class OutputSection:
    directory: str = "out"
    save_stride: int = 1

    def __post_init__(self):
        if self.save_stride < 1:
            raise ValueError("save_stride must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    model: ModelSection = field(default_factory=ModelSection)
    noise: NoiseSection = field(default_factory=NoiseSection)
    stepper: StepperConfig = field(default_factory=StepperConfig)
    control: ControlSection = field(default_factory=ControlSection)
    ensemble: EnsembleSection = field(default_factory=EnsembleSection)
    output: OutputSection = field(default_factory=OutputSection)


_TYPE_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}
_field_types = functools.cache(typing.get_type_hints)


def _typed(value, hint, where: str):
    """``value`` as a field annotated ``hint`` takes it from JSON: a list
    becomes a tuple, and a value of another type is refused."""
    options = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    if value is None and type(None) in options:
        return None
    hint = options[0]  # an optional field is annotated ``X | None``
    if is_dataclass(hint):
        return _coerce_section(hint, value, where)
    if typing.get_origin(hint) is tuple:
        items = typing.get_args(hint)
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        elif len(items) != len(value):
            raise ConfigError(f"{where} must hold {len(items)} entries")
        return tuple(_typed(v, h, f"{where}[{i}]") for i, (v, h) in enumerate(zip(value, items)))
    accepted = (int, float) if hint is float else hint
    if not isinstance(value, accepted) or isinstance(value, bool) and hint is not bool:
        raise ConfigError(f"{where} must be {_TYPE_NAMES[hint]}, got {value!r}")
    return value


def _coerce_section(cls, data, where: str):
    """The dataclass ``cls`` from the JSON object ``data`` at ``where``; the
    errors of its constructor become ConfigErrors of ``where``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'top level'} must be an object")
    hints = _field_types(cls)
    keys = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        dotted = f"{where}.{key}" if where else key
        if key not in keys:
            raise ConfigError(f"unknown key {dotted}")
        kwargs[key] = _typed(value, hints[key], dotted)
    return _built(where, cls, **kwargs)


def _built(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; its ValueError or TypeError becomes a
    ConfigError of ``where``, dotted when the message opens with a key of
    the section ``where``."""
    try:
        return build(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        msg = str(exc)
        section = _field_types(RunConfig).get(where)
        if section and msg.split(" ", 1)[0] in {f.name for f in fields(section)}:
            raise ConfigError(f"{where}.{msg}") from None
        raise ConfigError(f"{where}: {msg}") from None


def parse_config(text: str) -> RunConfig:
    """Parse a JSON configuration document and refuse what a run would
    refuse (module docstring)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    cfg = _coerce_section(RunConfig, data, "")
    m = cfg.model
    if "kind" not in data.get("model", {}).get("initial", {}) and m.kind in CATALOGUE:
        initial = replace(m.initial, kind=CATALOGUE[m.kind].initial_kinds[0])
        cfg = replace(cfg, model=replace(m, initial=initial))

    grid = _built("model", build_grid, cfg)
    drift = _built("model", build_drift, cfg)
    _built("ensemble.T", build_ensemble_stepper, cfg)
    for d in cfg.ensemble.d_list:
        _built("ensemble.d_list", grid.half.kernel, d)
    _built("control", build_schedule, cfg)
    n = cfg.noise
    _built("noise", NoiseSpec.for_case, n.theta, n.alpha, n.case)
    _built("stepper", check_scheme_carries, cfg.stepper.scheme, n.theta > 0 or n.advisor)
    if n.advisor:
        _built("noise", check_advisor_inputs, n.case, n.advisor_epsilon, n.advisor_level)
    validate_config(cfg)
    X0 = _built("model.initial", initial_state, cfg.model, grid)
    threshold = cfg.stepper.blowup_threshold
    if threshold is not None:
        # every command projects X0 to a cutoff no larger than the dealias
        # cutoff, and projection only lowers the norm
        n0 = sobolev_norm(dealias(X0), drift.ladder.s_F0)
        if threshold <= n0:
            raise ConfigError(
                f"stepper.blowup_threshold {threshold} must exceed the initial F0 norm {n0}"
            )
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """The rules of a config that no runtime object states."""
    m = cfg.model
    initial_kinds = CATALOGUE[m.kind].initial_kinds
    if m.initial.kind not in initial_kinds:
        raise ConfigError(
            f"model.initial.kind of {m.kind} must be one of {initial_kinds}, "
            f"got {m.initial.kind!r}"
        )
    spec = NoiseSpec.for_case(cfg.noise.theta, cfg.noise.alpha, cfg.noise.case)
    admitted = _built("model.initial.space", spec.admits_initial_space, m.initial.space)
    if (cfg.noise.theta > 0 or cfg.noise.advisor) and not admitted:
        raise ConfigError(
            f"noise.case {cfg.noise.case} requires initial data in "
            f"{spec.required_initial_space}; model.initial.space declares only "
            f"{m.initial.space}"
        )

    e = cfg.ensemble
    if not e.d_list:
        raise ConfigError("ensemble.d_list must hold at least one cutoff")
    if list(e.d_list) != sorted(e.d_list):
        raise ConfigError("ensemble.d_list must be increasing")
    horizon = build_ensemble_stepper(cfg).t_end
    if e.delta_grid and not 0 < min(e.delta_grid) <= max(e.delta_grid) <= horizon / 2.0:
        raise ConfigError(
            f"ensemble.delta_grid entries must lie in (0, T/2] for the horizon T = {horizon}"
        )


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
    return TorusGrid(model_kind(cfg.model.kind).dim, cfg.model.resolution)


def build_drift(cfg: RunConfig) -> DriftOperator:
    m = cfg.model
    # the section holds every ModelParams field but the topography
    keys = [f.name for f in fields(ModelParams) if hasattr(m, f.name)]
    params = ModelParams(**{key: getattr(m, key) for key in keys})
    ladder = None if m.ladder is None else SpaceLadder(*m.ladder)
    return DriftOperator(m.kind, params, ladder)


def build_ensemble_stepper(cfg: RunConfig) -> StepperConfig:
    """The stepper of an ensemble path: the config's, to ``ensemble.T`` when set."""
    T = cfg.ensemble.T
    return cfg.stepper if T is None else replace(cfg.stepper, t_end=T)


def build_schedule(cfg: RunConfig) -> ControlSchedule | None:
    if not cfg.control.enabled:
        return None
    return ControlSchedule(
        K=cfg.control.K,
        C=cfg.control.C,
        max_stochastic_duration=cfg.control.max_stochastic_duration,
    )


def initial_state(model: ModelSection, grid: TorusGrid) -> SpectralField:
    """The initial state of the model section ``model`` on ``grid``."""
    init = model.initial
    components = CATALOGUE[model.kind].components
    if init.kind == "sine":
        values = np.zeros((components,) + (grid.n,) * grid.dim)
        values[0] = init.amplitude * np.sin(grid.coordinates()[0])
        return SpectralField(grid, grid.half.from_physical(values))
    if init.kind == "random":
        return random_state(model.kind, grid, init.decay_exponent, init.amplitude, init.seed)
    if init.kind == "rest_height":
        # small random velocity over a positive mean height column
        f = random_field(grid, components, init.decay_exponent, init.amplitude, init.seed)
        f.coeffs[2, (0,) * grid.dim] = init.mean_height
        return f
    raise ConfigError(f"unknown initial kind {init.kind!r}")


def build_noise(cfg: RunConfig) -> NoiseSpec | None:
    n = cfg.noise
    if n.advisor:
        from .experiments import advised_noise

        advice = advised_noise(
            build_drift(cfg), n.case, n.advisor_epsilon, n.advisor_level, cfg.ensemble.base_seed
        )
        return advice.spec()
    if n.theta == 0.0:
        return None
    return NoiseSpec.for_case(n.theta, n.alpha, n.case)
