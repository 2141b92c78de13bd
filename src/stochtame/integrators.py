"""Time stepping for the projected stochastic equation and blow-up detection.

The projected dynamics is

    dX = A_d(X) dt + theta ||X||_{F_i}^alpha X dW,   A_d = T_d o A o T_d,

advanced with Euler-Maruyama, a tamed Euler-Maruyama variant (the default:
the superlinear noise breaks the global Lipschitz setting of plain EM, so
both increments are normalised),

    X' = X + dt*A_d(X)/(1 + dt ||A_d(X)||_G) + dW*B(X)/(1 + dt ||B(X)||_G^2),

or classical RK4 for the deterministic phases.  B(X) is the noise
coefficient ``theta ||X||_{F_i}^alpha`` times X; both Euler steps and the
martingale pair 2<X, B(X)> take that number from
:meth:`~stochtame.noise.NoiseSpec.coefficient` of the state's four cached
ladder norms.  Step sizes halve whenever the relative F0-norm growth in one
step exceeds the trigger; the driving noise is refined consistently through
Brownian-bridge splitting, so halving never changes the coarse increments of
the path.

The taming error is pre-asymptotic while ``dt ||B(X)||_G^2`` is not small on
the sampled paths.  On the one-mode geometric Brownian motion with a = 1,
b = theta = 2, the top percent of the lognormal tail paths reach F0 norms of
about 40-80, where the noise denominator is 4-14 at dt = 2^-10.  These paths
dominate the mean absolute terminal error, which halves at a slope of only
about 0.2-0.4 for every dt from 2^-6 to 2^-13 (4000-path emulation of the
fixed-step recursion), not at the strong order 1/2.  The adaptive stiffness
cap (``StepperConfig.stiff_cap``) bounds this quantity by halving the step;
``adapt=False`` switches the cap off.

The loop holds its state in the layout of its Galerkin block's kernel
(:meth:`~stochtame.spectral.HalfSpectrum.kernel`, see
:mod:`stochtame.spectral`): the block gathered, ``(3, 17, 9)`` for a
shallow-water state at d = 8, on either kernel.  The initial state is
projected by reading it into that layout once (a full one through its
half), and the last state is written back once, for the record's
``final_state``.  Every trial step, of every scheme, is one call of
``_single_step`` on the loop state (the state with its cached norms and
drift), and it makes only the array work its arithmetic needs, on the
block, with no gather, scatter or model-grid arithmetic:

* one Wiener increment, from a block of base increments drawn at once or
  from the Brownian bridge of the current base interval
  (:class:`~stochtame.noise.WienerPath`);
* on the first trial from a state, its drift: one ``A(X)`` call on the
  block field (one batched transform each way through the block's kernel),
  which lies in the block as the state does; then the drift's G norm, one
  dot product with the power spectrum; a refined trial reuses both;
* the scheme update, four array operations for a tamed or Euler-Maruyama
  step, three more drift calls for an RK4 step, whose first stage is the
  cached drift;
* the four ladder norms of the trial state, one ``np.vecdot`` of the
  block's stacked weights with its power spectrum, which is also the
  finiteness test (:func:`~stochtame.spectral.weighted_norms`).

A saved row of a shallow-water path adds its height check, the block's
values on the model grid's points.  Traced benchmark runs (seed 0, 2 s,
one BLAS thread, a 2-vCPU VM whose speed swings up to 2x) read 97-105 us
a drift call of an ``rsw_control`` path (32 x 32, d = 8 and 10), about
2.9 of them a step, and 25 us a step of the loop's own work besides; a
``burgers_ensemble`` drift call (n = 256) takes 20-29 us, one a step.
Snapshots are kept in the block layout; the one full array a path makes is
its ``final_state``, the record's public field, mirrored from the last
state.

A path terminates with a blow-up record when the F0 norm crosses the
threshold or when adaptive halving hits the step floor
``dt * 2**-dt_min_exponent`` (the discrete counterpart of a finite maximal
existence time with exploding F0 norm).  Non-finite results that survive
refinement terminate with a separate numeric-error status.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .noise import NOISE_CASES, NoiseSpec, WienerPath
from .spectral import (
    LADDER_SPACES,
    NonFiniteFieldError,
    SpectralField,
    weighted_norms,
)

SCHEMES = ("EulerMaruyama", "TamedEulerMaruyama", "RK4Deterministic")


@dataclass(frozen=True)
class StepperConfig:
    """Scheme selection, base step, horizon and blow-up thresholds: the
    ``stepper`` section of a run config, key for key.

    The step floor is ``dt * 2**-dt_min_exponent``: a path may halve its
    step ``dt_min_exponent`` times.
    ``blowup_threshold`` (on the F0 norm) defaults to ``1e8 * (1 + ||X0||_F0)``
    at run start and must exceed the initial norm.  A horizon that is not a
    whole number of base steps (up to a relative 1e-9) is rounded up to the
    next one.  The row and snapshot strides are :func:`integrate_path`'s.
    """

    scheme: str = "TamedEulerMaruyama"
    dt: float = 1e-3
    t_end: float = 1.0
    dt_min_exponent: int = 20
    adapt: bool = True
    growth_trigger: float = 0.10
    stiff_cap: float = 0.5
    blowup_threshold: float | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.dt_min_exponent < 1:
            raise ValueError("dt_min_exponent must be >= 1")


@dataclass
class TrajectoryRecord:
    """Time series of norms, regime labels and the martingale pair (M, QV).

    ``status`` is "completed", "blowup" or "numeric_error"; ``blowup`` holds
    (time, reason) for the blow-up statuses.  Rows are immutable once the
    record is finalised.  ``M`` and ``QV`` hold the raw pair (M_t, <M>_t)
    of the martingale ``int 2<X, B(X)> dW`` in the noise case's envelope
    space, constant over deterministic steps.  ``sup_norms`` holds the
    maxima of the (G, F0, F1, D) norms over every accepted state, saved as a
    row or not, so they do not depend on the save stride; ``snapshots``
    hold the loop's states in its kernel's block layout
    (``SpectralField.block``; ``as_half`` writes one to a half) and
    ``snapshot_norm_F0`` the F0 norm of each; ``final_state`` is the full
    layout, exactly Hermitian.  Snapshots stay on the block by measurement
    (Burgers1D, n = 256, d = 8 to 64): a write to a half costs about 2 us,
    500 us for a path's 250 snapshots, and the increment statistics read
    the 250 in 166-211 us from blocks against 201-229 us from halves.

    The step accounting: ``trials`` counts trial steps; ``rejections`` counts
    the rejected ones by cause ("non_finite", "stiffness", "growth",
    "crossing"), the trial that ends a path as a blow-up or numeric error
    included; ``level_steps[l]`` counts the accepted steps at dyadic level l
    (step ``dt * 2**-l``); ``finest_level`` is the finest level any trial
    reached.  So ``trials == accepted_steps + rejected_steps``, and at save
    stride 1 ``accepted_steps == n_rows - 1``.  ``drift_evals`` counts the
    drift evaluations: one per state whose drift a trial reads (a refined
    trial reuses it) and three more per RK4 trial.  ``wiener_draws[l]``
    counts the Wiener increments drawn at level l, one per stochastic trial
    there, so on a plain stochastic path they sum to ``trials``.
    ``wall_s`` is the wall time of the stepping loop, in seconds.

    Snapshots are kept at the times ``j * field_stride * dt``, which lie on
    every dyadic level, whenever an accepted step lands on one, so a path
    keeps at most ``T / (field_stride * dt) + 1`` of them however finely it
    was refined.
    """

    times: np.ndarray
    norm_G: np.ndarray
    norm_F0: np.ndarray
    norm_F1: np.ndarray
    norm_D: np.ndarray
    int_F1sq: np.ndarray
    regime: np.ndarray  # 'D' / 'S' per row
    M: np.ndarray
    QV: np.ndarray
    flags: list[str]
    status: str = "completed"
    blowup: tuple[float, str] | None = None
    seed: int | None = None
    events: list = dataclass_field(default_factory=list)
    snapshots: list[tuple[float, SpectralField]] | None = None
    final_state: SpectralField | None = None
    sup_norms: tuple[float, float, float, float] | None = None
    snapshot_norm_F0: np.ndarray | None = None
    trials: int = 0
    rejections: dict[str, int] = dataclass_field(default_factory=dict)
    level_steps: tuple[int, ...] = ()
    drift_evals: int = 0
    wiener_draws: tuple[int, ...] = ()
    wall_s: float = 0.0

    def __post_init__(self):
        for arr in (self.times, self.int_F1sq):
            arr.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return len(self.times)

    @property
    def accepted_steps(self) -> int:
        return sum(self.level_steps)

    @property
    def rejected_steps(self) -> int:
        return sum(self.rejections.values())

    @property
    def finest_level(self) -> int:
        return len(self.level_steps) - 1

    @property
    def sup_norm_sq(self) -> dict[str, float]:
        """Squared maxima of the four norms over every accepted state."""
        return {space: float(v) ** 2 for space, v in zip(LADDER_SPACES, self.sup_norms)}

    def rows(self):
        for i in range(self.n_rows):
            yield (
                float(self.times[i]),
                float(self.norm_G[i]),
                float(self.norm_F0[i]),
                float(self.norm_F1[i]),
                float(self.norm_D[i]),
                float(self.int_F1sq[i]),
                str(self.regime[i]),
                float(self.M[i]),
                float(self.QV[i]),
                self.flags[i],
            )


class _RecordBuilder:
    """A path's record in the making.  A row's eight float columns go into
    one flat buffer, its regime and flags into two lists: about 80 bytes."""

    def __init__(self, seed, keep_fields: bool, max_level: int):
        self.data = array("d")
        self.regimes = []
        self.flags = []
        self.snapshots = [] if keep_fields else None
        self.snapshot_norms = [] if keep_fields else None
        self.sup = (0.0, 0.0, 0.0, 0.0)
        self.seed = seed
        self.trials = 0
        self.rejections = dict.fromkeys(("non_finite", "stiffness", "growth", "crossing"), 0)
        self.level_steps = [0] * (max_level + 1)
        self.wiener_draws = [0] * (max_level + 1)
        self.finest_level = 0

    def visit(self, norms):
        """Fold an accepted state's four norms into the running maxima."""
        self.sup = tuple(map(max, self.sup, norms))

    def add(self, t, norms, int_f1sq, regime, m, qv, flags=""):
        self.data.fromlist([t, *norms, int_f1sq, m, qv])
        self.regimes.append(regime)
        self.flags.append(flags)

    def snap(self, t, X: SpectralField, norm_F0: float):
        if self.snapshots is not None:
            self.snapshots.append((t, X))
            self.snapshot_norms.append(norm_F0)

    def build(self, status, blowup, X, drift_evals, wall_s) -> TrajectoryRecord:
        """The record of a path that ended in the block-layout state ``X``."""
        data = np.frombuffer(self.data).reshape(-1, 8)
        return TrajectoryRecord(
            times=data[:, 0],
            norm_G=data[:, 1],
            norm_F0=data[:, 2],
            norm_F1=data[:, 3],
            norm_D=data[:, 4],
            int_F1sq=data[:, 5],
            regime=np.asarray(self.regimes),
            M=data[:, 6],
            QV=data[:, 7],
            flags=self.flags,
            status=status,
            blowup=blowup,
            seed=self.seed,
            snapshots=self.snapshots,
            final_state=X.as_full(),
            sup_norms=self.sup,
            snapshot_norm_F0=(
                None if self.snapshot_norms is None else np.asarray(self.snapshot_norms)
            ),
            trials=self.trials,
            rejections=self.rejections,
            level_steps=tuple(self.level_steps[: self.finest_level + 1]),
            drift_evals=drift_evals,
            wiener_draws=tuple(self.wiener_draws[: self.finest_level + 1]),
            wall_s=wall_s,
        )


class _LoopDrift:
    """The drift as the stepping loop evaluates it, with the weight stacks
    of the path's layout.  Every evaluation, of a loop state's drift or of
    an RK4 stage, is one call of it, and it counts them.  The drift ``A(X)``
    of a block field lies in its block, in the state's layout, so every
    stage and every step stays there."""

    __slots__ = ("A", "ladder_weights", "G_weights", "calls")

    def __init__(self, A, layout, components: int):
        self.A = A
        self.ladder_weights = layout.weights(A.ladder.exponents, components)
        self.G_weights = layout.weights((A.ladder.s_G,), components)
        self.calls = 0

    def __call__(self, X: SpectralField) -> SpectralField:
        self.calls += 1
        return self.A(X)

    def check_state(self, X: SpectralField) -> list[str]:
        return self.A.check_state(X)


class _StateCache:
    """A state of the loop with its ladder norms and its projected drift.

    The state's (G, F0, F1, D) norms are one :func:`weighted_norms` pass,
    made when the state is a trial state, where it is also the finiteness
    test: it raises :class:`NonFiniteFieldError` exactly when a coefficient
    is NaN or Inf, because a sum of nonnegative powers with positive weights
    is finite unless a term is not (or it overflowed, which the pass tells
    apart by a scan).  An accepted trial state becomes the current state with
    its norms, so the growth check, the saved row, the noise coefficient and
    the next step all read the same four numbers.

    The drift is evaluated on first use, through the loop drift, on the
    path's block.  A trial step that gets halved retries from the same state
    and reuses it and its G norm.
    """

    __slots__ = ("X", "loop_drift", "norms", "_drift", "_drift_nG")

    def __init__(self, X, loop_drift: _LoopDrift, norms):
        self.X = X
        self.loop_drift = loop_drift
        self.norms = norms
        self._drift = None
        self._drift_nG = None

    def drift(self) -> np.ndarray:
        """The projected drift's coefficients, in the state's layout."""
        if self._drift is None:
            self._drift = self.loop_drift(self.X).coeffs
        return self._drift

    def drift_norm_G(self) -> float:
        if self._drift_nG is None:
            self._drift_nG = weighted_norms(self.drift(), self.loop_drift.G_weights)[0]
        return self._drift_nG


def rk4_deterministic_step(
    X: SpectralField, A: _LoopDrift, dt: float, k1: np.ndarray
) -> SpectralField:
    """Classical 4-stage step for the deterministic phase dX = A_d(X) dt.

    ``X`` is a state in the loop drift's block and ``k1`` its drift's
    coefficients; every stage stays in the block, in ``X``'s layout.
    """
    grid, block = X.grid, X.block

    def stage(k, h):
        y = k * h
        y += X.coeffs
        return A(SpectralField(grid, y, block)).coeffs

    k2 = stage(k1, 0.5 * dt)
    k3 = stage(k2, 0.5 * dt)
    k4 = stage(k3, dt)
    out = k2 * 2.0
    out += k1
    out += k3 * 2.0
    out += k4
    out *= dt / 6.0
    out += X.coeffs
    return SpectralField(grid, out, block)


def _single_step(scheme, state: _StateCache, B, dW, h):
    """One trial step of size ``h`` from a loop state; returns (X_new, stiffness).

    The step reads the state's cached drift, its G norm and the state's
    ladder norms; an RK4 step takes the cached drift as its first stage and
    evaluates three more.  ``B`` is the noise on a stochastic step and None
    on a deterministic one.

    The stiffness indicator bounds the per-step size of the scheme: for the
    tamed scheme it is ``max(h*||A_d||_G, h*||B(X)||_G^2)`` (the taming
    denominators stay near 1 only while it is small), for plain EM the
    scale-free ``max(h*||A_d||_G/||X||_G, h*(theta ||X||^alpha)^2)``, the
    relative drift displacement and the relative noise quadratic variation
    of one step, so spikes refine at bounded cost.  The adaptive loop halves
    the step whenever it exceeds the configured cap; otherwise strong noise
    would be silently suppressed instead of taming the norm.
    """
    X = state.X
    if scheme == "RK4Deterministic":
        return rk4_deterministic_step(X, state.loop_drift, h, state.drift()), 0.0
    tamed = scheme == "TamedEulerMaruyama"
    norms = state.norms
    drift_size = h * state.drift_norm_G()
    stiffness = drift_size if tamed else drift_size / max(norms[0], 1e-300)
    out = state.drift() * (h / (1.0 + drift_size) if tamed else h)
    out += X.coeffs
    if B is not None:
        coeff = B.coefficient(norms)
        noise_size = h * (coeff * norms[0]) ** 2 if tamed else h * coeff * coeff
        stiffness = max(stiffness, noise_size)
        out += X.coeffs * (dW * coeff / (1.0 + noise_size) if tamed else dW * coeff)
    return SpectralField(X.grid, out, X.block), stiffness


def integrate_path(
    X0: SpectralField,
    A,
    B: NoiseSpec | None,
    stepper: StepperConfig,
    wiener: WienerPath | None = None,
    *,
    cutoff: int | None = None,
    seed: int | None = None,
    save_stride: int = 1,
    field_stride: int | None = None,
) -> TrajectoryRecord:
    """Integrate one path up to the horizon or blow-up.

    The initial state is projected to the Galerkin cutoff, which must lie in
    ``1 ... (n - 1)//3`` (default: the 2/3 dealiasing cutoff of the grid,
    the largest closure-exact choice).  A full one is read through its
    half, as the real field it stands for.  The record stores per-row norms
    in all four ladder spaces, the running integral of ||X||_F1^2, the
    regime label, and the raw martingale pair (M_t, <M>_t) accumulated from
    2<X, B(X)> dW in the case's envelope space.

    A row is saved every ``save_stride >= 1`` accepted steps and at the end;
    with a ``field_stride`` a snapshot at the times ``j * field_stride * dt``.
    The step floor is the stepper's ``dt * 2**-dt_min_exponent``.
    """
    return _adaptive_loop(X0, A, B, stepper, wiener, cutoff, seed, save_stride, field_stride)


def check_scheme_carries(scheme: str, noise_on: bool) -> None:
    """Raise ValueError when the noise is on and ``scheme`` is RK4, which cannot carry it."""
    if noise_on and scheme == "RK4Deterministic":
        raise ValueError("scheme RK4Deterministic is deterministic and cannot carry the noise")


def _adaptive_loop(X0, A, B, stepper, wiener, cutoff, seed, save_stride, field_stride, switch=None):
    """The adaptive dyadic stepping loop of plain and switching paths.

    A trial step is refined (level + 1, the Wiener path split by its bridge)
    when its state is not finite, when its stiffness exceeds the cap, when
    the F0 norm grew by more than the trigger, or when it crosses a
    switching level; at the floor the first two end the path and the last
    two are accepted.  The step coarsens again after four calm accepted
    steps on an even position.

    A crossing is bisected from the level in force when its first trial
    crossed, the pre-bisection level.  Once the step that switches the
    regime is accepted, the stepper climbs straight back: after every
    accepted step it drops levels while the position is even, with no
    four-step wait, until the pre-bisection level holds again; from there
    the four-calm-steps rule holds.  Each climb step after the first drops
    at least one level, so the climb costs at most
    ``dt_min_exponent - level_before`` steps.  The bisection's accepted
    halves and the climb tile the pre-bisection step with complementary
    binary digits, so together they take one step per level below it besides
    the crossing step, and each halving of the floor costs about one
    accepted step a crossing.  Any refinement during the climb ends it.  A bisection whose
    crossing vanishes on the finer steps lapses at the end of the
    pre-bisection step.

    Without ``switch`` every step runs the stepper's scheme with the noise
    on whenever ``B`` is, and no step crosses.  A switching controller
    (:mod:`stochtame.control`) provides ``stochastic`` (the next step
    carries the noise; otherwise it is an RK4 step), ``start(norm)`` (the
    initial row's flags), ``crosses(norm_new)`` (the trial state crosses the
    level in force) and ``accept(t, norm, norm_new, crossing)`` (its events
    on a step between these F0 norms; returns the new row's regime label).
    A step that changes the regime is always saved, and a crossing step
    restarts the coarsening count.
    """
    wall_start = time.perf_counter()
    noise_on = B is not None and B.theta > 0.0
    check_scheme_carries(stepper.scheme, noise_on)
    if noise_on and wiener is None:
        raise ValueError("a WienerPath is required when the noise is active")

    grid = X0.grid
    # the state lives in its block kernel's layout until the record is
    # built; reading it there is the Galerkin projection
    kernel = grid.half.kernel(cutoff)
    X = SpectralField(grid, kernel.read(X0.as_half().coeffs), kernel)
    A = _LoopDrift(A, kernel, len(X.coeffs))
    check_state = A.check_state
    cache = _StateCache(X, A, tuple(weighted_norms(X.coeffs, A.ladder_weights)))
    n0 = cache.norms[1]
    threshold = (
        stepper.blowup_threshold
        if stepper.blowup_threshold is not None
        else 1e8 * (1.0 + n0)
    )
    if threshold <= n0:
        raise ValueError(f"blowup_threshold {threshold} must exceed the initial norm {n0}")

    env_space = NOISE_CASES[B.case_label].envelope_space if noise_on else "F0"
    env_idx = LADDER_SPACES.index(env_space)

    max_level = stepper.dt_min_exponent
    rec = _RecordBuilder(seed, field_stride is not None, max_level)
    flags = "" if switch is None else switch.start(n0)
    label = ("S" if noise_on else "D") if switch is None else switch.regime
    int_f1 = m = qv = 0.0
    t = 0.0
    rec.visit(cache.norms)
    rec.add(t, cache.norms, int_f1, label, m, qv, flags)
    rec.snap(t, X, n0)

    n_base = int(round(stepper.t_end / stepper.dt))
    if abs(n_base * stepper.dt - stepper.t_end) > 1e-9 * max(1.0, stepper.t_end):
        n_base = math.ceil(stepper.t_end / stepper.dt - 1e-12)
    adapt, stiff_cap = stepper.adapt, stepper.stiff_cap
    growth = 1.0 + stepper.growth_trigger
    status, blowup = "completed", None
    level = 0
    pos = 0
    accepted_since_refine = 0
    steps_done = 0
    # pre-bisection level of the crossing being bisected, and the level the
    # stepper climbs back to once the regime has switched
    bisect_from = climb_to = None

    while pos < (n_base << level):
        h = stepper.dt * 2.0**-level
        stochastic = noise_on if switch is None else switch.stochastic
        scheme = stepper.scheme if stochastic or switch is None else "RK4Deterministic"
        if stochastic:
            dW = wiener.increment(pos, level)
            rec.wiener_draws[level] += 1
        else:
            dW = 0.0
        X_new, stiffness = _single_step(scheme, cache, B if stochastic else None, dW, h)

        rec.trials += 1
        norms = cache.norms
        failure = None
        crossing = False
        try:
            norms_new = weighted_norms(X_new.coeffs, A.ladder_weights)
        except NonFiniteFieldError:
            refine, cause, failure = True, "non_finite", ("numeric_error", None)
        else:
            norm_new = norms_new[1]
            crossing = switch is not None and switch.crosses(norm_new)
            if adapt and stiffness > stiff_cap:
                # deterministic unresolvable stiffness at the floor is the
                # discrete signature of a blow-up
                refine, cause, failure = True, "stiffness", ("blowup", (t, "dt_underflow"))
            else:
                # sampled growth: refine while possible, accept at the floor;
                # a crossing is bisected down to the floor
                grew = norm_new > growth * max(norms[1], 1e-300)
                refine = grew or (crossing and level < max_level)
                cause = "growth" if grew else "crossing"
        if refine and adapt and level < max_level:
            rec.rejections[cause] += 1
            if crossing and bisect_from is None:
                bisect_from = level
            climb_to = None
            level += 1
            rec.finest_level = max(rec.finest_level, level)
            pos <<= 1
            accepted_since_refine = 0
            continue
        if failure is not None:
            rec.rejections[cause] += 1
            status, blowup = failure
            break

        # accept
        int_f1 += norms[2] ** 2 * h
        if stochastic:
            b_pair = 2.0 * B.coefficient(norms) * norms[env_idx] ** 2
            m += b_pair * dW
            qv += b_pair**2 * h
        X = X_new
        cache = _StateCache(X, A, norms_new)
        rec.visit(norms_new)
        rec.level_steps[level] += 1
        pos += 1
        t = pos * h
        steps_done += 1
        accepted_since_refine = 0 if crossing else accepted_since_refine + 1
        before = label
        if switch is not None:
            label = switch.accept(t, norms[1], norm_new, crossing)
        if label != before:
            climb_to, bisect_from = bisect_from, None
        elif bisect_from is not None and pos % (1 << (level - bisect_from)) == 0:
            bisect_from = None  # past the pre-bisection step: nothing crossed

        if steps_done % save_stride == 0 or pos == (n_base << level) or label != before:
            rec.add(t, norms_new, int_f1, label, m, qv, ";".join(check_state(X)))
        # snapshots at the times j * field_stride * dt, which lie on every level
        if rec.snapshots is not None and pos % (field_stride << level) == 0:
            rec.snap(t, X, norm_new)

        if norm_new >= threshold:
            status, blowup = "blowup", (t, "norm_threshold")
            break

        # coarsen, staying on the dyadic grid: straight back to the
        # pre-bisection level after a crossing, else after a calm stretch
        if climb_to is not None:
            while level > climb_to and pos % 2 == 0:
                level -= 1
                pos >>= 1
                accepted_since_refine = 0
            if level == climb_to:
                climb_to = None
        elif level > 0 and accepted_since_refine >= 4 and pos % 2 == 0:
            level -= 1
            pos >>= 1
            accepted_since_refine = 0

    if rec.data[-8] != t:  # the last row's time
        rec.add(t, cache.norms, int_f1, label, m, qv, ";".join(check_state(X)))
    return rec.build(status, blowup, X, A.calls, time.perf_counter() - wall_start)
