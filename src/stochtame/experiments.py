"""Monte Carlo studies: cutoff-uniform norm control, stopping-time increment
statistics, the exponential law of the martingale record, tail-bound checks,
geometric-Brownian-motion stabilisation and drift assumption audits.

:func:`run_path` is the one recipe of a configured path: ``stochtame
simulate`` runs one, and :func:`run_ensemble` one for each (cutoff, path)
pair.  :func:`advised_noise` is the one route from an audit to the noise the
advisor advises.

Determinism: path seeds derive as ``base_seed + path_index``, the same seed
drives the same Brownian path at every Galerkin cutoff, and aggregation is
order independent, so identical configurations produce identical statistics.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from functools import partial
from itertools import permutations

import numpy as np
from scipy import stats as sps

from ._backend import envelope_chunk, tamed_gbm_chunk
from .config import (
    DEFAULT_K_GRID,
    RunConfig,
    build_drift,
    build_ensemble_stepper,
    build_grid,
    build_schedule,
    initial_state,
)
from .control import ValidationReport, control_run, validate_schedule
from .integrators import StepperConfig, TrajectoryRecord, integrate_path
from .models import (
    AssumptionConstants,
    DriftOperator,
    drift_pairing_report,
    lipschitz_quotient,
    random_state,
)
from .noise import (
    NOISE_CASES,
    AdvisedNoise,
    GbmSpec,
    NoiseSpec,
    WienerPath,
    advisor_constants,
    gbm_decay_criterion,
    gbm_exact,
    theta_advisor,
)
from .spectral import TorusGrid

# --- small statistics helpers -------------------------------------------------


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def mann_kendall_pvalue(values) -> float:
    """One-sided Mann-Kendall p-value against an increasing trend.

    Exact permutation distribution for n <= 8 (ties handled by permuting the
    observed multiset), normal approximation with tie-corrected variance
    otherwise.  All-equal input returns 1.0 (no evidence of trend).
    """
    v = [float(x) for x in values]
    n = len(v)
    if n < 2 or len(set(v)) == 1:
        return 1.0

    def s_stat(seq):
        s = 0
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                s += (seq[j] > seq[i]) - (seq[j] < seq[i])
        return s

    s_obs = s_stat(v)
    if n <= 8:
        perms = set(permutations(v))
        count = sum(1 for p in perms if s_stat(p) >= s_obs)
        return count / len(perms)
    _, counts = np.unique(v, return_counts=True)
    var = (n * (n - 1) * (2 * n + 5) - sum(t * (t - 1) * (2 * t + 5) for t in counts)) / 18.0
    if var <= 0:
        return 1.0
    z = (s_obs - 1) / math.sqrt(var) if s_obs > 0 else (s_obs + 1) / math.sqrt(var)
    return float(1.0 - sps.norm.cdf(z))


# --- ensembles ---------------------------------------------------------------


@dataclass
class PathOutcome:
    """What one path of an ensemble leaves for the tables: its statistics
    and, from its record, its fate and its step accounting (``trials``,
    ``rejections`` by cause, ``accepted_steps``, ``finest_level``,
    ``drift_evals``, the Wiener increments drawn and the loop's ``wall_s``).
    Two outcomes compare equal whatever their wall times."""

    seed: int
    status: str
    sup_sq: dict
    int_f1sq: float
    aldous: dict | None = None
    schedule_passed: bool | None = None
    alpha_dwell: float | None = None
    n_switch_pairs: int = 0
    blowup_reason: str = ""
    accepted_steps: int = 0
    trials: int = 0
    rejections: dict = field(default_factory=dict)
    finest_level: int = 0
    drift_evals: int = 0
    wiener_draws: int = 0
    wall_s: float = field(default=0.0, compare=False)


@dataclass
class SummaryStats:
    """Per-cutoff path outcomes plus the grids needed to tabulate them."""

    by_d: dict
    K_grid: tuple
    delta_grid: tuple | None

    def paths(self, d: int, completed_only: bool = False):
        out = self.by_d[d]
        if completed_only:
            out = [p for p in out if p.status != "numeric_error"]
        return out

    def n_numeric_failures(self, d: int) -> int:
        return sum(1 for p in self.by_d[d] if p.status == "numeric_error")

    def path_table(self):
        """One row per path, by cutoff and seed: its fate and its step
        accounting (the columns of :data:`~stochtame.trajio.PATHS_HEADER`)."""
        return [
            {
                "d": d,
                "seed": p.seed,
                "status": p.status,
                "blowup_reason": p.blowup_reason,
                "accepted_steps": p.accepted_steps,
                "trials": p.trials,
                **{f"rejected_{cause}": n for cause, n in p.rejections.items()},
                "finest_level": p.finest_level,
                "drift_evals": p.drift_evals,
                "wiener_draws": p.wiener_draws,
                "wall_s": p.wall_s,
            }
            for d in sorted(self.by_d)
            for p in self.by_d[d]
        ]

    # tables -----------------------------------------------------------------
    def sup_table(self, space: str = "F0"):
        """Rows (d, K, p_hat, ci_lo, ci_hi, n) for P(sup_t ||X||^2 >= K)."""
        return self._threshold_rows(lambda p: p.sup_sq[space])

    def int_table(self):
        """Rows (d, K, p_hat, ci_lo, ci_hi, n) for P(int ||X||_F1^2 >= K)."""
        return self._threshold_rows(lambda p: p.int_f1sq)

    def _threshold_rows(self, value):
        """The exceedance rows of ``value(path)`` over the cutoffs and K_grid."""
        rows = []
        for d in sorted(self.by_d):
            values = [value(p) for p in self.paths(d, completed_only=True)]
            rows.extend(_exceedance_row(values, K, d=d, K=float(K)) for K in self.K_grid)
        return rows

    def median_increment_scale(self) -> float:
        """Median over paths of the largest-window increment; the default eta.

        NaN when no path completed with increment samples.
        """
        if self.delta_grid is None:
            raise ValueError("no increment statistics were collected")
        dmax = max(self.delta_grid)
        vals = [
            p.aldous[dmax]
            for d in self.by_d
            for p in self.paths(d, completed_only=True)
            if p.aldous is not None
        ]
        return float(np.median(vals)) if vals else math.nan

    def aldous_table(self, eta: float | None = None):
        """Rows (d, delta, eta, p_hat, ci_lo, ci_hi, n) of increment exceedances.

        ``n`` counts the paths with increment samples; a cutoff without any
        reads p_hat 0 with the uninformative interval (0, 1).
        """
        if self.delta_grid is None:
            raise ValueError("no increment statistics were collected")
        eta = float(self.median_increment_scale() if eta is None else eta)
        rows = []
        for d in sorted(self.by_d):
            samples = [
                p.aldous for p in self.paths(d, completed_only=True) if p.aldous is not None
            ]
            rows.extend(
                _exceedance_row([a[delta] for a in samples], eta, d=d, delta=float(delta), eta=eta)
                for delta in self.delta_grid
            )
        return rows


def _exceedance_row(values, level, **keys) -> dict:
    """``keys``, then the fraction p_hat of ``values`` at or above ``level``,
    its Wilson interval and the sample count n (p_hat 0 when n = 0)."""
    n = len(values)
    k = sum(1 for v in values if v >= level)
    lo, hi = wilson_interval(k, n)
    return {**keys, "p_hat": k / n if n else 0.0, "ci_lo": lo, "ci_hi": hi, "n": n}


#: snapshots stacked at a time by :func:`_aldous_increments`
_WINDOW_CHUNK = 32


def _aldous_increments(record, delta_grid, seed, use_hitting: bool, ladder):
    """Per-window suprema ||X_{tau+t} - X_tau||_G, t <= delta, for one path.

    tau is either the first snapshot time at which the F0 norm reaches the
    path's own median level (a representative hitting time) or a uniform draw
    from [0, T/2]; both are snapped to the snapshot grid and clamped so the
    largest window fits before the horizon.  Increments are measured in the
    convergence-space norm G.

    The hitting level reads the F0 norms the stepper recorded with the
    snapshots.  The snapshots of the largest window are visited once, and the
    nested windows read one running maximum of their distances to X_tau.
    """
    snaps = record.snapshots
    if not snaps or len(snaps) < 3:
        return None
    times = np.asarray([t for t, _ in snaps])
    horizon = times[-1]
    dmax = max(delta_grid)
    latest = horizon - dmax
    if latest <= times[0]:
        return None
    if use_hitting:
        norms = record.snapshot_norm_F0
        level = float(np.median(norms))
        eligible = np.nonzero((norms >= level) & (times <= latest))[0]
        idx = int(eligible[0]) if len(eligible) else int(np.searchsorted(times, latest))
    else:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 7919)))
        target = rng.uniform(0.0, horizon / 2.0)
        idx = int(np.searchsorted(times, min(target, latest), side="right") - 1)
    idx = max(0, min(idx, len(times) - 2))
    t0 = times[idx]
    ref = snaps[idx][1]
    # each window holds the snapshots idx+1 .. end-1; their distances to
    # X_tau are computed in stacks of _WINDOW_CHUNK to bound the temporaries,
    # one dot product a row, so that a distance is sobolev_norm's of its
    # difference bit for bit, whatever the stack size
    ends = [int(np.searchsorted(times, t0 + delta + 1e-12, side="right")) for delta in delta_grid]
    last = max(ends)
    weight = ref.layout.weight(ladder.s_G, ref.components)
    dist = [np.zeros(1)]  # 0 stands for the empty window
    for lo in range(idx + 1, last, _WINDOW_CHUNK):
        diff = np.stack([f.coeffs for _, f in snaps[lo : min(lo + _WINDOW_CHUNK, last)]])
        diff -= ref.coeffs
        power = np.square(diff.view(np.float64)).reshape(len(diff), -1)
        dist.append(np.sqrt(np.vecdot(power, weight)))
    running = np.maximum.accumulate(np.concatenate(dist))
    return {float(delta): float(running[end - idx - 1]) for delta, end in zip(delta_grid, ends)}


def run_path(
    cfg: RunConfig,
    noise: NoiseSpec | None,
    stepper: StepperConfig,
    seed: int,
    cutoff: int | None = None,
    field_stride: int | None = None,
) -> tuple[TrajectoryRecord, ValidationReport | None]:
    """The path of ``cfg`` driven by the Wiener path of ``seed``, and the
    validation of its schedule (None without ``control.enabled``).

    The one recipe of a configured path: the config's initial state and
    drift, ``noise`` as :func:`~stochtame.config.build_noise` builds it, the
    Wiener path of ``seed`` when ``noise.theta > 0`` and ``stepper`` to its
    ``t_end``, switched by the config's schedule when ``control.enabled``.
    The path runs at ``cutoff`` (default: the grid's 2/3 cutoff), saves a row
    every ``output.save_stride`` accepted steps and, with a ``field_stride``,
    keeps snapshots.  It makes one call of this module's ``integrate_path``
    or ``control_run``, with the cutoff as a keyword.
    """
    X0 = initial_state(cfg.model, build_grid(cfg))
    drift = build_drift(cfg)
    wiener = WienerPath(seed, stepper.dt) if noise and noise.theta > 0 else None
    kw = {
        "cutoff": cutoff, "seed": seed,
        "save_stride": cfg.output.save_stride, "field_stride": field_stride,
    }
    schedule = build_schedule(cfg)
    if schedule is None:
        return integrate_path(X0, drift, noise, stepper, wiener, **kw), None
    record = control_run(X0, drift, noise, schedule, stepper, wiener, **kw)
    return record, validate_schedule(record, schedule)


def _run_one_path(cfg: RunConfig, noise: NoiseSpec | None, d: int, index: int) -> PathOutcome:
    """Path ``index`` of ``cfg``'s ensemble at cutoff ``d``, run with ``noise``."""
    seed = cfg.ensemble.base_seed + index
    stepper = build_ensemble_stepper(cfg)
    delta_grid = cfg.ensemble.delta_grid
    field_stride = max(1, int(min(delta_grid) / stepper.dt / 2.0)) if delta_grid else None
    rec, report = run_path(cfg, noise, stepper, seed, d, field_stride)

    aldous = None
    if delta_grid and rec.status == "completed":
        aldous = _aldous_increments(
            rec, delta_grid, seed, use_hitting=(index % 2 == 0), ladder=build_drift(cfg).ladder
        )
    rec.snapshots = None  # free field memory before aggregation
    return PathOutcome(
        seed=seed,
        status=rec.status,
        sup_sq=rec.sup_norm_sq,
        int_f1sq=float(rec.int_F1sq[-1]),
        aldous=aldous,
        schedule_passed=None if report is None else bool(report.passed),
        alpha_dwell=None if report is None else report.alpha_dwell,
        n_switch_pairs=0 if report is None else report.n_pairs,
        blowup_reason=rec.blowup[1] if rec.blowup else "",
        accepted_steps=rec.accepted_steps,
        trials=rec.trials,
        rejections=dict(rec.rejections),
        finest_level=rec.finest_level,
        drift_evals=rec.drift_evals,
        wiener_draws=sum(rec.wiener_draws),
        wall_s=rec.wall_s,
    )


def run_ensemble(cfg: RunConfig, noise: NoiseSpec | None, jobs: int = 1) -> SummaryStats:
    """Integrate every (cutoff, path) pair of a parsed config's ensemble and
    aggregate order-independently.

    Every path runs with ``noise``, as :func:`run_path` takes it: the
    caller builds it once, with :func:`~stochtame.config.build_noise`.
    Path ``j`` at cutoff ``d`` starts from the initial state projected to
    ``d``, is driven by the Wiener path of seed ``ensemble.base_seed + j``
    and runs the config's stepper (floor ``dt * 2**-dt_min_exponent``) to
    ``ensemble.T``, else ``stepper.t_end``, under the switching schedule when
    ``control.enabled``.  Its strides: a row every ``output.save_stride``
    accepted steps, and with ``ensemble.delta_grid`` a snapshot every
    ``min(delta_grid) / (2 dt)`` base steps.  The tables' thresholds are
    ``ensemble.K_grid``, else :data:`~stochtame.config.DEFAULT_K_GRID`.

    Numeric failures of individual paths are recorded as a separate outcome
    category, never raised.  ``jobs > 1`` distributes paths over processes;
    the aggregation result does not depend on scheduling.
    """
    e = cfg.ensemble
    tasks = [(d, j) for d in e.d_list for j in range(e.n_paths)]
    run = partial(_run_one_path, cfg, noise)
    ds, js = [d for d, _ in tasks], [j for _, j in tasks]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, ds, js, chunksize=4))
    else:
        results = list(map(run, ds, js))
    outcomes: dict[int, list[PathOutcome]] = {d: [] for d in e.d_list}
    for d, res in zip(ds, results):
        outcomes[d].append(res)
    for d in outcomes:
        outcomes[d].sort(key=lambda p: p.seed)
    return SummaryStats(
        by_d=outcomes,
        K_grid=e.K_grid or DEFAULT_K_GRID,
        delta_grid=tuple(map(float, e.delta_grid)) or None,
    )


# --- reports -------------------------------------------------------------------


@dataclass
class UniformControlReport:
    """Smallest grid thresholds controlling the ensemble uniformly over d."""

    space: str
    epsilon_target: float
    K1: float | None
    K2: float | None
    per_d_at_K1: dict
    trend_pvalue: float | None
    attained: bool


def _smallest_controlling_K(rows, K_grid, epsilon_target):
    for K in K_grid:
        sup_p = max(r["p_hat"] for r in rows if r["K"] == float(K))
        if sup_p <= epsilon_target:
            return float(K)
    return None


def uniform_control_report(
    stats: SummaryStats, epsilon_target: float, space: str = "F0"
) -> UniformControlReport:
    """Find (K1, K2): smallest thresholds with sup_d p_hat <= target for the
    running-sup and time-integral statistics, plus the cutoff trend p-value.
    """
    if len(stats.by_d) < 2:
        raise ValueError("uniform control needs at least two cutoffs")
    sup_rows = stats.sup_table(space)
    int_rows = stats.int_table()
    K1 = _smallest_controlling_K(sup_rows, stats.K_grid, epsilon_target)
    K2 = _smallest_controlling_K(int_rows, stats.K_grid, epsilon_target)
    per_d = {}
    trend_p = None
    if K1 is not None:
        per_d = {r["d"]: r["p_hat"] for r in sup_rows if r["K"] == K1}
        trend_p = mann_kendall_pvalue([per_d[d] for d in sorted(per_d)])
    return UniformControlReport(
        space=space,
        epsilon_target=epsilon_target,
        K1=K1,
        K2=K2,
        per_d_at_K1=per_d,
        trend_pvalue=trend_p,
        attained=K1 is not None and K2 is not None,
    )


# --- scalar laboratories --------------------------------------------------------


@dataclass
class GbmStudyRow:
    a: float
    b: float
    f0: float
    decay_criterion: bool
    threshold: float
    fraction_below: float
    closed_form_prob: float
    median_terminal: float


def gbm_study(
    specs, n_paths: int, T: float, seed: int = 0, threshold: float = 1e-2
) -> list[GbmStudyRow]:
    """Exact-solution sampling of the geometric Brownian motion at time T.

    No discretisation enters: ``f_T = f0 exp((a - b^2/2) T + b W_T)`` with
    ``W_T ~ N(0, T)``.  Reports the empirical fraction below
    ``threshold * f0`` next to the closed-form normal probability.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for spec in specs:
        w = rng.standard_normal(n_paths) * math.sqrt(T)
        log_ratio = (spec.a - spec.b**2 / 2.0) * T + spec.b * w
        frac = float(np.mean(log_ratio < math.log(threshold)))
        if spec.b > 0:
            exact = float(
                sps.norm.cdf(
                    (math.log(threshold) - (spec.a - spec.b**2 / 2.0) * T)
                    / (spec.b * math.sqrt(T))
                )
            )
        else:
            exact = float((spec.a * T) < math.log(threshold))
        rows.append(
            GbmStudyRow(
                a=spec.a,
                b=spec.b,
                f0=spec.f0,
                decay_criterion=gbm_decay_criterion(spec),
                threshold=threshold,
                fraction_below=frac,
                closed_form_prob=exact,
                median_terminal=float(spec.f0 * np.exp(np.median(log_ratio))),
            )
        )
    return rows


def gbm_strong_error_order(
    spec: GbmSpec,
    dt: float,
    T: float,
    n_paths: int,
    seed: int = 0,
) -> dict:
    """Measured strong order of the tamed scheme over the steps dt 2^-l,
    l = 0..3.

    The finest increments are drawn and each coarser level sums them
    pairwise, so every level runs on the same Brownian paths, and the exact
    terminal value uses each path's own W_T.  The order is the least-squares
    slope of log2(mean relative terminal error) against the level: the
    relative error keeps the lognormal tail paths from dominating the mean,
    and four levels scatter less across seeds than one halving.
    """
    levels = (0, 1, 2, 3)
    h_fine = dt * 2.0**-levels[-1]
    rng = np.random.default_rng(seed)
    dw = rng.standard_normal((int(round(T / h_fine)), n_paths)) * math.sqrt(h_fine)
    exact = gbm_exact(spec, dw.sum(axis=0), T)
    errors = {}
    for level in reversed(levels):
        x = np.full(n_paths, spec.f0, dtype=np.float64)
        tamed_gbm_chunk(x, spec.a, spec.b, np.ascontiguousarray(dw), dt * 2.0**-level)
        errors[level] = float(np.mean(np.abs(x - exact) / exact))
        dw = dw[0::2] + dw[1::2]
    order = -float(np.polyfit(levels, np.log2([errors[lv] for lv in levels]), 1)[0])
    return {"errors": errors, "order": order, "dt": dt, "n_paths": n_paths}


@dataclass
class ExpLawReport:
    epsilon: float
    n_paths: int
    dt: float
    T: float
    survival_at_1: float
    survival_target: float
    ks_stat: float
    ks_pvalue: float
    samples: np.ndarray


#: steps whose normals and bridge uniforms :func:`exp_law_samples` draws
#: and advances at a time
_EXP_LAW_CHUNK = 32


def exp_law_samples(
    epsilon: float,
    n_paths: int,
    dt: float,
    T: float,
    seed: int = 0,
    bridge: bool = True,
) -> np.ndarray:
    """Samples of E(eps) = sup_t (W_t - eps/2 t) on [0, T] for Brownian M.

    With ``bridge=True`` each step contributes the exact law of its interior
    supremum (a Brownian bridge maximum; the linear compensator folds into
    the endpoints), so up to the horizon truncation the samples follow
    Exp(eps) exactly.

    The normals and the bridge uniforms come from the two child streams of
    ``np.random.SeedSequence(seed)``, the normals from the first, so the
    samples depend on the seed alone and not on the block size.  Each block
    of ``_EXP_LAW_CHUNK`` steps draws its normals and its uniforms into two
    reused (block, P) buffers and is advanced at once.
    """
    normal_rng, uniform_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    n_steps = int(round(T / dt))
    z = np.zeros(n_paths)
    rec = np.zeros(n_paths)
    c = 0.5 * epsilon
    root_dt = math.sqrt(dt)
    normals = np.empty((min(_EXP_LAW_CHUNK, n_steps), n_paths))
    uniforms = np.empty_like(normals) if bridge else None
    for done in range(0, n_steps, _EXP_LAW_CHUNK):
        dw = normals[: min(_EXP_LAW_CHUNK, n_steps - done)]
        normal_rng.standard_normal(out=dw)
        dw *= root_dt
        u = None
        if bridge:
            u = uniforms[: len(dw)]
            uniform_rng.random(out=u)
            np.subtract(1.0, u, out=u)
        envelope_chunk(z, rec, dw, u, dt, c)
    return rec


def exp_law_study(
    epsilon: float,
    n_paths: int,
    dt: float = 1e-3,
    T: float = 50.0,
    seed: int = 0,
    bridge: bool = True,
) -> ExpLawReport:
    """Empirical law of the martingale record against Exp(eps)."""
    samples = exp_law_samples(epsilon, n_paths, dt, T, seed, bridge)
    survival = float(np.mean(samples >= 1.0))
    ks = sps.kstest(samples, "expon", args=(0.0, 1.0 / epsilon))
    return ExpLawReport(
        epsilon=epsilon,
        n_paths=n_paths,
        dt=dt,
        T=T,
        survival_at_1=survival,
        survival_target=math.exp(-epsilon),
        ks_stat=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        samples=samples,
    )


def revuz_yor_study(x_grid, y_grid, n_paths: int, seed: int = 0) -> list[dict]:
    """Brownian running suprema against the tail bound exp(-x^2/(2y)).

    The supremum over each segment between consecutive y values is sampled
    exactly through the Brownian bridge maximum, so the empirical
    probabilities are discretisation free and comparable to the reflection
    values 2(1 - Phi(x/sqrt(y))).
    """
    ys = sorted(float(y) for y in set(y_grid))
    rng = np.random.default_rng(seed)
    w = np.zeros(n_paths)
    rec = np.zeros(n_paths)
    rows = []
    prev = 0.0
    runmax = {}
    for y in ys:
        h = y - prev
        if h > 0:
            dw = rng.standard_normal((1, n_paths)) * math.sqrt(h)
            u = 1.0 - rng.random((1, n_paths))
            envelope_chunk(w, rec, np.ascontiguousarray(dw), u, h, 0.0)
        runmax[y] = rec.copy()
        prev = y
    from .noise import revuz_yor_bound

    for y in ys:
        for x in x_grid:
            x = float(x)
            k = int(np.sum(runmax[y] >= x))
            lo, hi = wilson_interval(k, n_paths)
            rows.append(
                {
                    "x": x,
                    "y": y,
                    "p_hat": k / n_paths,
                    "ci_lo": lo,
                    "ci_hi": hi,
                    "bound": revuz_yor_bound(x, y),
                    "exact": float(2.0 * (1.0 - sps.norm.cdf(x / math.sqrt(y)))),
                }
            )
    return rows


# --- assumption audit ------------------------------------------------------------


def _fit_slope(logx, logy):
    if len(logx) < 2:
        return 0.0
    return float(np.polyfit(logx, logy, 1)[0])


def default_audit_grid(dim: int) -> TorusGrid:
    return TorusGrid(dim, {1: 128, 2: 64, 3: 16}[dim])


def assumption_audit(
    model: DriftOperator,
    n_samples: int = 200,
    amplitude_grid=(0.25, 0.5, 1.0, 2.0, 4.0),
    seed: int = 0,
    grid: TorusGrid | None = None,
    epsilon: float = 0.25,
) -> tuple[AssumptionConstants, dict]:
    """Fit the drift growth constants from random fields at several amplitudes.

    Samples cycle through the amplitude grid and through three spectral decay
    rates (shapes), which decorrelates the ladder norms enough for the
    two-regressor exponent fits.  Exponents come from log-log regression, the
    constants from the maximal observed ratios (with the attaining seed
    recorded); the viscous dissipation coefficient is taken from the exact
    algebraic split rather than fitted.
    """
    if n_samples < 4:
        raise ValueError("need at least 4 samples")
    grid = grid or default_audit_grid(model.dim)
    lad = model.ladder
    decays = tuple(grid.dim / 2.0 + lad.s_D + off for off in (0.75, 1.5, 3.0))
    amps = tuple(float(a) for a in amplitude_grid)

    rows = []
    lips = []
    prev = Aprev = None
    for i in range(n_samples):
        amp = amps[i % len(amps)]
        decay = decays[(i // len(amps)) % len(decays)]
        f = random_state(model.kind, grid, decay, amp, seed + i)
        Af = model(f)
        rep = drift_pairing_report(f, model, Af)
        rows.append((seed + i, amp, rep))
        if prev is not None and (i % 3 == 0):
            lips.append((seed + i, lipschitz_quotient(model, prev, f, Aprev, Af)))
        prev, Aprev = f, Af

    tiny = 1e-300
    # one contiguous column per AssumptionReport field, in its field order
    mG, m0, m1, mD, pG, p0, p1, pD, nAG, diss = np.array([astuple(r) for _, _, r in rows]).T.copy()
    seeds = np.asarray([s for s, _, _ in rows])

    nonlin = p0 + diss  # exact viscous part removed
    pos = nonlin > tiny
    if pos.any():
        gamma1 = max(_fit_slope(np.log(m0[pos]), np.log(nonlin[pos])), 0.1)
        ratios = nonlin[pos] / m0[pos] ** gamma1
        C1 = float(np.max(ratios))
        c1_seed = int(seeds[pos][int(np.argmax(ratios))])
    else:
        gamma1, C1, c1_seed = 2.0, 0.0, int(seeds[0])
    C2 = float(model.params.nu)

    # D-pairing: quadratic in the D norm (the catalogue form), partner
    # exponent on the F1 norm fitted by regression of log(pD+ / mD^2)
    posD = pD > tiny
    gamma2 = 2.0
    if posD.any():
        gamma2_partner = max(
            _fit_slope(np.log(m1[posD]), np.log(pD[posD] / mD[posD] ** 2)), 0.1
        )
        CD = float(np.max(pD[posD] / (m1[posD] ** gamma2_partner * mD[posD] ** 2)))
    else:
        gamma2_partner, CD = 1.0, 0.0

    # F1-pairing: log(p1+/m1^2) ~ log C + gamma13 log m0
    pos1 = p1 > tiny
    if pos1.any():
        gamma13 = max(_fit_slope(np.log(m0[pos1]), np.log(p1[pos1] / m1[pos1] ** 2)), 0.1)
        r13 = p1[pos1] / (m0[pos1] ** gamma13 * m1[pos1] ** 2)
        C13 = float(np.max(r13))
    else:
        gamma13, C13 = 1.0, 0.0

    grow = nAG > tiny
    gamma_sup1 = max(_fit_slope(np.log(m0[grow]), np.log(nAG[grow])), 0.1) if grow.any() else 1.0
    gamma_sup2 = max(_fit_slope(np.log(m1[grow]), np.log(nAG[grow])), 0.1) if grow.any() else 1.0
    C_sup1 = float(np.max(nAG / np.maximum(m0**gamma_sup1, tiny)))
    C_sup2 = float(np.max(nAG / np.maximum(m1**gamma_sup2, tiny)))

    constants = AssumptionConstants(
        C1=C1,
        C2=C2,
        C3=0.0,
        gamma1=gamma1,
        gamma2=gamma2,
        gamma_sup1=gamma_sup1,
        gamma_sup2=gamma_sup2,
        gamma13=gamma13,
        alpha_emb=lad.m,
        beta_emb=1.0 - lad.m,
    )

    report = {
        "n_samples": n_samples,
        "amplitude_grid": list(amps),
        "decay_grid": list(decays),
        "C1_attaining_seed": c1_seed,
        "CD": CD,
        "gamma2_partner": gamma2_partner,
        "C13": C13,
        "C_sup1": C_sup1,
        "C_sup2": C_sup2,
        "max_abs_pair_G_rel": float(np.max(np.abs(pG) / np.maximum(mG * nAG, tiny))),
        "lipschitz_max": float(max((q for _, q in lips), default=0.0)),
        "lipschitz_attaining_seed": int(max(lips, key=lambda t: t[1])[0]) if lips else None,
        "interp_max_ratio": _interpolation_ratio(model, grid, seed, lad),
    }
    advised = {}
    for case in NOISE_CASES:
        try:
            adv = theta_advisor(case, advisor_constants(case, constants, report), epsilon)
        except ValueError as exc:
            advised[case] = {"error": str(exc)}
            continue
        checks = {
            "I": 2 * adv.alpha > gamma1,
            "II": 2 * adv.alpha > gamma1 - 2,
            "III": abs(adv.alpha - gamma13 / 2) < 1e-12,
        }
        advised[case] = {
            "theta": adv.theta,
            "alpha": adv.alpha,
            "inequality": adv.inequality,
            "exponent_check": bool(checks[case]),
        }
    report["advised"] = advised
    return constants, report


def advised_noise(
    drift: DriftOperator,
    case: str,
    epsilon: float,
    level: float,
    seed: int,
    n_samples: int = 200,
) -> AdvisedNoise:
    """The noise :func:`~stochtame.noise.theta_advisor` advises for ``case``
    at ``epsilon`` and ``level``, from an :func:`assumption_audit` of
    ``drift`` over ``n_samples`` states of seeds ``seed, seed + 1, ...``."""
    audit = assumption_audit(drift, n_samples=n_samples, seed=seed)
    return theta_advisor(case, advisor_constants(case, *audit), epsilon, level=level)


def _interpolation_ratio(model, grid, seed, lad, n: int = 64) -> float:
    from .spectral import interpolation_check

    worst = 0.0
    for i in range(n):
        f = random_state(model.kind, grid, grid.dim / 2.0 + lad.s_D + 1.0, 1.0, seed + 10_000 + i)
        lhs, rhs = interpolation_check(f, lad)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    return worst
