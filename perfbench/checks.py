"""Output checks, computed apart from the program.

Every function returns a list of failure messages; an empty list passes.
The checks use numpy, scipy and the standard library only: wavenumbers,
Sobolev sums, the Burgers nonlinearity, switching levels and the reference
probabilities are evaluated here, never taken from the program.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy import stats as sps

#: relative rounding allowance for quantities the program computes in float64
RTOL = 1e-10


def wavenumbers(n: int, dim: int) -> tuple[np.ndarray, ...]:
    """Integer wavenumber arrays in numpy fft order, broadcast to (n,)*dim."""
    k1 = np.fft.fftfreq(n, d=1.0 / n)
    axes = []
    for a in range(dim):
        shape = [1] * dim
        shape[a] = n
        axes.append(np.broadcast_to(k1.reshape(shape), (n,) * dim))
    return tuple(axes)


def sobolev_norm(coeffs: np.ndarray, s: float) -> float:
    """sqrt(sum_k (1+|k|^2)^s |c_k|^2) over components; coeffs is (C, n, ..., n)."""
    dim = coeffs.ndim - 1
    ksq = sum(k.astype(float) ** 2 for k in wavenumbers(coeffs.shape[1], dim))
    return float(np.sqrt(np.sum((1.0 + ksq) ** s * np.abs(coeffs) ** 2)))


def _nondecreasing(values, slack=0.0) -> bool:
    v = np.asarray(values, dtype=float)
    return bool(np.all(np.diff(v) >= -slack))


# --- field paths ----------------------------------------------------------------


def check_field_path(record, cutoff: int, ladder: tuple, T: float) -> list[str]:
    """Completion, Hermitian symmetry, cutoff, norms and monotone columns."""
    fails = []
    if record.status != "completed":
        return [f"path status {record.status} {record.blowup}"]
    c = np.asarray(record.final_state.coeffs)
    dim = c.ndim - 1
    n = c.shape[1]
    scale = max(float(np.max(np.abs(c))), 1e-300)

    mirror = np.conj(c[(slice(None),) + np.ix_(*[(-np.arange(n)) % n] * dim)])
    if float(np.max(np.abs(c - mirror))) > 1e-12 * scale:
        fails.append("final state is not Hermitian")

    kinf = np.max(np.abs(np.stack(wavenumbers(n, dim))), axis=0)
    if np.any(c[:, kinf > cutoff] != 0):
        fails.append(f"final state has coefficients beyond the cutoff {cutoff}")

    own = [sobolev_norm(c, s) for s in ladder]
    last = (record.norm_G[-1], record.norm_F0[-1], record.norm_F1[-1], record.norm_D[-1])
    for name, got, want in zip(("G", "F0", "F1", "D"), last, own):
        if abs(got - want) > RTOL * max(want, 1e-300):
            fails.append(f"last-row norm {name} = {got!r}, recomputed {want!r}")

    G, F0, F1, D = (np.asarray(a) for a in (record.norm_G, record.norm_F0, record.norm_F1, record.norm_D))
    slack = 1.0 + 1e-12
    if not (np.all(G <= F0 * slack) and np.all(F0 <= F1 * slack) and np.all(F1 <= D * slack)):
        fails.append("a row breaks G <= F0 <= F1 <= D")
    s_G, s_F0, s_F1, _ = ladder
    m = (s_F0 - s_G) / (s_F1 - s_G)
    if not np.all(F0 <= F1**m * G ** (1.0 - m) * slack):
        fails.append("a row breaks ||X||_F0 <= ||X||_F1^m ||X||_G^(1-m)")

    for col in ("times", "int_F1sq", "QV"):
        if not _nondecreasing(getattr(record, col)):
            fails.append(f"column {col} decreases")
    if abs(record.times[-1] - T) > 1e-9 * max(1.0, T):
        fails.append(f"times end at {record.times[-1]!r}, not at T = {T!r}")
    return fails


def burgers_drift(c: np.ndarray, cutoff: int) -> np.ndarray:
    """-P_d(u u_x) by direct convolution of the retained Fourier modes.

    ``c`` holds the 1D coefficients (n,) in fft order; the result has the
    same layout, zero beyond the cutoff.
    """
    n = c.shape[0]
    k = np.arange(-cutoff, cutoff + 1)
    u = c[k % n]
    ux = 1j * k * u
    conv = np.convolve(u, ux)[cutoff : 3 * cutoff + 1]  # modes -d..d of u*u_x
    out = np.zeros(n, dtype=complex)
    out[k % n] = -conv
    return out


def check_burgers_drift(program_drift: np.ndarray, state: np.ndarray, cutoff: int) -> list[str]:
    """The program's projected drift against the direct convolution, and
    its L2 pairing with the state (zero for the projected nonlinearity)."""
    fails = []
    u = state[0]
    mine = burgers_drift(u, cutoff)
    got = program_drift[0]
    scale = max(float(np.max(np.abs(mine))), float(np.max(np.abs(u))) ** 2 * cutoff, 1e-300)
    if float(np.max(np.abs(got - mine))) > 1e-9 * scale:
        fails.append("drift differs from -P_d(u u_x)")
    pair = float(np.sum((np.conj(u) * got).real))
    bound = 1e-10 * math.sqrt(float(np.sum(np.abs(u) ** 2)) * float(np.sum(np.abs(got) ** 2)))
    if abs(pair) > max(bound, 1e-300):
        fails.append(f"L2 pairing of drift and state is {pair!r}, not zero")
    return fails


def check_height_tendency(program_drift: np.ndarray) -> list[str]:
    """The shallow-water height tendency -div(h u) has zero mean."""
    mean = program_drift[(2,) + (0,) * (program_drift.ndim - 1)]
    scale = max(float(np.max(np.abs(program_drift))), 1e-300)
    if abs(mean) > 1e-13 * scale:
        return [f"height tendency has mean {mean!r}"]
    return []


# --- tables ---------------------------------------------------------------------


def read_table(path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def wilson(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval of k successes in n trials."""
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def check_tables(out_dir, records, aldous: bool) -> list[str]:
    """Uniform-control and time-integral p_hat fall with K, Aldous p_hat
    rises with delta, and every p_hat lies inside its own interval.

    ``records`` holds the round's (cutoff, trajectory record) pairs.  Each
    uniform-control and time-integral row must also equal the share counted
    here from them: paths with max_t ||X||_F0^2 >= K (every accepted step is a
    row at save stride 1) or with int ||X||_F1^2 >= K, with its Wilson
    interval and path count.
    """
    out = Path(out_dir)
    fails = []
    tables = [("uniform_control.csv", "K", -1), ("time_integral.csv", "K", -1)]
    if aldous:
        tables.append(("aldous.csv", "delta", +1))
    for name, axis, direction in tables:
        rows = read_table(out / name)
        if not rows:
            fails.append(f"{name} is empty")
            continue
        for r in rows:
            if not r["ci_lo"] <= r["p_hat"] <= r["ci_hi"]:
                fails.append(f"{name}: p_hat outside its interval at d={r['d']}")
                break
        for d in sorted({r["d"] for r in rows}):
            series = sorted((r[axis], r["p_hat"]) for r in rows if r["d"] == d)
            p = [direction * v for _, v in series]
            if not _nondecreasing(p):
                word = "increases with K" if direction < 0 else "decreases with delta"
                fails.append(f"{name}: p_hat {word} at d={d}")
        if name != "aldous.csv":
            fails += _table_counts(name, rows, records)
    return fails


def _table_counts(name, rows, records) -> list[str]:
    by_d = {}
    for cutoff, rec in records:
        if name == "uniform_control.csv":
            value = float(np.max(np.asarray(rec.norm_F0) ** 2))
        else:
            value = float(rec.int_F1sq[-1])
        by_d.setdefault(cutoff, []).append(value)
    for r in rows:
        values = by_d.get(int(r["d"]), [])
        n = len(values)
        k = sum(1 for v in values if v >= r["K"])
        if r["n"] != n or not n:
            return [f"{name}: n = {r['n']:g} at d={r['d']:g}, {n} paths ran"]
        want = (k / n, *wilson(k, n))
        got = (r["p_hat"], r["ci_lo"], r["ci_hi"])
        if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
            return [f"{name}: row d={r['d']:g} K={r['K']!r} reads {got}, counted {want}"]
    return []


# --- switching schedule --------------------------------------------------------


def switching_levels(K: float, C: float) -> tuple[float, float]:
    """(sqrt(e^{2K} - C), sqrt(e^K - C))."""
    return math.sqrt(math.exp(2.0 * K) - C), math.sqrt(math.exp(K) - C)


def check_schedule(events, K: float, C: float) -> list[str]:
    """Alternation, nondecreasing times, bracketing and the levels."""
    fails = []
    switching = [e for e in events if e.kind in ("tau", "rho")]
    if not switching:
        return ["no switching event"]
    for j, e in enumerate(switching):
        want = "tau" if j % 2 == 0 else "rho"
        if e.kind != want:
            fails.append(f"event {j} is {e.kind}, expected {want}")
            break
    if not _nondecreasing([e.time for e in events]):
        fails.append("event times decrease")
    k_now = K
    for e in events:
        if e.kind == "escalate":
            k_now = 2.0 * k_now
        hi, lo = switching_levels(k_now, C)
        if e.K != k_now or abs(e.level_hi - hi) > 1e-12 * hi or abs(e.level_lo - lo) > 1e-12 * lo:
            fails.append(f"{e.kind} at t={e.time}: levels ({e.level_hi}, {e.level_lo}) != ({hi}, {lo})")
            continue
        if e.kind == "escalate":
            continue
        level = hi if e.kind == "tau" else lo
        lo_n, hi_n = min(e.norm_before, e.norm), max(e.norm_before, e.norm)
        at_start = e.kind == "tau" and e.time == 0.0 and e.norm >= level
        if not (lo_n <= level <= hi_n or at_start):
            fails.append(f"{e.kind} at t={e.time} does not bracket its level {level}")
    return fails


# --- scalar studies ------------------------------------------------------------

#: KS threshold per exp-law study.  An exact sampler gives a uniform p-value,
#: so p > 0.01 would fail one correct study in a hundred; 1e-6 keeps false
#: alarms out of a whole benchmark campaign while a sampler without the
#: bridge (endpoint maxima only) still scores p < 1e-20 at the sizes used.
KS_MIN_P = 1e-6


def check_exp_law(report, epsilon: float) -> list[str]:
    fails = []
    samples = np.asarray(report.samples)
    ks = sps.kstest(samples, "expon", args=(0.0, 1.0 / epsilon))
    if not ks.pvalue > KS_MIN_P:
        fails.append(f"exp-law KS p = {ks.pvalue:.3g} against Exp({epsilon})")
    survival = float(np.mean(samples >= 1.0))
    if abs(survival - math.exp(-epsilon)) > 0.03:
        fails.append(f"exp-law survival at 1 is {survival:.4f}, not {math.exp(-epsilon):.4f}")
    if report.survival_at_1 != survival:
        fails.append("reported survival differs from the samples")
    return fails


#: reflection values must lie within this many binomial standard errors of
#: p_hat; a 95% interval would miss one point in twenty on a correct sampler
Z_REFLECTION = 5.0


def check_revuz_yor(rows, n_paths: int) -> list[str]:
    fails = []
    for r in rows:
        x, y = r["x"], r["y"]
        bound = math.exp(-x * x / (2.0 * y))
        exact = math.erfc(x / math.sqrt(2.0 * y))  # 2(1 - Phi(x / sqrt(y)))
        where = f"x={x}, y={y}"
        if not r["ci_lo"] <= r["p_hat"] <= r["ci_hi"]:
            fails.append(f"revuz-yor p_hat outside its interval at {where}")
        if not r["ci_hi"] <= bound:
            fails.append(f"revuz-yor ci_hi {r['ci_hi']:.4g} above the bound {bound:.4g} at {where}")
        se = math.sqrt(exact * (1.0 - exact) / n_paths) + 1.0 / n_paths
        if abs(r["p_hat"] - exact) > Z_REFLECTION * se:
            fails.append(f"revuz-yor p_hat {r['p_hat']:.4g} far from the reflection value {exact:.4g} at {where}")
    return fails


def check_order(slope: float) -> list[str]:
    if not 0.3 <= slope <= 0.7:
        return [f"strong-order slope {slope:.3f} outside [0.3, 0.7]"]
    return []
