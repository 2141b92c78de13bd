"""Taming noise, scalar Wiener machinery and the 1D SDE laboratory.

The stochastic term is the rank-one superlinear multiplier

    B(X) = theta * ||X||_{F_i}^alpha * X,

driven by a single scalar Brownian motion.  Its scalar coefficient
``theta * ||X||_{F_i}^alpha`` has one definition,
:meth:`NoiseSpec.coefficient`, read from a state's four ladder norms; the
Euler steps and the martingale pair of the stepping loop both take it from
there.  Because B(X) points along X, the Hilbert-Schmidt norm of the noise
collapses to ``||B(X)||_{F_i}`` and every norm identity used by the
envelope computations holds verbatim, e.g.
``||B(X)||_{F_i}^2 = theta^2 ||X||_{F_i}^(2*alpha+2)``.

Three regimes pair the space of the initial state with the norm entering the
noise (:data:`NOISE_CASES`, the one table of these facts):

* case I   - X0 in F0, noise norm F0 (viscous compressible models),
* case II  - X0 in D,  noise norm F1 (inviscid compressible models),
* case III - X0 in F1, noise norm F0 (incompressible models).

The 1D laboratory holds the geometric Brownian motion with its explicit
solution ``f_t = f0 exp((a - b^2/2) t + b W_t)`` (decay to zero exactly when
``b^2 > 2a``, strict), the classical scale function

    s(x) = int_c^x exp(-int_c^y 2 mu(z)/sigma(z)^2 dz) dy,

and the pathwise record of a martingale M with quadratic variation <M>,

    E(eps) = sup_t (M_t - eps/2 <M>_t),

which for a driftless Brownian integrand is Exp(eps)-distributed.  The
record has one definition, the kernel
:func:`~stochtame._backend.envelope_chunk` that the exponential-law study
runs; a field path keeps only the raw pair M_t, <M>_t of its stepping loop
(the record's ``M`` and ``QV`` columns).

The tail estimate for a continuous local martingale Y vanishing at zero is
implemented in its decaying form ``P(sup Y >= x, <Y> <= y) <= exp(-x^2/(2y))``
from the classical source; the inequality is used with Brownian oracles in the
Monte Carlo suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import integrate

from .spectral import LADDER_SPACES


@dataclass(frozen=True)
class NoiseCase:
    """The ladder spaces of one noise case and the constant its advisor takes.

    ``noise_space`` holds the norm in B(X), ``initial_space`` the least space
    the initial state must lie in, ``envelope_space`` the norm whose square
    the martingale of the envelope tracks, and ``advisor_constant`` the
    audited constant :func:`theta_advisor` takes as C1.
    """

    noise_space: str
    initial_space: str
    envelope_space: str
    advisor_constant: str


NOISE_CASES = {
    "I": NoiseCase("F0", "F0", "F0", "C1"),
    "II": NoiseCase("F1", "D", "F0", "C1"),
    "III": NoiseCase("F0", "F1", "F1", "C13"),
}


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class NoiseSpec:
    """Strength theta, superlinearity alpha and the ladder norm in B(X).

    ``theta = 0`` reduces the stochastic equation to the deterministic one
    exactly.  The case label is tied to the norm space: F1 forces case II,
    F0 leaves I or III (distinguished by where the initial state lives).
    """

    theta: float
    alpha: float
    norm_space: str = "F0"
    case_label: str = "I"
    #: position of the noise norm in the (G, F0, F1, D) norms
    _index: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.theta < 0 or self.alpha < 0:
            raise ValueError("theta and alpha must be nonnegative")
        if self.case_label not in NOISE_CASES:
            raise ValueError(f"case_label must be I, II or III, got {self.case_label!r}")
        expected = NOISE_CASES[self.case_label].noise_space
        if self.norm_space != expected:
            raise ValueError(
                f"case {self.case_label} takes the noise norm in {expected}, "
                f"not {self.norm_space}"
            )
        object.__setattr__(self, "_index", LADDER_SPACES.index(self.norm_space))

    def coefficient(self, norms: tuple[float, float, float, float]) -> float:
        """theta * ||X||_{F_i}^alpha, from the (G, F0, F1, D) norms of X."""
        return self.theta * norms[self._index] ** self.alpha

    @classmethod
    def for_case(cls, theta: float, alpha: float, case: str) -> "NoiseSpec":
        """The spec of a noise case, with the noise norm the case takes."""
        facts = NOISE_CASES.get(case)
        return cls(theta, alpha, facts.noise_space if facts else "", case)

    @property
    def required_initial_space(self) -> str:
        return NOISE_CASES[self.case_label].initial_space

    def admits_initial_space(self, declared: str) -> bool:
        """True when a state declared in ``declared`` qualifies for this case:
        the declared space embeds into the required one."""
        if declared not in LADDER_SPACES:
            raise ValueError(f"unknown ladder space {declared!r}")
        return LADDER_SPACES.index(declared) >= LADDER_SPACES.index(self.required_initial_space)


# --- scalar Wiener path with dyadic bridge refinement -----------------------

_MASK = (1 << 64) - 1
_GOLDEN, _MUL1, _MUL2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
#: the word that separates the second uniform of a Box-Muller pair from the first
_SECOND = 0xD1B54A32D192ED03
#: base increments drawn together, one vectorised hash pass each
_BLOCK = 256


def _mix(x: int) -> int:
    # splitmix64 finaliser: cheap, well-distributed counter hash
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * _MUL1) & _MASK
    x = ((x ^ (x >> 27)) * _MUL2) & _MASK
    return x ^ (x >> 31)


def _mix_array(x: np.ndarray) -> np.ndarray:
    """:func:`_mix` of every word of a uint64 array (its arithmetic wraps)."""
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MUL1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MUL2)
    return x ^ (x >> np.uint64(31))


def _normal(h: int) -> float:
    """The standard normal of the chained key hash ``h``: a Box-Muller draw
    from the uniforms of ``h`` and ``h ^ _SECOND``."""
    u1 = (_mix(h) >> 11) * 2.0**-53
    u2 = (_mix(h ^ _SECOND) >> 11) * 2.0**-53
    return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)


def _normals(h: np.ndarray) -> np.ndarray:
    """:func:`_normal` of every hash of a uint64 array, bit for bit.

    The hashes and uniforms are numpy words and floats; the logarithm and
    cosine are ``math``'s, element by element, because numpy's differ from
    them in the last bit for some arguments.  The other operations are
    single IEEE operations, the same in both.
    """
    u1 = (_mix_array(h) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    u2 = (_mix_array(h ^ np.uint64(_SECOND)) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    log = np.fromiter(map(math.log, (1.0 - u1).tolist()), np.float64, len(h))
    cos = np.fromiter(map(math.cos, ((2.0 * math.pi) * u2).tolist()), np.float64, len(h))
    return np.sqrt(-2.0 * log) * cos


class WienerPath:
    """Scalar Brownian increments on the dyadic refinements of a base grid.

    ``increment(i, level)`` returns W((i+1)h) - W(ih) with
    ``h = dt_base * 2^-level``.  Each refinement is a Brownian-bridge split:
    given the parent increment ``P`` over ``2h``, the two children are
    ``P/2 + sqrt(2h)/2 * xi`` and ``P/2 - sqrt(2h)/2 * xi`` with ``xi`` standard
    normal, so each has mean ``P/2`` and conditional variance ``h/2``.
    Unconditionally the children are i.i.d. ``N(0, h)``, so every level is a
    Brownian motion sampled at step h.  Base increments and every bridge midpoint
    draw are keyed by ``(seed, interval, level, offset)``, so values do not
    depend on the order in which they are requested, refinement never changes
    an already-delivered increment, and identical seeds give identical paths.
    Children reconstruct their parent to within one float rounding per split
    (the split itself is deterministic, so repeated queries are bit-equal).

    The key of a draw is hashed by chained splitmix64 words, a counter-based
    generator, so draws can be made in any grouping without changing a bit.
    Base increments are drawn in aligned blocks of ``_BLOCK`` base intervals,
    one vectorised hash pass a block, and only the block of the last base
    interval asked for is kept.  Bridge draws are made one split at a time,
    each giving both children, and kept only for the base interval of the
    last refined request: a path moves forward in time, so the values of a
    passed interval are dropped, and asked for again they are drawn again,
    bit for bit.  The memory of a path is therefore one block and the splits
    of one base interval, however long or deeply refined the path is.
    """

    def __init__(self, seed: int, dt_base: float):
        if dt_base <= 0:
            raise ValueError("dt_base must be positive")
        self.seed = int(seed)
        self.dt_base = float(dt_base)
        self._sqrt_dt = math.sqrt(self.dt_base)
        self._seed_word = _mix(self.seed & _MASK)
        self._draw_block(0)
        self._bridge_base = -1
        #: the bridge values (level, offset) of base interval _bridge_base
        self._bridge: dict[tuple[int, int], float] = {}
        #: the hashed words (seed, _bridge_base, level), one per level
        self._level_words: dict[int, int] = {}

    def increment(self, index: int, level: int = 0) -> float:
        if level == 0 and 0 <= index - self._block_start < _BLOCK:
            return self._block[index - self._block_start]
        if level < 0 or index < 0:
            raise ValueError("index and level must be nonnegative")
        base = index >> level
        if level == 0:
            return self._base_increment(base)
        if base != self._bridge_base:
            self._bridge_base = base
            self._bridge = {}
            self._level_words = {}
        return self._split(base, level, index - (base << level))

    def _draw_block(self, start: int) -> None:
        """Draw the base increments of the intervals ``start ... start + _BLOCK - 1``."""
        bases = np.arange(_BLOCK, dtype=np.uint64) + np.uint64(start & _MASK)
        # the words (base, 0, 0): level and offset 0 still mix
        h = _mix_array(_mix_array(_mix_array(np.uint64(self._seed_word) ^ bases)))
        self._block = (self._sqrt_dt * _normals(h)).tolist()
        self._block_start = start

    def _base_increment(self, base: int) -> float:
        if not 0 <= base - self._block_start < _BLOCK:
            self._draw_block(base - base % _BLOCK)
        return self._block[base - self._block_start]

    def _split(self, base: int, level: int, offset: int) -> float:
        """The increment at ``offset`` of ``level`` inside base interval
        ``base``, the one the bridge values are kept for."""
        value = self._bridge.get((level, offset))
        if value is not None:
            return value
        if level == 1:
            parent = self._base_increment(base)
        else:
            parent = self._split(base, level - 1, offset >> 1)
        word = self._level_words.get(level)
        if word is None:
            word = self._level_words[level] = _mix(_mix(self._seed_word ^ (base & _MASK)) ^ level)
        xi = _normal(_mix(word ^ (offset | 1)))  # one draw per split
        h_parent = self.dt_base * 2.0 ** -(level - 1)
        half = 0.5 * parent + 0.5 * math.sqrt(h_parent) * xi
        even = offset & ~1
        self._bridge[(level, even)] = half
        self._bridge[(level, even | 1)] = parent - half
        return half if offset == even else parent - half


# --- geometric Brownian motion lab ------------------------------------------


@dataclass(frozen=True)
class GbmSpec:
    """dX = a X dt + b X dW with X_0 = f0 > 0."""

    a: float
    b: float
    f0: float = 1.0

    def __post_init__(self):
        if self.f0 <= 0:
            raise ValueError("f0 must be positive")


def gbm_exact(spec: GbmSpec, W_t: float, t: float):
    """f0 * exp((a - b^2/2) t + b W_t); vectorises over W_t."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be nonnegative")
    return spec.f0 * np.exp((spec.a - spec.b**2 / 2.0) * t + spec.b * np.asarray(W_t))


def gbm_decay_criterion(spec: GbmSpec) -> bool:
    """Almost-sure decay flag b^2 > 2a, strict (equality counts as no decay)."""
    return spec.b**2 > 2.0 * spec.a


# --- scale function -----------------------------------------------------------


@dataclass(frozen=True)
class ScaleFunctionSpec:
    """Drift mu(x), diffusion sigma(x) > 0 and the anchor point c."""

    mu: callable
    sigma: callable
    c: float = 1.0


def scale_function(spec: ScaleFunctionSpec, x: float, rel_tol: float = 1e-10) -> float:
    """s(x) = int_c^x exp(-int_c^y 2 mu/sigma^2) dy by adaptive quadrature.

    Strictly increasing with s(c) = 0.  Raises :class:`DomainError` when the
    diffusion coefficient vanishes anywhere on the integration interval.
    """
    lo, hi = sorted((spec.c, float(x)))
    if hi > lo:
        probe = np.linspace(lo, hi, 257)
        sig = np.asarray([spec.sigma(p) for p in probe], dtype=float)
        if np.any(sig <= 0.0) or not np.all(np.isfinite(sig)):
            raise DomainError("sigma must stay positive on the integration interval")

    def log_density(y: float) -> float:
        val, _ = integrate.quad(
            lambda z: 2.0 * spec.mu(z) / spec.sigma(z) ** 2,
            spec.c,
            y,
            epsrel=rel_tol,
            epsabs=0.0,
            limit=200,
        )
        return val

    result, _ = integrate.quad(
        lambda y: math.exp(-log_density(y)),
        spec.c,
        x,
        epsrel=rel_tol,
        epsabs=0.0,
        limit=200,
    )
    return result


def gbm_scale_closed_form(a: float, b: float, c: float, x: float) -> float:
    """Exact s(x) for mu = a z, sigma = b z: the integrand is (y/c)^(-2a/b^2)."""
    q = 2.0 * a / b**2
    if abs(q - 1.0) < 1e-14:
        return c * math.log(x / c)
    return c**q * (x ** (1.0 - q) - c ** (1.0 - q)) / (1.0 - q)


# --- martingale tail bound -----------------------------------------------------


def revuz_yor_bound(x: float, y: float) -> float:
    """exp(-x^2 / (2y)): tail bound for sup of a local martingale with <Y> <= y."""
    if x <= 0 or y <= 0:
        raise ValueError("x and y must be positive")
    return math.exp(-(x**2) / (2.0 * y))


# --- sufficient noise strength per case --------------------------------------


@dataclass(frozen=True)
class AdvisedNoise:
    """Advisor output: the noise spec plus the inequality it enforces."""

    theta: float
    alpha: float
    case_label: str
    inequality: str

    def spec(self) -> NoiseSpec:
        return NoiseSpec.for_case(self.theta, self.alpha, self.case_label)


#: the envelope offset C of case I, the margin of 2*alpha over the exponent
#: bound of cases I and II, and the relative margin of theta over the strict
#: bound of case III
_ADVISOR_OFFSET = 1.0
_ALPHA_MARGIN = 0.25
_THETA_MARGIN = 0.05


def theta_advisor(case: str, constants, epsilon: float, level: float = 2.0) -> AdvisedNoise:
    """Smallest noise strength satisfying the case's sufficient condition.

    * case I: needs ``2*alpha > gamma1``; theta is the smallest value making
      the log-envelope drift numerator nonpositive for every norm value
      ``m >= level`` (with envelope offset C), i.e.

          theta^2 * ((1-2 eps) L^4 - C L^2) >= 2 C1 (C + L^2).

    * case II: the explicit choice ``theta = 2 C1 / (1/2 - eps)`` with
      ``2*alpha > gamma1 - 2``.

    * case III: ``2 C1 - 2 (1-eps) theta^2 < 0`` gives
      ``theta > sqrt(C1/(1-eps))`` (a strict inequality, hence the margin),
      and ``alpha = gamma13 / 2`` exactly.

    ``constants`` carries the audited C1/gamma values, with C1 the constant
    the case takes (:func:`advisor_constants`); C1 = 0 returns theta = 0 in
    every case.
    """
    check_advisor_inputs(case, epsilon, level)
    C1 = float(constants.C1)
    if C1 < 0:
        raise ValueError("C1 must be nonnegative")

    if case == "I":
        gamma1 = float(constants.gamma1)
        alpha = gamma1 / 2.0 + _ALPHA_MARGIN
        denom = (1.0 - 2.0 * epsilon) * level**4 - _ADVISOR_OFFSET * level**2
        theta = math.sqrt(2.0 * C1 * (_ADVISOR_OFFSET + level**2) / denom)
        ineq = (
            f"theta^2*((1-2*{epsilon})*{level}^4 - {_ADVISOR_OFFSET}*{level}^2) >= "
            f"2*{C1}*({_ADVISOR_OFFSET} + {level}^2) and 2*alpha > gamma1 = {gamma1}"
        )
    elif case == "II":
        gamma1 = float(constants.gamma1)
        alpha = max(0.0, (gamma1 - 2.0) / 2.0 + _ALPHA_MARGIN)
        theta = 2.0 * C1 / (0.5 - epsilon)
        ineq = f"theta = 2*C1/(1/2-eps) = 2*{C1}/{0.5 - epsilon} and 2*alpha > gamma1-2"
    else:
        gamma13 = float(constants.gamma13)
        alpha = gamma13 / 2.0
        theta = 0.0 if C1 == 0.0 else math.sqrt(C1 / (1.0 - epsilon)) * (1.0 + _THETA_MARGIN)
        ineq = f"2*{C1} - 2*(1-{epsilon})*theta^2 < 0 and alpha = gamma13/2 = {alpha}"
    return AdvisedNoise(theta=theta, alpha=alpha, case_label=case, inequality=ineq)


def check_advisor_inputs(case: str, epsilon: float, level: float) -> None:
    """Raise ValueError unless :func:`theta_advisor` can advise ``case`` at
    ``epsilon`` and ``level``: the conditions that need no audited constant."""
    if case not in NOISE_CASES:
        raise ValueError(f"case must be I, II or III, got {case!r}")
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    if case == "I" and (1.0 - 2.0 * epsilon) * level**4 <= _ADVISOR_OFFSET * level**2:
        raise ValueError(
            f"reference level {level} too small for offset {_ADVISOR_OFFSET}: "
            f"need level^2 > C/(1-2*eps)"
        )


def advisor_constants(case: str, constants, report: dict):
    """The audited ``constants`` with C1 set to the constant the case's
    advisor takes (:data:`NOISE_CASES`), read from the audit ``report`` when
    it is not C1 itself (C13 for case III)."""
    name = NOISE_CASES[case].advisor_constant
    return constants if name == "C1" else replace(constants, C1=report[name])
