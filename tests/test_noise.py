import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochtame.models import AssumptionConstants
from stochtame.noise import (
    DomainError,
    GbmSpec,
    NoiseSpec,
    ScaleFunctionSpec,
    WienerPath,
    _mix,
    gbm_decay_criterion,
    gbm_exact,
    gbm_scale_closed_form,
    revuz_yor_bound,
    scale_function,
    theta_advisor,
)
from stochtame.spectral import SpaceLadder, TorusGrid, random_field, sobolev_norm

LADDER = SpaceLadder(0.0, 1.0, 3.0, 4.0)


class TestNoiseSpec:
    def test_case_space_coupling(self):
        assert NoiseSpec(1.0, 1.0, "F0", "I").required_initial_space == "F0"
        assert NoiseSpec(1.0, 1.0, "F1", "II").required_initial_space == "D"
        assert NoiseSpec(1.0, 1.0, "F0", "III").required_initial_space == "F1"
        with pytest.raises(ValueError):
            NoiseSpec(1.0, 1.0, "F1", "I")

    def test_initial_space_admission(self):
        spec = NoiseSpec(1.0, 1.0, "F1", "II")
        assert spec.admits_initial_space("D")
        assert not spec.admits_initial_space("F1")


class TestNoiseCoefficient:
    def test_theta_zero(self):
        grid = TorusGrid(1, 32)
        X = random_field(grid, 1, 4.0, 1.0, 1)
        B = NoiseSpec(0.0, 2.0, "F0", "I").coefficient(LADDER.norms(X)) * X
        assert np.max(np.abs(B.coeffs)) == 0.0

    def test_unit_norm_returns_theta_X(self):
        grid = TorusGrid(1, 32)
        X = random_field(grid, 1, 4.0, 1.0, 2)
        X = (1.0 / sobolev_norm(X, LADDER.s_F0)) * X
        B = NoiseSpec(0.7, 3.0, "F0", "I").coefficient(LADDER.norms(X)) * X
        assert np.allclose(B.coeffs, 0.7 * X.coeffs, rtol=1e-13)

    def test_norm_two_alpha_one(self):
        # theta=0.5, alpha=1, ||X||_{F0}=2: B(X) = X exactly
        grid = TorusGrid(1, 32)
        X = random_field(grid, 1, 4.0, 1.0, 3)
        X = (2.0 / sobolev_norm(X, LADDER.s_F0)) * X
        B = NoiseSpec(0.5, 1.0, "F0", "I").coefficient(LADDER.norms(X)) * X
        assert np.allclose(B.coeffs, X.coeffs, rtol=1e-13)

    def test_norm_identity_all_exponents(self):
        grid = TorusGrid(1, 32)
        spec = NoiseSpec(0.9, 1.5, "F0", "I")
        X = random_field(grid, 1, 4.0, 1.3, 4)
        B = spec.coefficient(LADDER.norms(X)) * X
        m = sobolev_norm(X, LADDER.s_F0)
        for s in (0.0, 1.0, 2.0):
            assert sobolev_norm(B, s) == pytest.approx(
                spec.theta * m**spec.alpha * sobolev_norm(X, s), rel=1e-12
            )

    @settings(max_examples=20, deadline=None)
    @given(lam=st.floats(0.1, 10.0), seed=st.integers(0, 100))
    def test_positive_homogeneity(self, lam, seed):
        # B(lam X) = lam^(alpha+1) B(X)
        grid = TorusGrid(1, 32)
        spec = NoiseSpec(1.1, 2.0, "F0", "I")
        X = random_field(grid, 1, 4.0, 1.0, seed)
        lhs = spec.coefficient(LADDER.norms(lam * X)) * (lam * X)
        rhs = lam ** (spec.alpha + 1.0) * (spec.coefficient(LADDER.norms(X)) * X)
        assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=1e-10, atol=1e-14)


class TestGbm:
    def test_t_zero(self):
        assert gbm_exact(GbmSpec(1.0, 2.0, 3.0), 0.0, 0.0) == 3.0

    def test_deterministic_limit(self):
        assert gbm_exact(GbmSpec(0.7, 0.0, 2.0), 0.0, 1.5) == pytest.approx(
            2.0 * math.exp(0.7 * 1.5)
        )

    def test_formula_instantiation(self):
        # a=1, b=2, t=1, W=0.3: f0 exp(-1 + 0.6)
        assert gbm_exact(GbmSpec(1.0, 2.0, 1.0), 0.3, 1.0) == pytest.approx(math.exp(-0.4))

    def test_decay_criterion(self):
        assert gbm_decay_criterion(GbmSpec(1.0, 2.0))
        assert not gbm_decay_criterion(GbmSpec(1.0, 1.0))
        # boundary is strict: exactly representable tie 2a == b^2
        assert not gbm_decay_criterion(GbmSpec(2.0, 2.0))


class TestScaleFunction:
    def test_natural_scale(self):
        spec = ScaleFunctionSpec(lambda y: 0.0, lambda y: 1.0, c=0.7)
        assert scale_function(spec, 2.3) == pytest.approx(2.3 - 0.7, rel=1e-10)

    def test_gbm_closed_form_c1(self):
        # mu = a y, sigma = b y with 2a/b^2 = 1/2 and c = 1: s(x) = 2(sqrt(x)-1)
        spec = ScaleFunctionSpec(lambda y: y, lambda y: 2.0 * y, c=1.0)
        got = scale_function(spec, 4.0)
        assert got == pytest.approx(2.0 * (2.0 - 1.0), rel=1e-8)
        assert got == pytest.approx(gbm_scale_closed_form(1.0, 2.0, 1.0, 4.0), rel=1e-8)

    def test_quadrature_vs_closed_form_random(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            a = rng.uniform(0.2, 2.0)
            b = rng.uniform(0.5, 2.5)
            x = rng.uniform(0.3, 4.0)
            spec = ScaleFunctionSpec(lambda y, a=a: a * y, lambda y, b=b: b * y, c=1.0)
            got = scale_function(spec, x)
            want = gbm_scale_closed_form(a, b, 1.0, x)
            if abs(want) > 1e-12:
                worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-6

    def test_strictly_increasing_and_anchored(self):
        spec = ScaleFunctionSpec(lambda y: 0.5 * y, lambda y: 1.5 * y, c=1.0)
        values = [scale_function(spec, x) for x in (0.5, 1.0, 2.0, 3.0)]
        assert values[1] == pytest.approx(0.0, abs=1e-12)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_vanishing_sigma_rejected(self):
        spec = ScaleFunctionSpec(lambda y: 1.0, lambda y: y - 1.0, c=0.5)
        with pytest.raises(DomainError):
            scale_function(spec, 2.0)


class TestWienerPath:
    def test_reproducible(self):
        a = WienerPath(123, 0.1)
        b = WienerPath(123, 0.1)
        assert [a.increment(i) for i in range(10)] == [b.increment(i) for i in range(10)]

    def test_bridge_preserves_parent(self):
        # delivered values are immutable under refinement; children sum to
        # their parent to within float rounding (one ulp per split)
        w = WienerPath(7, 0.25)
        coarse_before = [w.increment(i, 0) for i in range(8)]
        for i in range(8):
            parent = coarse_before[i]
            kids = w.increment(2 * i, 1) + w.increment(2 * i + 1, 1)
            assert kids == pytest.approx(parent, abs=5e-16)
        assert [w.increment(i, 0) for i in range(8)] == coarse_before
        total = sum(w.increment(j, 3) for j in range(8))
        assert total == pytest.approx(w.increment(0, 0), abs=2e-15)

    def test_refinement_order_independent(self):
        a = WienerPath(9, 0.5)
        fine_first = a.increment(5, 3)
        b = WienerPath(9, 0.5)
        b.increment(0, 0)
        b.increment(1, 1)
        assert b.increment(5, 3) == fine_first

    def test_increment_statistics(self):
        # disjoint base increments are iid N(0, dt): mean/var/correlation check
        w = WienerPath(11, 0.5)
        xs = np.array([w.increment(i) for i in range(4000)])
        assert abs(xs.mean()) < 3 * math.sqrt(0.5 / 4000)
        assert abs(xs.var() - 0.5) < 0.05
        assert abs(np.corrcoef(xs[:-1], xs[1:])[0, 1]) < 0.06

    def test_draws_follow_the_written_out_formula(self):
        # splitmix64 words keyed by (seed, base, level, offset) feed one
        # Box-Muller draw; a base increment is sqrt(dt) xi, and a refinement
        # splits its parent P over 2h into P/2 + sqrt(2h)/2 xi and the rest
        mask = (1 << 64) - 1

        def mix(x):
            x = (x + 0x9E3779B97F4A7C15) & mask
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
            return x ^ (x >> 31)

        def normal(seed, base, level, offset):
            h = mix(seed & mask)
            for word in (base, level, offset):
                h = mix(h ^ word)
            u1 = (mix(h) >> 11) * 2.0**-53
            u2 = (mix(h ^ 0xD1B54A32D192ED03) >> 11) * 2.0**-53
            return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)

        def increment(seed, dt, index, level):
            if level == 0:
                return math.sqrt(dt) * normal(seed, index, 0, 0)
            parent = increment(seed, dt, index >> 1, level - 1)
            base = index >> level
            offset = index - (base << level)
            xi = normal(seed, base, level, offset | 1)
            half = 0.5 * parent + 0.5 * math.sqrt(dt * 2.0 ** -(level - 1)) * xi
            return parent - half if offset & 1 else half

        for seed in (0, 7, 10300093, 2**64 + 5, -3):
            w = WienerPath(seed, 1e-3)
            for level in range(4):
                for i in range(6 << level):
                    assert w.increment(i, level) == increment(seed, 1e-3, i, level)

    def test_refined_increment_statistics(self):
        # bridge-refined increments are iid N(0, h) at every level: variance h
        # and uncorrelated siblings (the two halves of one parent interval)
        w = WienerPath(11, 0.5)
        for level in (1, 2, 3):
            h = 0.5 * 2.0**-level
            xs = np.array([w.increment(i, level) for i in range(8000)])
            assert abs(xs.mean()) < 3 * math.sqrt(h / 8000)
            assert abs(xs.var() - h) < 0.1 * h
            assert abs(np.corrcoef(xs[0::2], xs[1::2])[0, 1]) < 0.06


class TestBlockDraws:
    """Base increments are drawn in vectorised blocks, bridge values are kept
    for one base interval at a time; neither may change a bit of any draw."""

    SEEDS = (0, 1, 2**63 + 5, -1)
    DT = 1e-3
    # both sides of the first block boundaries and of 2^32
    INDICES = (0, 1, 255, 256, 257, 511, 512, 2**32 - 1, 2**32, 2**32 + 1, 2**32 + 256)

    @classmethod
    def reference(cls, seed, index):
        """sqrt(dt) times the Box-Muller normal of the words (index, 0, 0),
        hashed one Python integer at a time."""
        h = _mix(seed & (2**64 - 1))
        for word in (index, 0, 0):
            h = _mix(h ^ word)
        u1 = (_mix(h) >> 11) * 2.0**-53
        u2 = (_mix(h ^ 0xD1B54A32D192ED03) >> 11) * 2.0**-53
        xi = math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)
        return math.sqrt(cls.DT) * xi

    @pytest.mark.parametrize("seed", SEEDS)
    def test_base_increments_bit_for_bit(self, seed):
        indices = list(self.INDICES) + list(range(240, 272))
        for order in (indices, random.Random(seed % 101).sample(indices, len(indices))):
            w = WienerPath(seed, self.DT)
            assert [w.increment(i, 0) for i in order] == [self.reference(seed, i) for i in order]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_refined_increments_survive_the_dropped_bridge(self, seed):
        # a path-like walk: each base interval refined to level 5 in order, so
        # the bridge values of every interval but the last are dropped; asked
        # for again, in shuffled order and on a fresh path, every value is the same
        requests = [(i, level) for base in (0, 1, 255, 256, 2**32) for level in (0, 2, 5)
                    for i in range(base << level, (base + 1) << level)]
        w = WienerPath(seed, self.DT)
        first = {r: w.increment(*r) for r in requests}
        shuffled = random.Random(seed % 89).sample(requests, len(requests))
        fresh = WienerPath(seed, self.DT)
        assert all(w.increment(*r) == first[r] for r in shuffled)
        assert all(fresh.increment(*r) == first[r] for r in shuffled)

    def test_bridge_memory_stays_bounded(self):
        # 3000 base intervals walked at level 4: a cache of every refined value
        # would hold about 90000 of them
        w = WienerPath(5, self.DT)
        for i in range(16):
            w.increment(i, 4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(16, 3000 * 16):
                w.increment(i, 4)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 200_000


class TestMartingaleDiagnostics:
    """The record E(eps) = sup_t (M_t - eps/2 <M>_t) of a Brownian M, as the
    envelope kernel computes it."""

    def test_exp_law_small_sample(self):
        # E(1) for Brownian integrand ~ Exp(1); KS at the 1% level on a
        # reduced ensemble, using exact within-step suprema
        from scipy import stats as sps

        from stochtame.experiments import exp_law_samples

        samples = exp_law_samples(1.0, 2000, 1e-3, 40.0, seed=7)
        p = sps.kstest(samples, "expon", args=(0.0, 1.0)).pvalue
        assert p > 0.01

    def test_kernel_matches_diagnostics(self):
        # the vectorised kernel and a per-path running M - eps/2 t with its
        # maximum agree
        from stochtame._backend import envelope_chunk

        rng = np.random.default_rng(3)
        steps, eps, dt = 200, 0.5, 0.01
        dw = rng.standard_normal((steps, 4)) * math.sqrt(dt)
        z = np.zeros(4)
        rec = np.zeros(4)
        envelope_chunk(z, rec, np.ascontiguousarray(dw), None, dt, eps / 2.0)
        for p in range(4):
            m = record = 0.0
            for s in range(steps):
                m += float(dw[s, p])
                compensated = m - 0.5 * eps * (s + 1) * dt
                record = max(record, compensated)
            assert record == pytest.approx(rec[p], rel=1e-12, abs=1e-12)
            assert compensated == pytest.approx(z[p], rel=1e-12, abs=1e-12)


class TestRevuzYor:
    def test_limits_and_values(self):
        assert revuz_yor_bound(1e-12, 1.0) == pytest.approx(1.0)
        assert revuz_yor_bound(1.0, 1.0) == pytest.approx(math.exp(-0.5))
        # reflection-principle oracle: exact Brownian value is below the bound
        from scipy import stats as sps

        exact = 2.0 * (1.0 - sps.norm.cdf(1.0))
        assert exact <= revuz_yor_bound(1.0, 1.0)

    def test_monotonicity(self):
        assert revuz_yor_bound(2.0, 1.0) < revuz_yor_bound(1.0, 1.0)
        assert revuz_yor_bound(1.0, 2.0) > revuz_yor_bound(1.0, 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            revuz_yor_bound(-1.0, 1.0)


class TestThetaAdvisor:
    def constants(self, C1=1.0, gamma1=3.0, gamma13=1.0):
        return AssumptionConstants(C1=C1, gamma1=gamma1, gamma13=gamma13)

    def test_case_two_paper_formula(self):
        adv = theta_advisor("II", self.constants(C1=1.0), epsilon=0.25)
        assert adv.theta == pytest.approx(8.0)
        assert 2 * adv.alpha > self.constants().gamma1 - 2.0

    def test_case_three_inequality(self):
        adv = theta_advisor("III", self.constants(C1=1.0), epsilon=0.25)
        # smallest admissible is sqrt(C1/(1-eps)) = sqrt(4/3); strict, so a margin
        assert adv.theta > math.sqrt(4.0 / 3.0)
        assert adv.theta == pytest.approx(math.sqrt(4.0 / 3.0), rel=0.1)
        assert adv.alpha == pytest.approx(0.5)  # gamma13 / 2 exactly

    def test_case_one_enforces_exponent_rule(self):
        adv = theta_advisor("I", self.constants(C1=0.5, gamma1=3.0), epsilon=0.25)
        assert 2 * adv.alpha > 3.0
        assert adv.theta > 0
        # the recorded inequality holds at the reference level
        assert "2*alpha > gamma1" in adv.inequality

    def test_zero_drift_constant(self):
        for case in ("I", "II", "III"):
            assert theta_advisor(case, self.constants(C1=0.0), 0.25).theta == 0.0

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            theta_advisor("II", self.constants(), 0.5)
        with pytest.raises(ValueError):
            theta_advisor("II", self.constants(), 0.0)
