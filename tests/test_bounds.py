import itertools
import math

import numpy as np
import pytest

from tbp import (
    Problem,
    Setting,
    ShapeClass,
    adversarial_monotone_pair,
    concave_lower,
    concave_perturb,
    concave_upper,
    gaps,
    make_setting,
    monotone_lower,
    monotone_upper,
    shape_check,
    true_labels,
    unstructured_bounds,
    unstructured_complexity,
)
from tbp.algos import ctb_batch
from tbp.bounds import _verify_perturbation
from tbp.env import VariateBlock
from conftest import random_concave_means, random_v_gaps


def sig6(value, expected):
    assert value == pytest.approx(expected, rel=5e-7)


class TestMonotoneLower:
    def test_spot_values(self):
        sig6(monotone_lower(0.2, 1000, 1.0).value, 0.25 * math.exp(-40.0))
        assert monotone_lower(0.2, 1000, 1.0).value == pytest.approx(1.062e-18, rel=1e-3)
        sig6(monotone_lower(0.0, 1000, 1.0).value, 0.25)
        sig6(monotone_lower(0.1, 100, 1.0).value, 0.25 * math.exp(-1.0))

    def test_sigma_zero_rejected(self):
        with pytest.raises(ValueError):
            monotone_lower(0.2, 1000, 0.0)


class TestMonotoneUpper:
    def test_spot_exponents(self):
        r = monotone_upper(0.2, 10**6, 1.0, 100)
        sig6(r.exponent, -(10**6) * 0.04 / 48 + 12 * math.log(100))
        assert r.exponent == pytest.approx(-778.07, abs=0.01)
        assert r.regime_ok

        r = monotone_upper(0.2, 1000, 1.0, 100)
        assert r.exponent == pytest.approx(54.43, abs=0.01)
        assert r.clamped == 1.0 and r.value > 1.0

        r = monotone_upper(1.0, 4800, 1.0, 3)
        assert r.exponent == pytest.approx(-100 + 12 * math.log(3), rel=1e-12)

    def test_regime_flag_without_error(self):
        r = monotone_upper(0.2, 10, 1.0, 100)
        assert not r.regime_ok
        assert math.isfinite(r.value)


class TestConcaveBounds:
    def test_lower_spot_values(self):
        sig6(concave_lower(0.2, 100, 1.0).value, 0.25 * math.exp(-36.0))
        sig6(concave_lower(0.0, 100, 1.0).value, 0.25)

    def test_lower_beats_monotone_lower(self):
        for d, T in ((0.1, 50), (0.3, 200), (1.0, 10)):
            assert concave_lower(d, T, 1.0).value <= monotone_lower(d, T, 1.0).value

    def test_upper_spot_values(self):
        r = concave_upper(1.0, 57600, 1.0, 3)
        sig6(r.value, 3 * math.exp(-100 + 12 * math.log(3)))
        r0 = concave_upper(0.0, 57600, 1.0, 3)
        sig6(r0.value, 3.0 * 3**12)
        assert r0.clamped == 1.0

    def test_doubling_budget_ratio(self):
        d, sigma, K = 0.5, 1.0, 10
        for T in (1000, 5000):
            ratio = concave_upper(d, 2 * T, sigma, K).value / concave_upper(d, T, sigma, K).value
            sig6(ratio, math.exp(-T * d**2 / (576 * sigma**2)))


class TestUnstructured:
    def test_complexity(self):
        sig6(unstructured_complexity([0.1, 0.2, 0.5]), 129.0)
        sig6(unstructured_complexity([1.0]), 1.0)
        sig6(unstructured_complexity([0.0, 1.0]), 1.0)

    def test_complexity_equals_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = rng.uniform(0, 2, rng.integers(1, 20))
            loop = sum(1.0 / x**2 for x in g if x > 0)
            assert unstructured_complexity(g) == pytest.approx(loop, rel=1e-12)

    def test_bound_spot_values(self):
        lower, upper = unstructured_bounds([0.1, 0.2, 0.5], 1290, 1.0, 3)
        expected_low = -3 * 10 - 4 * math.log(12 * (math.log(1290) + 1) * 3)
        sig6(lower.exponent, expected_low)
        assert lower.exponent == pytest.approx(-52.73, abs=0.01)
        expected_up = -10 / 64 + 2 * math.log((math.log(1290) + 1) * 3)
        sig6(upper.exponent, expected_up)
        assert upper.clamped == 1.0

    def test_sigma_scaling(self):
        g = [0.1, 0.2, 0.5]
        H = unstructured_complexity(g)
        c = 2.0
        lo1, _ = unstructured_bounds(g, 1290, 1.0, 3)
        lo2, _ = unstructured_bounds(g, 1290, c, 3)
        term1 = -3 * 1290 / H
        term2 = lo1.exponent - term1
        assert lo2.exponent == pytest.approx(term1 / c**2 + term2 / c**2, rel=1e-12)

    def test_all_zero_gaps_rejected(self):
        with pytest.raises(ValueError):
            unstructured_bounds([0.0, 0.0], 100, 1.0, 2)


class TestBoundShapes:
    def test_monotone_in_budget_and_gap(self):
        T_grid = [100, 200, 400, 800, 1600]
        vals = [monotone_lower(0.3, T, 1.0).value for T in T_grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        d_grid = [0.1, 0.2, 0.4, 0.8]
        for fn in (
            lambda d: monotone_lower(d, 500, 1.0).value,
            lambda d: concave_lower(d, 500, 1.0).value,
            lambda d: monotone_upper(d, 500, 1.0, 10).value,
            lambda d: concave_upper(d, 500, 1.0, 10).value,
        ):
            vals = [fn(d) for d in d_grid]
            assert all(b < a for a, b in zip(vals, vals[1:]))


class TestAdversarialPair:
    def test_example(self):
        plus, minus = adversarial_monotone_pair([1.0, 0.5, 2.0], 1.0, 0.0)
        np.testing.assert_allclose(plus.means, [-1.0, 0.5, 2.0])
        np.testing.assert_allclose(minus.means, [-1.0, -0.5, 2.0])

    def test_outputs_monotone_with_shared_gaps(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = random_v_gaps(rng, int(rng.integers(2, 25)))
            plus, minus = adversarial_monotone_pair(g, 1.0, 0.3)
            assert shape_check(plus, ShapeClass.MONOTONE)
            assert shape_check(minus, ShapeClass.MONOTONE)
            np.testing.assert_allclose(gaps(plus).gaps, g)
            np.testing.assert_allclose(gaps(minus).gaps, g)
            flips = true_labels(plus).labels != true_labels(minus).labels
            assert int(flips.sum()) == 1

    def test_unrealizable_rejected(self):
        # argmin at index 0 but a smaller gap later breaks sortedness
        with pytest.raises(ValueError):
            adversarial_monotone_pair([0.5, 3.0, 0.6, 4.0], 1.0, 0.0)


class TestConcavePerturb:
    def test_vee_example(self):
        p = Problem(np.array([-1.0, 0.5, 1.0, 0.5, -1.0]), 1.0, 0.0)
        q = concave_perturb(p)
        np.testing.assert_allclose(q.means, np.array([-1.0, 0.5, 1.0, 0.5, -1.0]) - 0.6875)
        flips = true_labels(p).labels != true_labels(q).labels
        assert bool(flips[1]) and bool(flips[3])

    def test_single_arm_above(self):
        p = Problem(np.array([-2.0, 0.5, -2.0]), 1.0, 0.0)
        q = concave_perturb(p)
        np.testing.assert_allclose(q.means, np.array([-2.0, 0.5, -2.0]) - 1.0)

    def test_shift_bounded_by_three_delta_min(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            mu = random_concave_means(rng, int(rng.integers(3, 20)))
            p = Problem(mu, 1.0, 0.0)
            q = concave_perturb(p)
            dmin = gaps(p).delta_min
            assert np.max(np.abs(q.means - p.means)) <= 3 * dmin + 1e-9
            assert _verify_perturbation(p.means, q.means, 0.0)

    @pytest.mark.parametrize("K", [5, 9, 21, 41])
    def test_tent_partners_are_concave_and_run_under_ctb(self, K):
        # Shifting a tent can round a midpoint an ulp above its middle mean.
        for delta, tau in itertools.product((0.01, 0.03, 0.05, 0.1, 0.3), (0.0, 0.7, -3.1)):
            tent = make_setting(Setting.S2_CONCAVE, K, delta, tau)
            q = concave_perturb(tent)
            assert shape_check(q, ShapeClass.CONCAVE), (delta, tau)
            assert np.any(true_labels(q).labels != true_labels(tent).labels), (delta, tau)
            (rows,) = ctb_batch([q], 3000, VariateBlock(1, 0, 2))
            assert rows.labels.shape == (2, K)

    def test_rejects_all_below(self):
        with pytest.raises(ValueError):
            concave_perturb(Problem(np.array([-3.0, -1.0, -2.0]), 1.0, 0.0))

    def test_rejects_nonconcave(self):
        with pytest.raises(ValueError):
            concave_perturb(Problem(np.array([0.0, -1.0, 1.0]), 1.0, 0.0))


_OUT_OF_DOMAIN = [dict(sigma=0.0), dict(sigma=-1.0), dict(delta_min=-0.1), dict(T=0), dict(K=0),
                  dict(sigma=math.nan), dict(sigma=math.inf), dict(delta_min=math.nan),
                  dict(delta_min=math.inf)]


@pytest.mark.parametrize("bound,inputs", [
    (bound, inputs) for bound in (monotone_lower, monotone_upper, concave_lower, concave_upper)
    for inputs in _OUT_OF_DOMAIN if "K" not in inputs or bound in (monotone_upper, concave_upper)
], ids=lambda v: v.__name__ if callable(v) else ",".join(f"{k}={x}" for k, x in v.items()))
def test_a_bound_refuses_inputs_out_of_its_domain(bound, inputs):
    args = {"delta_min": 0.2, "T": 1000, "sigma": 1.0, **inputs}
    if bound in (monotone_upper, concave_upper):
        args.setdefault("K", 10)
    with pytest.raises(ValueError):
        bound(**args)


@pytest.mark.parametrize("T,sigma", [(1, 1.0), (100, 0.0), (100, math.nan), (100, math.inf)])
def test_unstructured_bounds_refuse_inputs_out_of_their_domain(T, sigma):
    with pytest.raises(ValueError):
        unstructured_bounds([0.1, 0.2], T, sigma, 2)


@pytest.mark.parametrize("bad", [math.nan, -5.0, -math.inf, -1e-300])
def test_unstructured_bounds_refuse_nan_and_negative_gaps(bad):
    # Left in, such a gap would be dropped from H without a word.
    for fn in (unstructured_complexity, lambda g: unstructured_bounds(g, 100, 1.0, 2)):
        with pytest.raises(ValueError, match="nonnegative"):
            fn([bad, 0.2])
