"""Closed-form mixture targets, the Monte Carlo oracle, and threshold truths."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats

from mppstat import (
    Band,
    GaussianFieldMarks,
    GridGround,
    HardcoreGround,
    IidMarks,
    InputError,
    MixtureClass,
    MixtureSpec,
    NumericError,
    PoissonGround,
    UnsupportedSpecError,
    Window,
    buffered_window,
    builtin,
    class_averaged_mean_mark,
    class_moments,
    matern2_retained_intensity,
    mixture_mean_mark,
    monte_carlo_mean_mark,
    pair_table,
    sample_batch,
    threshold_excess_mean,
)

FIRST = builtin("first")
BAND = Band(0.5, 1.5)


def two_class(lam_a=1.0, lam_b=4.0, mean_a=0.0, mean_b=10.0, z_a="const_one", z_b="const_one"):
    return MixtureSpec(
        (
            MixtureClass(0.5, PoissonGround(lam_a), IidMarks("normal", (mean_a, 1.0)), z_a),
            MixtureClass(0.5, PoissonGround(lam_b), IidMarks("normal", (mean_b, 1.0)), z_b),
        )
    )


class TestClosedForms:
    def test_first_order_intensity_weighting(self):
        # (0.5*1*0 + 0.5*4*10) / (0.5*1 + 0.5*4) = 8
        assert mixture_mean_mark(two_class(), FIRST, 1) == pytest.approx(8.0)

    def test_equal_intensities_collapse_to_class_average(self):
        spec = two_class(lam_a=2.0, lam_b=2.0)
        assert mixture_mean_mark(spec, FIRST, 1) == pytest.approx(5.0)
        assert mixture_mean_mark(spec, FIRST, 2, BAND) == pytest.approx(
            class_averaged_mean_mark(spec, FIRST, 2)
        )

    def test_single_class_degenerate(self):
        spec = MixtureSpec(
            (MixtureClass(1.0, PoissonGround(3.0), IidMarks("uniform", (2.0, 4.0))),)
        )
        assert mixture_mean_mark(spec, FIRST, 1) == pytest.approx(3.0)
        assert class_averaged_mean_mark(spec, FIRST, 2) == pytest.approx(3.0)

    def test_second_order_pair_intensity_weighting(self):
        assert mixture_mean_mark(two_class(), FIRST, 2, BAND) == pytest.approx(160.0 / 17.0)

    def test_class_average(self):
        assert class_averaged_mean_mark(two_class(), FIRST, 2) == pytest.approx(5.0)

    def test_equal_means_regardless_of_intensity(self):
        spec = two_class(mean_a=7.0, mean_b=7.0)
        assert class_averaged_mean_mark(spec, FIRST, 1) == pytest.approx(7.0)
        assert mixture_mean_mark(spec, FIRST, 2, BAND) == pytest.approx(7.0)

    def test_weight_marks_tilt_first_order_mean(self):
        # class B carries twice the mean weight mark: (0.5*4*2*10)/(0.5*1+0.5*8)
        spec = two_class(z_b=IidMarks("uniform", (1.0, 3.0)))
        expect = (0.5 * 1 * 1 * 0 + 0.5 * 4 * 2 * 10) / (0.5 * 1 * 1 + 0.5 * 4 * 2)
        assert mixture_mean_mark(spec, FIRST, 1) == pytest.approx(expect)
        # within-class ratios are unchanged by independent weights
        assert class_averaged_mean_mark(spec, FIRST, 1) == pytest.approx(5.0)

    def test_between_class_bounds(self):
        spec = two_class()
        for order in (1, 2):
            v = mixture_mean_mark(spec, FIRST, order, BAND)
            assert 0.0 <= v <= 10.0

    def test_intensity_mean_association_tilts_upward(self):
        # higher-intensity class has the higher mark mean, so the
        # intensity-weighted mean dominates the class average
        for lam_b in (2.0, 4.0, 9.0):
            spec = two_class(lam_b=lam_b)
            for order in (1, 2):
                assert mixture_mean_mark(spec, FIRST, order, BAND) >= class_averaged_mean_mark(
                    spec, FIRST, order
                )

    def test_pointwise_equals_band_integrated_for_poisson(self):
        # Poisson pair rates are flat in the displacement, so the target
        # is the same on every band
        spec = two_class()
        banded = mixture_mean_mark(spec, FIRST, 2, BAND)
        other = mixture_mean_mark(spec, FIRST, 2, Band(-3.0, -1.0))
        assert other == pytest.approx(banded, rel=1e-15)

    def test_product_function_under_independence(self):
        spec = MixtureSpec(
            (MixtureClass(1.0, PoissonGround(2.0), IidMarks("normal", (3.0, 1.0))),)
        )
        assert mixture_mean_mark(spec, builtin("product"), 2, BAND) == pytest.approx(9.0)

    def test_first_squared(self):
        spec = MixtureSpec(
            (MixtureClass(1.0, PoissonGround(2.0), IidMarks("normal", (3.0, 2.0))),)
        )
        assert mixture_mean_mark(spec, builtin("first_squared"), 2, BAND) == pytest.approx(13.0)


    def test_overflow_is_numeric_error(self):
        with pytest.raises(NumericError, match="overflows"):
            mixture_mean_mark(two_class(lam_a=1e300), FIRST, 2, BAND)  # 1e300**2
        spec = MixtureSpec((MixtureClass(1.0, PoissonGround(1.0), IidMarks("constant", (1e200,))),))
        with pytest.raises(NumericError, match="overflows"):
            class_averaged_mean_mark(spec, builtin("first_squared"), 1)


class TestGridPairIntensity:
    def test_neighbor_counting(self):
        cls = MixtureClass(1.0, GridGround(1.0, 0.0), IidMarks("constant", (1.0,)))
        cm = class_moments(cls, FIRST, 2, dim=1)
        assert cm.pair_intensity(Band(0.5, 1.5)) == pytest.approx(1.0)
        assert cm.pair_intensity(Band(0.5, 2.5)) == pytest.approx(2.0)
        assert cm.pair_intensity(Band(-1.5, 1.5)) == pytest.approx(2.0)  # 0 excluded
        assert cm.pair_intensity(Band(0.1, 0.4)) == 0.0

    def test_closed_endpoints_count_lattice_hits(self):
        cls = MixtureClass(1.0, GridGround(0.5, 0.0), IidMarks("constant", (1.0,)))
        cm = class_moments(cls, FIRST, 2, dim=1)
        assert cm.pair_intensity(Band(0.5, 1.0)) == pytest.approx(4.0)  # k in {1, 2}


class TestUnsupportedSpecs:
    def test_hardcore_second_order_routes_to_monte_carlo(self):
        spec = MixtureSpec(
            (MixtureClass(1.0, HardcoreGround(3.0, 0.2), IidMarks("constant", (1.0,))),)
        )
        with pytest.raises(UnsupportedSpecError, match="Monte Carlo"):
            mixture_mean_mark(spec, FIRST, 2, BAND)

    def test_hardcore_first_order_supported(self):
        spec = MixtureSpec(
            (MixtureClass(1.0, HardcoreGround(3.0, 0.2), IidMarks("constant", (2.5,))),)
        )
        assert mixture_mean_mark(spec, FIRST, 1) == pytest.approx(2.5)
        cm = class_moments(spec.classes[0], FIRST, 1, dim=1)
        assert cm.intensity == pytest.approx(matern2_retained_intensity(3.0, 0.2, 1))

    def test_jittered_grid_second_order_unsupported(self):
        spec = MixtureSpec(
            (MixtureClass(1.0, GridGround(1.0, 0.2), IidMarks("constant", (1.0,))),)
        )
        with pytest.raises(UnsupportedSpecError):
            mixture_mean_mark(spec, FIRST, 2, BAND)

    def test_correlated_marks_product_unsupported(self):
        spec = MixtureSpec(
            (MixtureClass(1.0, PoissonGround(1.0), GaussianFieldMarks(0.0, 1.0, 0.5)),)
        )
        with pytest.raises(UnsupportedSpecError, match="independent marks"):
            mixture_mean_mark(spec, builtin("product"), 2, BAND)

    def test_correlated_marks_first_only_supported(self):
        spec = MixtureSpec(
            (MixtureClass(1.0, PoissonGround(1.0), GaussianFieldMarks(4.0, 1.0, 0.5)),)
        )
        assert mixture_mean_mark(spec, FIRST, 2, BAND) == pytest.approx(4.0)

    def test_callable_z_rule_unsupported(self):
        spec = MixtureSpec(
            (
                MixtureClass(
                    1.0, PoissonGround(1.0), IidMarks("constant", (1.0,)),
                    z_rule=lambda loc, y, rng: np.ones(len(y)),
                ),
            )
        )
        with pytest.raises(UnsupportedSpecError, match="z rule"):
            mixture_mean_mark(spec, FIRST, 1)

    def test_custom_mark_function_unsupported(self):
        from mppstat import make_mark_function

        weird = make_mark_function(lambda y1, y2: np.abs(y1 - y2), "absdiff")
        with pytest.raises(UnsupportedSpecError):
            mixture_mean_mark(two_class(), weird, 2, BAND)


class TestMonteCarloOracle:
    def test_pooled_agrees_with_closed_form(self):
        spec = two_class()
        value, se = monte_carlo_mean_mark(spec, FIRST, 2, BAND, n_mc=1500, seed=1,
                                          win=Window(25.0))
        truth = mixture_mean_mark(spec, FIRST, 2, BAND)
        assert abs(value - truth) < 3 * se
        assert se < 0.2

    def test_classwise_agrees_with_class_average(self):
        spec = two_class()
        value, se = monte_carlo_mean_mark(spec, FIRST, 2, BAND, n_mc=1500, seed=2,
                                          win=Window(25.0), target="classwise")
        truth = class_averaged_mean_mark(spec, FIRST, 2)
        assert abs(value - truth) < 3 * se

    def test_first_order_pooled(self):
        spec = two_class()
        value, se = monte_carlo_mean_mark(spec, FIRST, 1, None, n_mc=2000, seed=3,
                                          win=Window(10.0))
        assert abs(value - 8.0) < 3 * se

    def test_deterministic_grid_constant_marks_exact(self):
        spec = MixtureSpec(
            (MixtureClass(1.0, GridGround(1.0, 0.0), IidMarks("constant", (2.25,))),)
        )
        value, se = monte_carlo_mean_mark(spec, FIRST, 2, BAND, n_mc=1000, seed=4,
                                          win=Window(10.0))
        assert value == 2.25
        assert se == 0.0

    def test_minimum_replications_enforced(self):
        with pytest.raises(InputError, match="1000"):
            monte_carlo_mean_mark(two_class(), FIRST, 2, BAND, n_mc=100, seed=0)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("target", ["pooled", "classwise"])
    def test_first_order_equals_a_loop_over_realizations(self, dim, target):
        # the oracle sums each realization's points in [0, T] a block of
        # realizations at a time; a loop over the realizations is the reference
        spec = MixtureSpec(
            (
                MixtureClass(0.5, PoissonGround(0.3), IidMarks("normal", (1.0, 2.0)),
                             IidMarks("uniform", (0.0, 3.0))),
                MixtureClass(0.5, PoissonGround(0.05), IidMarks("uniform", (-1.0, 4.0))),
            ),
            dim=dim,
        )
        f, win = builtin("first_squared"), Window(np.full(dim, 4.0))
        value, se = monte_carlo_mean_mark(spec, f, 1, None, n_mc=1000, seed=12, win=win,
                                          target=target)
        batch = sample_batch(spec, win.box(), 1000, 12)
        nums, dens = np.empty(1000), np.empty(1000)
        for k in range(1000):
            p = batch.pattern(k)
            inside = np.all((p.locations >= 0.0) & (p.locations <= win.t), axis=1)
            y, z = p.y[inside], p.z[inside]
            nums[k], dens[k] = np.sum(z * f(y, y)), np.sum(z)
        assert (dens == 0).any()  # some realizations have no point in [0, T]
        if target == "pooled":
            expected = np.sum(nums) / np.sum(dens)
            loo = (np.sum(nums) - nums) / (np.sum(dens) - dens)
        else:
            ratios = nums[dens > 0] / dens[dens > 0]
            expected = np.mean(ratios)
            loo = (np.sum(ratios) - ratios) / (ratios.size - 1)
        n = loo.size
        expected_se = np.sqrt((n - 1) / n * np.sum((loo - np.mean(loo)) ** 2))
        assert (value, se) == (float(expected), float(expected_se))

    @pytest.mark.parametrize("target", ["pooled", "classwise"])
    def test_second_order_equals_the_batch_table(self, target):
        # the oracle tabulates a block at a time; the table of the whole batch
        # is the reference
        spec = two_class()
        win = Window(6.0)
        value, se = monte_carlo_mean_mark(spec, FIRST, 2, BAND, n_mc=1000, seed=8, win=win,
                                          target=target)
        batch = sample_batch(spec, buffered_window(win, BAND), 1000, 8)
        table = pair_table(batch, win, BAND, FIRST)
        nums, dens = table.num, table.den
        if target == "pooled":
            expected = np.sum(nums) / np.sum(dens)
            loo = (np.sum(nums) - nums) / (np.sum(dens) - dens)
        else:
            ratios = nums[dens > 0] / dens[dens > 0]
            expected = np.mean(ratios)
            loo = (np.sum(ratios) - ratios) / (ratios.size - 1)
        n = loo.size
        expected_se = np.sqrt((n - 1) / n * np.sum((loo - np.mean(loo)) ** 2))
        assert (value, se) == (float(expected), float(expected_se))

    def test_hardcore_second_order_via_monte_carlo(self):
        # the analytically intractable case the Monte Carlo oracle exists for
        spec = MixtureSpec(
            (MixtureClass(1.0, HardcoreGround(2.0, 0.3), IidMarks("normal", (5.0, 1.0))),)
        )
        value, se = monte_carlo_mean_mark(spec, FIRST, 2, BAND, n_mc=1000, seed=5,
                                          win=Window(15.0))
        # marks independent of locations: the mean mark is the mark mean
        assert abs(value - 5.0) < 4 * se


class TestThresholdExcessMean:
    def test_normal_closed_form_matches_quadrature(self):
        marks = IidMarks("normal", (1.0, 2.0))
        mu, p = threshold_excess_mean(marks, "first", 1.5)
        quad_excess = integrate.quad(
            lambda y: max(y - 1.5, 0.0) * stats.norm(1.0, 2.0).pdf(y), -20, 30
        )[0]
        quad_p = 1.0 - stats.norm(1.0, 2.0).cdf(1.5)
        assert mu == pytest.approx(quad_excess / quad_p, rel=1e-9)
        assert p == pytest.approx(quad_p, rel=1e-9)

    def test_standard_normal_at_zero(self):
        mu, p = threshold_excess_mean(IidMarks("normal", (0.0, 1.0)), "first", 0.0)
        assert p == pytest.approx(0.5)
        assert mu == pytest.approx(np.sqrt(2.0 / np.pi), rel=1e-12)

    def test_uniform(self):
        mu, p = threshold_excess_mean(IidMarks("uniform", (0.0, 2.0)), "first", 1.0)
        assert p == pytest.approx(0.5, rel=1e-9)
        assert mu == pytest.approx(0.5, rel=1e-6)

    def test_constant(self):
        mu, p = threshold_excess_mean(IidMarks("constant", (3.0,)), "first", 1.0)
        assert (mu, p) == (2.0, 1.0)

    def test_threshold_above_support(self):
        with pytest.raises(InputError, match="above"):
            threshold_excess_mean(IidMarks("constant", (1.0,)), "first", 2.0)

    def test_degenerate_laws_reduce_to_constants(self):
        assert threshold_excess_mean(IidMarks("normal", (3.0, 0.0)), "first", 1.0) == (2.0, 1.0)
        assert threshold_excess_mean(IidMarks("uniform", (2.0, 2.0)), "first_squared", 1.0) == (
            3.0,
            1.0,
        )

    def test_squared_base_by_quadrature(self):
        mu, p = threshold_excess_mean(IidMarks("normal", (0.0, 1.0)), "first_squared", 1.0)
        # P(Y^2 > 1) = 2 * (1 - Phi(1))
        assert p == pytest.approx(2 * (1 - stats.norm.cdf(1.0)), rel=1e-6)
        assert mu > 0

    def test_gaussian_field_marginal(self):
        marks = GaussianFieldMarks(0.0, 1.0, 0.4)
        mu, p = threshold_excess_mean(marks, "first", 0.0)
        assert p == pytest.approx(0.5)
        assert mu == pytest.approx(np.sqrt(2.0 / np.pi), rel=1e-12)


def _exact_uniform(a, b, u, squared):
    """(mean excess, P) of Uniform(a, b) in rationals, or None when P = 0.

    For the square, u must be the square of a rational.
    """
    a, b, u = Fraction(a), Fraction(b), Fraction(u)
    if squared:
        r = Fraction(math.isqrt(u.numerator), math.isqrt(u.denominator))
        assert r * r == u
        pieces, antiderivative = [(max(a, r), b), (a, min(b, -r))], lambda y: y**3 / 3 - u * y
    else:
        pieces, antiderivative = [(max(a, u), b)], lambda y: y * y / 2 - u * y
    pieces = [(lo, hi) for lo, hi in pieces if lo < hi]
    if not pieces:
        return None
    p = sum(hi - lo for lo, hi in pieces) / (b - a)
    excess = sum(antiderivative(hi) - antiderivative(lo) for lo, hi in pieces) / (b - a)
    return excess / p, p


def _mp_normal_squared(m, s, u):
    """(mean excess, P) of Normal(m, s^2) under g = y^2, evaluated with 40 digits."""
    with mp.workdps(40):
        m, s, u = mp.mpf(m), mp.mpf(s), mp.mpf(u)
        r = mp.sqrt(u)
        hi, lo = (r - m) / s, (-r - m) / s
        p = mp.ncdf(-hi) + mp.ncdf(lo)
        excess = (m * m + s * s - u) * p + s * (m + r) * mp.npdf(hi) - s * (m - r) * mp.npdf(lo)
        return excess / p, p


def _assert_rel(got, ref, tol, case):
    for g, r in zip(got, ref):
        assert abs(g - r) <= tol * abs(r), (case, g, r)


class TestThresholdClosedForms:
    def test_uniform_matches_rationals(self):
        # dyadic a, b and u are exact doubles; for the square, u = (k / 2^j)^2 so
        # that the rational reference has an exact root
        rng = np.random.default_rng(30)
        cases = 0
        for _ in range(2500):
            a = int(rng.integers(-4000, 4000)) / 2.0 ** int(rng.integers(0, 11))
            b = a + int(rng.integers(1, 4000)) / 2.0 ** int(rng.integers(0, 13))
            squared = bool(rng.random() < 0.5)
            root = int(rng.integers(0, 4000)) / 2.0 ** int(rng.integers(0, 11))
            u = root * root if squared else root
            args = IidMarks("uniform", (a, b)), "first_squared" if squared else "first", u
            ref = _exact_uniform(a, b, u, squared)
            if ref is None:
                with pytest.raises(InputError, match="above"):
                    threshold_excess_mean(*args)
                continue
            _assert_rel(map(Fraction, threshold_excess_mean(*args)), ref, 1e-14, args)
            cases += 1
        assert cases >= 1000

    def test_normal_squared_matches_mpmath_and_ncx2(self):
        # thresholds within 10 sd of the mean: u = (m + s z)^2 with |z| <= 10
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(1200):
            s = float(10 ** rng.uniform(-3, 3))
            m, z = s * float(rng.uniform(-5, 5)), float(rng.uniform(-10, 10))
            u = (m + s * z) ** 2
            marks = (IidMarks("normal", (m, s)) if rng.random() < 0.75
                     else GaussianFieldMarks(m, s * s, 1.0))
            got = threshold_excess_mean(marks, "first_squared", u)
            _assert_rel(got, _mp_normal_squared(m, s, u), 1e-12, (m, s, u))
            cases.append((got[1], m, s, u))
        p, m, s, u = np.array(cases).T
        assert np.all(np.abs(p - stats.ncx2.sf(u / s**2, 1, (m / s) ** 2)) <= 1e-12 * p)

    @pytest.mark.parametrize("m, s, u", [(-1.902, 2.0857, 3.676), (0.0, 1.0, 1.0),
                                         (3.0, 0.5, 4.0), (-0.3, 2.0, 30.0), (5.0, 1.0, 0.0)])
    def test_normal_squared_is_the_integral(self, m, s, u):
        # the formula against quadrature of (y^2 - u) over both tails, |y| > sqrt(u)
        with mp.workdps(30):
            r = mp.sqrt(u)
            tails = ([r, mp.inf], [-mp.inf, -r])
            p = sum(mp.quad(lambda y: mp.npdf(y, m, s), t) for t in tails)
            excess = sum(mp.quad(lambda y: (y * y - u) * mp.npdf(y, m, s), t) for t in tails)
            ref = (excess / p, p)
        _assert_rel(threshold_excess_mean(IidMarks("normal", (m, s)), "first_squared", u),
                    ref, 1e-13, (m, s, u))

    def test_inexact_quadrature_cases(self):
        # the numeric integration gave P = 0.333333 and a mean excess of 0.79417 here
        mu, p = threshold_excess_mean(IidMarks("uniform", (2.744, 7.519)), "first", 5.929)
        _assert_rel(map(Fraction, (mu, p)), _exact_uniform(2.744, 7.519, 5.929, False),
                    1e-14, "uniform")
        assert (round(mu, 6), round(p, 6)) == (0.795, 0.332984)
        # ... and P = 0.53355 here, 27 standard errors from 2e7 draws (0.53049 +- 0.00011)
        mu, p = threshold_excess_mean(IidMarks("normal", (-1.902, 2.0857)), "first_squared", 3.676)
        _assert_rel((mu, p), _mp_normal_squared(-1.902, 2.0857, 3.676), 1e-14, "normal")
        assert p == pytest.approx(stats.ncx2.sf(3.676 / 2.0857**2, 1, (1.902 / 2.0857) ** 2),
                                  rel=1e-13)
        assert abs(p - 0.53049) < 2 * 0.00011

    def test_sd_that_squares_to_zero_is_a_constant(self):
        marks = IidMarks("normal", (3.0, 1e-170))
        assert threshold_excess_mean(marks, "first", 1.0) == (2.0, 1.0)
        assert threshold_excess_mean(marks, "first_squared", 1.0) == (8.0, 1.0)
        with pytest.raises(InputError, match="above"):
            threshold_excess_mean(marks, "first", 4.0)
