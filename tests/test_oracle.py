"""Closed-form mixture targets, the Monte Carlo oracle, and threshold truths."""

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
    PoissonGround,
    UnsupportedSpecError,
    Window,
    builtin,
    class_averaged_mean_mark,
    class_moments,
    matern2_retained_intensity,
    mixture_mean_mark,
    monte_carlo_mean_mark,
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
