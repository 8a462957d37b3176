"""Hypothesis property tests for the algebraic invariants of the estimators."""

import numpy as np
from hypothesis import given, settings, strategies as st

from mppstat import (
    Band,
    PointPattern,
    Window,
    band_pair_indices,
    band_pair_indices_naive,
    blue_weights,
    builtin,
    mean_mark,
    pair_sums,
    threshold_family,
    translate,
)

from helpers import DYADIC, random_band, random_pattern, sorted_pairs

FIRST = builtin("first")
ONE = builtin("const_one")

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@given(seed=seeds, n=st.integers(0, 80))
@settings(max_examples=60, deadline=None)
def test_pair_count_is_unit_weighted_sum(seed, n):
    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, n, extent=6.0)
    pat = PointPattern(pat.locations, pat.y, np.ones(n), pat.sim_window)
    win, band = Window(6.0), random_band(rng)
    assert pair_sums(pat, win, band, ONE)[0] == band_pair_indices(pat, win, band)[0].size


@given(seed=seeds, dim=st.integers(1, 3), n=st.integers(2, 60))
@settings(max_examples=60, deadline=None)
def test_fast_enumeration_equals_naive(seed, dim, n):
    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, n, dim=dim, extent=5.0, buffer=1.0)
    win = Window(np.full(dim, 5.0))
    band = random_band(rng, dim)
    assert sorted_pairs(*band_pair_indices(pat, win, band)) == sorted_pairs(
        *band_pair_indices_naive(pat, win, band)
    )


@given(seed=seeds, split=st.floats(-1.8, 1.8, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_band_additivity(seed, split):
    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, 50, extent=6.0, positive_marks=True)
    win = Window(6.0)
    lo, hi = -2.0, 2.0
    left = Band(lo, split)
    right = Band(np.nextafter(split, np.inf), hi)
    total = pair_sums(pat, win, Band(lo, hi), FIRST)[0]
    parts = pair_sums(pat, win, left, FIRST)[0] + pair_sums(pat, win, right, FIRST)[0]
    assert np.isclose(total, parts, rtol=1e-12, atol=1e-300)


@given(seed=seeds, log2c=st.integers(-20, 20))
@settings(max_examples=40, deadline=None)
def test_weight_scaling_is_exact_for_powers_of_two(seed, log2c):
    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, 40, extent=6.0)
    win, band = Window(6.0), Band(-1.2, 1.2)
    c = 2.0**log2c
    scaled = PointPattern(pat.locations, pat.y, pat.z * c, pat.sim_window)
    assert pair_sums(scaled, win, band, FIRST)[0] == c * pair_sums(
        pat, win, band, FIRST
    )[0]


@given(seed=seeds, steps=st.integers(-4000, 4000))
@settings(max_examples=40, deadline=None)
def test_translation_invariance_on_dyadic_lattice(seed, steps):
    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, 40, dyadic=True)
    win, band = Window(10.0), Band(-1.5, 1.5)
    shift = np.array([steps * DYADIC])
    round_trip = translate(translate(pat, shift), -shift)
    before = mean_mark(pat, win, band, FIRST)
    after = mean_mark(round_trip, win, band, FIRST)
    if before.defined:
        assert after.value == before.value


@given(seed=seeds, u=st.floats(0.0, 5.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_threshold_identity(seed, u):
    rng = np.random.default_rng(seed)
    fam = threshold_family(FIRST, u)
    y = rng.normal(0.0, 3.0, 200)
    # algebraic identity, accurate to one rounding of (y - u) + u
    np.testing.assert_allclose(fam.excess(y) + u * fam.indicator(y),
                               y * fam.indicator(y), rtol=1e-12, atol=1e-12)
    ind = fam.indicator(y)
    np.testing.assert_array_equal(ind * ind, ind)


@given(seed=seeds, scale=st.floats(1e-3, 1e3, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_blue_weights_scale_invariant_and_normalized(seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4))
    sigma = a @ a.T + 4 * np.eye(4)
    w = blue_weights(sigma)
    w_scaled = blue_weights(sigma * scale)
    assert np.allclose(w, w_scaled, rtol=1e-12)
    assert abs(w.sum() - 1.0) <= 8 * np.finfo(float).eps


@given(seed=seeds, r=st.floats(-1.5, 1.5, allow_nan=False),
       h=st.floats(0.05, 1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_rectangular_kernel_is_a_band_query(seed, r, h):
    from mppstat import mean_mark_kernel

    rng = np.random.default_rng(seed)
    pat = random_pattern(rng, 40, extent=6.0, positive_marks=True)
    win = Window(6.0)
    kern = mean_mark_kernel(pat, win, r, FIRST, "rectangular", h)
    band = mean_mark(pat, win, Band(r - h, r + h), FIRST)
    if band.defined:
        assert kern.value == band.value
    else:
        assert not kern.defined
