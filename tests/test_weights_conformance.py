"""Conformance of the shipped weight strategies on the shipped mixture specs.

The consistency theory for weighted multi-realization estimators asks, per
strategy, for (a) weights that stabilize within each ergodic class as the
window grows, (b) non-negative weights with a positive sum, (c) weight
variance bounded relative to the mean, and (d) comparability between the
weights and the realization pair counts.  Conditions involving unobservable
expectations cannot be checked at runtime; this module verifies their
checkable consequences empirically for each (strategy, spec) pair and
records the analytic verdicts:

strategy  spec            verdict
--------  --------------  ----------------------------------------------
equal     any             all conditions hold trivially (constant weights)
pairs     poisson2/grid   weights/volume -> class pair rate; ratio to the
                          pair count is identically one
counts    poisson2/grid   weights/volume -> class intensity; bounded
                          weight-to-pair-count ratio
rfvar     grid+field      weights -> reciprocal conditional variance,
                          positive whenever a realization has pairs
"""

import numpy as np
import pytest

from mppstat import (
    Band,
    Covariance,
    GaussianFieldMarks,
    GridGround,
    IidMarks,
    MixtureClass,
    MixtureSpec,
    PoissonGround,
    WeightStrategy,
    Window,
    buffered_window,
    builtin,
    compute_weights,
    conditional_variances,
    mean_mark_weighted,
    pair_table,
    sample_mixture,
)

BAND = Band(0.5, 1.5)
FIRST = builtin("first")

SPECS = {
    "poisson2": MixtureSpec(
        (
            MixtureClass(0.5, PoissonGround(1.0), IidMarks("normal", (0.0, 1.0))),
            MixtureClass(0.5, PoissonGround(4.0), IidMarks("normal", (10.0, 1.0))),
        )
    ),
    "grid_field": MixtureSpec(
        (MixtureClass(1.0, GridGround(1.0, 0.2), GaussianFieldMarks(0.0, 1.0, 0.4)),)
    ),
}

STRATEGIES = {
    "equal": WeightStrategy("equal"),
    "pairs": WeightStrategy("alpha"),
    "counts": WeightStrategy("count"),
    "rfvar": WeightStrategy("rfvar", cov=Covariance("spherical", 1.0, 0.4)),
}


def _weights(strategy, pats, win):
    """The strategy's weights on the table of `pats`; rfvar reads their conditional variances."""
    variances = (conditional_variances(pats, win, BAND, strategy.cov)
                 if strategy.kind == "rfvar" else None)
    return compute_weights(strategy, pair_table(pats, win, BAND, FIRST), variances)


def _simulate(spec, t_extent, n, seed):
    win = Window(t_extent)
    sw = buffered_window(win, BAND)
    out = sample_mixture(spec, sw, n, seed)
    return [p for p, _ in out], [k for _, k in out], win


@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("strat_name", sorted(STRATEGIES))
class TestStrategySpecPairs:
    def test_weights_admissible(self, strat_name, spec_name):
        pats, _, win = _simulate(SPECS[spec_name], 40.0, 12, seed=7)
        w = _weights(STRATEGIES[strat_name], pats, win)
        assert np.all(np.isfinite(w)) and np.all(w >= 0)
        assert w.sum() > 0

    def test_weights_stabilize_within_class_as_window_grows(self, strat_name, spec_name):
        spec = SPECS[spec_name]
        spread = {}
        for t_extent in (30.0, 240.0):
            pats, ks, win = _simulate(spec, t_extent, 40, seed=11)
            w = _weights(STRATEGIES[strat_name], pats, win)
            rel = []
            for k in range(spec.n_classes):
                wk = w[np.array(ks) == k]
                if wk.size >= 5 and np.mean(wk) > 0:
                    rel.append(np.std(wk, ddof=1) / np.mean(wk))
            spread[t_extent] = max(rel) if rel else 0.0
        if strat_name == "equal":
            assert spread[240.0] == 0.0
        else:
            assert spread[240.0] < max(spread[30.0], 0.05)

    def test_weighted_estimate_stays_defined(self, strat_name, spec_name):
        from mppstat import builtin

        pats, _, win = _simulate(SPECS[spec_name], 40.0, 12, seed=13)
        table = pair_table(pats, win, BAND, builtin("first"))
        w = _weights(STRATEGIES[strat_name], pats, win)
        res = mean_mark_weighted(table, w)
        assert res.defined


class TestVarianceReductionLight:
    def test_count_weighting_beats_equal_on_uneven_windows(self):
        # light version of the acceptance run: realizations with very
        # different point counts, iid marks
        from mppstat import builtin
        from helpers import pattern_1d

        rng = np.random.default_rng(17)
        first = builtin("first")
        win, band = Window(100.0), Band(0.5, 1.5)
        var = {"count": [], "equal": []}
        for _ in range(300):
            pats = []
            for _ in range(6):
                extent = float(rng.uniform(8.0, 100.0))
                x = np.arange(0.0, extent + 1e-9)
                pats.append(pattern_1d(x, y=rng.normal(0.0, 1.0, x.size),
                                       lo=0.0, hi=extent))
            for kind in var:
                table = pair_table(pats, win, band, first)
                w = compute_weights(WeightStrategy(kind), table)
                var[kind].append(mean_mark_weighted(table, w).value)
        assert np.var(var["count"], ddof=1) < np.var(var["equal"], ddof=1)
