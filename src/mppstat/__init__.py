"""Simulation and intrinsically weighted mean-mark estimation for marked point processes.

The package simulates stationary (possibly non-ergodic) marked point
patterns on R^d and estimates first- and second-order mean marks with
single- and multi-realization weighting schemes, variance-minimizing
weights, and asymptotic-normality based confidence intervals, backed by
closed-form and Monte Carlo oracles for verification.
"""

from .core import (
    Band,
    InputError,
    MppstatError,
    NumericError,
    PatternBatch,
    PointPattern,
    SimWindow,
    UnsupportedSpecError,
    Window,
    band_pair_indices,
    band_pair_indices_naive,
    buffered_window,
    read_pattern_csv,
    translate,
    write_pattern_csv,
)
from .markfn import (
    MarkFunction,
    ThresholdFamily,
    builtin,
    indicator_pair,
    make_mark_function,
    threshold_family,
)
from .sim import (
    Covariance,
    GaussianFieldMarks,
    GridGround,
    HardcoreGround,
    IidMarks,
    MixtureClass,
    MixtureSpec,
    PoissonGround,
    banded_covariance,
    matern2_retained_intensity,
    mixture_from_json,
    mixture_to_json,
    sample_batch,
    sample_blocks,
    sample_ground,
    sample_marks,
    sample_mixture,
    spec_digest,
)
from .est import (
    EstimateResult,
    PairTable,
    concat_patterns,
    mean_mark,
    mean_mark_avg,
    mean_mark_pooled,
    mean_mark_weighted,
    pair_sums,
    pair_table,
)
from .weights import (
    WeightStrategy,
    compute_weights,
    conditional_variances,
    mean_mark_conditional_variance,
    neighbor_counts,
)
from .infer import clt_experiment, confidence_interval
from .oracle import (
    ClassMoments,
    class_averaged_mean_mark,
    class_moments,
    mixture_mean_mark,
    monte_carlo_mean_mark,
    threshold_excess_mean,
)

__version__ = "0.1.0"
