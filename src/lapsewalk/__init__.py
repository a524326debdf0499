"""Elephant random walk with delays and memory lapses.

Simulation, exact finite-n oracles, and seeded Monte Carlo verification of
the walk's law of large numbers, central limit behaviour in the diffusive
and critical regimes, and the superdiffusive martingale limit.
"""

from .analytic import (
    a_sequence,
    expected_s,
    expected_z,
    growth_values,
    lil_envelope,
    regime_prediction,
    sum_inv_a_closed,
    v_limit_superdiffusive,
    v_sequence,
)
from .ensemble import (
    EnsembleResult,
    LilDiagnostic,
    MomentAccumulator,
    bootstrap_variance_ci,
    dyadic_snapshots,
    estimate_w,
    lil_diagnostic,
    martingale_track,
    residual_clt_sample,
    run_ensemble,
)
from .errors import (
    CapExceeded,
    Degenerate,
    DomainTooSmall,
    InvalidParams,
    InvalidState,
    LapsewalkError,
    OutOfDomain,
    SampleTooSmall,
)
from .exact import (
    DiscreteCdf,
    ExactDistribution,
    ExactMoments,
    MomentTable,
    distribution_dp,
    dp_moment_scan,
    enumerate_paths,
    exact_moments,
    standardized_exact_cdf,
)
from .model import (
    DerivedConstants,
    ModelParams,
    Regime,
    classify_regime,
    derive_constants,
    simulate_trajectory,
    step_distribution,
)
from .rng import RngStream, Xoshiro256Batch
from .stats import (
    KsResult,
    SlopeFit,
    fit_loglog,
    ks_distance_cdf,
    ks_test_normal,
    normal_cdf,
    normal_cdf_array,
)

__version__ = "0.1.0"
