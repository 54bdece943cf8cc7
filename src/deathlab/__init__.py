"""deathlab: simulation plus exact analytics for a binomial-thinning pure
death process.

At each discrete time every one of x individuals independently dies with
probability c, so the population follows D_{t+1} = x - Binomial(x, c)
with 0 absorbing.  The package computes the model's closed forms, checks
them against brute-force oracles, and reproduces the scaling limits
(exponential passage laws, implosion from a growing truncation level) by
reproducible Monte Carlo.
"""

from .analytics import (
    AnalyticReport,
    AnalyticsError,
    ReportRow,
    extinction_cdf,
    implosion_expected_time,
    limit_passage_rate,
    passage_mgf,
    passage_mgf_domain,
    passage_pmf,
    path_prob_lower_bound_constant,
    path_prob_lower_bound_joint,
    path_prob_lower_bound_state,
    single_drop_path_prob,
    single_drop_prob,
    typical_extinction_time,
)
from .kernels import BACKEND, warmup
from .limits import (
    ScaledPassageBatch,
    SweepRow,
    implosion_batch,
    implosion_truncation_sweep,
    scaled_passage_batch,
    scaling_constant,
)
from .oracle import (
    OracleError,
    exact_extinction_curve,
    exact_jump_law,
    exact_passage_law,
    exact_single_drop_path_prob,
    mgf_by_summation,
    state_distribution_history,
)
from .process import (
    ProcessError,
    TrajectoryBatch,
    drop_distribution,
    extinction_time_batch,
    first_passage_batch,
    simulate_trajectory,
    single_drop_batch,
    step,
)
from .regimes import (
    Constant,
    InitialPower,
    JointPower,
    MortalityRegime,
    RegimeError,
    StatePower,
    Table,
    mortality,
    mortality_vector,
)
from .rng import RngError, RngStream, make_stream
from .samplers import (
    SamplerError,
    sample_exponential_batch,
    sample_geometric_batch,
    sample_max_geometric_batch,
)
from .stats import (
    SampleSummary,
    StatsError,
    kolmogorov_sf,
    ks_critical_value,
    ks_statistic,
    ks_two_sample,
    ks_two_sample_critical,
    wilson_interval,
)

__version__ = "0.1.0"
