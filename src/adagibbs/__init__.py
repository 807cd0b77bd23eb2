"""Adaptive random scan Gibbs samplers with exact verification machinery.

The package pairs every sampler and every closed-form convergence bound with
an exact finite-state oracle: kernels are materialised as matrices, chain
laws are pushed forward without sampling error, and asymptotic variances are
computed spectrally, so adaptation rules can be validated rather than
trusted.
"""

__version__ = "0.1.0"

from .weights import (
    InvalidEpsilonError,
    InvalidWeightsError,
    MixtureDecomposition,
    SelectionWeights,
    make_selection_weights,
    mixture_decomposition,
    sup_distance,
)
from .targets import (
    ContinuousProductTarget,
    FiniteProductTarget,
    TargetError,
    raised_cosine,
)
from .kernels import (
    DistributionVector,
    TransitionMatrix,
    gibbs_kernel_matrix,
    metropolis_kernel_matrix,
    mwg_kernel_matrix,
    single_coordinate_kernel,
    systematic_scan_kernel,
)
from .samplers import (
    Trajectory,
    adap_rs_adap_mwg_run,
    adap_rsg_run,
    derive_seed,
    gaussian_random_walk,
    keep_previous,
    read_trajectory_csv,
    rs_mwg_run,
    write_trajectory_csv,
)
from .ladder import (
    LadderTarget,
    Schedule,
    dominance_holds,
    dominating_walk_law,
    failure_probability_budget,
    hoeffding_tail,
    ladder_step_law,
    ladder_update_rule,
    linear_schedule,
    schedule_a,
    transience_experiment,
    truncated_ladder_evolution,
    unbounded_ladder_law,
)
from .bounds import (
    MinorizationCertificate,
    geometric_counterexample_gap,
    minorization_search,
    proposal_vs_kernel_tv,
    strong_uniform_constants,
    systematic_to_random_scan,
    tv_lipschitz_bound,
    uniform_ergodicity_bound,
)
from .variance import (
    ReversibleChain,
    SpectralDecomposition,
    asvar_decomposition,
    iact_estimate,
    lazy_variance,
    scan_autocorrelation_relation,
    spectral_asymptotic_variance,
    spectral_decomposition,
    stationary_variance,
)
from .adaptation import (
    ComponentwiseAdaptation,
    diminishing_monitor,
    weight_update,
)
