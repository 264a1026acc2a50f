"""roughball: a Monte-Carlo laboratory for step-2 lifts of Gaussian paths.

Layers, bottom up: ``algebra`` (the step-2 nilpotent group and homogeneous
norms), ``paths`` (grid rough paths, Hölder metrics, dyadic bounds),
``gaussian`` (covariance models, exact samplers, kernel norms, audits),
``smallball`` (small-ball curves and index fits), ``inequalities``
(correlation and shift inequalities with verdicts), ``quantize`` (covers,
entropy bounds, codebooks, transport), and ``runner``/``cli`` (config-driven
experiment pipelines).
"""

from .algebra import (
    DEFAULT_NORM_VARIANT,
    G2Element,
    L2Element,
    batch_homogeneous_norm,
    g2_dilate,
    g2_exp,
    g2_inverse,
    g2_log,
    g2_multiply,
    g2_unit,
    homogeneous_norm,
    random_g2,
    subadditivity_ratio,
)
from .config import ConfigError, ExperimentConfig, echo_config, parse_config
from .gaussian import (
    CameronMartinNorm,
    ConditioningError,
    CovarianceModel,
    PathSample,
    SamplerPlan,
    brownian_model,
    cameron_martin_norm,
    covariance,
    custom_model,
    fbm_model,
    rectangle_covariance,
    rho_variation_audit,
    sample_path_block,
    sample_rng,
    schauder_coefficient,
    sigma_conditions_audit,
    simulate_paths,
    wavelet_correlation,
    wavelet_covariance,
    wavelet_variance,
)
from .inequalities import (
    InequalityReport,
    canary_violation,
    check_anderson,
    check_borell_shift,
    check_borell_shift_rough,
    check_cameron_martin,
    check_sidak,
)
from .paths import (
    CMPath,
    DyadicBoundResult,
    GridRoughPath,
    batch_prefix,
    chen_defect,
    dyadic_holder_bound,
    dyadic_level_maxima,
    geometric_defect,
    holder_distance,
    holder_norm,
    lift_piecewise_linear,
    translate,
    trivial_rough_path,
)
from .quantize import (
    BallMesh,
    Codebook,
    CoverResult,
    DiscreteMeasure,
    LiftedSet,
    SBPTransform,
    cm_ball_mesh,
    cover_growth_curve,
    embed_constant_increment,
    empirical_measures,
    empirical_rate_experiment,
    entropy_bounds_from_sbp,
    greedy_cover,
    lloyd_codebook,
    pairwise_distance,
    quantization_error,
    wasserstein,
)
from .runner import StrictViolationError, run
from .smallball import (
    IndexFit,
    SBPCurve,
    erf_bound_scan,
    erf_lower_bounds,
    estimate_sbp_curve,
    fit_variation_index,
    predicted_sbp_index,
    rd_gaussian_small_ball,
    sample_dyadic_level_maxima,
    wilson_interval,
)

__version__ = "0.1.0"
