"""Poisson-Orlicz numerical laboratory.

Norms on functions over infinite measure spaces (gauge, Orlicz, and the
Poisson-Orlicz norms), Poisson point-process stochastic integrals with exact
and Monte Carlo evaluators, infinite-measure-preserving dynamics, and seeded
decay experiments.
"""

from .measure import (
    Moments,
    SimpleFunction,
    TestFunction,
    Window,
    function_moments,
    indicator,
    integrate,
    piecewise_constant,
    piecewise_to_simple,
    simple_moments,
    simple_to_test,
    triangular_bump,
    window,
    window_intersect,
    window_position,
    window_translate,
    window_union,
)
from .orlicz import (
    gauge_norm,
    modular,
    orlicz_norm_amemiya,
    orlicz_norm_paper,
    young_phi,
    young_psi,
)
from .poisson import (
    MCEstimate,
    PoissonSample,
    QuadratureError,
    abs_moment_exact,
    coboundary_check,
    difference_check,
    equivariance_check,
    estimate_star_norm,
    estimate_starstar_norm,
    integral_centered,
    mecke_check,
    reduced_moment_check,
    sample_process,
    second_moment_check,
    star_norm_exact,
    star_norm_hsu,
    starstar_norm_exact,
)
from .dynamics import (
    DynamicalSystem,
    birkhoff,
    circle_indicator,
    make_boole,
    make_composite,
    make_translation,
    transfer_apply,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ExperimentRow,
    Verdict,
    default_config,
    result_to_csv,
    result_to_json,
    run_experiment,
)

__version__ = "0.1.0"
