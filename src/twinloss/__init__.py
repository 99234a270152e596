"""Transmission estimation with twin photon beams.

Exact joint photon-number statistics of a two-mode squeezed vacuum under
loss and dark counts, classical and quantum Fisher information benchmarks,
maximum-likelihood fitting, and seeded simulation.
"""

from .fisher import (
    CrossoverCurve,
    FisherMatrix,
    LowLossValidityWarning,
    NumericError,
    classical_fim,
    crossover_curve,
    observed_fim,
    qfim_coherent,
    qfim_fock,
    qfim_inverse_analytic,
    qfim_lowloss_tmsv,
    qfim_tmsv,
    reparametrize_fim,
    sensitivity,
    total_variance,
)
from .mle import (
    Histogram,
    MleResult,
    covariance_estimate,
    fit,
    kl_objective,
    moment_init,
    rng_stream,
)
from .pnd import (
    PARAM_NAMES,
    JointPND,
    ParamSet,
    apply_dark_counts,
    default_cutoff,
    lossy_tmsv_pnd,
    model_pnd,
)
from .sim import (
    BOOTSTRAP_MODES,
    bootstrap,
    relative_error_map,
    rms_error,
    sample_shots,
)

__version__ = "0.1.0"

__all__ = [
    "PARAM_NAMES",
    "BOOTSTRAP_MODES",
    "ParamSet",
    "JointPND",
    "lossy_tmsv_pnd",
    "apply_dark_counts",
    "model_pnd",
    "default_cutoff",
    "FisherMatrix",
    "NumericError",
    "LowLossValidityWarning",
    "classical_fim",
    "observed_fim",
    "reparametrize_fim",
    "qfim_coherent",
    "qfim_fock",
    "qfim_inverse_analytic",
    "qfim_lowloss_tmsv",
    "qfim_tmsv",
    "total_variance",
    "sensitivity",
    "CrossoverCurve",
    "crossover_curve",
    "Histogram",
    "MleResult",
    "kl_objective",
    "moment_init",
    "fit",
    "covariance_estimate",
    "rng_stream",
    "sample_shots",
    "bootstrap",
    "relative_error_map",
    "rms_error",
    "__version__",
]
