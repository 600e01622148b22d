"""Channel-training MSE simulation for a massive-MIMO downlink under jamming.

The library models the downlink training phase of a frequency-division
duplex link: a large base-station array sends unitary pilots, a
multi-antenna jammer may inject a structured interference block, and the
user terminal forms an MMSE channel estimate. Estimation MSE is available
both in closed form and by Monte Carlo, with experiment sweeps, result
persistence and a CLI on top.
"""

from ._version import __version__
from .channel import ChannelCovariance, exponential_covariance, sample_channel
from .experiments import (
    CSV_HEADER,
    ConfigError,
    ExperimentSpec,
    JAMMING_CHOICES,
    ResultRow,
    SWEEP_AXES,
    Scenario,
    WORKERS_ENV_VAR,
    figure_spec,
    load_metadata_spec,
    metadata_path,
    read_results,
    run_sweep,
    spec_from_dict,
    spec_to_dict,
    write_results,
)
from .jammer import (
    JAMMING_STRATEGIES,
    JammingMatrix,
    LemmaVerdict,
    jamming_objective,
    optimal_jamming,
    random_unitary_jamming,
    single_shot_jamming,
    verify_lemma,
)
from .linalg import (
    HermitianEvd,
    haar_orthonormal_columns,
    hermitian_evd,
    sample_complex_gaussian,
    solve_hpd,
)
from .training import (
    ESTIMATOR_MODES,
    EstimationOutcome,
    MonteCarloMse,
    PILOT_DESIGNS,
    PilotMatrix,
    TrainingConfig,
    empirical_mse,
    mmse_estimate,
    optimal_pilots,
    random_unitary_pilots,
    received_signal,
    scenario_closed_form_mse,
    worst_case_pilots,
)

__all__ = [
    "CSV_HEADER",
    "ChannelCovariance",
    "ConfigError",
    "ESTIMATOR_MODES",
    "EstimationOutcome",
    "ExperimentSpec",
    "HermitianEvd",
    "JAMMING_CHOICES",
    "JAMMING_STRATEGIES",
    "JammingMatrix",
    "LemmaVerdict",
    "MonteCarloMse",
    "PILOT_DESIGNS",
    "PilotMatrix",
    "ResultRow",
    "SWEEP_AXES",
    "Scenario",
    "TrainingConfig",
    "WORKERS_ENV_VAR",
    "__version__",
    "empirical_mse",
    "exponential_covariance",
    "figure_spec",
    "haar_orthonormal_columns",
    "hermitian_evd",
    "jamming_objective",
    "load_metadata_spec",
    "metadata_path",
    "mmse_estimate",
    "optimal_jamming",
    "optimal_pilots",
    "random_unitary_jamming",
    "random_unitary_pilots",
    "read_results",
    "received_signal",
    "run_sweep",
    "sample_channel",
    "sample_complex_gaussian",
    "scenario_closed_form_mse",
    "single_shot_jamming",
    "solve_hpd",
    "spec_from_dict",
    "spec_to_dict",
    "verify_lemma",
    "worst_case_pilots",
    "write_results",
]
