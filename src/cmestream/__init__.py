"""Streaming conditional-mean-embedding operator learning.

Learns the embedding operator of a Markov process one sample pair at a
time, keeps the kernel dictionary compressed under an explicit error
budget, and extracts Koopman eigenfunctions from the learned operator.
"""

import os as _os
import sys as _sys

# Cap numeric parallelism before any BLAS backend loads.
if "CME_NUM_THREADS" in _os.environ and "numpy" not in _sys.modules:
    _n = _os.environ["CME_NUM_THREADS"]
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        _os.environ.setdefault(_var, _n)

from .batch import (FiniteSpaceModel, batch_solution, distance_to_oracle,
                    exact_finite_cme, gradient_norm_gram, stationary_distribution)
from .dynamics import (DuffingParams, DuffingTrajectories, FiniteChainStream,
                       FiniteIIDStream, duffing_step, duffing_trajectory,
                       generate_stream, mixing_time, tv_distance)
from .errors import (CapacityError, CmeError, ConfigError, InputError,
                     ModelError, NumericalError)
from .kernels import (GramCache, Kernel, cross_gram, eval_kernel, gram_matrix,
                      inverse_with_jitter, woodbury_append)
from .koopman import (GridSpec, KoopmanSpectrum, eigen_spectrum,
                      eval_eigenfunction, grid_eval, koopman_matrix,
                      koopman_spectrum)
from .learner import (ConstantBudget, ConstantStep, CubicBudget, LearnerConfig,
                      LearnerState, PolynomialStep, QuadraticBudget, StepRecord,
                      ZeroBudget, checkpoint_marks, new_state, run_stream, step)
from .operator import (Dictionary, KmeWeights, OperatorRep,
                       conditional_expectation, hs_distance, hs_inner, hs_norm,
                       hs_norm_sq, load_rep, predict_coefficients,
                       propagate_kme, rep_from_dict, rep_to_dict, save_rep,
                       zero_rep)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "CmeError", "ConfigError", "ConstantBudget",
    "ConstantStep", "CubicBudget", "Dictionary", "DuffingParams",
    "DuffingTrajectories", "FiniteChainStream", "FiniteIIDStream",
    "FiniteSpaceModel", "GramCache", "GridSpec", "InputError", "Kernel",
    "KmeWeights", "KoopmanSpectrum", "LearnerConfig", "LearnerState",
    "ModelError", "NumericalError", "OperatorRep", "PolynomialStep",
    "QuadraticBudget", "StepRecord", "ZeroBudget", "batch_solution",
    "checkpoint_marks", "conditional_expectation", "cross_gram",
    "distance_to_oracle", "duffing_step", "duffing_trajectory",
    "eigen_spectrum", "eval_eigenfunction", "eval_kernel",
    "exact_finite_cme", "generate_stream", "gradient_norm_gram",
    "gram_matrix", "grid_eval", "hs_distance", "hs_inner", "hs_norm",
    "hs_norm_sq", "inverse_with_jitter", "koopman_matrix",
    "koopman_spectrum", "load_rep", "mixing_time", "new_state",
    "predict_coefficients", "propagate_kme", "rep_from_dict",
    "rep_to_dict", "run_stream", "save_rep", "stationary_distribution",
    "step", "tv_distance", "woodbury_append", "zero_rep",
]
