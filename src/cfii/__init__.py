"""Causal Fisher-information inequalities for binary measurement records.

The package is organised around one pipeline:

* :mod:`cfii.models` - binary outcome families (ideal qubit fringe, damped
  noisy fringe, generic categoricals) with exact scores and Fisher
  information.
* :mod:`cfii.fim` - multiparameter Fisher matrices, effective information
  for a direction of interest, synergy bookkeeping, and coarse-graining.
* :mod:`cfii.witness` - the path witness V, chain witnesses, classical
  split benchmarks, and the dephasing crossing point.
* :mod:`cfii.estimate` - finite-shot plug-in estimation, standard errors,
  certification reports, classifier-based scores, and MLE calibration.
* :mod:`cfii.adversary` - a parametric adversarial family plus the
  optimizer used to probe saturation of the witness bound.
* :mod:`cfii.cli` - the ``cfii`` command-line driver.
"""

__version__ = "0.1.0"

import os

# OpenBLAS starts its worker threads when numpy is imported, and each spins
# for about 0.1 CPU-s waiting for work before it sleeps.  cfii's matrices are
# too small to be split across threads, so in a short process (one CLI call)
# that spin only competes with the main thread for a CPU.  Letting the
# workers sleep at once keeps the pool, and the caller's own setting wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .adversary import (AdversaryParams, OptimizeResult, endpoint_fim,
                        eval_kernels, gamma_adv, gamma_adv_gradient,
                        module_fis, optimize_restarts)
from .errors import (BranchWarning, CfiiError, DegenerateBenchmarkError,
                     DegenerateModelError, EstimationError, NoCrossingError,
                     NonPositiveFiError, NonStochasticChannelError,
                     NotPositiveDefiniteError, OptimizationError)
from .estimate import (CertificationReport, ContextSample, FiEstimate,
                       analytic_certification, analytic_mu4, certify_vk,
                       classifier_fi, classifier_score, fi_estimate_variance,
                       mc_rmse, mc_vk_distribution, mle_theta, plugin_fi,
                       sample_binary)
from .fim import (FisherMatrix, coarse_grain_fi, effective_fi,
                  equicorrelated_effective_fi, equicorrelated_matrix,
                  synergy_effective_fi, synergy_window)
from .models import (BinaryModel, CategoricalModel, NoisyFringeModel,
                     NoisyFringeParams, QubitFringeModel, QubitPreparation,
                     categorical_fi, categorical_product)
from .rng import derive_rng
from .witness import (WitnessReport, classical_benchmark_path, gain_indicator,
                      gamma_crossing, improvement_factor, k_chain_gain,
                      nsit_separation_demo, split_optimized_benchmark,
                      v_chain, v_path)

__all__ = [
    "__version__",
    # errors
    "CfiiError", "DegenerateModelError", "NonPositiveFiError",
    "NotPositiveDefiniteError", "NonStochasticChannelError",
    "OptimizationError", "NoCrossingError", "DegenerateBenchmarkError",
    "EstimationError", "BranchWarning",
    # rng
    "derive_rng",
    # models
    "QubitPreparation", "NoisyFringeParams", "BinaryModel",
    "QubitFringeModel", "NoisyFringeModel", "CategoricalModel",
    "categorical_fi", "categorical_product",
    # fim
    "FisherMatrix", "effective_fi", "synergy_effective_fi", "synergy_window",
    "equicorrelated_effective_fi", "equicorrelated_matrix", "coarse_grain_fi",
    # witness
    "WitnessReport", "v_path", "v_chain", "classical_benchmark_path",
    "gain_indicator", "improvement_factor", "split_optimized_benchmark",
    "k_chain_gain", "gamma_crossing", "nsit_separation_demo",
    # estimate
    "ContextSample", "FiEstimate", "CertificationReport", "sample_binary",
    "plugin_fi", "analytic_mu4", "fi_estimate_variance", "certify_vk",
    "analytic_certification", "classifier_score", "classifier_fi",
    "mle_theta", "mc_rmse", "mc_vk_distribution",
    # adversary
    "AdversaryParams", "OptimizeResult", "eval_kernels", "module_fis",
    "endpoint_fim", "gamma_adv", "gamma_adv_gradient", "optimize_restarts",
]
