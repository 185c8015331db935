"""Causal Fisher-information inequalities for binary measurement records.

The package is organised around one pipeline:

* :mod:`cfii.models` - binary outcome families (ideal qubit fringe, damped
  noisy fringe, generic categoricals) with their Fisher information and
  score moments.
* :mod:`cfii.fim` - effective information of a multiparameter Fisher
  matrix for a direction of interest, and coarse-graining.
* :mod:`cfii.witness` - the path witness V, chain witnesses, classical
  split benchmarks, and the dephasing crossing point.
* :mod:`cfii.estimate` - finite-shot sampling, certification reports with
  delta-method standard errors, classifier-based scores, and the MLE's
  Monte Carlo RMSE.
* :mod:`cfii.adversary` - a parametric adversarial family plus the
  optimizer used to probe saturation of the witness bound.
* :mod:`cfii.cli` - the ``cfii`` command-line driver.
"""

__version__ = "0.1.0"

import os
import sys
from importlib import import_module

# OpenBLAS starts its worker threads when numpy is imported, and each spins
# for about 0.1 CPU-s waiting for work before it sleeps.  cfii's matrices are
# too small to be split across threads, so in a short process (one CLI call)
# that spin only competes with the main thread for a CPU.  Letting the
# workers sleep at once keeps the pool, and the caller's own setting wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

# Each public name -> the submodule that defines it.  A name is looked up in
# its submodule on every access (PEP 562 __getattr__) and never copied into
# this namespace, so `import cfii` loads no layer and no numpy, a CLI call
# loads only its command's layers, and a patched submodule attribute is what
# cfii.<name> returns.
_EXPORTS = {
    **dict.fromkeys((
        "CfiiError", "DegenerateModelError", "NonPositiveFiError",
        "NotPositiveDefiniteError", "NonStochasticChannelError",
        "OptimizationError", "NoCrossingError", "DegenerateBenchmarkError",
        "EstimationError", "ResistanceOverflowError"), "errors"),
    "derive_rng": "rng",
    **dict.fromkeys((
        "QubitPreparation", "NoisyFringeParams", "BinaryModel",
        "QubitFringeModel", "NoisyFringeModel", "CategoricalModel",
        "categorical_fi"), "models"),
    **dict.fromkeys(("effective_fi", "coarse_grain_fi"), "fim"),
    **dict.fromkeys((
        "WitnessReport", "v_path", "v_chain", "classical_benchmark_path",
        "gain_indicator", "split_optimized_benchmark", "k_chain_gain",
        "gamma_crossing", "nsit_separation_demo"), "witness"),
    **dict.fromkeys((
        "ContextSample", "FiEstimate", "CertificationReport", "sample_binary",
        "certify_vk", "analytic_certification", "classifier_score",
        "classifier_fi", "mc_rmse", "mc_vk_distribution"), "estimate"),
    **dict.fromkeys((
        "AdversaryParams", "OptimizeResult", "gamma_adv",
        "gamma_adv_gradient", "optimize_restarts"), "adversary"),
}
_SUBMODULES = {*_EXPORTS.values(), "cli"}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(_submodule(_EXPORTS[name]), name)
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _submodule(name: str):
    # sys.modules first: import_module takes about 4 us on a loaded module,
    # and a warm loop may look a name up at every call
    full = f"{__name__}.{name}"
    return sys.modules.get(full) or import_module(full)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
