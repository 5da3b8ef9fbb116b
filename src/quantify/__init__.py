"""Prevalence estimation under prior probability shift.

``core`` and ``shift_test`` load with the package; every other layer loads on
first use of one of its public names (PEP 562), so a command line run imports
only the layers its command calls.  ``quantify.shift_test`` is the function,
which hides the submodule of the same name.
"""

import importlib

from .core import (
    CsvSchema,
    DataError,
    EstimationError,
    ExternalScore,
    LogisticScore,
    RawDataset,
    ScoreFunction,
    ScoredDataset,
    fit_logistic,
    fit_logistic_ovr,
    load_csv,
    rng_from,
    score_dataset,
)
from .shift_test import KernelDensity, ShiftTestResult, kde_fit, shift_test, t_statistic

_LAZY = {
    "estimators": (
        "CombinedEstimate",
        "SimplexEstimate",
        "ThetaEstimate",
        "classify_and_count",
        "combined_estimate",
        "em_estimate",
        "empirical_mse",
        "multiclass_ratio",
        "project_simplex",
        "ratio_ci",
        "ratio_estimate",
        "ratio_variance",
    ),
    "regression": (
        "RegressionCurve",
        "cc_regress",
        "cv_bandwidth",
        "nadaraya_watson",
        "ratio_regress",
    ),
    "rkhs": (
        "KernelMatrices",
        "KernelScore",
        "KernelSpec",
        "RkhsSelection",
        "build_matrices",
        "median_bandwidth",
        "select_g",
        "solve_weights",
        "stratified_split",
    ),
    "simulate": (
        "ExperimentReport",
        "ScenarioSpec",
        "generate",
        "null_gamma",
        "run_combined_study",
        "run_coverage_study",
        "run_mse_study",
        "run_multiclass_study",
        "run_power_study",
        "run_regression_study",
        "symmetric_gaussian",
        "table_scenario",
    ),
}
_HOME = {name: layer for layer, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """A lazy layer, or one of its public names, read from the layer on every access.

    The value is not stored here, so anything that rebinds the name in its
    layer (such as a tracing wrapper) is seen, and nothing of it is left behind.
    """
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_HOME})


__version__ = "0.1.0"

# The eager imports above, without the modules they bind (``core``, ``importlib``),
# and every lazy name.
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, type(importlib))]
    + list(_HOME)
)
