"""Path analysis for recursive causal models.

Estimates standardized path coefficients from a correlation matrix or raw
data, decomposes correlations into direct/indirect/spurious trek
contributions, assesses fit through reproduced correlations, revises the
model, and reports causal-effect summaries.

The names that handle raw rows (from data, screening and simulate) are
imported on first use (PEP 562), so `import pathtrek` and the
correlation-table path do not load numpy.
"""

import importlib

__version__ = "0.1.0"

from .correlation import (
    CorrelationMatrix,
    StrengthLabel,
    classify_strength,
    load_correlation_csv,
    pearson_matrix,
)
from .effects import (
    EffectsTable,
    FitAssessment,
    RevisionTrace,
    assess_fit,
    decompose_effects,
    revise_model,
    total_effect_oracle,
    write_effects_csv,
    write_revision_csv,
)
from .estimation import FittedModel, coefficient_inference, fit_standardized
from .pathspec import PathModel, load_model, parse_model, render_model, topological_order
from .tracing import (
    ReproducedMatrix,
    Trek,
    enumerate_treks,
    implied_matrix,
    reproduced_matrix,
    write_treks_csv,
)

_LAZY = {
    **dict.fromkeys(
        ("Dataset", "VariableSummary", "load_csv", "standardize", "summarize"), "data"),
    **dict.fromkeys(
        ("ScreeningReport", "ks_normality", "mahalanobis", "residual_diagnostics", "screen",
         "vif"), "screening"),
    **dict.fromkeys(("SimulationSpec", "recovery_check", "simulate_dataset"), "simulate"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "CorrelationMatrix",
    "Dataset",
    "EffectsTable",
    "FitAssessment",
    "FittedModel",
    "PathModel",
    "ReproducedMatrix",
    "RevisionTrace",
    "ScreeningReport",
    "SimulationSpec",
    "StrengthLabel",
    "Trek",
    "VariableSummary",
    "assess_fit",
    "classify_strength",
    "coefficient_inference",
    "decompose_effects",
    "enumerate_treks",
    "fit_standardized",
    "implied_matrix",
    "ks_normality",
    "load_correlation_csv",
    "load_csv",
    "load_model",
    "mahalanobis",
    "parse_model",
    "pearson_matrix",
    "recovery_check",
    "render_model",
    "reproduced_matrix",
    "residual_diagnostics",
    "revise_model",
    "screen",
    "simulate_dataset",
    "standardize",
    "summarize",
    "topological_order",
    "total_effect_oracle",
    "vif",
    "write_effects_csv",
    "write_revision_csv",
    "write_treks_csv",
]
