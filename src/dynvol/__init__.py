"""Volatility estimation that blends a rolling window of recent returns with
a kernel regression on the level of the process, weighting the two by their
estimated sampling variances.

The names below load their module, and numpy, on first use (PEP 562), so
that `dynvol.cli` can pin numpy's BLAS to one thread before numpy loads."""

import importlib

# each exported name and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("DegenerateCaseWarning", "DegenerateSeriesError",
                     "DynvolError", "IngestionError",
                     "InsufficientHistoryError", "NoCoverageError",
                     "SingularDesignError", "TooFewPointsError"), "errors"),
    **dict.fromkeys(("StudyConfig", "run_backtest", "run_simulation_study",
                     "study_preset", "write_backtest_outputs",
                     "write_study_outputs"), "harness"),
    "ingest_csv": "ingest",
    "combine_estimates": "integration",
    **dict.fromkeys(("GbmParams", "RngStream", "simulate_gbm"), "sde"),
    **dict.fromkeys(("select_bandwidth", "xi_weights"), "state_domain"),
    **dict.fromkeys(("EsConfig", "autocorr_sq", "es_variance", "exp_smooth"),
                    "time_domain"),
}
__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
