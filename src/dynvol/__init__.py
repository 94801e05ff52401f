"""Volatility estimation that blends a rolling window of recent returns with
a kernel regression on the level of the process, weighting the two by their
estimated sampling variances."""

from .errors import (DegenerateCaseWarning, DegenerateSeriesError, DynvolError,
                     IngestionError, InsufficientHistoryError, NoCoverageError,
                     SingularDesignError, TooFewPointsError)
from .harness import (StudyConfig, run_backtest, run_simulation_study,
                      study_preset, write_backtest_outputs, write_study_outputs)
from .ingest import ingest_csv
from .integration import combine_estimates
from .sde import GbmParams, RngStream, simulate_gbm
from .state_domain import select_bandwidth, xi_weights
from .time_domain import EsConfig, autocorr_sq, es_variance, exp_smooth

__version__ = "0.1.0"
