"""Workload forecasting for proactive scheduling.

§7: "a unified, ideally even proactive, approach may also reduce the
number of required workload migrations."  Proactivity needs demand
forecasts; this package provides exponentially-weighted and
seasonality-aware forecasters over the telemetry time series, plus a
forecast-driven weigher that steers placements away from hosts *about* to
run hot.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Forecast": "models",
    "EwmaForecaster": "models",
    "HoltLinearForecaster": "models",
    "SeasonalNaiveForecaster": "models",
    "evaluate_forecaster": "models",
    "ForecastWeigher": "proactive",
    "forecast_host_load": "proactive",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
