"""Telemetry substrate: a Prometheus/Thanos-like time-series pipeline.

The paper's monitoring stack is Prometheus + Thanos fed by two exporters:
the vROps exporter (``vrops_*`` metrics from VMware vRealize Operations) and
the MySQL server exporter over the Nova DB (``openstack_compute_*`` metrics).
This package reproduces that pipeline: typed time series, a label-indexed
metric store with range queries and aggregation, the exact Table 4 metric
catalogue, downsampling, and the CSV interchange format of the public
dataset.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "TimeSeries": "timeseries",
    "MetricStore": "store",
    "Sample": "store",
    "SampleBlock": "store",
    "MetricSpec": "metrics",
    "METRIC_CATALOG": "metrics",
    "VROPS_METRICS": "metrics",
    "NOVA_METRICS": "metrics",
    "metric_table": "metrics",
    "downsample": "downsample",
    "VropsExporter": "exporters",
    "NovaExporter": "exporters",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

# ``downsample`` names a submodule and its function.  Importing the submodule
# binds the module to this package's attribute, which would then shadow the
# lazy export, so the function is bound here, after that import.
from repro.telemetry.downsample import downsample  # noqa: E402
