"""Analysis layer: RVD, sensitivity maps, Monte Carlo engine, criticality
ranking, drift timelines and recalibration policies."""

from .critical import (
    BatchMetricFn,
    ComponentCriticality,
    CriticalityReport,
    MetricFn,
    SingleMZIRVDMetric,
    per_mzi_rvd_criticality,
    score_components,
)
from .monte_carlo import BatchTrial, MonteCarloResult, MonteCarloRunner, Trial
from .recalibration import (
    RecalibrationPolicy,
    RenullCost,
    RenullReport,
    measure_renull_cost,
    renull_network,
)
from .rvd import mean_rvd, normalized_rvd, rvd, rvd_batch
from .sensitivity import (
    ELEMENT_LABELS,
    SensitivityMap,
    device_sensitivity_map,
    exact_relative_deviation,
    first_order_model_error,
)
from .statistics import (
    SummaryStatistics,
    confidence_interval,
    margin_of_error,
    required_iterations,
    summarize,
    worst_case_margin_of_error,
)
from .timeline import (
    AccuracyTimelineTrial,
    TimelineSweepResult,
    timeline_sweep,
)
from .yield_analysis import (
    YieldEstimate,
    YieldSweepResult,
    estimate_yield,
    max_tolerable_sigma,
    yield_sweep,
    yield_vs_sigma,
)

__all__ = [
    "rvd",
    "rvd_batch",
    "mean_rvd",
    "normalized_rvd",
    "SensitivityMap",
    "device_sensitivity_map",
    "exact_relative_deviation",
    "first_order_model_error",
    "ELEMENT_LABELS",
    "MonteCarloRunner",
    "MonteCarloResult",
    "Trial",
    "BatchTrial",
    "SummaryStatistics",
    "summarize",
    "margin_of_error",
    "worst_case_margin_of_error",
    "confidence_interval",
    "required_iterations",
    "ComponentCriticality",
    "CriticalityReport",
    "MetricFn",
    "BatchMetricFn",
    "SingleMZIRVDMetric",
    "per_mzi_rvd_criticality",
    "score_components",
    "YieldEstimate",
    "YieldSweepResult",
    "estimate_yield",
    "yield_vs_sigma",
    "yield_sweep",
    "max_tolerable_sigma",
    "RecalibrationPolicy",
    "RenullReport",
    "RenullCost",
    "renull_network",
    "measure_renull_cost",
    "AccuracyTimelineTrial",
    "TimelineSweepResult",
    "timeline_sweep",
]
