"""The paper's contribution: SRA survey orchestration and method comparisons."""

from .aliasfilter import AliasFilterStats, filter_aliased, is_self_reply
from .probing import (
    ComparisonSeries,
    MethodScan,
    StabilityReport,
    VisibilityReport,
    run_direct_discovery,
    run_sra_vs_random,
    run_stability,
    run_visibility,
)
from .survey import (
    INPUT_SET_NAMES,
    InputSetResult,
    SRASurvey,
    SurveyConfig,
    SurveyResult,
    survey_repetition_overlap,
)

__all__ = [
    "AliasFilterStats",
    "ComparisonSeries",
    "INPUT_SET_NAMES",
    "InputSetResult",
    "MethodScan",
    "SRASurvey",
    "StabilityReport",
    "SurveyConfig",
    "SurveyResult",
    "VisibilityReport",
    "filter_aliased",
    "is_self_reply",
    "run_direct_discovery",
    "run_sra_vs_random",
    "run_stability",
    "run_visibility",
    "survey_repetition_overlap",
]
