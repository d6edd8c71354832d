"""Analysis: cross-dataset comparison, loops, geo/type distributions, reports."""

from .asn_stability import ASNStabilityReport, SetStability, asn_stability
from .comparison import SourceComparison
from .geodist import (
    continent_type_crosstab,
    country_distribution,
    country_shares,
    isp_share,
    type_distribution,
)
from .hitlist_feedback import ContributionReport, contribute_to_hitlist
from .loops import LoopAnalysis
from .ratelimit_infer import (
    RateLimitEstimate,
    RatePoint,
    infer_error_rate_limit,
    probe_train,
)
from .report import (
    format_count,
    format_percent,
    render_ccdf,
    render_shares,
    render_table,
)

__all__ = [
    "ASNStabilityReport",
    "ContributionReport",
    "LoopAnalysis",
    "RateLimitEstimate",
    "RatePoint",
    "SetStability",
    "SourceComparison",
    "asn_stability",
    "continent_type_crosstab",
    "country_distribution",
    "contribute_to_hitlist",
    "country_shares",
    "format_count",
    "format_percent",
    "infer_error_rate_limit",
    "isp_share",
    "probe_train",
    "render_ccdf",
    "render_shares",
    "render_table",
    "type_distribution",
]
