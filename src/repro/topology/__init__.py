"""Synthetic Internet topology: entities, generator, vendor profiles."""

from .config import DEFAULT_COUNTRIES, WorldConfig, tiny_config
from .entities import (
    AliasRegion,
    ASInfo,
    ASType,
    EntryKind,
    InfraSubnet,
    LoopRegion,
    ResolutionEntry,
    Router,
    Subnet,
    TransitHop,
    VantagePoint,
    World,
)
from .generator import WorldBuilder, build_world
from .mitigation import (
    DisclosureReport,
    apply_null_route,
    fix_all_loops_for_asn,
    render_null_route_config,
    run_disclosure_campaign,
)
from .profiles import (
    DEFAULT_VENDORS,
    SRABehavior,
    VendorProfile,
    vendor_by_name,
)

__all__ = [
    "ASInfo",
    "ASType",
    "AliasRegion",
    "DEFAULT_COUNTRIES",
    "DEFAULT_VENDORS",
    "DisclosureReport",
    "EntryKind",
    "InfraSubnet",
    "LoopRegion",
    "ResolutionEntry",
    "Router",
    "SRABehavior",
    "Subnet",
    "TransitHop",
    "VantagePoint",
    "VendorProfile",
    "World",
    "WorldBuilder",
    "WorldConfig",
    "apply_null_route",
    "build_world",
    "fix_all_loops_for_asn",
    "render_null_route_config",
    "run_disclosure_campaign",
    "tiny_config",
    "vendor_by_name",
]
