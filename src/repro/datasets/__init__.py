"""Comparison datasets (§5): traceroute campaigns, hitlist, IXP flows."""

from .caida import run_ark_campaign
from .common import AddressDataset
from .ixp import IXPFlowDataset, run_ixp_capture
from .ripeatlas import run_atlas_campaign
from .traceroute import TracerouteHop, TracerouteResult, traceroute
from .tum import (
    harvest_hitlist,
    published_alias_list,
)

__all__ = [
    "AddressDataset",
    "IXPFlowDataset",
    "TracerouteHop",
    "TracerouteResult",
    "harvest_hitlist",
    "published_alias_list",
    "run_ark_campaign",
    "run_atlas_campaign",
    "run_ixp_capture",
    "traceroute",
]
