"""IPv6 address primitives: parsing, prefixes, SRA construction, partitioning."""

from .ipv6 import (
    ADDRESS_BITS,
    MAX_ADDRESS,
    AddressError,
    IPv6Prefix,
    format_address,
    network_of,
    parse_address,
    prefix_mask,
)
from .partition import (
    STAGE2_LENGTH,
    STAGE3_LENGTH,
    hitlist_targets,
    stage1_targets,
)
from .permutation import CyclicPermutation, next_prime
from .randomgen import random_address_in, random_targets, random_targets_for_sras
from .sra import is_sra_candidate, sra_address, sra_of

__all__ = [
    "ADDRESS_BITS",
    "MAX_ADDRESS",
    "AddressError",
    "IPv6Prefix",
    "CyclicPermutation",
    "STAGE2_LENGTH",
    "STAGE3_LENGTH",
    "format_address",
    "hitlist_targets",
    "is_sra_candidate",
    "network_of",
    "next_prime",
    "parse_address",
    "prefix_mask",
    "random_address_in",
    "random_targets",
    "random_targets_for_sras",
    "sra_address",
    "sra_of",
    "stage1_targets",
]
