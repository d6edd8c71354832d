"""Subnet-Router anycast (SRA) address construction (RFC 4291 §2.6.1).

The SRA address of a subnet is the subnet prefix with all host (interface
identifier) bits set to zero.  Syntactically it is a unicast address; every
router is required to support it for each subnet it has an interface on.
"""

from __future__ import annotations

from .ipv6 import IPv6Prefix, network_of


def sra_address(prefix: IPv6Prefix) -> int:
    """The Subnet-Router anycast address of ``prefix`` (all host bits 0)."""
    return prefix.network


def sra_of(address: int, subnet_length: int) -> int:
    """SRA address of the ``/subnet_length`` subnet containing ``address``.

    This is the "hitlist" construction from the paper: take the first
    ``subnet_length`` bits of a host address and zero the rest, e.g. the
    /64 SRA for a host 2001:db8:1::abcd is 2001:db8:1::.
    """
    return network_of(address, subnet_length)


def is_sra_candidate(address: int, subnet_length: int) -> bool:
    """True if ``address`` has all host bits zero under ``subnet_length``.

    The SRA shape as a predicate; the property tests hold :func:`sra_of`
    and :func:`sra_address` to it.  The alias filter does not use it: its
    self-reply rule is :func:`repro.core.aliasfilter.is_self_reply`
    (reply source == probed target).
    """
    return network_of(address, subnet_length) == address
