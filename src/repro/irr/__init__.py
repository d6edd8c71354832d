"""IRR substrate: route6 objects and an in-memory database."""

from .database import IRRDatabase
from .rpsl import Route6Object

__all__ = [
    "IRRDatabase",
    "Route6Object",
]
