"""A MaxMind-GeoLite-style country database over prefix ranges.

The paper maps reply sources to countries via the free MaxMind database.
Here the database is *derived from the world* (every AS allocation carries
its AS's country) but exposed through the same interface a GeoIP consumer
would use — per-prefix entries with longest-prefix lookup — so analysis
code never touches topology internals.
"""

from __future__ import annotations

from ..addr.ipv6 import IPv6Prefix
from ..bgp.lpm import LengthIndexedLPM
from ..topology.entities import World


class GeoIPDatabase:
    """Prefix → ISO3 country lookups."""

    def __init__(self) -> None:
        self._lpm: LengthIndexedLPM[str] = LengthIndexedLPM()

    def add(self, prefix: IPv6Prefix, country: str) -> None:
        self._lpm.insert(prefix, country)

    def __len__(self) -> int:
        return len(self._lpm)

    def country_of(self, address: int) -> str | None:
        match = self._lpm.longest_match(address)
        return None if match is None else match[1]

    @classmethod
    def from_world(cls, world: World) -> "GeoIPDatabase":
        """Build the database from every AS's announced prefixes."""
        database = cls()
        for info in world.ases.values():
            for prefix in info.prefixes:
                database.add(prefix, info.country)
        return database

# ISO3 -> continent, for the Fig. 10 per-continent grouping.
CONTINENT_OF: dict[str, str] = {
    "IND": "AS", "CHN": "AS", "JPN": "AS", "KOR": "AS", "IDN": "AS",
    "VNM": "AS", "THA": "AS", "TUR": "AS", "IRN": "AS", "PAK": "AS",
    "BGD": "AS", "LKA": "AS", "MYS": "AS", "SGP": "AS", "PHL": "AS",
    "TWN": "AS", "HKG": "AS", "SAU": "AS", "ARE": "AS", "ISR": "AS",
    "USA": "NA", "CAN": "NA", "MEX": "NA",
    "BRA": "SA", "ARG": "SA", "CHL": "SA", "COL": "SA", "PER": "SA",
    "DEU": "EU", "GBR": "EU", "FRA": "EU", "RUS": "EU", "ITA": "EU",
    "ESP": "EU", "POL": "EU", "NLD": "EU", "CZE": "EU", "SWE": "EU",
    "CHE": "EU", "AUT": "EU", "BEL": "EU", "NOR": "EU", "FIN": "EU",
    "DNK": "EU", "PRT": "EU", "GRC": "EU", "ROU": "EU", "HUN": "EU",
    "UKR": "EU", "IRL": "EU", "SVK": "EU", "BGR": "EU", "HRV": "EU",
    "SRB": "EU", "LTU": "EU", "LVA": "EU", "EST": "EU",
    "ZAF": "AF", "EGY": "AF", "NGA": "AF", "KEN": "AF", "MAR": "AF",
    "AUS": "OC", "NZL": "OC",
}


def continent_of(country: str | None) -> str:
    """Continent code for an ISO3 country ("??" when unknown)."""
    if country is None:
        return "??"
    return CONTINENT_OF.get(country, "??")
