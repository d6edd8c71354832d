"""Golden digests of generated worlds and the harvested hitlist.

World generation is one seeded ``random.Random`` draw sequence (DESIGN.md
§6, "World generation: the draw sequence is the contract").  A rewrite of
the generator or of the hitlist harvest that changes one draw, or the
order of two, reshapes every world downstream; these SHA-256 digests were
captured before the per-subnet path and the harvest were rewritten for
speed, and pin:

* the eager artifact, ``save_world(build_world(cfg))``;
* the streamed artifact ``build_world_artifact(cfg, path)`` writes;
* ``harvest_hitlist(world).addresses()``, in order, as 16-byte words.

The artifact bytes depend on neither the file's path nor the process.
"""

import hashlib

import pytest

from repro.datasets.tum import harvest_hitlist
from repro.experiments.world import quick_scale
from repro.topology.artifact import save_world
from repro.topology.config import tiny_config
from repro.topology.generator import build_world, build_world_artifact

# name -> (eager artifact, streamed artifact, ordered hitlist)
GOLDEN = {
    "tiny-1": (
        "f7afec0d46d408c9e4912683c050ebd58d0838d1efb83aa79fd8defa24ddc0ba",
        "db5a13b0c94cc4a8eb388315c8c8bc8b984d38adcff0a318e1ba12bb7a240f95",
        "8c3ca2ec406cdce72d30a41a32dc44c39c5aa6cb2b9224a8e66db36b6f82d08d",
    ),
    "tiny-7": (
        "bf702ecd877a34e61eae34a8c8efc04430654b5b5af7092b408b5ad3e0aa98ff",
        "fc63c389ea92f85d231e75b7c2e8dd7173b413c18220b7ef4572ea8c46ccb399",
        "0307cce893668af161ef203713ca38d8917cea4b214b806b134e5f56619d19f4",
    ),
    "tiny-2024": (
        "31f3d8f7ef3101f1da4a1d46588bfa5c323d67046f2f707de8a9e649a34ad6cf",
        "7e62579d7f35640cd98480e9f9438a2d1e3e47796f5ae36543eb63df5370834c",
        "4a5043cf966b43175162127f318b9bc0f393d76039a88c2b95cad67526dd7922",
    ),
    "quick-2024": (
        "1e120582edef4680dcfca20cf346553646240a6c7cf3ce61300b4e8858a9255e",
        "1e27642f1cdd85bf887e01bf3ca04be297584cd4f6eabad8f0c504647d87b8e9",
        "ed9ee6ac607b84d8b3a39f04f3ac2d723f56662e2a127a7e71c87393aa747a0b",
    ),
}

CONFIGS = {
    "tiny-1": lambda: tiny_config(1),
    "tiny-7": lambda: tiny_config(7),
    "tiny-2024": lambda: tiny_config(2024),
    "quick-2024": lambda: quick_scale(2024).world_config,
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_world_and_hitlist_bytes(name, tmp_path):
    config = CONFIGS[name]()
    eager, streamed, hitlist = GOLDEN[name]
    world = build_world(config)
    path = save_world(world, tmp_path / "eager.world")
    assert _sha256(path.read_bytes()) == eager
    addresses = harvest_hitlist(world).addresses()
    assert _sha256(b"".join(a.to_bytes(16, "big") for a in addresses)) == hitlist
    build_world_artifact(config, tmp_path / "streamed.world")
    assert _sha256((tmp_path / "streamed.world").read_bytes()) == streamed
