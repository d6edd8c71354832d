"""Golden digests of the survey's five input sets.

Target generation is a seeded draw sequence like world generation
(DESIGN.md §6): the stage-2, stage-3 and Route(6) builders share the
survey's one ``random.Random``, in that order, and a cut at
``max_targets`` stops the draws where the last prefix it reached left
them.  These SHA-256 digests were captured before the per-prefix
generators were rewritten for speed, and pin:

* each set's targets, in order, as 16-byte words;
* ``repr(rng.getstate())`` after bgp-48, bgp-64 and route6-64.

Two worlds with their survey budgets: the quick scale (seed 2024), whose
Route(6) cap cuts in the middle of a prefix, and the shared tiny world
(seed 7) at the end-to-end benchmark's smoke budgets, which cut none of
the sampled sets.  The tiny world again at odd caps cuts every set in the
middle of a prefix.
"""

import hashlib
import random

import pytest

from repro.core.survey import SurveyConfig, _input_set_factories
from repro.scanner.targets import hitlist_slash64_targets

SMOKE_BUDGETS = SurveyConfig(
    slash48_per_prefix=8,
    max_bgp_48=1_500,
    slash64_per_prefix=8,
    max_bgp_64=1_000,
    route6_per_prefix=4,
    max_route6=1_000,
    max_hitlist=1_500,
)
CUT_BUDGETS = SurveyConfig(
    slash48_per_prefix=8,
    max_bgp_48=501,
    slash64_per_prefix=8,
    max_bgp_64=101,
    route6_per_prefix=4,
    max_route6=503,
    max_hitlist=777,
)

# name -> digest; "<set>" for its targets, "<set>.rng" for the state after it
GOLDEN = {
    "quick-2024": {
        "bgp-plain": (
            "19ffc4392f01022071899810322fd355aa86466914b110a32d51360fa8aa62c3"
        ),
        "bgp-48": (
            "72e684c92f63868e5222e42b1ca3ec38accfa9627601b055ea907a67531e115c"
        ),
        "bgp-48.rng": (
            "cf5a25e278eb07a060ccd5e24fdb7bc85791a7bb6a091d01dda9aba7e2ef6d20"
        ),
        "bgp-64": (
            "c6e41d512a32e2181808ea0b3ee400f40fa1402c6b44eac352d141b64edc4e10"
        ),
        "bgp-64.rng": (
            "23879123dc7f16fa9a05c1b7b90d3e49a62abb930580e8230331acff6fcffcb1"
        ),
        "route6-64": (
            "9d61eb0f9cc04ed69d8e3b679f2daef02cb1f7adac16d91f7a994c5f940a1e79"
        ),
        "route6-64.rng": (
            "3aef7d6ad1ddae2c70aacc015b0019a73339782df89ffecb7d7799df77dc75e9"
        ),
        "hitlist-64": (
            "b1ecf6ecb7287947ae915bbae82044535e67a5eed3d463cbe50424ba807bb42c"
        ),
    },
    "tiny-7": {
        "bgp-plain": (
            "85f06eb1bace11e94e9b3c62c918f27b0a83d25a264ad0601184ec2e4c216d27"
        ),
        "bgp-48": (
            "c1a40686f4b3f3876973075969cd0e58cc6c125ee571d9e27e5d2552429f51b6"
        ),
        "bgp-48.rng": (
            "5bc005fbab2472622b3d4e6ac46b75a31ffad55999d864ea8c35379c5cc53f79"
        ),
        "bgp-64": (
            "23608d7adb254c6eb7ab87b7436036832927ed0a9cc005aba4ddb37b0521686c"
        ),
        "bgp-64.rng": (
            "32ecbe2cf2ff449241d8d18136c17c50482cd00117807eb17bf25863a0cd976c"
        ),
        "route6-64": (
            "1ca230ba045dc6577d42a830ad0dfd273edd6d0b1a6b1fa664388e6c8752ca31"
        ),
        "route6-64.rng": (
            "eb258eb81a779b9a579ca0671a680200ae37b617232d4e27540e4e6b26b542c7"
        ),
        "hitlist-64": (
            "30da558c1ea699e7dc35fc22021de11d33dc917935da13f8e6cab778eba9237e"
        ),
    },
    "tiny-7-cut": {
        "bgp-plain": (
            "85f06eb1bace11e94e9b3c62c918f27b0a83d25a264ad0601184ec2e4c216d27"
        ),
        "bgp-48": (
            "a43f733dfccd6da7eb3d9ac26944e7eeb097df4b41b8ae1b2e484f5fbdbcbd48"
        ),
        "bgp-48.rng": (
            "b7c311724345eb3cf49497619c552db0b058b20d25f309100f4996fd1f6e1773"
        ),
        "bgp-64": (
            "e5d47ffacf11a2662100b67d22ca7bc6a184562c9cab8fd5ee4ca13f59723833"
        ),
        "bgp-64.rng": (
            "0c2b6c0bc4903a17c83b7e8db2c1676ea0fb643652cfd9fc932882a3c871b0a9"
        ),
        "route6-64": (
            "2eb22a0a8bd810c488f842f170318b3d3322f657f8bda1e15463f842ae4c834b"
        ),
        "route6-64.rng": (
            "79813e02c05d0a4eb39c22306757368e0ea0ef8ec6e531955cbd7d9e7eae396e"
        ),
        "hitlist-64": (
            "8acc6f52e72ac9f32a4ee8caba17867f14cca902884efed1be55e362ce834a20"
        ),
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def input_set_digests(world, hitlist, config: SurveyConfig) -> dict[str, str]:
    rng = random.Random(config.seed)
    digests: dict[str, str] = {}
    for name, build in _input_set_factories(world, config, rng).items():
        targets = build().targets
        digests[name] = _sha256(b"".join(t.to_bytes(16, "big") for t in targets))
        if name != "bgp-plain":
            digests[f"{name}.rng"] = _sha256(repr(rng.getstate()).encode())
    targets = hitlist_slash64_targets(hitlist, max_targets=config.max_hitlist).targets
    digests["hitlist-64"] = _sha256(b"".join(t.to_bytes(16, "big") for t in targets))
    return digests


def _quick(request):
    context = request.getfixturevalue("quick_context")
    return context.world, context.hitlist, context.scale.survey_config


def _tiny(request):
    world = request.getfixturevalue("tiny_world")
    return world, request.getfixturevalue("tiny_hitlist"), SMOKE_BUDGETS


def _tiny_cut(request):
    world, hitlist, _ = _tiny(request)
    return world, hitlist, CUT_BUDGETS


CASES = {"quick-2024": _quick, "tiny-7": _tiny, "tiny-7-cut": _tiny_cut}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_input_sets_and_rng_states(name, request):
    assert input_set_digests(*CASES[name](request)) == GOLDEN[name]
