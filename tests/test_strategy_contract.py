"""Run the shared stream/strategy contract over every registered case.

The suite itself lives in ``strategy_contract.py`` so extension modules
can parametrise it with their own streams; this module pins that every
built-in strategy (cold and with evolved feedback) and every stock
stream implementation honours the contract.
"""

import pytest

from strategy_contract import StreamCase, StreamContract, default_cases

CASES = default_cases()


@pytest.fixture(params=CASES, ids=lambda case: case.id)
def case(request):
    return request.param


class TestStreamContract(StreamContract):
    """The full matrix: strategies x contract, streams x contract."""


def test_every_registered_strategy_is_covered():
    """Registering a new strategy must auto-enrol it in the contract."""
    from repro.scanner.strategies import STRATEGIES

    covered = {c.id for c in CASES}
    for name in sorted(STRATEGIES):
        assert f"strategy-{name}" in covered
        assert f"strategy-{name}-e1" in covered


def test_cases_are_reusable_rows():
    assert all(isinstance(case, StreamCase) for case in CASES)
    assert len({case.id for case in CASES}) == len(CASES)
