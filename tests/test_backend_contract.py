"""Run the shared probe-backend contract over every backend in ``BACKENDS``.

The suite itself lives in ``backend_contract.py`` so extension modules
can parametrise it with their own backends; this module pins that every
stock backend (``sim``, ``wire-sim``, ``raw``) honours the contract —
``raw`` for construction/validation only, never touching a socket.
"""

import pytest

from backend_contract import BackendCase, BackendContract, default_cases

CASES = default_cases()


@pytest.fixture(params=CASES, ids=lambda case: case.id)
def backend_case(request):
    return request.param


class TestBackendContract(BackendContract):
    """The full matrix: backends x contract."""


def test_every_registered_backend_is_covered():
    """A backend added to ``BACKENDS`` is enrolled in the contract."""
    from repro.scanner.backends import BACKENDS

    covered = {case.id for case in CASES}
    for name in BACKENDS:
        assert f"backend-{name}" in covered


def test_raw_is_validation_only():
    """The raw backend enrols without probing (no sockets in CI)."""
    by_name = {case.name: case for case in CASES}
    assert by_name["raw"].probes is False
    assert by_name["sim"].probes is True
    assert by_name["wire-sim"].probes is True


def test_cases_are_reusable_rows():
    assert all(isinstance(case, BackendCase) for case in CASES)
    assert len({case.id for case in CASES}) == len(CASES)
