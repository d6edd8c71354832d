"""The reusable ProbeBackend contract suite.

Any probe backend — the stock ``sim``/``wire-sim``/``raw`` or an
extension — must honour one contract so the scanner, the sharded runner,
and the checkpoint journals can treat them interchangeably:

* it is listed in ``BACKENDS`` under its name and declares whether it is
  ``deterministic``,
* :func:`build_backend` builds it from a :class:`ScanConfig` that went
  through pickle exactly as from the original (what sharded pool workers
  do — no live backend ever crosses the pickle boundary),
* ``probe_columns`` answers one row per probe: ``n`` equal to the batch
  size, the caller's targets/times borrowed, the backend's epoch, and
  probes counted into ``stats``,
* every *deterministic* backend produces records, main-channel
  telemetry, and Prometheus output **byte-identical** to the ``sim``
  baseline, at 1, 4 and 8 shards and on a process pool (the property
  that makes the backend a pure execution dial, like batch size and
  shard count),
* non-deterministic backends (``raw``) probe real networks, so they
  enrol for construction/validation only: they must be constructible
  without ever opening a socket, and must refuse construction without
  explicit authorization.

Import the suite and parametrise it with :class:`BackendCase` rows::

    from backend_contract import BackendCase, BackendContract, default_cases

    @pytest.fixture(params=default_cases(), ids=lambda c: c.id)
    def backend_case(request):
        return request.param

    class TestContract(BackendContract):
        pass

``default_cases()`` enrols every name in ``BACKENDS``, so a backend added
to the table joins the suite for free.
"""

from __future__ import annotations

import contextlib
import pickle
from dataclasses import dataclass

import pytest
from faults import ChaosEngine, FaultPlan, FaultyBackend, injected

from repro.netsim.engine import SimulationEngine
from repro.scanner.backends import (
    BACKENDS,
    BackendAuthorizationError,
    ProbeBackend,
    ResilientBackend,
    RetryPolicy,
    build_backend,
)
from repro.scanner.backends.resilient import BREAKER_MIN_BATCHES
from repro.scanner.records import records_jsonl
from repro.scanner.sharded import ShardedScanRunner
from repro.scanner.zmapv6 import ScanConfig
from repro.telemetry.scan import ScanTelemetry

# Epoch band for contract scans, clear of the campaigns', the race's,
# and the strategy contract's (5000s).
CASE_EPOCH = 7000
CASE_SEED = 5


@dataclass(frozen=True)
class BackendCase:
    """One parametrisation of the contract suite."""

    id: str
    name: str  # a key of BACKENDS
    # Non-deterministic backends enrol for construction/validation only:
    # probing them would touch real networks or need capabilities.
    probes: bool = True


def default_cases() -> list[BackendCase]:
    """Every backend in ``BACKENDS``; non-deterministic ones
    construction/validation-only."""
    return [
        BackendCase(id=f"backend-{name}", name=name, probes=cls.deterministic)
        for name, cls in sorted(BACKENDS.items())
    ]


def _build(case: BackendCase, world, config: ScanConfig | None = None):
    """A fresh backend for a case, the way the scanner and pool workers
    build one.  Authorized, but never opened here: the contract for a
    backend that probes real networks is validation without sockets."""
    config = config or ScanConfig(backend=case.name, authorized=True)
    return build_backend(config, SimulationEngine(world, epoch=CASE_EPOCH))


def _world_targets(world, count: int = 64) -> list[int]:
    # bgp-plain probes prefix base addresses — the subnet-router anycast
    # targets that actually reply in the tiny world, so the byte-identity
    # checks below compare non-trivial record sets.
    from repro.scanner.cli import build_targets

    return list(
        build_targets(world, "bgp-plain", max_targets=count, seed=CASE_SEED)
    )


def _scan_output(
    world,
    backend_name: str,
    shards: int,
    *,
    retry_policy: "RetryPolicy | None" = None,
    chaos: "ChaosEngine | None" = None,
    executor: str = "serial",
):
    """(records, main telemetry, Prometheus, result, telemetry facade) of
    one sharded scan — optionally under a resilience policy and a chaos
    plan (the first three entries are the byte-identity surfaces)."""
    targets = _world_targets(world, 96)
    telemetry = ScanTelemetry()
    runner = ShardedScanRunner(
        world, shards=shards, executor=executor, telemetry=telemetry
    )
    with injected(chaos) if chaos is not None else contextlib.nullcontext():
        result = runner.scan(
            targets,
            ScanConfig(
                pps=10_000.0,
                seed=CASE_SEED,
                backend=backend_name,
                progress_every=25,
                retry_policy=retry_policy,
            ),
            name="backend-contract",
            epoch=CASE_EPOCH + 100,
        )
    records = records_jsonl(result.rows)
    assert records, "vacuous comparison: the contract scan got no replies"
    return records, telemetry.to_jsonl(), telemetry.to_prometheus(), result, telemetry


class BackendContract:
    """The suite.  Subclass it next to a ``backend_case`` fixture."""

    # -- the table + capabilities -- #

    def test_registered_with_capability_flags(self, backend_case):
        cls = BACKENDS[backend_case.name]
        assert issubclass(cls, ProbeBackend)
        assert cls.name == backend_case.name
        assert isinstance(cls.deterministic, bool)

    # -- built from a pickled config -- #

    def test_pickled_config_builds_the_same_backend(
        self, backend_case, tiny_world
    ):
        """The config, not a live backend, is what crosses the pickle
        boundary to pool workers: it pickles to an equal config, and the
        backend built from it has the same class, name and probe key."""
        config = ScanConfig(
            backend=backend_case.name, key=b"k" * 32, authorized=True
        )
        shipped = pickle.loads(pickle.dumps(config))
        assert shipped == config
        backend = _build(backend_case, tiny_world, config)
        rebuilt = _build(backend_case, tiny_world, shipped)
        assert type(rebuilt) is type(backend)
        assert rebuilt.name == backend.name == backend_case.name
        for built in (backend, rebuilt):
            assert getattr(built, "key", config.key) == config.key
            built.close()

    # -- probing: row alignment -- #

    def test_probe_columns_aligns_rows(self, backend_case, tiny_world):
        if not backend_case.probes:
            pytest.skip("network backend: construction/validation only")
        backend = _build(backend_case, tiny_world)
        backend.open()
        try:
            backend.new_epoch(CASE_EPOCH)
            targets = _world_targets(tiny_world, 16)
            times = [index / 1000.0 for index in range(len(targets))]
            ids = [(CASE_EPOCH << 32) | index for index in range(len(targets))]
            cols = backend.probe_columns(targets, times, probe_ids=ids)
            assert cols.n == len(targets)
            assert cols.targets is targets and cols.times is times
            assert backend.stats.probes == len(targets)
        finally:
            backend.close()

    # -- network backends validate without sockets -- #

    def test_privileged_backend_requires_authorization(self, backend_case):
        if backend_case.probes:
            pytest.skip("simulated backend")
        with pytest.raises(BackendAuthorizationError):
            build_backend(ScanConfig(backend=backend_case.name))

    # -- deterministic backends are byte-identical to sim -- #

    @pytest.mark.parametrize(
        "shards, executor",
        [(1, "serial"), (4, "serial"), (8, "serial"), (2, "process")],
        ids=["1", "4", "8", "2-process"],
    )
    def test_byte_identical_to_sim_baseline(
        self, backend_case, tiny_world, shards, executor
    ):
        """Records, main-channel telemetry, and Prometheus output of any
        deterministic backend equal the serial ``sim`` baseline's, bit for
        bit, at every shard count and on a process pool, whose workers
        build their backend from the pickled config — backend choice is
        an execution dial, not an output dial."""
        if not backend_case.probes:
            pytest.skip("network backend: construction/validation only")
        baseline = _scan_output(tiny_world, "sim", shards)
        got = _scan_output(
            tiny_world, backend_case.name, shards, executor=executor
        )
        assert got[0] == baseline[0], "records diverged from sim"
        assert got[1] == baseline[1], "telemetry events diverged from sim"
        assert got[2] == baseline[2], "Prometheus output diverged from sim"

    # -- resilience layer: every backend enrols under chaos -- #

    def _chaos_skip(self, backend_case):
        if not backend_case.probes:
            pytest.skip("network backend: construction/validation only")

    @pytest.mark.parametrize("shards", (1, 4, 8))
    def test_resilient_wrapper_is_identity(
        self, backend_case, tiny_world, shards
    ):
        """With no injected faults the resilience wrapper changes nothing:
        records, main telemetry, and Prometheus are byte-identical to the
        policy-less scan at every shard count."""
        self._chaos_skip(backend_case)
        policy = RetryPolicy(
            max_retries=2, timeout=30.0, breaker_threshold=0.5
        )
        baseline = _scan_output(tiny_world, backend_case.name, shards)
        got = _scan_output(
            tiny_world, backend_case.name, shards, retry_policy=policy
        )
        assert got[0] == baseline[0], "records changed under the wrapper"
        assert got[1] == baseline[1], "telemetry changed under the wrapper"
        assert got[2] == baseline[2], "Prometheus changed under the wrapper"
        assert got[3].faulted_probes == 0

    def test_transient_faults_reproduce_fault_free_bytes(
        self, backend_case, tiny_world
    ):
        """Retried transient transport faults leave no trace on the
        deterministic surfaces: the record stream, main telemetry, and
        Prometheus export equal the fault-free run's, byte for byte."""
        self._chaos_skip(backend_case)
        policy = RetryPolicy(max_retries=3, backoff=0.0)
        chaos = ChaosEngine(
            FaultPlan(
                seed=CASE_SEED,
                backend_error_probability=0.9,
                backend_error_attempts=1,
            )
        )
        baseline = _scan_output(
            tiny_world, backend_case.name, 4, retry_policy=policy
        )
        got = _scan_output(
            tiny_world, backend_case.name, 4, retry_policy=policy, chaos=chaos
        )
        assert got[0] == baseline[0], "records diverged under transient faults"
        assert got[1] == baseline[1], "telemetry diverged under transient faults"
        assert got[2] == baseline[2], "Prometheus diverged under transient faults"
        assert got[3].faulted_probes == 0
        # Non-vacuity: the chaos plan really injected (and the resilience
        # layer really retried) — visible on the result only.
        assert got[3].resilience.retries > 0

    def test_permanent_faults_quarantine_honestly(
        self, backend_case, tiny_world
    ):
        """A permanently-dead shard transport quarantines instead of
        killing the scan: the run completes, the dead shard's probes are
        quiet rows counted by ``faulted_probes``, and the quarantine is
        visible on the result."""
        self._chaos_skip(backend_case)
        policy = RetryPolicy(max_retries=1, backoff=0.0)
        chaos = ChaosEngine(
            FaultPlan(
                seed=CASE_SEED,
                backend_error_shard=2,
                backend_error_attempts=None,
            )
        )
        records, _, _, result, _ = _scan_output(
            tiny_world, backend_case.name, 4, retry_policy=policy, chaos=chaos
        )
        assert result.sent == 96, "quarantined probes must stay counted"
        assert result.faulted_probes == 24, "one dead shard of four"
        faults = result.resilience.faults
        assert sum(fault.probes for fault in faults) == 24
        assert "exhausted" in {fault.reason for fault in faults}

    def test_breaker_cycles_open_half_open_closed(
        self, backend_case, tiny_world
    ):
        """The circuit breaker walks its full state cycle over a transport
        that recovers: consecutive failures open it, the next batch
        fast-fails without touching the transport, cooldown expiry admits
        a half-open trial, and its success closes the breaker."""
        self._chaos_skip(backend_case)
        inner = _build(backend_case, tiny_world)
        failures = BREAKER_MIN_BATCHES  # the fewest the breaker opens on
        faulty = FaultyBackend(
            inner,
            FaultPlan(backend_error_batches=failures, backend_error_attempts=None),
        )
        clock = [0.0]
        policy = RetryPolicy(
            max_retries=0,
            backoff=0.0,
            max_split_depth=0,
            breaker_threshold=0.5,
        )
        backend = ResilientBackend(
            faulty, policy, sleep=lambda _delay: None, clock=lambda: clock[0]
        )
        backend.open()
        try:
            backend.new_epoch(CASE_EPOCH)
            targets = _world_targets(tiny_world, 4 * (failures + 2))
            batches = [targets[i : i + 4] for i in range(0, len(targets), 4)]
            times = [0.0, 0.001, 0.002, 0.003]
            send = backend.probe_columns
            outcomes = []
            for batch in batches[: failures - 1]:
                outcomes.append(send(batch, times))
                assert backend.breaker.state == "closed"
            outcomes.append(send(batches[failures - 1], times))
            assert backend.breaker.state == "open"
            # Open breaker: quarantined without touching the transport.
            outcomes.append(send(batches[failures], times))
            assert backend.resilience.breaker_fastfails == 1
            # Cooldown expiry -> half-open trial -> success closes it.
            clock[0] = 100.0
            outcomes.append(send(batches[failures + 1], times))
            assert backend.breaker.state == "closed"
            assert backend.resilience.transitions == [
                ("closed", "open"),
                ("open", "half-open"),
                ("half-open", "closed"),
            ]
            assert [batch.n for batch in outcomes] == [4] * (failures + 2)
            assert backend.resilience.faulted_probes == 4 * (failures + 1)
            assert backend.resilience.quarantined_batches == failures + 1
        finally:
            backend.close()
