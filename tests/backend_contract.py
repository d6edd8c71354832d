"""The reusable ProbeBackend contract suite.

Any probe backend — the stock ``sim``/``wire-sim``/``raw`` or an
extension — must honour one contract so the scanner, the sharded runner,
and the checkpoint journals can treat them interchangeably:

* it is registered (``backend_names()``) and declares its capability
  flags (``supports_columns``, ``deterministic``, ``requires_privilege``),
* its :class:`BackendSpec` round-trips: picklable, rebuildable via
  ``build_backend`` into an equivalent backend (what sharded pool
  workers do — no live backend ever crosses the pickle boundary),
* ``send_batch`` returns one outcome per probe, aligned with the
  requested targets/times/ids, and counts probes into ``stats``,
* every *deterministic* backend produces records, main-channel
  telemetry, and Prometheus output **byte-identical** to the ``sim``
  baseline, at 1, 4 and 8 shards (the property that makes the backend a
  pure execution dial, like batch size and shard count),
* privileged backends (``raw``) enrol for spec/validation only: they
  must be constructible and spec-checkable without ever opening a
  socket, and must refuse construction without explicit authorization.

Import the suite and parametrise it with :class:`BackendCase` rows::

    from backend_contract import BackendCase, BackendContract, default_cases

    @pytest.fixture(params=default_cases(), ids=lambda c: c.id)
    def backend_case(request):
        return request.param

    class TestContract(BackendContract):
        pass

``default_cases()`` enrols every registered backend automatically, so a
newly registered backend joins the suite for free.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import pytest

from repro.netsim.faults import ChaosEngine, FaultPlan, FaultyBackend
from repro.scanner.backends import (
    BackendAuthorizationError,
    ProbeBackend,
    ResilientBackend,
    RetryPolicy,
    backend_class,
    backend_names,
    build_backend,
    make_backend_spec,
)
from repro.scanner.records import records_jsonl
from repro.scanner.sharded import ShardedScanRunner
from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner
from repro.telemetry.scan import ScanTelemetry

# Epoch band for contract scans, clear of the campaigns', the race's,
# and the strategy contract's (5000s).
CASE_EPOCH = 7000
CASE_SEED = 5


@dataclass(frozen=True)
class BackendCase:
    """One parametrisation of the contract suite."""

    id: str
    name: str  # registered backend name
    # Privileged backends enrol for registration/spec/validation only:
    # probing them would touch real networks or need capabilities.
    probes: bool = True


def default_cases() -> list[BackendCase]:
    """Every registered backend; privileged ones spec/validation-only."""
    return [
        BackendCase(
            id=f"backend-{name}",
            name=name,
            probes=not backend_class(name).requires_privilege,
        )
        for name in backend_names()
    ]


def _build(case: BackendCase, world) -> ProbeBackend:
    """A fresh backend for a case, the way ScanConfig/workers build one."""
    if backend_class(case.name).requires_privilege:
        # Authorized construction, but never open(): the contract for
        # privileged backends is validation without sockets.
        spec = make_backend_spec(case.name, authorized=True)
    else:
        spec = ScanConfig(backend=case.name).backend_spec()
    return build_backend(spec, world=world, epoch=CASE_EPOCH)


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
):
    """(records, main telemetry, Prometheus, result, telemetry facade) of
    one sharded scan — optionally under a resilience policy and a chaos
    plan (the first three entries are the byte-identity surfaces)."""
    targets = _world_targets(world, 96)
    telemetry = ScanTelemetry()
    runner = ShardedScanRunner(
        world, shards=shards, executor="serial", telemetry=telemetry, chaos=chaos
    )
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
    records = records_jsonl(result.records)
    assert records, "vacuous comparison: the contract scan got no replies"
    return records, telemetry.to_jsonl(), telemetry.to_prometheus(), result, telemetry


class BackendContract:
    """The suite.  Subclass it next to a ``backend_case`` fixture."""

    # -- registration + capabilities -- #

    def test_registered_with_capability_flags(self, backend_case):
        cls = backend_class(backend_case.name)
        assert issubclass(cls, ProbeBackend)
        assert cls.name == backend_case.name
        for flag in ("supports_columns", "deterministic", "requires_privilege"):
            assert isinstance(getattr(cls, flag), bool), flag
        # A backend that probes real networks can never be deterministic.
        if cls.requires_privilege:
            assert not cls.deterministic

    # -- spec round-trip -- #

    def test_spec_round_trip(self, backend_case, tiny_world):
        backend = _build(backend_case, tiny_world)
        spec = backend.spec()
        assert spec.name == backend_case.name
        # The spec is what crosses the pickle boundary to pool workers.
        assert pickle.loads(pickle.dumps(spec)) == spec
        rebuilt = build_backend(spec, world=tiny_world, epoch=CASE_EPOCH)
        assert type(rebuilt) is type(backend)
        assert rebuilt.spec() == spec
        rebuilt.close()
        backend.close()

    def test_spec_arguments_are_plain_data(self, backend_case, tiny_world):
        backend = _build(backend_case, tiny_world)
        for key, value in backend.spec().arguments().items():
            assert isinstance(key, str)
            assert isinstance(value, (str, bytes, int, float, bool, type(None)))
        backend.close()

    # -- probing: outcome alignment -- #

    def test_send_batch_aligns_outcomes(self, backend_case, tiny_world):
        if not backend_case.probes:
            pytest.skip("privileged backend: spec/validation only")
        backend = _build(backend_case, tiny_world)
        backend.open()
        try:
            backend.new_epoch(CASE_EPOCH)
            targets = _world_targets(tiny_world, 16)
            times = [index / 1000.0 for index in range(len(targets))]
            ids = [(CASE_EPOCH << 32) | index for index in range(len(targets))]
            outcomes = backend.send_batch(targets, times, probe_ids=ids)
            assert len(outcomes) == len(targets)
            for target, time, outcome in zip(targets, times, outcomes):
                assert outcome.target == target
                assert outcome.time == time
                assert outcome.epoch == CASE_EPOCH
            assert backend.stats.probes == len(targets)
        finally:
            backend.close()

    # -- privileged backends validate without sockets -- #

    def test_privileged_backend_requires_authorization(self, backend_case):
        cls = backend_class(backend_case.name)
        if not cls.requires_privilege:
            pytest.skip("unprivileged backend")
        with pytest.raises(BackendAuthorizationError):
            build_backend(make_backend_spec(backend_case.name))

    # -- deterministic backends are byte-identical to sim -- #

    @pytest.mark.parametrize("shards", (1, 4, 8))
    def test_byte_identical_to_sim_baseline(
        self, backend_case, tiny_world, shards
    ):
        """Records, main-channel telemetry, and Prometheus output of any
        deterministic backend equal the ``sim`` baseline's, bit for bit,
        at every shard count — backend choice is an execution dial, not
        an output dial."""
        if not backend_case.probes:
            pytest.skip("privileged backend: spec/validation only")
        if not backend_class(backend_case.name).deterministic:
            pytest.skip("non-deterministic backend")
        baseline = _scan_output(tiny_world, "sim", shards)
        got = _scan_output(tiny_world, backend_case.name, shards)
        assert got[0] == baseline[0], "records diverged from sim"
        assert got[1] == baseline[1], "telemetry events diverged from sim"
        assert got[2] == baseline[2], "Prometheus output diverged from sim"

    # -- resilience layer: every backend enrols under chaos -- #
    #
    # The wrappers have both calls of the seam and take the inner
    # backend's: the scans below drive the columnar side of their one
    # recover body on ``sim`` and the ``send_batch`` side on ``wire-sim``.

    def test_wrappers_pass_the_columnar_capability_through(
        self, backend_case, tiny_world
    ):
        inner = _build(backend_case, tiny_world)
        faulty = FaultyBackend(inner, FaultPlan(backend_blackhole=True))
        scanner = ZMapV6Scanner(
            faulty, ScanConfig(backend=backend_case.name, retry_policy=RetryPolicy())
        )
        assert isinstance(scanner.backend, ResilientBackend)
        assert (
            scanner.backend.supports_columns
            is faulty.supports_columns
            is backend_class(backend_case.name).supports_columns
        )
        inner.close()

    def _chaos_skip(self, backend_case):
        if not backend_case.probes:
            pytest.skip("privileged backend: spec/validation only")
        if not backend_class(backend_case.name).deterministic:
            pytest.skip("non-deterministic backend")

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
        self, backend_case, tiny_world, tmp_path
    ):
        """Retried transient transport faults leave no trace on the
        deterministic surfaces: the record stream, main telemetry, and
        Prometheus export equal the fault-free run's, byte for byte."""
        self._chaos_skip(backend_case)
        policy = RetryPolicy(max_retries=3, backoff=0.0, seed=CASE_SEED)
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
        telemetry = got[4]
        # Ops stream to disk first: CI uploads *.ops.jsonl on failure.
        telemetry.write_ops_jsonl(
            tmp_path / f"{backend_case.name}-transient.ops.jsonl"
        )
        assert got[0] == baseline[0], "records diverged under transient faults"
        assert got[1] == baseline[1], "telemetry diverged under transient faults"
        assert got[2] == baseline[2], "Prometheus diverged under transient faults"
        assert got[3].faulted_probes == 0
        # Non-vacuity: the chaos plan really injected (and the resilience
        # layer really retried) — visible on the ops channel only.
        ops = telemetry.to_ops_jsonl()
        assert '"backend_resilience"' in ops

    def test_permanent_faults_quarantine_honestly(
        self, backend_case, tiny_world, tmp_path
    ):
        """A permanently-dead shard transport quarantines instead of
        killing the scan: the run completes, the dead shard's probes are
        quiet rows counted by ``faulted_probes``, and the quarantine is
        visible on the ops channel."""
        self._chaos_skip(backend_case)
        policy = RetryPolicy(max_retries=1, backoff=0.0, seed=CASE_SEED)
        chaos = ChaosEngine(
            FaultPlan(
                seed=CASE_SEED,
                backend_error_shard=2,
                backend_error_attempts=None,
            )
        )
        records, _, _, result, telemetry = _scan_output(
            tiny_world, backend_case.name, 4, retry_policy=policy, chaos=chaos
        )
        telemetry.write_ops_jsonl(
            tmp_path / f"{backend_case.name}-permanent.ops.jsonl"
        )
        assert result.sent == 96, "quarantined probes must stay counted"
        assert result.faulted_probes == 24, "one dead shard of four"
        ops = telemetry.to_ops_jsonl()
        assert '"batch_quarantined"' in ops
        assert '"reason":"exhausted"' in ops

    def test_breaker_cycles_open_half_open_closed(
        self, backend_case, tiny_world
    ):
        """The circuit breaker walks its full state cycle over a transport
        that recovers: consecutive failures open it, the next batch
        fast-fails without touching the transport, cooldown expiry admits
        a half-open trial, and its success closes the breaker."""
        self._chaos_skip(backend_case)
        inner = _build(backend_case, tiny_world)
        faulty = FaultyBackend(
            inner,
            FaultPlan(backend_error_batches=2, backend_error_attempts=None),
        )
        clock = [0.0]
        policy = RetryPolicy(
            max_retries=0,
            backoff=0.0,
            max_split_depth=0,
            breaker_threshold=0.5,
            breaker_window=4,
            breaker_min_batches=2,
            breaker_cooldown=10.0,
        )
        backend = ResilientBackend(
            faulty, policy, sleep=lambda _delay: None, clock=lambda: clock[0]
        )
        backend.open()
        try:
            backend.new_epoch(CASE_EPOCH)
            targets = _world_targets(tiny_world, 16)
            batches = [targets[i : i + 4] for i in range(0, 16, 4)]
            times = [0.0, 0.001, 0.002, 0.003]
            # The call a scan would make on this backend.
            send = (
                backend.probe_columns
                if backend.supports_columns
                else backend.send_batch
            )
            outcomes = [send(batches[0], times)]
            assert backend.breaker.state == "closed"
            outcomes.append(send(batches[1], times))
            assert backend.breaker.state == "open"
            # Open breaker: quarantined without touching the transport.
            outcomes.append(send(batches[2], times))
            assert backend.resilience.breaker_fastfails == 1
            # Cooldown expiry -> half-open trial -> success closes it.
            clock[0] = 100.0
            outcomes.append(send(batches[3], times))
            assert backend.breaker.state == "closed"
            assert backend.resilience.transitions == [
                ("closed", "open"),
                ("open", "half-open"),
                ("half-open", "closed"),
            ]
            assert [
                batch.n if backend.supports_columns else len(batch)
                for batch in outcomes
            ] == [4, 4, 4, 4]
            assert backend.resilience.faulted_probes == 12
            assert backend.resilience.quarantined_batches == 3
        finally:
            backend.close()
