"""ZMapv6-style stateless scanner: targets, pacing, records, sharding."""

from .checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointSchemaError,
    ScanCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from .pacing import paced_pps
from .records import ScanRecord, ScanResult, merge_results
from .sharded import (
    ScanInterrupted,
    ShardedScanRunner,
    ShardFailedError,
    auto_shard_count,
)
from .stream import (
    CountingSink,
    CsvSink,
    IndexWindow,
    JsonlSink,
    LazyStream,
    MemorySink,
    RecordSink,
    SubnetPartitionStream,
    TargetStream,
    TeeSink,
    shard_positions,
    stream_buffered,
)
from .targets import (
    TargetList,
    bgp_plain_targets,
    bgp_slash48_targets,
    bgp_slash64_targets,
    hitlist_slash64_targets,
    route6_slash64_targets,
)
from .zmapv6 import ScanConfig, ZMapV6Scanner

__all__ = [
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointSchemaError",
    "CountingSink",
    "CsvSink",
    "IndexWindow",
    "JsonlSink",
    "LazyStream",
    "MemorySink",
    "RecordSink",
    "ScanCheckpoint",
    "ScanConfig",
    "ScanInterrupted",
    "ScanRecord",
    "ScanResult",
    "ShardFailedError",
    "ShardedScanRunner",
    "SubnetPartitionStream",
    "TargetList",
    "TargetStream",
    "TeeSink",
    "ZMapV6Scanner",
    "auto_shard_count",
    "bgp_plain_targets",
    "bgp_slash48_targets",
    "bgp_slash64_targets",
    "hitlist_slash64_targets",
    "load_checkpoint",
    "merge_results",
    "paced_pps",
    "save_checkpoint",
    "route6_slash64_targets",
    "shard_positions",
    "stream_buffered",
]
