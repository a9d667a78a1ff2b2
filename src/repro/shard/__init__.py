"""Key-partitioned sharded execution with frontier-based progress tracking.

``repro.shard`` scales the paper's single-engine timestamp machinery to P
engine shards: data is shuffled by a stable hash of the partition key,
punctuation is broadcast, each shard advertises a frontier derived from
its sources/TSM state, and a downstream merge gates on the min frontier
across shards — the per-input TSM rule of the paper's IWP operators,
applied one level up.  See DESIGN.md §4g.
"""

from .backends import (
    BACKENDS,
    EngineShard,
    ProcessBackend,
    SerialBackend,
    ShardError,
    ShardResult,
    ShardSummary,
    ShardTimeoutError,
    ThreadBackend,
)
from .elastic import (
    RESHARD_PHASES,
    ElasticShardedEngine,
    ReshardCoordinator,
    ReshardReport,
)
from .engine import ShardedEngine, ShardedRecoveryReport
from .frontier import FrontierMerge, FrontierTracker, shard_frontier
from .partition import HashPartitioner, jump_hash, stable_hash

__all__ = [
    "BACKENDS",
    "RESHARD_PHASES",
    "ElasticShardedEngine",
    "EngineShard",
    "FrontierMerge",
    "FrontierTracker",
    "HashPartitioner",
    "ProcessBackend",
    "ReshardCoordinator",
    "ReshardReport",
    "SerialBackend",
    "ShardError",
    "ShardResult",
    "ShardSummary",
    "ShardTimeoutError",
    "ShardedEngine",
    "ShardedRecoveryReport",
    "ThreadBackend",
    "jump_hash",
    "shard_frontier",
    "stable_hash",
]
