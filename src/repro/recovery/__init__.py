"""Checkpoint/restore and write-ahead logging (crash-stop recovery).

The paper's engine is an in-memory DSMS: a crash loses every window, every
half-joined tuple, and every TSM register.  This package adds the classical
durability pair on top of the reproduction's deterministic substrate:

* :class:`CheckpointStore` — atomic, CRC-checked, monotonically numbered
  images of every stateful component's ``snapshot_state()``;
* :class:`WriteAheadLog` — tuple-granularity logging of everything that
  enters or drives the engine, appended before it is applied;
* :class:`RecoveryManager` — binds both to one engine and performs
  crash-stop recovery: restore the newest valid checkpoint (falling back
  loudly past corrupted ones), replay the WAL suffix, and suppress
  already-delivered sink output via recorded high-water marks — so the
  recovered run's total output is byte-identical to a run that never
  crashed (exactly-once).

See DESIGN.md section 4f for the on-disk formats and the exactly-once
argument.
"""

from .checkpoint import CHECKPOINT_MAGIC, CheckpointInfo, CheckpointStore
from .manager import CHECKPOINT_FORMAT_VERSION, RecoveryManager, RecoveryReport
from .wal import WAL_MAGIC, WalRecord, WriteAheadLog

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CHECKPOINT_MAGIC",
    "CheckpointInfo",
    "CheckpointStore",
    "RecoveryManager",
    "RecoveryReport",
    "WAL_MAGIC",
    "WalRecord",
    "WriteAheadLog",
]
