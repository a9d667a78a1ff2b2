"""Metrics: latency, queue occupancy, idle-waiting, recovery accounting."""

from .idle import IdleTracker
from .latency import LatencyRecorder
from .profile import OperatorProfile, format_profile, profile_simulation
from .queues import queue_summary
from .recovery import CheckpointTracker, RecoveryTracker

__all__ = [
    "CheckpointTracker",
    "IdleTracker",
    "LatencyRecorder",
    "OperatorProfile",
    "RecoveryTracker",
    "format_profile",
    "profile_simulation",
    "queue_summary",
]
