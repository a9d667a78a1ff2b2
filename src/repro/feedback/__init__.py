"""Closed-loop backpressure: a hysteresis controller stepping source throttles.

See DESIGN.md section 4h.  The public pieces:

* :class:`FeedbackController` — per-engine hysteresis sampler whose
  pressure and relief waves each take one AIMD step on every throttled
  source;
* :class:`TokenBucketThrottle` — AIMD admission control for sources.
"""

from .controller import FeedbackController
from .throttle import TokenBucketThrottle

__all__ = [
    "FeedbackController",
    "TokenBucketThrottle",
]
