"""Unified retry policy: jittered exponential backoff under a budget.

:class:`RetryPolicy` is the one backoff object that every restart
loop shares — pool restarts today, the remote executor of the
simulation service tomorrow. Mirroring the source paper's
contract (bounded speculation, then a fallback that always completes),
a policy bounds *total* time spent retrying: once the optional
``budget_seconds`` deadline is exhausted the caller stops retrying and
falls back (for the engine: quarantine the cell, degrade to a partial
matrix) instead of looping forever.

Jitter is deterministic: the perturbation for attempt ``n`` is drawn
from ``random.Random("<seed>:<n>")``, so two runs with the same policy
seed back off identically — seeded chaos tests stay reproducible while
real fleets still decorrelate by choosing distinct seeds.
"""

import random
import time


class RetryPolicy:
    """Exponential backoff with deterministic jitter and a deadline.

    ``delay(n)`` for attempt ``n`` (1-based) is
    ``min(base_seconds * multiplier**(n-1), max_seconds)`` scaled by a
    seeded jitter factor in ``[1-jitter, 1+jitter]``. ``begin()`` arms
    the optional total-time budget; once :meth:`exhausted` the policy
    refuses further pauses so callers fall back promptly. ``sleep`` and
    ``clock`` are injectable for tests.
    """

    def __init__(self, base_seconds=0.5, multiplier=2.0, max_seconds=10.0,
                 jitter=0.25, budget_seconds=None, seed=0,
                 sleep=time.sleep, clock=time.monotonic):
        if base_seconds < 0:
            raise ValueError("base_seconds must be >= 0")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if max_seconds < 0:
            raise ValueError("max_seconds must be >= 0")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if budget_seconds is not None and budget_seconds <= 0:
            raise ValueError("budget_seconds must be positive or None")
        self.base_seconds = base_seconds
        self.multiplier = multiplier
        self.max_seconds = max_seconds
        self.jitter = jitter
        self.budget_seconds = budget_seconds
        self.seed = seed
        self._sleep = sleep
        self._clock = clock
        self._deadline = None

    def delay(self, attempt):
        """The jittered backoff before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        if self.base_seconds <= 0:
            return 0.0
        raw = min(
            self.base_seconds * self.multiplier ** (attempt - 1),
            self.max_seconds,
        )
        if not self.jitter:
            return raw
        rng = random.Random("{}:{}".format(self.seed, attempt))
        spread = self.jitter * (2.0 * rng.random() - 1.0)
        return raw * (1.0 + spread)

    def begin(self):
        """Arm (or re-arm) the total retry-time budget for one sweep."""
        if self.budget_seconds is None:
            self._deadline = None
        else:
            self._deadline = self._clock() + self.budget_seconds

    def remaining(self):
        """Seconds left in the armed budget, or None when unbounded."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self._clock())

    def exhausted(self):
        """True once the armed budget has been fully spent."""
        return self._deadline is not None and self._clock() >= self._deadline

    def pause(self, attempt):
        """Sleep the attempt's delay, clamped to the remaining budget.

        Returns False (without sleeping) when the budget is already
        exhausted — the caller should give up and fall back.
        """
        if self.exhausted():
            return False
        delay = self.delay(attempt)
        remaining = self.remaining()
        if remaining is not None:
            delay = min(delay, remaining)
        if delay > 0:
            self._sleep(delay)
        return True


__all__ = ["RetryPolicy"]
