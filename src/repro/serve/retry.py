"""Deterministic jittered-exponential-backoff delays, shared repo-wide.

Two retry loops use the exact same policy: the parallel experiment
engine's unit retries (:mod:`repro.experiments.parallel`) and the serve
layer's async start-up build of the index (:mod:`repro.serve.service`).
Each loop is its own; what they share is one tested implementation of
the delay formula::

    delay(attempt) = base * 2**(attempt - 2) * (0.5 + rng.random())

for retry attempts numbered from 2 (attempt 1 is the original try).
The jitter is drawn from a dedicated ``random.Random`` seeded at
construction, so a given policy instance produces the same delay
sequence on every run -- retries are as deterministic as everything
else in this repo.  A ``base`` of zero disables sleeping (and draws no
jitter, so arming retries never perturbs another consumer's stream).
"""

from __future__ import annotations

import random

DEFAULT_BACKOFF_BASE = 0.05
"""Base delay (seconds) of the jittered exponential retry backoff."""

DEFAULT_BACKOFF_SEED = 0x5EED
"""Historical fixed seed of the experiment engine's jitter stream."""


class BackoffPolicy:
    """Deterministic jittered exponential backoff delays.

    ``delay(attempt)`` is the pause *before* retry ``attempt`` (>= 2);
    each call advances the policy's private jitter stream, exactly like
    the inline implementation this replaces.  ``max_delay`` optionally
    caps the exponential growth (a server should not sleep unboundedly
    between index build attempts).
    """

    def __init__(
        self,
        base: float = DEFAULT_BACKOFF_BASE,
        seed: int = DEFAULT_BACKOFF_SEED,
        max_delay: float | None = None,
    ) -> None:
        if base < 0:
            raise ValueError(f"backoff base must be >= 0, got {base}")
        if max_delay is not None and max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.base = base
        self.max_delay = max_delay
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """Seconds to pause before retry ``attempt`` (the 2nd try is 2)."""
        if self.base <= 0:
            return 0.0
        delay = self.base * (2 ** (attempt - 2)) * (0.5 + self._rng.random())
        if self.max_delay is not None:
            delay = min(delay, self.max_delay)
        return delay
