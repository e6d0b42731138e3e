"""Resilient reachability query serving.

The serve layer turns the frozen chain-decomposition index
(:mod:`repro.core.chains`) into a long-running query service with an
explicit robustness contract -- deadlines, bounded admission with load
shedding, and one retried start-up build of the index, before which
queries get a structured refusal.  Answers are computed from the index
on every query; there is no result cache.  See ``docs/ROBUSTNESS.md``
("Serving and degradation modes") for the behaviour table, and
:mod:`repro.serve.service` for the core.

Submodules:

* :mod:`repro.serve.service` -- :class:`ReachabilityService`, config,
  telemetry, admission, the ``ready``/``unready`` states;
* :mod:`repro.serve.http` -- stdlib asyncio HTTP/1.1 server (TCP or
  UNIX-domain socket) and the matching test/bench client;
* :mod:`repro.serve.retry` -- the shared deterministic jittered
  exponential backoff (also used by :mod:`repro.experiments.parallel`);
* :mod:`repro.serve.validate` -- request/probe validation shared with
  the CLIs.
"""

from repro.serve.http import ServeClient, ServeServer
from repro.serve.retry import BackoffPolicy
from repro.serve.service import (
    DeadlineExceededError,
    IndexUnavailableError,
    InvalidRequestError,
    OverloadedError,
    ReachabilityService,
    ServeConfig,
    ServeTelemetry,
)

__all__ = [
    "BackoffPolicy",
    "DeadlineExceededError",
    "IndexUnavailableError",
    "InvalidRequestError",
    "OverloadedError",
    "ReachabilityService",
    "ServeClient",
    "ServeConfig",
    "ServeServer",
    "ServeTelemetry",
]
