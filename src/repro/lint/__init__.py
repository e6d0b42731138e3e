"""repro-lint: AST-based invariant analysis for this repository.

The reproduction rests on invariants that ordinary linters cannot see:
algorithm code must stay behind the :class:`~repro.storage.engine.
StorageEngine` seam, every code path must be bit-deterministic (the
parallel engine, ``--resume`` and the engine-parity goldens all depend
on it), page-cost bookkeeping must be guarded by the ``engine.paged``
fact, counters must flow through the sanctioned
:class:`~repro.metrics.counters.MetricSet` fold API, and the journal
and sink write paths must flush + fsync.  ``repro-lint`` walks the
parsed AST of a file set and enforces exactly those rules:

========  ==================================================================
RPL001    seam isolation -- no substrate imports outside ``repro/storage/``
RPL002    determinism hygiene -- no wall clock, unseeded RNG or
          unordered set iteration on deterministic paths
RPL003    counter discipline -- counter writes go through the MetricSet API
RPL004    capability guards -- page-cost/pinning engine hooks are dominated
          by an ``engine.paged`` check
RPL005    exception hygiene -- no bare/swallowed ``except`` on chaos paths
RPL006    fsync discipline -- journal/sink writes flush and fsync
RPL007    scale hygiene -- whole-graph sweeps must not rebuild per-node
          Python containers the CSR core retired
RPL008    resource lifecycle -- flow-sensitive: every pin/handle acquire
          is released on every path out, exception edges included
RPL009    async hygiene -- no blocking calls, un-awaited coroutines or
          dropped task results inside serve-path ``async def``
RPL010    fork safety -- pool-submitted callables carry no live
          resources; worker-read module state has a reset hook
========  ==================================================================

RPL008-010 run on an intra-procedural CFG (:mod:`repro.lint.cfg`) with
a gen/kill dataflow solver (:mod:`repro.lint.dataflow`).

Run it as ``python -m repro.lint [paths]`` or via the ``repro-lint``
console script: one read-only pass of every selected rule
(``--select``/``--ignore``) over the given paths.  Findings can be
suppressed inline with ``# repro-lint: disable=RPL001`` (or ``disable``
for all rules) on the offending line, or file-wide with
``# repro-lint: disable-file=RPL001``.  See ``docs/STATIC_ANALYSIS.md``.
"""

from repro.lint.framework import FileContext, Finding, Rule, lint_paths, lint_source
from repro.lint.rules import ALL_RULES, make_rules

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "Rule",
    "lint_paths",
    "lint_source",
    "make_rules",
]
