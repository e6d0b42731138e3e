"""Seeded, deterministic fault injection for the storage substrate.

The paper's conclusions rest on the simulated disk behaving exactly as
specified; this module exists to injure that substrate *on purpose* and
check that the system detects the injury instead of silently
mis-counting.  A :class:`FaultPlan` is armed process-wide from one
switch, the ``REPRO_CHAOS`` environment variable, which ``--chaos
<spec>`` exports and :func:`arm_from_env` reads, and the instrumented
sites -- the buffer pool's physical-read path, the successor store's
block-write path, and the experiment engine's unit boundary -- ask it
whether to fire.  With no plan armed the sites cost
one ``None`` check on a buffer *miss* only; the hit path is untouched.

Fault kinds
-----------

=====================  =============================  ==========================
kind                   site                           effect
=====================  =============================  ==========================
corrupt-read           buffer-pool physical read      raises
                                                      ``CorruptPageReadError``
                                                      (a detected checksum
                                                      failure)
evict-storm            buffer-pool physical read      evicts every unpinned
                                                      resident page (dirty ones
                                                      charge writes)
slow-io                buffer-pool physical read      sleeps ``ms`` milliseconds
torn-write             successor-store block write    raises ``TornWriteError``
crash-unit             experiment-unit start          raises
                                                      ``InjectedCrashError``
slow-handler           serve request handler          handler awaits ``ms``
                                                      milliseconds (deadline
                                                      pressure)
cancelled-request      serve request handler          cancels the in-flight
                                                      request mid-handler
index-rebuild-crash    serve index build attempt      raises
                                                      ``InjectedRebuildError``
=====================  =============================  ==========================

The first five are *storage/experiment* sites wired through the engine
seam; the last three are *serve* sites in :mod:`repro.serve`, above the
seam -- they work on every engine (see :data:`STORAGE_FAULT_KINDS` /
:data:`SERVE_FAULT_KINDS`).

Spec grammar (see ``docs/ROBUSTNESS.md``)::

    spec    ::= clause (";" clause)*
    clause  ::= "seed=" INT | fault ("," param)*
    fault   ::= "corrupt-read" | "evict-storm" | "slow-io"
              | "torn-write"   | "crash-unit"  | "slow-handler"
              | "cancelled-request" | "index-rebuild-crash"
    param   ::= "p=" FLOAT      probability per opportunity (seeded RNG)
              | "after=" INT    fire on the Nth opportunity (1-based)
              | "times=" INT    max firings, >= 1 (default 1 with
                                after=, unlimited with p=)
              | "ms=" FLOAT     slow-io / slow-handler latency per
                                firing, finite and >= 0 (default 1.0)
              | "k=" INT        evict-storm victims (default: all unpinned)

Examples::

    REPRO_CHAOS="corrupt-read,after=100"
    REPRO_CHAOS="seed=7;slow-io,p=0.01,ms=2;evict-storm,p=0.001"
    python -m repro --algorithm btc --family G4 --chaos "torn-write,after=5"

Determinism: each rule draws from its own ``random.Random`` seeded from
``(plan seed, fault kind)``, and ``after=`` counts opportunities, so a
plan fires at the same points of the same (deterministic) execution on
every run.  In multi-process sweeps every worker arms its own plan from
``REPRO_CHAOS`` and counts its own opportunities.
"""

from __future__ import annotations

import enum
import math
import os
import random
import zlib
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

ENV_CHAOS = "REPRO_CHAOS"
"""Environment variable holding a chaos spec to arm at startup."""


class FaultKind(enum.Enum):
    """The injectable fault families, one per instrumented site effect."""

    CORRUPT_READ = "corrupt-read"
    EVICT_STORM = "evict-storm"
    SLOW_IO = "slow-io"
    TORN_WRITE = "torn-write"
    CRASH_UNIT = "crash-unit"
    SLOW_HANDLER = "slow-handler"
    CANCEL_REQUEST = "cancelled-request"
    REBUILD_CRASH = "index-rebuild-crash"


SERVE_FAULT_KINDS = frozenset(
    {
        FaultKind.SLOW_HANDLER,
        FaultKind.CANCEL_REQUEST,
        FaultKind.REBUILD_CRASH,
    }
)
"""Fault sites in :mod:`repro.serve`, above the storage seam: live on
every engine, including ``fast``."""

STORAGE_FAULT_KINDS = frozenset(FaultKind) - SERVE_FAULT_KINDS
"""Fault sites wired through the paged substrate and the experiment
unit boundary; the fast engine refuses plans that arm these."""


_KINDS = {kind.value: kind for kind in FaultKind}

_PARAM_TYPES = {"p": float, "after": int, "times": int, "ms": float, "k": int}


@dataclass(frozen=True)
class FaultEvent:
    """One fault firing: what fired, at which opportunity, with what params."""

    kind: FaultKind
    opportunity: int
    params: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """JSON-safe form, stored in run records and error reports."""
        return {
            "kind": self.kind.value,
            "opportunity": self.opportunity,
            **self.params,
        }


class FaultRule:
    """One armed fault: when (p= / after=) and how often (times=) to fire."""

    def __init__(
        self,
        kind: FaultKind,
        p: float | None = None,
        after: int | None = None,
        times: int | None = None,
        ms: float = 1.0,
        k: int | None = None,
        seed: int = 0,
    ) -> None:
        if p is None and after is None:
            raise ConfigurationError(
                f"fault {kind.value!r} needs a trigger: p=<prob> or after=<n>"
            )
        if p is not None and not 0.0 <= p <= 1.0:
            raise ConfigurationError(
                f"fault {kind.value!r}: p must be in [0, 1], got {p}"
            )
        if after is not None and after < 1:
            raise ConfigurationError(
                f"fault {kind.value!r}: after must be >= 1, got {after}"
            )
        if times is not None and times < 1:
            raise ConfigurationError(
                f"fault {kind.value!r}: times must be >= 1, got {times}"
            )
        if not 0.0 <= ms < math.inf:
            raise ConfigurationError(
                f"fault {kind.value!r}: ms must be finite and >= 0, got {ms}"
            )
        if k is not None and k < 1:
            raise ConfigurationError(f"fault {kind.value!r}: k must be >= 1, got {k}")
        self.kind = kind
        self.p = p
        self.after = after
        self.times = times if times is not None else (1 if after is not None else None)
        self.ms = ms
        self.k = k
        # Independent stream per (plan seed, kind): arming an extra
        # fault never perturbs when an existing one fires.  crc32, not
        # hash(): str hashes vary per process (PYTHONHASHSEED) and the
        # firing points must be identical in every worker.
        self._rng = random.Random(zlib.crc32(f"{seed}:{kind.value}".encode()))
        self.opportunities = 0
        self.fired = 0

    def draw(self) -> FaultEvent | None:
        """Register one opportunity; return an event iff the rule fires."""
        self.opportunities += 1
        if self.times is not None and self.fired >= self.times:
            return None
        if self.after is not None:
            if self.opportunities < self.after:
                return None
        elif self._rng.random() >= (self.p or 0.0):
            return None
        self.fired += 1
        params: dict[str, float] = {}
        if self.kind in (FaultKind.SLOW_IO, FaultKind.SLOW_HANDLER):
            params["ms"] = self.ms
        if self.kind is FaultKind.EVICT_STORM and self.k is not None:
            params["k"] = self.k
        return FaultEvent(self.kind, self.opportunities, params)


class FaultPlan:
    """A set of armed fault rules plus the log of what actually fired."""

    def __init__(self, rules: list[FaultRule] | None = None, seed: int = 0,
                 spec: str = "") -> None:
        self.seed = seed
        self.spec = spec
        self._rules: dict[FaultKind, FaultRule] = {}
        for rule in rules or []:
            if rule.kind in self._rules:
                raise ConfigurationError(
                    f"fault {rule.kind.value!r} armed twice in one plan"
                )
            self._rules[rule.kind] = rule
        self.events: list[FaultEvent] = []

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the chaos spec grammar (see module docstring)."""
        seed = 0
        clauses: list[tuple[FaultKind, dict[str, float | int]]] = []
        for raw_clause in spec.split(";"):
            clause = raw_clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                try:
                    seed = int(clause[len("seed="):])
                except ValueError:
                    raise ConfigurationError(
                        f"chaos spec: bad seed clause {clause!r}"
                    ) from None
                continue
            name, _, params_text = clause.partition(",")
            kind = _KINDS.get(name.strip().lower().replace("_", "-"))
            if kind is None:
                valid = ", ".join(sorted(_KINDS))
                raise ConfigurationError(
                    f"chaos spec: unknown fault {name.strip()!r}; valid faults: {valid}"
                )
            params: dict[str, float | int] = {}
            for item in filter(None, (p.strip() for p in params_text.split(","))):
                key, sep, value = item.partition("=")
                key = key.strip()
                if not sep or key not in _PARAM_TYPES:
                    valid = ", ".join(sorted(_PARAM_TYPES))
                    raise ConfigurationError(
                        f"chaos spec: bad parameter {item!r} for {kind.value!r}; "
                        f"valid parameters: {valid}"
                    )
                try:
                    params[key] = _PARAM_TYPES[key](value.strip())
                except ValueError:
                    raise ConfigurationError(
                        f"chaos spec: {key}= needs a number, got {value.strip()!r}"
                    ) from None
            clauses.append((kind, params))
        if not clauses:
            raise ConfigurationError(f"chaos spec {spec!r} arms no faults")
        rules = [FaultRule(kind, seed=seed, **params) for kind, params in clauses]
        return cls(rules, seed=seed, spec=spec)

    # -- firing ---------------------------------------------------------------

    def fire(self, kind: FaultKind) -> FaultEvent | None:
        """One opportunity for ``kind``; the event is also logged on the plan."""
        rule = self._rules.get(kind)
        if rule is None:
            return None
        event = rule.draw()
        if event is not None:
            self.events.append(event)
        return event

    def armed(self, kind: FaultKind) -> bool:
        """Whether the plan has a rule for ``kind``."""
        return kind in self._rules

    def arms_any(self, kinds: Iterable[FaultKind]) -> bool:
        """Whether the plan arms at least one of ``kinds``.

        Engines use this with :data:`STORAGE_FAULT_KINDS` to refuse
        only the plans whose sites they actually cannot honour: a plan
        arming purely serve-site faults runs fine on the fast engine.
        """
        return any(kind in self._rules for kind in kinds)

    def drain_events(self) -> list[FaultEvent]:
        """Return and clear the fired-event log (per-run attribution)."""
        events, self.events = self.events, []
        return events

    def summary(self) -> str:
        """One line: what was armed and how often each kind fired."""
        parts = [
            f"{rule.kind.value}: {rule.fired}/{rule.opportunities}"
            for rule in self._rules.values()
        ]
        return "injected faults (fired/opportunities): " + ", ".join(parts)


# -- the process-wide armed plan ----------------------------------------------

_PLAN: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The armed plan, or ``None`` (the default: chaos disabled)."""
    return _PLAN


def set_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Arm ``plan`` process-wide (or disarm with ``None``); returns previous."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    return previous


@contextmanager
def use_fault_plan(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Scope a fault plan as the process-wide armed one."""
    previous = set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)


def arm_from_env() -> FaultPlan | None:
    """Arm a plan from ``REPRO_CHAOS``, the chaos plane's one switch.

    The ``repro`` run, ``repro serve`` and ``run_all`` call this at
    start, after exporting ``--chaos``
    (:func:`repro.experiments.parallel.arm_planes`), and every pool
    worker calls it in its initialiser.

    Returns the armed plan, or ``None`` when the variable is unset or
    empty.  A malformed spec raises :class:`ConfigurationError` -- a
    typo must not silently run the sweep un-injured.
    """
    spec = os.environ.get(ENV_CHAOS, "").strip()
    if not spec:
        return None
    try:
        plan = FaultPlan.parse(spec)
    except ConfigurationError as exc:
        # Name the variable *and* the offending value: the spec usually
        # comes from a shell export far away from this stack trace.
        raise ConfigurationError(f"{ENV_CHAOS}={spec!r}: {exc}") from None
    set_fault_plan(plan)
    return plan
