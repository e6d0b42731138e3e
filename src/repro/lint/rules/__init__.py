"""The rule registry: every repo-specific invariant rule, by code."""

from __future__ import annotations

from collections.abc import Iterable

from repro.lint.framework import Rule
from repro.lint.rules.asynchygiene import AsyncHygieneRule
from repro.lint.rules.capability import CapabilityGuardRule
from repro.lint.rules.counters import CounterDisciplineRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.exceptions import ExceptionHygieneRule
from repro.lint.rules.forksafety import ForkSafetyRule
from repro.lint.rules.fsync import FsyncDisciplineRule
from repro.lint.rules.resources import ResourceLifecycleRule
from repro.lint.rules.scale import ScaleHygieneRule
from repro.lint.rules.seam import SeamIsolationRule

ALL_RULES: tuple[type[Rule], ...] = (
    SeamIsolationRule,
    DeterminismRule,
    CounterDisciplineRule,
    CapabilityGuardRule,
    ExceptionHygieneRule,
    FsyncDisciplineRule,
    ScaleHygieneRule,
    ResourceLifecycleRule,
    AsyncHygieneRule,
    ForkSafetyRule,
)


def make_rules(select: Iterable[str] = (), ignore: Iterable[str] = ()) -> list[Rule]:
    """Instantiate the selected rules, minus the ignored ones.

    An empty ``select`` means every rule.  Codes are case-insensitive;
    an unknown one raises ``ValueError`` naming it, so a misspelt code
    cannot silently drop a rule from the run.
    """
    selected = {code.upper() for code in select}
    ignored = {code.upper() for code in ignore}
    unknown = (selected | ignored) - {rule_class.code for rule_class in ALL_RULES}
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return [
        rule_class()
        for rule_class in ALL_RULES
        if (not selected or rule_class.code in selected)
        and rule_class.code not in ignored
    ]
