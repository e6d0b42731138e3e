"""RPL004: optional engine hooks run behind the ``engine.paged`` guard.

The fast engine deliberately does not model page costs or pinning; the
engine contract says callers test ``engine.paged`` before invoking the
optional hooks.  Unguarded calls happen to work today because the fast
engine stubs the hooks as no-ops, but they couple algorithms to that
accident -- a third engine that raises instead would break them.  This
rule requires every cost/pinning hook call outside ``repro/storage/``
to be dominated by that guard.

A guard is a read of ``.paged`` on an engine receiver (terminal name
``engine``/``_engine``, so ``ctx.engine.paged`` counts and
``config.paged`` does not).  A call counts as guarded when either holds
in its enclosing function:

* an ancestor ``if``/``while``/ternary test contains a guard --
  directly, or via a flag assigned from one (``charged =
  ctx.engine.paged`` ... ``if charged:``), traced into closures;
* an earlier early-exit guard (``if not charged: return`` / ``continue``
  / ``raise``) whose test references a guard.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.framework import FileContext, Finding, Rule, terminal_name

GUARDED_METHODS = frozenset(
    {
        "touch_page",
        "create_page",
        "flush_output",
        "probe_arcs_unclustered",
        "pin_page",
        "unpin_page",
    }
)

ENGINE_RECEIVERS = ("engine", "_engine")


class CapabilityGuardRule(Rule):
    code = "RPL004"
    name = "capability-guards"
    summary = (
        "optional engine hooks (page costs, pinning) must be dominated "
        "by an engine.paged check"
    )

    def __init__(self) -> None:
        self.methods: frozenset[str] = GUARDED_METHODS
        self.receivers: tuple[str, ...] = ENGINE_RECEIVERS
        self.allowed_prefixes: tuple[str, ...] = ("repro.storage",)

    # -- guard detection -------------------------------------------------------

    def _is_guard(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "paged"
            and terminal_name(node.value) in self.receivers
        )

    def _guard_test(self, ctx: FileContext, test: ast.AST, at: ast.AST) -> bool:
        """Whether a condition expression reads the ``engine.paged`` guard."""
        assignments: dict[str, ast.expr] | None = None
        for sub in ast.walk(test):
            if self._is_guard(sub):
                return True
            if isinstance(sub, ast.Name):
                if assignments is None:
                    assignments = ctx.scope_assignments(at)
                value = assignments.get(sub.id)
                if value is not None and self._is_guard(value):
                    return True
        return False

    def _is_guarded(self, ctx: FileContext, node: ast.Call) -> bool:
        for ancestor in ctx.ancestors(node):
            if isinstance(
                ancestor, (ast.If, ast.While, ast.IfExp)
            ) and self._guard_test(ctx, ancestor.test, node):
                return True
        functions = ctx.enclosing_functions(node)
        scope = functions[0] if functions else ctx.tree
        for statement in ast.walk(scope):
            if (
                isinstance(statement, ast.If)
                and statement.lineno < node.lineno
                and statement.body
                and isinstance(statement.body[-1], (ast.Return, ast.Continue, ast.Raise))
                and self._guard_test(ctx, statement.test, statement)
            ):
                return True
        return False

    # -- the check -------------------------------------------------------------

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if self.applies_to(ctx.module, self.allowed_prefixes):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in self.methods:
                continue
            receiver = terminal_name(func.value)
            if receiver not in self.receivers:
                continue
            if self._is_guarded(ctx, node):
                continue
            yield self.finding(
                ctx,
                node,
                f"engine hook {func.attr}() called without an engine.paged guard",
            )
