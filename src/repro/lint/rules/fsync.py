"""RPL006: durability-critical writes are flushed *and* fsynced.

The kill-then-resume guarantee rests on two files: the sweep journal
(``repro/chaos/checkpoint.py``) and the JSONL run-record sink
(``repro/obs/sink.py``), both written through
:class:`~repro.obs.sink.RecordFile`.  A record that was
``write()``-ten but still sitting in a userspace or kernel buffer when
the process dies is a record that never happened -- resume would
silently re-run (or worse, skip) units.  Every function in those modules that writes to a stream
must therefore also ``flush()`` it and ``os.fsync()`` its fd.

Functions that only write through an already-durable helper (no direct
``.write(`` call) are out of scope.

A writer may also *delegate* durability: calling a sibling function in
the same module whose own body contains the ``flush()`` + ``os.fsync()``
pair satisfies the rule (:meth:`~repro.obs.sink.RecordFile.append`
writes each line and funnels it through the one ``_make_durable()``
helper).  The delegation is only honoured when the helper itself is
defined in the checked module, so the discipline stays auditable
file-locally.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.framework import FileContext, Finding, Rule, terminal_name

SCOPE_DEFAULT = ("repro.chaos.checkpoint", "repro.obs.sink")

NON_STREAM_WRITERS = ("write_text", "write_bytes")
"""Path.write_text/write_bytes replace whole files; rename-or-nothing
semantics are handled by the checkpoint layer, not per-call fsync."""


class FsyncDisciplineRule(Rule):
    code = "RPL006"
    name = "fsync-discipline"
    summary = (
        "journal/sink functions that write() a stream must also flush() "
        "and os.fsync() it"
    )

    def __init__(self) -> None:
        self.modules: tuple[str, ...] = SCOPE_DEFAULT

    @staticmethod
    def _calls_in(node: ast.AST) -> Iterable[ast.Call]:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                yield sub

    def _function_writes(self, func: ast.AST) -> ast.Call | None:
        """The first direct stream ``.write()`` call in ``func``, if any."""
        for call in self._calls_in(func):
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "write"
            ):
                return call
        return None

    def _durable_helpers(self, tree: ast.AST) -> set[str]:
        """Names of functions whose own body flushes *and* fsyncs."""
        helpers: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = {terminal_name(call.func) for call in self._calls_in(node)}
            if "flush" in names and "fsync" in names:
                helpers.add(node.name)
        return helpers

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not self.applies_to(ctx.module, self.modules):
            return
        durable_helpers = self._durable_helpers(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            write_call = self._function_writes(node)
            if write_call is None:
                continue
            has_flush = False
            has_fsync = False
            delegates = False
            for call in self._calls_in(node):
                name = terminal_name(call.func)
                if name == "flush":
                    has_flush = True
                elif name == "fsync":
                    has_fsync = True
                elif name in durable_helpers:
                    delegates = True
            if delegates or (has_flush and has_fsync):
                continue
            missing = []
            if not has_flush:
                missing.append("flush()")
            if not has_fsync:
                missing.append("os.fsync()")
            yield self.finding(
                ctx,
                write_call,
                f"{node.name}() writes a durability-critical stream without "
                f"{' or '.join(missing)}; buffered records are lost on kill",
            )
