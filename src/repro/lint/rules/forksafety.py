"""RPL010: what crosses the process-pool boundary must survive a fork.

The parallel experiment engine (PR 4) pickles every submitted callable
and argument into worker processes.  Three classes of bug get through
the type checker and the unit tests (which run the serial path) only to
corrupt multi-process sweeps:

* **capturing closures** -- a lambda or nested function submitted to
  the pool that closes over an engine, executor, socket, open handle or
  live trace collector: either it fails to pickle, or worse, pickles a
  *copy* whose buffer counters silently diverge from the parent's;
* **unpicklable arguments** -- the same objects passed positionally;
* **unreset module state** -- a module-level mutable (dict/list/set)
  read by any function reachable from a submitted entry point.  Workers
  are long-lived and recycled across sweep units, so stale cached state
  makes unit results depend on scheduling order — the exact
  non-determinism the paper's methodology (fixed seeds, pinned page
  layouts) exists to exclude.  The sanctioned pattern is a reset hook:
  the ``ProcessPoolExecutor(initializer=...)`` function must clear
  or reassign the global.

The reachability walk is a same-module call-graph BFS from every
``.submit(...)`` target; attribute calls and imports are not followed
(cross-module state is out of this rule's scope).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.lint.framework import (
    FileContext,
    Finding,
    Rule,
    terminal_name,
)
from repro.lint.rules.resources import (
    FunctionNode,
    local_bindings,
)

MUTABLE_FACTORIES = frozenset(
    {
        "dict",
        "list",
        "set",
        "collections.OrderedDict",
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
    }
)


class ForkSafetyRule(Rule):
    """RPL010: pool-submitted work must be picklable and state-clean."""

    code = "RPL010"
    name = "fork-safety"
    summary = (
        "pool.submit targets must not close over engines/pools/sockets/"
        "handles, and module-level mutable state read by workers needs "
        "a reset hook in the pool initializer"
    )

    def __init__(self) -> None:
        self.scope: tuple[str, ...] = ("repro.experiments.parallel",)
        self.banned_constructors: tuple[str, ...] = (
            "concurrent.futures.ProcessPoolExecutor",
            "concurrent.futures.ThreadPoolExecutor",
            "repro.obs.tracing.TraceCollector",
            "socket.socket",
            "open",
            "io.open",
            "ExperimentEngine",
        )

    # -- entry -----------------------------------------------------------------

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not self.applies_to(ctx.module, self.scope):
            return
        submits = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
        ]
        module_funcs = {
            stmt.name: stmt
            for stmt in ctx.tree.body
            if isinstance(stmt, FunctionNode)
        }
        for call in submits:
            yield from self._check_submit(ctx, call, module_funcs)
        yield from self._check_module_state(ctx, submits, module_funcs)

    # -- capturing closures and pickled arguments ------------------------------

    def _check_submit(
        self,
        ctx: FileContext,
        call: ast.Call,
        module_funcs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
    ) -> Iterator[Finding]:
        target = call.args[0]
        free_names: set[str] = set()
        target_desc = None
        if isinstance(target, ast.Lambda):
            target_desc = "lambda"
            params = {a.arg for a in target.args.args}
            params.update(a.arg for a in target.args.posonlyargs)
            params.update(a.arg for a in target.args.kwonlyargs)
            free_names = {
                n.id
                for n in ast.walk(target.body)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            } - params
        elif isinstance(target, ast.Name):
            nested = self._nested_def(ctx, call, target.id)
            if nested is not None:
                target_desc = f"nested function {nested.name}"
                free_names = {
                    n.id
                    for n in ast.walk(nested)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)
                } - local_bindings(nested) - set(module_funcs)
        if target_desc is not None:
            for name in sorted(free_names):
                origin = self._banned_origin(ctx, call, name)
                if origin is not None:
                    yield self.finding(
                        ctx,
                        target,
                        f"{target_desc} submitted to the pool closes "
                        f"over {name!r} ({origin}); pass plain data and "
                        "rebuild the object inside the worker",
                    )
        for arg in call.args[1:]:
            if isinstance(arg, ast.Name):
                origin = self._banned_origin(ctx, call, arg.id)
                if origin is not None:
                    yield self.finding(
                        ctx,
                        arg,
                        f"argument {arg.id!r} submitted to the pool is "
                        f"a live resource ({origin}); it cannot be "
                        "pickled into a worker — pass a spec and "
                        "rebuild it worker-side",
                    )

    @staticmethod
    def _nested_def(
        ctx: FileContext, call: ast.Call, name: str
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for scope in ctx.enclosing_functions(call):
            for stmt in ast.walk(scope):
                if (
                    isinstance(stmt, FunctionNode)
                    and stmt.name == name
                    and stmt is not scope
                ):
                    return stmt
        return None

    def _banned_origin(
        self, ctx: FileContext, at: ast.AST, name: str
    ) -> str | None:
        """The banned constructor ``name`` traces to, if any."""
        value = ctx.scope_assignments(at).get(name)
        if not isinstance(value, ast.Call):
            return None
        resolved = ctx.resolve_dotted(value.func)
        term = terminal_name(value.func)
        banned = set(self.banned_constructors)
        banned_terminals = {b.rpartition(".")[2] for b in banned}
        if resolved in banned or term in banned_terminals:
            return f"built by {resolved or term}()"
        return None

    # -- module-level mutable state --------------------------------------------

    def _check_module_state(
        self,
        ctx: FileContext,
        submits: list[ast.Call],
        module_funcs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
    ) -> Iterator[Finding]:
        mutables = self._module_mutables(ctx)
        if not mutables:
            return
        roots = []
        for call in submits:
            target = call.args[0]
            if isinstance(target, ast.Name) and target.id in module_funcs:
                roots.append(target.id)
        if not roots:
            return
        reachable = self._reachable(roots, module_funcs)
        resetters = self._reset_functions(ctx, module_funcs)
        reset_globals: set[str] = set()
        for func in resetters:
            reset_globals |= self._resets_in(func)
        for name in sorted(reachable):
            func = module_funcs[name]
            bound = local_bindings(func)
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in mutables
                    and node.id not in bound
                    and node.id not in reset_globals
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"worker-reachable function {name}() reads "
                        f"module-level mutable {node.id!r} with no "
                        "reset in the pool initializer; clear it there "
                        "so recycled workers start deterministic",
                    )
                    break  # one finding per (function, run) is enough

    @staticmethod
    def _module_mutables(ctx: FileContext) -> set[str]:
        names: set[str] = set()
        for stmt in ctx.tree.body:
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            if isinstance(value, (ast.Dict, ast.List, ast.Set)):
                names.add(target.id)
            elif isinstance(value, ast.Call):
                resolved = ctx.resolve_dotted(value.func)
                if resolved in MUTABLE_FACTORIES:
                    names.add(target.id)
        return names

    @staticmethod
    def _reachable(
        roots: list[str],
        module_funcs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
    ) -> set[str]:
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            name = stack.pop()
            if name in seen or name not in module_funcs:
                continue
            seen.add(name)
            for node in ast.walk(module_funcs[name]):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name
                ):
                    stack.append(node.func.id)
        return seen

    def _reset_functions(
        self,
        ctx: FileContext,
        module_funcs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
    ) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        found: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            term = terminal_name(node.func)
            if term not in ("ProcessPoolExecutor", "ThreadPoolExecutor"):
                continue
            for keyword in node.keywords:
                if keyword.arg == "initializer" and isinstance(
                    keyword.value, ast.Name
                ):
                    func = module_funcs.get(keyword.value.id)
                    if func is not None:
                        found.append(func)
        return found

    @staticmethod
    def _resets_in(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> set[str]:
        """Globals the hook resets: ``G.clear()`` or a (global) rebind."""
        reset: set[str] = set()
        declared_global: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("clear", "cache_clear")
                and isinstance(node.func.value, ast.Name)
            ):
                reset.add(node.func.value.id)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ):
                reset.add(node.id)
        return reset
