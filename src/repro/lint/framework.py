"""The rule engine: file parsing, AST utilities, suppression, running.

The framework is deliberately self-contained (stdlib ``ast`` only): a
:class:`FileContext` wraps one parsed file with the derived facts every
rule needs -- the dotted module name, a parent map, the line ranges of
``if TYPE_CHECKING:`` blocks, an import-alias map, per-scope name
assignments and the inline suppression table -- and a :class:`Rule`
yields :class:`Finding` objects from it.  :func:`lint_paths` drives the
whole thing over a file set.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable(?:=([A-Za-z0-9, ]+))?")
_SUPPRESS_FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9, ]+)")

PARSE_ERROR_CODE = "RPL900"
"""Pseudo-rule reported when a file cannot be parsed at all."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class FileContext:
    """One parsed source file plus the derived facts rules share."""

    def __init__(self, path: str, source: str, module: str | None = None) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.module = module if module is not None else module_name_of(path)
        self.tree = ast.parse(source, filename=path)
        self._parents: dict[ast.AST, ast.AST] | None = None
        self._type_checking: set[int] | None = None
        self._imports: dict[str, str] | None = None
        self._suppressions = self._parse_suppressions()

    # -- suppression -----------------------------------------------------------

    def _parse_suppressions(self) -> dict[int, set[str] | None]:
        """Map line number -> suppressed codes (None = all rules)."""
        table: dict[int, set[str] | None] = {}
        file_wide: set[str] = set()
        for number, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_FILE_RE.search(line)
            if match:
                file_wide.update(
                    code.strip().upper()
                    for code in match.group(1).split(",")
                    if code.strip()
                )
                continue
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            codes = match.group(1)
            if codes is None:
                table[number] = None
            else:
                table[number] = {
                    code.strip().upper() for code in codes.split(",") if code.strip()
                }
        self._file_wide = file_wide
        return table

    def suppressed(self, line: int, code: str) -> bool:
        """Whether ``code`` is suppressed on ``line`` (or file-wide)."""
        if code in self._file_wide:
            return True
        codes = self._suppressions.get(line, ...)
        if codes is ...:
            return False
        return codes is None or code in codes

    # -- derived AST facts -----------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (None for the module)."""
        if self._parents is None:
            self._parents = {}
            for outer in ast.walk(self.tree):
                for inner in ast.iter_child_nodes(outer):
                    self._parents[inner] = outer
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The parents of ``node``, innermost first."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def type_checking_lines(self) -> set[int]:
        """Lines inside ``if TYPE_CHECKING:`` blocks (type-only imports)."""
        if self._type_checking is None:
            lines: set[int] = set()
            for node in ast.walk(self.tree):
                if not isinstance(node, ast.If):
                    continue
                test = dotted_name(node.test)
                if test in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
                    for child in node.body:
                        end = child.end_lineno or child.lineno
                        lines.update(range(child.lineno, end + 1))
            self._type_checking = lines
        return self._type_checking

    def import_map(self) -> dict[str, str]:
        """Local name -> dotted origin for every top-level-ish import.

        ``import time`` maps ``time -> time``; ``from datetime import
        datetime as dt`` maps ``dt -> datetime.datetime``; aliased
        module imports map the alias to the real module path, which is
        how aliased substrate imports stay visible to RPL001-style
        rules.
        """
        if self._imports is None:
            table: dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        local = alias.asname or alias.name.split(".")[0]
                        table[local] = alias.name if alias.asname else local
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    base = node.module or ""
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        local = alias.asname or alias.name
                        table[local] = f"{base}.{alias.name}" if base else alias.name
            self._imports = table
        return self._imports

    def resolve_dotted(self, node: ast.AST) -> str | None:
        """Dotted path of an expression, import aliases substituted.

        ``dt.now`` resolves to ``datetime.datetime.now`` when ``dt``
        came from ``from datetime import datetime as dt``.
        """
        raw = dotted_name(node)
        if raw is None:
            return None
        head, _, rest = raw.partition(".")
        origin = self.import_map().get(head)
        if origin is None or origin == head:
            return raw
        return f"{origin}.{rest}" if rest else origin

    def enclosing_functions(self, node: ast.AST) -> list[ast.AST]:
        """Enclosing function defs, innermost first."""
        return [
            anc
            for anc in self.ancestors(node)
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    def scope_assignments(self, node: ast.AST) -> dict[str, ast.expr]:
        """Simple ``name = expr`` assignments visible from ``node``.

        Walks the enclosing function scopes (innermost first, first
        binding wins) so a guard flag like ``charged = ctx.engine.paged``
        can be traced from an ``if charged:`` test in a nested closure.
        """
        table: dict[str, ast.expr] = {}
        scopes: list[ast.AST] = [*self.enclosing_functions(node), self.tree]
        for scope in scopes:
            for statement in ast.walk(scope):
                if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                    target = statement.targets[0]
                    if isinstance(target, ast.Name) and target.id not in table:
                        table[target.id] = statement.value
                elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
                    target = statement.target
                    if isinstance(target, ast.Name) and target.id not in table:
                        table[target.id] = statement.value
        return table


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> str | None:
    """The last identifier of a Name/Attribute chain (``ctx.engine`` -> engine)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def module_name_of(path: str) -> str:
    """Best-effort dotted module for a file path.

    Anchors on the last ``repro`` path component, so both
    ``src/repro/core/base.py`` and an absolute path resolve to
    ``repro.core.base``.  Files outside the package fall back to their
    stem, which is what the fixture tests rely on.
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return ".".join(parts[index:])
    return parts[-1] if parts else ""


class Rule:
    """Base class of all lint rules.

    Subclasses set ``code``/``name``/``summary`` and implement
    :meth:`check`; a rule's module scopes and name lists are instance
    attributes set in its ``__init__``.
    """

    code: str = "RPL000"
    name: str = "abstract"
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    # -- helpers for subclasses ------------------------------------------------

    def applies_to(self, module: str, prefixes: Sequence[str]) -> bool:
        """Whether ``module`` falls under any of the scope prefixes.

        The empty prefix matches everything (used by fixture tests to
        force a scoped rule onto arbitrary files).
        """
        return any(
            not prefix or module == prefix or module.startswith(prefix + ".")
            for prefix in prefixes
        )

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            code=self.code,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0


def collect_files(paths: Sequence[str]) -> list[Path]:
    """Expand the given paths into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def lint_source(
    source: str,
    rules: Sequence[Rule],
    path: str = "<string>",
    module: str | None = None,
    stats: LintResult | None = None,
) -> list[Finding]:
    """Lint one in-memory source string (the unit-test entry point)."""
    try:
        ctx = FileContext(path, source, module=module)
    except SyntaxError as exc:
        return [
            Finding(
                code=PARSE_ERROR_CODE,
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.check(ctx):
            if ctx.suppressed(finding.line, finding.code):
                if stats is not None:
                    stats.suppressed += 1
            else:
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def lint_paths(paths: Sequence[str], rules: Sequence[Rule]) -> LintResult:
    """Lint every ``.py`` file under ``paths`` with ``rules``."""
    result = LintResult()
    for file_path in collect_files(paths):
        try:
            source = file_path.read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            result.findings.append(
                Finding(
                    code=PARSE_ERROR_CODE,
                    path=str(file_path),
                    line=1,
                    col=1,
                    message=f"file cannot be read: {exc}",
                )
            )
            continue
        result.files += 1
        result.findings.extend(
            lint_source(source, rules, path=str(file_path), stats=result)
        )
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return result
