"""Command line front-end: ``python -m repro.lint`` / ``repro-lint``.

One read-only pass: every selected rule over every ``.py`` file under
the given paths.  Exit codes follow the CI convention: 0 clean, 1
findings, 2 usage or internal error -- an unknown rule code, or a path
that does not exist or holds no ``.py`` file, is a usage error, never a
clean pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.lint.framework import LintResult, collect_files, lint_paths
from repro.lint.rules import ALL_RULES, make_rules

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant linter for the repro codebase",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _split_codes(values: list[str] | None) -> list[str]:
    codes: list[str] = []
    for value in values or []:
        codes.extend(part.strip() for part in value.split(",") if part.strip())
    return codes


def _render_text(result: LintResult) -> None:
    for finding in result.findings:
        print(finding.render())
    print(
        f"{len(result.findings)} finding(s) in {result.files} file(s)"
        f" ({result.suppressed} suppressed)"
    )


def _render_json(result: LintResult) -> None:
    payload = {
        "findings": [finding.to_dict() for finding in result.findings],
        "files": result.files,
        "suppressed": result.suppressed,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_class in ALL_RULES:
            print(f"{rule_class.code}  {rule_class.name}: {rule_class.summary}")
        return EXIT_CLEAN

    try:
        rules = make_rules(_split_codes(args.select), _split_codes(args.ignore))
        if not rules:
            raise ValueError("no rules selected")
        for path in args.paths:
            if not Path(path).exists():
                raise ValueError(f"no such file or directory: {path}")
            if not collect_files([path]):
                raise ValueError(f"no .py file under {path}")
        result = lint_paths(args.paths, rules)
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.format == "json":
        _render_json(result)
    else:
        _render_text(result)
    return EXIT_FINDINGS if result.findings else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
