#!/usr/bin/env python
"""Repo linter: ruff when available, a stdlib fallback otherwise.

``make lint`` runs this over ``src tests benchmarks tools examples``
(also the default).  With ``ruff`` installed (not in every CI image) it
delegates to ``ruff check`` and the repo's ``pyproject.toml``; the
fallback keeps the gate meaningful without any third-party dependency:

* **syntax** — every file must parse (``ast.parse``);
* **unused imports** — a bound import name that appears nowhere else in
  the file (string occurrences count, so ``__all__`` re-exports and
  doc references stay clean; ``# noqa`` lines are exempt);
* **debug leftovers** — ``breakpoint()`` / ``pdb.set_trace()``;
* **bare except** — ``except:`` without an exception class.

Exit code 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import ast
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _try_ruff(paths: list[str]) -> int | None:
    """Run ruff if present; None when ruff is not installed."""
    ruff = shutil.which("ruff")
    if ruff is not None:
        return subprocess.run([ruff, "check", *paths], cwd=REPO_ROOT).returncode
    probe = subprocess.run(
        [sys.executable, "-m", "ruff", "--version"], capture_output=True
    )
    if probe.returncode == 0:
        return subprocess.run(
            [sys.executable, "-m", "ruff", "check", *paths], cwd=REPO_ROOT
        ).returncode
    return None


def _iter_sources(paths: list[str]):
    for raw in paths:
        path = (REPO_ROOT / raw).resolve() if not Path(raw).is_absolute() else Path(raw)
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(path.rglob("*.py"))


def _import_bindings(tree: ast.AST):
    """Yield ``(lineno, bound_name)`` for every import binding."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield node.lineno, name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    continue
                yield node.lineno, alias.asname or alias.name


def check_file(path: Path) -> list[str]:
    """Fallback checks for one file; returns human-readable findings."""
    rel = path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) else path
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [f"{rel}:{exc.lineno}: syntax error: {exc.msg}"]

    findings = []
    lines = source.splitlines()

    def line_is_noqa(lineno: int) -> bool:
        return 0 < lineno <= len(lines) and "noqa" in lines[lineno - 1]

    for lineno, name in _import_bindings(tree):
        # "annotations" = `from __future__ import annotations` (always used)
        if name in ("_", "annotations") or line_is_noqa(lineno):
            continue
        uses = len(re.findall(rf"\b{re.escape(name)}\b", source))
        # one occurrence = the import statement itself
        if uses <= 1:
            findings.append(f"{rel}:{lineno}: unused import {name!r}")

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id == "breakpoint":
                findings.append(f"{rel}:{node.lineno}: breakpoint() left in")
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr == "set_trace"
                and isinstance(fn.value, ast.Name)
                and fn.value.id == "pdb"
            ):
                findings.append(f"{rel}:{node.lineno}: pdb.set_trace() left in")
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            if not line_is_noqa(node.lineno):
                findings.append(f"{rel}:{node.lineno}: bare except")
    return findings


def main(argv: list[str] | None = None) -> int:
    paths = (argv if argv is not None else sys.argv[1:]) or [
        "src", "tests", "benchmarks", "tools", "examples"
    ]
    ruff_rc = _try_ruff(paths)
    if ruff_rc is not None:
        return ruff_rc

    findings: list[str] = []
    n_files = 0
    for path in _iter_sources(paths):
        n_files += 1
        findings.extend(check_file(path))
    if findings:
        print("\n".join(findings))
        print(f"lint (fallback): {len(findings)} finding(s) in "
              f"{n_files} file(s)", file=sys.stderr)
        return 1
    print(f"lint (fallback): {n_files} file(s) clean "
          f"(install ruff for the full rule set)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
