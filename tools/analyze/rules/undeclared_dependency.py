"""undeclared-dependency: third-party imports under ``src/`` must be declared.

A clean install (``pip install -e .`` or ``.[dev]``, as CI does) provides only
what ``pyproject.toml`` declares.  An import of a library that merely happens
to be installed on the developer's machine passes every local test and then
fails on the first clean install; ``networkx`` sat in ``src/`` undeclared for
several PRs this way.

The rule applies to modules inside a ``src/`` directory whose parent holds a
``pyproject.toml``, and checks every absolute import whose top-level name is
neither first-party (a package or module directly under that ``src/``) nor in
the standard library:

* a **module-level** import (anything not inside a function, including class
  bodies and ``if``/``try`` blocks at module scope) runs on every import of
  the module, so its distribution must be in ``[project].dependencies``;
* a **function-local** import runs only when the function is called, so it
  may also come from an optional extra (``[project.optional-dependencies]``),
  which is how an optional feature keeps its library off the import path.

Import names map to distribution names by PEP 503 normalisation plus a short
alias table for well-known mismatches (``yaml`` -> ``pyyaml``).

The analyzer is stdlib-only and runs on Python 3.9, which has neither
``tomllib`` nor ``sys.stdlib_module_names``: :func:`parse_declared` reads the
subset of TOML that dependency arrays use, and :func:`stdlib_names` falls back
to listing the interpreter's standard-library directory.
"""

from __future__ import annotations

import ast
import os
import re
import sys
import sysconfig
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from tools.analyze.core import Finding, Module, Rule, register

#: import names whose distribution name is not the import name
ALIASES = {
    "attr": "attrs",
    "cv2": "opencv-python",
    "dateutil": "python-dateutil",
    "PIL": "pillow",
    "sklearn": "scikit-learn",
    "skimage": "scikit-image",
    "yaml": "pyyaml",
}

_HEADER_RE = re.compile(r"^[ \t]*\[([^\[\]\n]+)\][ \t]*(?:#.*)?$", re.MULTILINE)
_ARRAY_KEY_RE = re.compile(r"^[ \t]*([A-Za-z0-9_.\-]+|\"[^\"\n]+\")[ \t]*=[ \t]*\[", re.MULTILINE)
_STRING_RE = re.compile(r"\"((?:[^\"\\\n]|\\.)*)\"|'([^'\n]*)'")
_REQUIREMENT_NAME_RE = re.compile(r"\s*([A-Za-z0-9](?:[A-Za-z0-9._-]*[A-Za-z0-9])?)")


def normalize(name: str) -> str:
    """PEP 503 distribution-name normalisation."""
    return re.sub(r"[-_.]+", "-", name).lower()


def _array_strings(text: str, start: int) -> List[str]:
    """String items of the TOML array whose ``[`` is at ``text[start]``."""
    items: List[str] = []
    depth = 0
    index = start
    while index < len(text):
        char = text[index]
        if char in "\"'":
            match = _STRING_RE.match(text, index)
            if match is None:
                raise ValueError(f"unterminated string at offset {index}")
            items.append(match.group(1) if match.group(2) is None else match.group(2))
            index = match.end()
            continue
        if char == "#":
            newline = text.find("\n", index)
            index = len(text) if newline < 0 else newline
            continue
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
            if depth == 0:
                return items
        index += 1
    raise ValueError(f"unterminated array at offset {start}")


def _tables(text: str) -> Dict[str, str]:
    """Table name -> body text, for every ``[table]`` header."""
    headers = list(_HEADER_RE.finditer(text))
    tables: Dict[str, str] = {}
    for position, header in enumerate(headers):
        end = headers[position + 1].start() if position + 1 < len(headers) else len(text)
        tables[header.group(1).strip()] = text[header.end():end]
    return tables


def _requirement_names(requirements: List[str]) -> Set[str]:
    names = set()
    for requirement in requirements:
        match = _REQUIREMENT_NAME_RE.match(requirement)
        if match:
            names.add(normalize(match.group(1)))
    return names


def parse_declared(text: str) -> Tuple[Set[str], Dict[str, Set[str]]]:
    """``(required, extras)`` normalised distribution names from pyproject text.

    Reads ``dependencies`` in ``[project]`` and every array in
    ``[project.optional-dependencies]``; other TOML is ignored.
    """
    tables = _tables(text)
    required: Set[str] = set()
    extras: Dict[str, Set[str]] = {}
    project = tables.get("project", "")
    for match in _ARRAY_KEY_RE.finditer(project):
        if match.group(1) == "dependencies":
            required = _requirement_names(_array_strings(project, match.end() - 1))
    optional = tables.get("project.optional-dependencies", "")
    for match in _ARRAY_KEY_RE.finditer(optional):
        extra = match.group(1).strip('"')
        extras[extra] = _requirement_names(_array_strings(optional, match.end() - 1))
    return required, extras


def stdlib_names() -> FrozenSet[str]:
    """Top-level module names of the running interpreter's standard library."""
    names = getattr(sys, "stdlib_module_names", None)  # Python >= 3.10
    return frozenset(names) if names is not None else listed_stdlib_names()


def listed_stdlib_names() -> FrozenSet[str]:
    """Standard-library names found by listing the interpreter's stdlib
    directory, its extension modules and the built-in modules (Python 3.9)."""
    found = set(sys.builtin_module_names)
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    for directory in (stdlib, stdlib / "lib-dynload"):
        if not directory.is_dir():
            continue
        for entry in os.listdir(directory):
            stem = entry.split(".", 1)[0]
            if stem.isidentifier() and entry != "site-packages":
                found.add(stem)
    return frozenset(found)


@dataclass(frozen=True)
class _Project:
    first_party: FrozenSet[str]
    required: FrozenSet[str]
    #: normalised distribution name -> the extras that declare it
    optional: Dict[str, Tuple[str, ...]]


def _imports(node: ast.AST, local: bool = False) -> Iterator[Tuple[ast.stmt, bool]]:
    """Every import statement under ``node`` with whether it is function-local."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, local
        else:
            inner = local or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from _imports(child, inner)


def _top_level_names(node: ast.stmt) -> List[str]:
    if isinstance(node, ast.ImportFrom):
        if node.level or not node.module:
            return []  # relative imports are first-party by definition
        return [node.module.split(".", 1)[0]]
    return [alias.name.split(".", 1)[0] for alias in node.names]


@register
class UndeclaredDependencyRule(Rule):
    name = "undeclared-dependency"
    description = (
        "third-party imports under src/ must be declared in pyproject.toml: "
        "module-level ones in [project].dependencies, function-local ones there "
        "or in an optional extra"
    )

    def __init__(self) -> None:
        self._projects: Dict[Path, _Project] = {}
        self._stdlib = stdlib_names()

    def _project(self, path: Path) -> Optional[_Project]:
        for parent in path.resolve().parents:
            if parent.name == "src" and (parent.parent / "pyproject.toml").is_file():
                break
        else:
            return None
        if parent not in self._projects:
            text = (parent.parent / "pyproject.toml").read_text(encoding="utf-8")
            required, extras = parse_declared(text)
            optional: Dict[str, Tuple[str, ...]] = {}
            for extra, names in sorted(extras.items()):
                for name in names:
                    optional[name] = optional.get(name, ()) + (extra,)
            first_party = {
                entry.name if entry.is_dir() else entry.stem
                for entry in parent.iterdir()
                if entry.is_dir() or entry.suffix == ".py"
            }
            self._projects[parent] = _Project(frozenset(first_party), frozenset(required), optional)
        return self._projects[parent]

    def check(self, module: Module) -> Iterator[Finding]:
        project = self._project(module.path)
        if project is None:
            return
        for node, local in _imports(module.tree):
            for name in _top_level_names(node):
                if name in project.first_party or name in self._stdlib:
                    continue
                distribution = normalize(ALIASES.get(name, name))
                if distribution in project.required:
                    continue
                extras = project.optional.get(distribution, ())
                if local and extras:
                    continue
                if extras:
                    message = (
                        f"module-level import of {name!r} runs on every import, but "
                        f"{distribution!r} is only in the optional extra(s) {', '.join(extras)}: "
                        "declare it in [project].dependencies or import it inside the "
                        "function that needs it"
                    )
                else:
                    where = "[project].dependencies" + (" or an optional extra" if local else "")
                    message = (
                        f"import of {name!r} needs {distribution!r} declared in {where} "
                        "of pyproject.toml; a clean install does not provide it"
                    )
                yield self.finding(module, node, message)
