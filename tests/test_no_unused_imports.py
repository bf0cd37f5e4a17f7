"""Every import in ``src/repro`` and ``tests`` is used.

A stdlib-``ast`` scan: a module's imported names must each appear as a
name in its code or inside one of its string annotations.  Other
strings do not count (a name mentioned only in a ``setattr`` target
string is still unused).  ``__init__.py`` files, ``__future__``
imports and names listed in ``__all__`` are re-exports and are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (*arguments.posonlyargs, *arguments.args,
                        *arguments.kwonlyargs, arguments.vararg,
                        arguments.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used |= _used_names(parsed)
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of each unused import in one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name != "*" and name not in used:
                unused.append((node.lineno, name))
    return unused


def test_scan_flags_a_name_used_only_in_a_plain_string(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\n"
        "from typing import TYPE_CHECKING\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "def f(p: 'Path') -> None:\n"
        "    setattr(os, 'ProcessPoolExecutor', None)\n"
    )
    assert unused_imports(module) == [(3, "ProcessPoolExecutor")]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    files += sorted((ROOT / "tests").rglob("*.py"))
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in files if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert unused == []
