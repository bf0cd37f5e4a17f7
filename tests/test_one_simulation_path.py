"""The harness has one way to run a simulation.

A stdlib-``ast`` scan: no module under ``src/repro/harness/`` other than
``runner.py`` constructs a :class:`~repro.frontend.pipeline.FrontendPipeline`.
Experiments express their simulations as ``RunRequest`` batches, so
every run goes through the store, the dedupe and the ledger.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "src" / "repro" / "harness"


def pipeline_constructions(path: Path) -> list[int]:
    """Lines of ``path`` that call ``FrontendPipeline`` (by name, by an
    import alias or as a module attribute)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {"FrontendPipeline"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.asname for alias in node.names
                      if alias.name == "FrontendPipeline" and alias.asname}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id in names) or (
                isinstance(func, ast.Attribute)
                and func.attr == "FrontendPipeline"):
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_every_spelling(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from repro.frontend import pipeline\n"
        "from repro.frontend.pipeline import FrontendPipeline as FP\n"
        "def f(config, policy):\n"
        "    FP(config, policy)\n"
        "    pipeline.FrontendPipeline(config, policy)\n"
        "    return 'FrontendPipeline(config)'\n"
    )
    assert pipeline_constructions(module) == [4, 5]


def test_only_the_runner_builds_pipelines():
    sites = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(HARNESS.rglob("*.py")) if path.name != "runner.py"
        for line in pipeline_constructions(path)
    ]
    assert sites == []
