"""Only `cmd_detect` parses the corpus.

graph and headlines read the matched articles that detect hands off, so a
pipeline ingests and partitions the corpus once.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "newsreuse" / "cli.py"
_CORPUS_PASSES = {"ingest_articles", "partition_windows"}


def _called_name(node: ast.Call) -> str | None:
    fn = node.func
    if isinstance(fn, ast.Name):
        return fn.id
    if isinstance(fn, ast.Attribute):
        return fn.attr
    return None


def test_only_detect_ingests_and_partitions():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    callers: dict[str, set[str]] = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and _called_name(node) in _CORPUS_PASSES:
                callers.setdefault(fn.name, set()).add(_called_name(node))
    assert callers == {"cmd_detect": _CORPUS_PASSES}
