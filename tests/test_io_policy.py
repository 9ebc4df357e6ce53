"""No module but corpus.py opens a file.

Side files, stage hand-off tables and outputs go through corpus.py's
read_text, read_csv, write_csv and write_lines, so the encoding, the
byte-order mark, line ends and read errors are decided in one place.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "newsreuse"
_FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
_CSV_FUNCTIONS = {"writer", "reader", "DictReader"}


def _file_calls(tree: ast.AST) -> list[str]:
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id == "open":
            calls.append(f"line {node.lineno}: open")
        elif isinstance(fn, ast.Attribute) and fn.attr in _FILE_METHODS:
            calls.append(f"line {node.lineno}: .{fn.attr}")
        elif (
            isinstance(fn, ast.Attribute)
            and fn.attr in _CSV_FUNCTIONS
            and isinstance(fn.value, ast.Name)
            and fn.value.id == "csv"
        ):
            calls.append(f"line {node.lineno}: csv.{fn.attr}")
    return calls


def test_only_corpus_opens_files():
    found = {
        path.name: _file_calls(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    # corpus.py holds the file functions, so the check must find them there.
    assert found.pop("corpus.py")
    assert {name: calls for name, calls in found.items() if calls} == {}
