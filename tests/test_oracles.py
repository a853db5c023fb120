"""The oracles stay independent of the package they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "_oracles.py"


def test_oracles_import_nothing_from_linemono():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "the AST walk found no imports at all"
    assert [name for name in imported if name.split(".")[0] in ("linemono", "")] == []
