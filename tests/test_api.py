"""The public API: `linemono.__all__` against itself, the namespace, the README and the demos.

README.md lists the exports in its "Public API" section, and states how
many there are; a name added to or dropped from `__all__` must be added
to or dropped from that list, and the count changed with it.  The
package namespace holds no other public name than its exports and its
submodules, and the demos import only exports from it.  README's Library
example runs as written, prints what its comments say, and computes the
geometry once.  The package computes in integers only, so no module of
it imports `fractions`, `decimal` or `numbers`.  A fact is set once by
its owner, so no attribute is derived lazily.  Every `cs.NAME` that
README.md or a demo's docstring backquotes names an attribute of the
summary.
"""

import ast
import dataclasses
import io
import re
import types
from contextlib import redirect_stdout
from pathlib import Path

import linemono
import linemono.arrangement

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = Path(linemono.__file__).resolve().parent


def readme_api() -> list[str]:
    """The backquoted names of README.md's "Public API" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Public API", 1)[1]
    section = re.split(r"^#", section, maxsplit=1, flags=re.MULTILINE)[0]
    return re.findall(r"`(\w+)`", section)


def test_all_is_sorted_without_duplicates():
    assert linemono.__all__ == sorted(set(linemono.__all__))


def test_every_name_resolves():
    missing = [name for name in linemono.__all__ if not hasattr(linemono, name)]
    assert missing == []


def test_readme_lists_exactly_the_exports():
    assert readme_api() == linemono.__all__


def test_readme_states_the_export_count():
    text = README.read_text(encoding="utf-8")
    (count,) = re.findall(r"exports exactly these (\d+) names", text)
    assert int(count) == len(linemono.__all__)


def test_namespace_holds_only_the_exports():
    public = {
        name
        for name, value in vars(linemono).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public) == linemono.__all__


def test_demos_import_only_exports():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    imported = [
        (path.name, alias.name)
        for path in demos
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "linemono"
        for alias in node.names
    ]
    assert imported
    assert [entry for entry in imported if entry[1] not in linemono.__all__] == []


def test_readme_library_example_runs_as_written(monkeypatch):
    """Each printed line is the example's comment, and the pair loop runs once."""
    text = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", text, flags=re.DOTALL).group(1)
    expected = [
        line.rpartition("# ")[2] for line in code.splitlines() if line.startswith("print(")
    ]
    intersections = linemono.arrangement._intersections
    calls = []

    def counted(lines):
        calls.append(len(lines))
        return intersections(lines)

    monkeypatch.setattr(linemono.arrangement, "_intersections", counted)
    monkeypatch.chdir(ROOT)
    with redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert calls == [4]


def test_no_module_imports_non_integer_number_types():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [
                (path.name, name)
                for name in names
                if name.partition(".")[0] in ("fractions", "decimal", "numbers")
            ]
    assert found == []


def _names_cached_property(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "cached_property") or (
        isinstance(node, ast.Attribute) and node.attr == "cached_property"
    )


def test_no_cached_property():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorators = set()
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if isinstance(method, ast.FunctionDef):
                    for decorator in filter(_names_cached_property, method.decorator_list):
                        decorators.add(decorator)
                        found.append(f"{cls.name}.{method.name}")
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _names_cached_property(node) and node not in decorators
        ]
    assert found == []


def _documented_summary_names() -> list[tuple[str, str]]:
    """(file, NAME) for each backquoted `cs.NAME` in README.md and the demos' docstrings."""
    texts = [("README.md", README.read_text(encoding="utf-8"))]
    for path in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                texts.append((path.name, ast.get_docstring(node) or ""))
    return [(name, found) for name, text in texts for found in re.findall(r"`cs\.(\w+)", text)]


def test_documented_summary_names_exist():
    summary = linemono.CombinatorialSummary
    attributes = {f.name for f in dataclasses.fields(summary)} | set(dir(summary))
    documented = _documented_summary_names()
    assert ("README.md", "all_vertices") in documented
    assert ("01_combinatorics.py", "all_vertices") in documented
    assert [entry for entry in documented if entry[1] not in attributes] == []
