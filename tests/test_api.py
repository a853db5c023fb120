"""The public API: `linemono.__all__` against itself and against the README.

README.md lists the exports in its "Public API" section, and states how
many there are; a name added to or dropped from `__all__` must be added
to or dropped from that list, and the count changed with it.
"""

import re
from pathlib import Path

import linemono

README = Path(__file__).resolve().parent.parent / "README.md"


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
