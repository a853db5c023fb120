import json
import os
from pathlib import Path

import pytest

from linemono import parse_arrangement

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Child interpreters (`python -m linemono.cli`) import the checkout under test,
# also when pytest alone put `src` on the path (`pythonpath` in pyproject.toml).
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

TRIANGLE = {
    "lines": [
        {"a": 1, "b": 0, "c": 0},
        {"a": 0, "b": 1, "c": 0},
        {"a": 1, "b": 1, "c": -1},
    ]
}

TWO_AXES = {
    "lines": [
        {"a": 1, "b": 0, "c": 0},
        {"a": 0, "b": 1, "c": 0},
    ]
}

WEIGHTED_TRIANGLE = {
    "lines": [
        {"a": 1, "b": 0, "c": 0},
        {"a": 0, "b": 1, "c": 0},
        {"a": 1, "b": 1, "c": -1, "e": 2},
    ]
}

EIGHT_NORMAL_CROSSING = {
    "lines": [
        {"a": 1, "b": 0, "c": 0},
        {"a": 0, "b": 1, "c": 0},
        {"a": 1, "b": 0, "c": 1},
        {"a": 0, "b": 1, "c": 1},
        {"a": 1, "b": 1, "c": 10},
        {"a": 1, "b": 1, "c": 11},
        {"a": 1, "b": -1, "c": 100},
        {"a": 1, "b": -1, "c": 101},
    ]
}

CONCURRENT_FOUR = {
    "lines": [
        {"a": 1, "b": 0, "c": 0},
        {"a": 0, "b": 1, "c": 0},
        {"a": 1, "b": 1, "c": 0},
        {"a": 1, "b": 0, "c": -1},
    ]
}


def arrangement(document: dict):
    return parse_arrangement(json.dumps(document))


@pytest.fixture
def triangle():
    return arrangement(TRIANGLE)


@pytest.fixture
def two_axes():
    return arrangement(TWO_AXES)


@pytest.fixture
def weighted_triangle():
    return arrangement(WEIGHTED_TRIANGLE)


@pytest.fixture
def eight_normal_crossing():
    return arrangement(EIGHT_NORMAL_CROSSING)


@pytest.fixture
def concurrent_four():
    return arrangement(CONCURRENT_FOUR)
