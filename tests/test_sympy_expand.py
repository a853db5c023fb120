"""`charpoly --expand` against sympy's expansion of the printed factors.

For every fixture and for 20 seeded small weighted arrangements, the
coefficients that `charpoly --at zero|infinity --expand` prints must be
those of sympy's product of (t^m - 1)^c over the printed `factors`.
"""

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from linemono import InputError, parse_arrangement
from linemono.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 3)]


def seeded_document(seed: int) -> dict:
    """A valid weighted arrangement of 3 to 5 lines, drawn from `seed`."""
    rng = random.Random(seed)
    while True:
        lines = [
            {"a": a, "b": b, "c": rng.randint(-4, 4), "e": rng.randint(1, 4)}
            for a, b in (rng.choice(DIRECTIONS) for _ in range(rng.randint(3, 5)))
        ]
        try:
            parse_arrangement({"lines": lines})
        except InputError:  # duplicate, all parallel, or weights with a common factor
            continue
        return {"lines": lines}


def documents():
    for path in sorted(FIXTURES.glob("*.json")):
        yield pytest.param(path.read_text(), id=path.stem)
    for seed in range(20):
        yield pytest.param(json.dumps(seeded_document(seed)), id=f"seed{seed}")


@pytest.mark.parametrize("at", ["zero", "infinity"])
@pytest.mark.parametrize("text", documents())
def test_expanded_coefficients_match_sympy(tmp_path, text, at):
    sympy = pytest.importorskip("sympy")
    path = tmp_path / "arrangement.json"
    path.write_text(text)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["charpoly", str(path), "--at", at, "--expand"]) == 0
    payload = json.loads(out.getvalue())

    t = sympy.symbols("t")
    product = sympy.Integer(1)
    for m, c in payload["factors"].items():
        product *= (t ** int(m) - 1) ** c
    expected = sympy.Poly(product, t).all_coeffs()[::-1]
    assert payload["coefficients"] == [int(x) for x in expected]
    assert len(expected) - 1 == payload["degree"]
