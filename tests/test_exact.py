"""The integer formatter against the Fraction-based writing rules of `_oracles.py`.

`rational_text`, `gaussian_text` and `gaussian_json` write p/n and
(re + im i)/n straight from integers, n > 0, with no reduction done by
the caller; the oracle reduces through `Fraction` and writes with
`str(Fraction)`.  Both must give the same text, and the same
`ValueError` when a reduced part is over the interpreter's 4300-digit
conversion limit.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemono.exact import gaussian_json, gaussian_text, rational_text

import _oracles

# Small parts share factors often, so many pairs arrive not yet in lowest terms.
parts = st.one_of(st.integers(-60, 60), st.integers(-(10**30), 10**30))
denominators = st.one_of(st.integers(1, 60), st.integers(1, 10**30))
gaussian_ints = st.one_of(
    st.tuples(parts, st.just(0), denominators),  # real
    st.tuples(st.just(0), parts, denominators),  # imaginary-only
    st.tuples(parts, parts, denominators),  # mixed, or either part zero
)


def oracle(re, im, n):
    q_re, q_im = Fraction(re, n), Fraction(im, n)
    return _oracles.gaussian_text(q_re, q_im), _oracles.gaussian_coef(q_re, q_im)


class TestAgainstFractions:
    @given(parts, denominators)
    @settings(max_examples=300, deadline=None)
    def test_rational(self, p, n):
        assert rational_text(p, n) == str(Fraction(p, n))

    @given(gaussian_ints)
    @settings(max_examples=300, deadline=None)
    def test_gaussian(self, value):
        assert (gaussian_text(*value), gaussian_json(*value)) == oracle(*value)

    @pytest.mark.parametrize(
        "value, text, coef",
        [
            ((-2, 0, 4), "-1/2", "-1/2"),
            ((0, -3, 6), "-1/2i", {"im": "-1/2", "re": "0"}),
            ((3, 2, 6), "1/2+1/3i", {"im": "1/3", "re": "1/2"}),
            ((6, -4, 2), "3-2i", {"im": "-2", "re": "3"}),
            ((0, 0, 7), "0", "0"),
            ((0, 5, 5), "1i", {"im": "1", "re": "0"}),
        ],
    )
    def test_examples(self, value, text, coef):
        assert oracle(*value) == (text, coef)
        assert (gaussian_text(*value), gaussian_json(*value)) == (text, coef)


class TestDigitLimit:
    BIG = 10**4300 + 1  # 4301 digits, coprime to 3 * 10**k

    @pytest.mark.parametrize(
        "value",
        [
            (BIG, 0, 3),  # real part
            (0, -BIG, 3),  # imaginary part
            (1, 1, BIG),  # denominator
            (3 * BIG, 3, 9),  # still over the limit after reduction
        ],
    )
    def test_over_the_limit_raises_as_fraction_does(self, value):
        with pytest.raises(ValueError) as expected:
            oracle(*value)
        for write in (gaussian_text, gaussian_json):
            with pytest.raises(ValueError) as raised:
                write(*value)
            assert str(raised.value) == str(expected.value)

    def test_reduced_below_the_limit_is_written(self):
        """A pair over the limit whose reduced parts fit is written, as str(Fraction) writes it."""
        big = 10**4299 + 7  # 4300 digits
        value = (big * 10**10, 0, 10**10)
        assert gaussian_text(*value) == oracle(*value)[0] == str(big)
