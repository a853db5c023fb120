"""Exception types shared across the package.

Every input-validation failure raises a subclass of :class:`InputError`;
the subclass name doubles as the machine-readable error code emitted by
the command-line tools.  :class:`InternalCheckError` is reserved for
cross-identities that must hold for every valid input, so raising it
always indicates a bug rather than bad data.
"""


class InputError(Exception):
    """Base class for invalid user input."""

    @property
    def code(self) -> str:
        return type(self).__name__


class ParseError(InputError):
    """Document does not conform to the arrangement grammar."""


class FileError(InputError):
    """An input or output file cannot be opened or read; the message is the system's."""


class NumberTooLong(InputError):
    """A number to be written out has more digits than the interpreter's limit."""


class FileTooLarge(InputError):
    """An input file has more than FILE_LIMIT characters, so it is not read to its end."""


class TooManyLines(InputError):
    """An arrangement has more than LINE_LIMIT lines, so its pairs are not intersected."""


class DuplicateLine(InputError):
    """Two lines canonicalize to the same equation."""


class NotEssential(InputError):
    """All lines are parallel (fewer than two direction classes)."""


class BadWeight(InputError):
    """A multiplicity is missing, non-integer, or < 1."""


class BadGcd(InputError):
    """The multiplicities have a common factor > 1."""


class NegativeExponent(InputError):
    """Operation requires nonnegative factor exponents."""


class NotPolynomial(InputError):
    """A factored product with a pole was used where a polynomial is required."""


class ExpandTooLarge(InputError):
    """A dense expansion would exceed EXPAND_LIMIT (degree times factor steps)."""


class IndexTooLarge(InputError, ValueError):
    """A factor index is above INDEX_LIMIT, so its divisors are not enumerated."""


class WeightedNotSupported(InputError):
    """Operation is defined only for all-ones multiplicities."""


class TrivialMonodromy(InputError):
    """Some local-system monodromy equals 1 where nontriviality is required."""


class LengthMismatch(InputError):
    """Residue list length differs from the number of lines."""


class BadOrder(InputError, ValueError):
    """A local-system order is not a positive integer."""


class BadResidues(InputError, ValueError):
    """A residue list is empty, non-integer, out of range or not minimal."""


class BadMonodromy(InputError, ValueError):
    """A monodromy list is empty or holds a value that is not a fraction in [0, 1)."""


class InternalCheckError(Exception):
    """An internal cross-identity failed; this is a bug, not bad input."""
