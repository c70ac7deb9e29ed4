"""Exception types shared across the package, and its one integer-argument rule.

:func:`_int_argument` is that rule for library entry points: a ``bool`` is
not an integer argument, and the value must reach a floor.  Per-element
checks on hot paths (partition parts, chain exponents), ``pi_degree``'s
shift range and the JSON parser's path-carrying checks keep their own.
"""


class MajorchainError(Exception):
    """Base class for every error raised by this package."""


class NotAPartition(MajorchainError, ValueError):
    """A sequence is not a non-increasing run of nonnegative integers."""


class DominanceViolation(MajorchainError, ValueError):
    """A componentwise order required by an operation does not hold."""


class LengthMismatch(MajorchainError, ValueError):
    """Two chains (or a chain and a certificate) have incompatible lengths."""


class IndexOutOfRange(MajorchainError, IndexError):
    """A chain position past the end was read.

    Entries past the end of a chain stand for the zero polynomial, whose
    degree is infinite; no finite answer exists, so the read fails loudly
    instead of inventing one.
    """


class InterlaceViolation(MajorchainError, ValueError):
    """A chain pair does not satisfy the divisibility sandwich required here."""


class PremiseViolation(MajorchainError, ValueError):
    """An operation was called on an instance whose premises do not hold."""


class NonLinearFactor(MajorchainError, ValueError):
    """A translation that requires degree-1 factors met a larger degree."""


class LengthOverflow(MajorchainError, ValueError):
    """A partition has more parts than the chain being built has positions."""


class ConclusionViolation(MajorchainError, ValueError):
    """A certificate failed verification where a verified one was required."""


class SearchTooDeep(MajorchainError, ValueError):
    """A search has more positions than the interpreter's recursion limit allows.

    Each search recurses once per position, so under the default limit an
    instance with about a thousand positions or more cannot be searched; it
    is rejected with this error rather than left to crash.
    """


class InputError(MajorchainError, ValueError):
    """Malformed JSON input; ``path`` points at the offending element."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _int_argument(name: str, value, minimum: int = 0, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is a non-bool ``int`` of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
