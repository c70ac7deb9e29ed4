"""Exception types shared across the package, its one integer-argument rule
and the base of its immutable records.

:func:`_int_argument` is that rule for library entry points: a ``bool`` is
not an integer argument, and the value must reach a floor.  Per-element
checks on hot paths (partition parts, chain exponents), ``pi_degree``'s
shift range and the JSON parser's path-carrying checks keep their own.

:class:`_Value` is the base of the eight records (``Factor``, the two
instance forms, both certificates, ``ConditionCheck``, ``SolveReport`` and
``GeneratorConfig``).  A record names its fields in its class statement and
stores them, normalized and validated, through ``self.__dict__`` in its own
``__init__``; the base compares, hashes and prints those fields the way a
frozen dataclass does and refuses every later assignment or deletion.  The
instances keep a ``__dict__``, so ``functools.cached_property`` still caches
on them.  Writing the records this way keeps ``dataclasses``, and the
``inspect`` and ``ast`` machinery it loads, off the package's import path.
"""

from operator import attrgetter


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


class InputError(MajorchainError, ValueError):
    """Malformed JSON input; ``path`` points at the offending element."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _int_argument(name: str, value, minimum: int = 0, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is a non-bool ``int`` of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")


class _Value:
    """Immutable record over the fields named by ``fields=(...)`` in the class statement."""

    def __init_subclass__(cls, fields, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*fields)
        cls._fields = fields
        # The fields as one tuple, also for a record of one field.
        cls._key = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
