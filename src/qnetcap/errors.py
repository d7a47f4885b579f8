"""Exception types shared across the package, and the checked-record decorator."""


class QnetcapError(Exception):
    """Base class for every error raised by this package."""


class DomainError(QnetcapError, ValueError):
    """An input value, key or file lies outside its domain."""


class FamilyError(QnetcapError, TypeError):
    """Channel families (amplitude damping vs thermal loss) were mixed or ambiguous."""


class KrausError(QnetcapError, ValueError):
    """A Kraus set does not describe a trace-preserving channel."""


class SizeError(QnetcapError, ValueError):
    """A brute-force oracle was asked to enumerate a graph beyond its size cap."""


class MonotonicityError(QnetcapError, ValueError):
    """A capacity function handed to the threshold solver is not monotone on its bracket."""


class NotAttainableError(QnetcapError, ValueError):
    """No physical parameter value reaches the requested capacity target."""


class ValidationError(QnetcapError, ValueError):
    """A network description violates structural invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def checked(cls):
    """Make each construction of the NamedTuple ``cls``, ``_replace``'s too, run its ``_check``."""
    new = cls.__new__

    def __new__(subcls, *args, **kwargs):
        record = new(subcls, *args, **kwargs)
        record._check()
        return record

    cls.__new__ = __new__
    cls._make = classmethod(lambda subcls, values: subcls(*values))  # the stock one skips __new__
    return cls
