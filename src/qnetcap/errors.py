"""Exception types shared across the package, the checked-record decorator and the checked spec number."""


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
        obj = new(subcls, *args, **kwargs)
        obj._check()
        return obj

    cls.__new__ = __new__
    cls._make = classmethod(lambda subcls, values: subcls(*values))  # the stock one skips __new__
    return cls


def checked_number(key: str, value, kind=float):
    """``kind(value)``, or an input error that names the spec key; an int refuses a fraction,
    and neither takes a JSON boolean."""
    if value is True or value is False:
        raise DomainError(f"{key} is not a valid {kind.__name__}: {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{key} is not a valid {kind.__name__}: {value!r}") from exc
    if kind is int and isinstance(value, float) and number != value:
        raise DomainError(f"{key} is not a valid int: {value!r}")
    return number
