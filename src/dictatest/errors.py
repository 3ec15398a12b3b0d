"""Exceptions shared across the package, and the enumeration guard."""

DEFAULT_GUARD_BITS = 26

# Upper bound on the array elements an exact route evaluates at once.
_EXACT_CHUNK = 1 << 18


class DictatestError(Exception):
    """Base class for package errors."""


class GuardExceeded(DictatestError):
    """An exact enumeration would exceed the configured randomness budget."""

    def __init__(self, required_bits: int, guard_bits: int):
        self.required_bits = required_bits
        self.guard_bits = guard_bits
        super().__init__(
            f"exact enumeration needs 2^{required_bits} points, "
            f"guard allows 2^{guard_bits}"
        )


def check_guard(bits: int, guard_bits: int) -> None:
    """Raise GuardExceeded when an enumeration of 2^bits points is over budget."""
    if bits > guard_bits:
        raise GuardExceeded(bits, guard_bits)


class SpecParseError(DictatestError, ValueError):
    """A function spec, family file, or experiment config failed to parse."""


class InvariantViolation(DictatestError, ValueError):
    """An input violates a documented invariant (e.g. an unfolded table)."""
