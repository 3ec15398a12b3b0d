"""Exceptions shared across the package, and the guard on exact routes."""

DEFAULT_GUARD_BITS = 26


class GuardExceeded(Exception):
    """An exact route would exceed the configured randomness budget."""


def check_guard(bits: int, guard_bits: int) -> None:
    """Raise GuardExceeded when a test's 2^bits random draws are over budget."""
    if bits > guard_bits:
        raise GuardExceeded(
            f"exact route covers 2^{bits} random draws, guard allows 2^{guard_bits}")


class SpecParseError(ValueError):
    """A function spec, family file, or experiment config failed to parse."""


class InvariantViolation(ValueError):
    """An input violates a documented invariant (e.g. an unfolded table)."""
