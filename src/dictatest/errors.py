"""Exceptions shared across the package, and the guard on exact routes."""

DEFAULT_GUARD_BITS = 26


class GuardExceeded(Exception):
    """An exact route would exceed the configured randomness budget."""


def check_guard(bits: int, guard_bits: int, what: str | None = None) -> None:
    """Raise GuardExceeded when 2^bits counted things are over budget.

    ``what`` names them in the message; by default they are an exact route's
    2^bits random draws.
    """
    if bits > guard_bits:
        what = what or f"exact route covers 2^{bits} random draws"
        raise GuardExceeded(f"{what}, guard allows 2^{guard_bits}")


class SpecParseError(ValueError):
    """A function spec, family file, or experiment config failed to parse."""


class InvariantViolation(ValueError):
    """An input violates a documented invariant (e.g. an unfolded table)."""
