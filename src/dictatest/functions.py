"""Truth-table functions on the hypercube and the folded access rule.

Conventions, fixed globally:

* A point x in {0,1}^n is stored as an unsigned index in [0, 2^n); coordinate
  i (1-based) lives at bit position i-1, so the least significant bit is x_1.
* Vector addition over {0,1}^n is XOR; the all-ones vector is 2^n - 1.
* Truth tables are dense arrays of length 2^n; table[j] is the value at the
  point with index j.  Dimensions are limited to 1 <= n <= 24.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation

MAX_DIMENSION = 24


def check_dimension(n: int) -> int:
    n = int(n)
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {n}")
    return n


def _set_table(obj, name: str, dtype) -> np.ndarray:
    """Store obj.<name> as a read-only ``dtype`` array of length 2^obj.n."""
    check_dimension(obj.n)
    arr = np.asarray(getattr(obj, name), dtype=dtype)
    if arr.shape != (1 << obj.n,):
        raise ValueError(f"{name} must have length {1 << obj.n}, got {arr.shape}")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True, eq=False)
class BooleanFunction:
    """A function {0,1}^n -> {-1,+1} given by its full truth table."""

    n: int
    table: np.ndarray = field(repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.table, other.table))

    def __hash__(self):
        return hash((self.n, self.table.tobytes()))

    def __post_init__(self):
        if not np.all(np.abs(_set_table(self, "table", np.int8)) == 1):
            raise ValueError("table entries must be -1 or +1")

    def as_real(self) -> "RealPointFunction":
        return RealPointFunction(self.n, self.table.astype(np.float64))


@dataclass(frozen=True, eq=False)
class RealPointFunction:
    """A bounded function {0,1}^n -> [-1,1] given by its table."""

    n: int
    table: np.ndarray = field(repr=False)

    _RANGE_TOL = 1e-12

    def __post_init__(self):
        table = _set_table(self, "table", np.float64)
        if np.max(np.abs(table), initial=0.0) > 1.0 + self._RANGE_TOL:
            raise ValueError("table entries must lie in [-1, 1]")


class FoldedOracle:
    """Query-counting access to a function under the folding rule.

    A query at x with x_1 = 1 reads the table directly; a query at x with
    x_1 = 0 reads the complementary point 1⃗+x and negates the answer.  The
    induced function F therefore satisfies F(1⃗+x) = -F(x) for every x and
    has mean exactly 0, regardless of the wrapped table.  ``query_count``
    counts every query made through it.
    """

    __slots__ = ("inner", "query_count")

    def __init__(self, inner: BooleanFunction):
        self.inner = inner
        self.query_count = 0

    @property
    def n(self) -> int:
        return self.inner.n

    def fold_query(self, x) -> int:
        j = int(x)
        if not 0 <= j < 1 << self.n:
            raise ValueError(f"point index {j} out of range for n={self.n}")
        self.query_count += 1
        if j & 1:
            return int(self.inner.table[j])
        return -int(self.inner.table[j ^ ((1 << self.n) - 1)])


def _fold_half(half: np.ndarray) -> np.ndarray:
    """The table of the folded function whose x_1 = 1 half is ``half``.

    half[m] is the value at the point 2m+1, the m-th point with x_1 = 1.
    F(x) = -F(1⃗+x) forces the x_1 = 0 half: 1⃗+x = 1⃗-x takes the point 2m to
    2(2^{n-1}-1-m)+1, so that half is the negated reversal of ``half``.
    """
    table = np.empty(2 * half.size, dtype=half.dtype)
    table[1::2] = half
    table[0::2] = -half[::-1]
    return table


def folded_table(f: BooleanFunction) -> np.ndarray:
    """The induced folded view of f: F(x) = f(x) if x_1 = 1, else -f(1⃗+x).

    This is FoldedOracle's access rule applied to every point at once; the
    tests compare it with a per-point FoldedOracle loop, its reference.
    Exact routes index into this array instead of f.table.  For a folded f
    it equals f.table.
    """
    return _fold_half(f.table[1::2])


def make_folded(n: int, half_table) -> BooleanFunction:
    """The unique folded function whose x_1 = 1 half is ``half_table``."""
    check_dimension(n)
    half = np.asarray(half_table, dtype=np.int8)
    if half.shape != (1 << (n - 1),):
        raise ValueError(
            f"half table must have length {1 << (n - 1)}, got {half.shape}"
        )
    return BooleanFunction(n, _fold_half(half))


def refold(f: BooleanFunction) -> BooleanFunction:
    """Fold f: keep its x_1 = 1 half and rebuild the other half."""
    return BooleanFunction(f.n, _fold_half(f.table[1::2]))


def is_folded(f: BooleanFunction) -> bool:
    """True iff f(1⃗+x) = -f(x) for all x, i.e. f is its own folded view."""
    return bool(np.array_equal(_fold_half(f.table[1::2]), f.table))


def require_folded(f: BooleanFunction, what: str = "input") -> None:
    if not is_folded(f):
        raise InvariantViolation(f"{what} must be folded (f(1⃗+x) = -f(x))")


def table_to_hex(f: BooleanFunction) -> str:
    """Pack the table into a lowercase hex string.

    Bit j of the packed integer is (1 - table[j]) / 2, LSB first; the string
    is zero-padded to ceil(2^n / 4) digits so its length determines nothing
    beyond the (externally known) dimension.
    """
    bits = ((1 - f.table) // 2).astype(np.uint8)
    packed = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    digits = max(1, (1 << f.n) // 4)
    return format(packed, f"0{digits}x")


def table_from_hex(n: int, text: str) -> BooleanFunction:
    """Inverse of table_to_hex; n must be supplied by the caller."""
    check_dimension(n)
    digits = max(1, (1 << n) // 4)
    if len(text) != digits:
        raise ValueError(
            f"hex table for n={n} must have {digits} digits, got {len(text)}"
        )
    if not all(c in "0123456789abcdef" for c in text):
        raise ValueError(f"not a lowercase hex string: {text!r}")
    packed = int(text, 16)
    if packed >= 1 << (1 << n):
        raise ValueError("hex table has bits beyond 2^n entries")
    raw = packed.to_bytes(((1 << n) + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return BooleanFunction(n, 1 - 2 * bits[: 1 << n].astype(np.int8))
