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


def _as_index(x) -> int:
    """Accept a BitVector or a plain integer index."""
    if isinstance(x, BitVector):
        return x.bits
    return int(x)


@dataclass(frozen=True)
class BitVector:
    """A point of {0,1}^n encoded as an unsigned index."""

    n: int
    bits: int

    def __post_init__(self):
        check_dimension(self.n)
        if not 0 <= self.bits < 1 << self.n:
            raise ValueError(f"index {self.bits} out of range for n={self.n}")

    @classmethod
    def zero(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(n, (1 << n) - 1)

    @classmethod
    def unit(cls, n: int, i: int) -> "BitVector":
        """e_i: 1 at coordinate i, 0 elsewhere."""
        if not 1 <= i <= n:
            raise ValueError(f"coordinate {i} out of range for n={n}")
        return cls(n, 1 << (i - 1))

    @classmethod
    def from_coords(cls, coords) -> "BitVector":
        """Build from an explicit (x_1, ..., x_n) tuple of 0/1 values."""
        bits = 0
        for pos, value in enumerate(coords):
            if value not in (0, 1):
                raise ValueError("coordinates must be 0 or 1")
            bits |= value << pos
        return cls(len(coords), bits)

    def coordinate(self, i: int) -> int:
        """x_i for 1 <= i <= n."""
        if not 1 <= i <= self.n:
            raise ValueError(f"coordinate {i} out of range for n={self.n}")
        return (self.bits >> (i - 1)) & 1

    def weight(self) -> int:
        """Hamming weight |v|."""
        return self.bits.bit_count()

    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> p) & 1 for p in range(self.n))

    def _check_same_n(self, other: "BitVector") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_same_n(other)
        return BitVector(self.n, self.bits ^ other.bits)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_same_n(other)
        return BitVector(self.n, self.bits & other.bits)

    def complement(self) -> "BitVector":
        """1⃗ + v (coordinate-wise flip)."""
        return BitVector(self.n, self.bits ^ ((1 << self.n) - 1))

    def __index__(self) -> int:
        return self.bits


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
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
        check_dimension(self.n)
        table = np.asarray(self.table, dtype=np.int8)
        if table.shape != (1 << self.n,):
            raise ValueError(
                f"table must have length {1 << self.n}, got {table.shape}"
            )
        if not np.all(np.abs(table) == 1):
            raise ValueError("table entries must be -1 or +1")
        object.__setattr__(self, "table", _freeze(table))

    def __call__(self, x) -> int:
        return int(self.table[_as_index(x)])

    def as_real(self) -> "RealPointFunction":
        return RealPointFunction(self.n, self.table.astype(np.float64))

    def negate(self) -> "BooleanFunction":
        return BooleanFunction(self.n, -self.table)

    def mean(self) -> float:
        return float(self.table.mean())


@dataclass(frozen=True, eq=False)
class RealPointFunction:
    """A bounded function {0,1}^n -> [-1,1] given by its table."""

    n: int
    table: np.ndarray = field(repr=False)

    _RANGE_TOL = 1e-12

    def __post_init__(self):
        check_dimension(self.n)
        table = np.asarray(self.table, dtype=np.float64)
        if table.shape != (1 << self.n,):
            raise ValueError(
                f"table must have length {1 << self.n}, got {table.shape}"
            )
        if np.max(np.abs(table), initial=0.0) > 1.0 + self._RANGE_TOL:
            raise ValueError("table entries must lie in [-1, 1]")
        object.__setattr__(self, "table", _freeze(table))

    def __call__(self, x) -> float:
        return float(self.table[_as_index(x)])

    def mean(self) -> float:
        return float(self.table.mean())


def evaluate(f: BooleanFunction, x) -> int:
    """f at the point x (BitVector or index)."""
    if isinstance(x, BitVector) and x.n != f.n:
        raise ValueError(f"dimension mismatch: function n={f.n}, point n={x.n}")
    j = _as_index(x)
    if not 0 <= j < 1 << f.n:
        raise ValueError(f"point index {j} out of range for n={f.n}")
    return int(f.table[j])


class FoldedOracle:
    """Query-counting access to a function under the folding rule.

    A query at x with x_1 = 1 reads the table directly; a query at x with
    x_1 = 0 reads the complementary point 1⃗+x and negates the answer.  The
    induced function F therefore satisfies F(1⃗+x) = -F(x) for every x and
    has mean exactly 0, regardless of the wrapped table.

    One oracle instance belongs to a single logical thread; use ``fresh()``
    to give each worker its own counter.
    """

    __slots__ = ("inner", "query_count")

    def __init__(self, inner: BooleanFunction):
        self.inner = inner
        self.query_count = 0

    @property
    def n(self) -> int:
        return self.inner.n

    def fold_query(self, x) -> int:
        j = _as_index(x)
        if not 0 <= j < 1 << self.n:
            raise ValueError(f"point index {j} out of range for n={self.n}")
        self.query_count += 1
        if j & 1:
            return int(self.inner.table[j])
        return -int(self.inner.table[j ^ ((1 << self.n) - 1)])

    def fresh(self) -> "FoldedOracle":
        return FoldedOracle(self.inner)


def folded_table(f: BooleanFunction) -> np.ndarray:
    """The induced folded view of f: F(x) = f(x) if x_1 = 1, else -f(1⃗+x).

    This is FoldedOracle's access rule applied to every point at once; the
    tests compare it with a per-point FoldedOracle loop, its reference.
    Enumerators index into this array instead of f.table.  For a folded f
    it equals f.table.
    """
    idx = np.arange(1 << f.n)
    return np.where(idx & 1, f.table, -f.table[idx ^ ((1 << f.n) - 1)])


def make_folded(n: int, half_table) -> BooleanFunction:
    """The unique folded function whose x_1 = 1 half is ``half_table``.

    half_table[m] is the value at the point with index 2m+1 (the m-th point
    with x_1 = 1); values on the x_1 = 0 half are forced by F(x) = -F(1⃗+x).
    """
    check_dimension(n)
    half = np.asarray(half_table, dtype=np.int8)
    if half.shape != (1 << (n - 1),):
        raise ValueError(
            f"half table must have length {1 << (n - 1)}, got {half.shape}"
        )
    if not np.all(np.abs(half) == 1):
        raise ValueError("half table entries must be -1 or +1")
    table = np.empty(1 << n, dtype=np.int8)
    table[1::2] = half
    ones = (1 << n) - 1
    even = np.arange(0, 1 << n, 2)
    table[even] = -table[even ^ ones]
    return BooleanFunction(n, table)


def refold(f: BooleanFunction) -> BooleanFunction:
    """Fold f: keep its x_1 = 1 half and rebuild the other half."""
    return make_folded(f.n, f.table[1::2])


def is_folded(f: BooleanFunction) -> bool:
    """True iff f(1⃗+x) = -f(x) for all x."""
    ones = (1 << f.n) - 1
    idx = np.arange(1 << f.n)
    return bool(np.all(f.table[idx ^ ones] == -f.table))


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
