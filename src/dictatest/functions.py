"""±1 truth-table functions on the hypercube and the folded access rule.

``BooleanFunction``, an int8 table of ±1 values, is the package's one function
type; spectra, Gowers sums and the noise operator are computed from it exactly.
``folded_table`` applies the folded access rule to every point at once.
Whether f is folded, f(1⃗+x) = -f(x), is its ``folded`` property: the table is
read-only, so the pair compare runs at most once per function object, and
``require_folded``, ``fourier.spectrum_counts`` and the family checks all
read that one cached value.

Conventions, fixed globally:

* A point x in {0,1}^n is stored as an unsigned index in [0, 2^n); coordinate
  i (1-based) lives at bit position i-1, so the least significant bit is x_1.
* Vector addition over {0,1}^n is XOR; the all-ones vector is 2^n - 1.
* Truth tables are dense arrays of length 2^n; table[j] is the value at the
  point with index j.  Dimensions are limited to 1 <= n <= 24.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvariantViolation

MAX_DIMENSION = 24


def check_dimension(n: int) -> int:
    n = int(n)
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {n}")
    return n


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
        """Store a read-only int8 table, never freezing the caller's array: an
        int8 input is copied unless it is read-only and owns its memory."""
        check_dimension(self.n)
        table = np.asarray(self.table, dtype=np.int8)
        if table is self.table and (table.flags.writeable or not table.flags.owndata):
            table = table.copy()
        if table.shape != (1 << self.n,):
            raise ValueError(f"table must have length {1 << self.n}, got {table.shape}")
        if table.min() < -1 or table.max() > 1 or np.count_nonzero(table) < table.size:
            raise ValueError("table entries must be -1 or +1")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @cached_property
    def folded(self) -> bool:
        """True iff f(1⃗+x) = -f(x) for all x, i.e. f is its own folded view.

        1⃗+x is the index 2^n-1-x, so the upper half must be the negated
        reversal of the lower half; that compares each pair once.
        """
        half = self.table.size // 2
        return bool(np.array_equal(self.table[half:], -self.table[half - 1::-1]))


def _fold_half(half: np.ndarray) -> np.ndarray:
    """The table of the folded function whose x_1 = 1 half is ``half``.

    half[m] is the value at the point 2m+1, the m-th point with x_1 = 1.
    F(x) = -F(1⃗+x) forces the x_1 = 0 half: 1⃗+x = 1⃗-x takes the point 2m to
    2(2^{n-1}-1-m)+1, so that half is the negated reversal of ``half``.
    The fresh table is returned read-only, so ``BooleanFunction`` keeps it
    without a copy.
    """
    table = np.empty(2 * half.size, dtype=half.dtype)
    table[1::2] = half
    np.negative(half[::-1], out=table[0::2])
    table.setflags(write=False)
    return table


def folded_table(f: BooleanFunction) -> np.ndarray:
    """The induced folded view of f: F(x) = f(x) if x_1 = 1, else -f(1⃗+x).

    F is folded and has mean exactly 0 for any f.  For a folded f it equals
    f.table, which ``htest_prob_exact`` and the MC kernel read;
    ``basic_test_prob_exact`` indexes into this array.
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


def require_folded(f: BooleanFunction, what: str = "input") -> None:
    if not f.folded:
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
