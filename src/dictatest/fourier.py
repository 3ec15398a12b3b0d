"""Walsh-Hadamard transform, influences, and subset-sum machinery.

Coefficients follow the averaging convention: coeffs[α] = 2^{-n} Σ_x f(x)
(-1)^{<α,x>}, with the character index α encoded like a point (bit i-1 is
α_i).  The butterfly accumulates unnormalized integer-valued sums and divides
once at the end, so boolean inputs give exactly representable dyadic
coefficients.

A spectrum is the int32 array ``spectrum_counts(f)`` = 2^n·f̂ of a ±1 table;
``wht`` divides it once by 2^n for the one report of floats.  Every
butterfly intermediate is a signed sum of at most 2^n entries, and so is
every subset-sum intermediate of the table itself, which
``testers.basic_test_prob_fourier`` takes, so both stay within
2^n <= 2^MAX_DIMENSION = 2^24 < 2^31.  A float64 transform of the same
table is exact on the same values, so dividing once by 2^n gives its floats
bit for bit.  ``testers.basic_test_prob_exact`` takes int64 subset sums of
c^3, each within Σ|c|^3 <= 2^n Σc^2 = 2^{3n}, so to n = 20.

A folded table, f(1⃗+x) = -f(x), has its spectrum on odd |α| only, where it
is twice the transform of the table's lower half (x_n = 0), so from n =
_FOLDED_MIN_N on ``spectrum_counts`` runs that one butterfly of 2^{n-1}
entries.  It reads the fold from f's cached ``folded`` property, which the
testers' ``require_folded`` has usually computed already.  Smaller tables
keep the full butterfly, which costs less there than the route's fixed
per-call overhead.

The butterfly has constant geometry (Pease): each stage combines adjacent
entries into the other buffer, sums to its low half and differences to its
high half, which leaves natural order and the in-place butterfly's sum tree.
``influences`` gives all n (low-degree) influences from one spectrum squared
in int64: each square is at most 2^{2n} <= 2^48, and by Parseval the squared
counts of a ±1 table sum to 4^n, so every partial sum below is an exact
integer of at most 2^48 < 2^53.  The n full sums come from one halving fold:
coordinate n's sum is that of the upper half, and adding the upper half onto
the lower leaves 2^{n-1} sums on which the same step gives coordinate n-1,
so the fold makes about 2·2^n contiguous adds.  Given w, only the C(n, <=w)
shell |α| <= w is squared and summed.  Each influence is one sum divided
once by 4^n, an exact float.
"""

from __future__ import annotations

import numpy as np

from .functions import BooleanFunction


def _butterfly(values: np.ndarray) -> np.ndarray:
    """Unnormalized WHT out[α] = Σ_x values[x] (-1)^{<α,x>}, in values' dtype.

    Transforms along the last axis in constant geometry: every stage maps
    each adjacent pair (low, high) = (src[2j], src[2j+1]) to dst[j] = low +
    high and dst[half + j] = low - high, so it is two ufunc calls half the
    axis long, and the first stage reads ``values``, which is left unchanged.
    Stage t pairs on bit t of x and puts α_t on the top bit; each later
    stage shifts it down one, so the output comes out in natural order.
    Every output is the in-place butterfly's sum tree (bit 0 first, always
    low ± high), so the result is bit-identical to it for any dtype.
    """
    half = values.shape[-1] // 2
    src, dst = values, np.empty(values.shape, values.dtype)
    for _ in range(half.bit_length()):
        np.add(src[..., 0::2], src[..., 1::2], out=dst[..., :half])
        np.subtract(src[..., 0::2], src[..., 1::2], out=dst[..., half:])
        src, dst = dst, np.empty_like(dst) if src is values else src
    return values.copy() if src is values else src


def hamming_weights(n: int) -> np.ndarray:
    """Popcount of every index in [0, 2^n) as uint8, built by doubling in place."""
    w = np.empty(1 << n, dtype=np.uint8)
    w[0] = 0
    width = 1
    while width < w.size:
        np.add(w[:width], 1, out=w[width:2 * width])
        width *= 2
    return w


def wht(f: BooleanFunction) -> np.ndarray:
    """Fourier coefficients of a ±1 table as float64: ``spectrum_counts`` / 2^n."""
    return spectrum_counts(f) / (1 << f.n)


# The smallest n at which spectrum_counts takes the half-size route.  Below
# it the route saves one butterfly stage of short ufunc calls but adds the
# fold check, the odd-weight table and three array calls, whose fixed costs
# dominate: on a 2-vCPU x86 host the full butterfly of a folded table took 88
# against 100 us at n = 12, and 139 against 127 us at n = 13.
_FOLDED_MIN_N = 13


def spectrum_counts(f: BooleanFunction) -> np.ndarray:
    """Unnormalized integer transform counts[α] = 2^n * f̂(α), exact in int32.

    Stage t of the butterfly holds signed sums of 2^t entries of ±1, so no
    value exceeds 2^n <= 2^MAX_DIMENSION = 2^24 in magnitude.  From n =
    _FOLDED_MIN_N on, a folded table (``f.folded``, read only where the route
    depends on it) takes ``_folded_counts``, one butterfly of 2^{n-1} entries
    instead of 2^n.
    """
    if f.n < _FOLDED_MIN_N or not f.folded:
        return _butterfly(f.table.astype(np.int32))
    return _folded_counts(f.table)


def _folded_counts(table: np.ndarray) -> np.ndarray:
    """spectrum_counts of a folded ±1 table, f(1⃗+x) = -f(x), from its lower half.

    The upper half (x_n = 1) is the negated reversal of the lower half, so
    with α = (α', α_n) and H the transform of the lower half,
    Σ_{x'} f(x', 1)(-1)^{<α',x'>} = -(-1)^{|α'|} H(α') and
    counts[α] = H(α')(1 - (-1)^{|α|}): 2H on odd |α|, 0 on even.  |2H| <= 2^n
    keeps the int32 bound.
    """
    half = table.size // 2
    twice = _butterfly(table[:half].astype(np.int32))
    twice += twice
    counts = np.empty(table.size, dtype=np.int32)
    odd = hamming_weights(half.bit_length() - 1) & 1
    np.multiply(twice, odd, out=counts[:half])  # α_n = 0
    np.subtract(twice, counts[:half], out=counts[half:])  # α_n = 1
    return counts


def _check_coordinate(counts: np.ndarray, i: int) -> int:
    i, n = int(i), counts.size.bit_length() - 1
    if not 1 <= i <= n:
        raise ValueError(f"coordinate {i} out of range for n={n}")
    return i


def influences(counts: np.ndarray, w: int | None = None) -> list[float]:
    """[I_1(f), ..., I_n(f)] from f's ``spectrum_counts``, or the low-degree
    I_i^{<=w}(f) given w.

    Without w, the first 2^i entries of the folded int64 squares hold at β
    the sum over every α with low i bits β, so I_i·4^n is their upper half's
    sum.  Given w, I_i^{<=w}·4^n sums the squares of the |α| <= w shell at
    α_i = 1.  Each exact sum is divided once by 4^n (module docstring).
    """
    n = counts.size.bit_length() - 1
    if w is not None and not 0 <= int(w) <= n:
        raise ValueError(f"degree bound {int(w)} out of range for n={n}")
    if w is None:
        squares = np.square(counts, dtype=np.int64)
        sums = [0] * n
        for i in range(n, 0, -1):
            half = 1 << (i - 1)
            sums[i - 1] = squares[half:2 * half].sum()
            squares[:half] += squares[half:2 * half]
    else:
        low = np.flatnonzero(hamming_weights(n) <= int(w))
        squares = np.square(counts[low], dtype=np.int64)
        sums = [np.dot(squares, (low >> (i - 1)) & 1) for i in range(1, n + 1)]
    return [int(total) / 4**n for total in sums]


def influence(counts: np.ndarray, i: int) -> float:
    """I_i(f) = Σ_{α: α_i = 1} f̂(α)^2, from f's ``spectrum_counts``."""
    return influences(counts)[_check_coordinate(counts, i) - 1]


def low_degree_influence(counts: np.ndarray, i: int, w: int) -> float:
    """I_i^{<=w}(f): the influence sum restricted to |α| <= w."""
    return influences(counts, w)[_check_coordinate(counts, i) - 1]


def _subset_sums(values: np.ndarray, width: int = 1) -> np.ndarray:
    """Transform values in place to Σ_{β ⊆ α} values[β] along the last axis.

    Runs the stages from ``width`` (a power of two) up: a start of 2^j sums
    over the bits j and above only, and the stages of the lower bits,
    applied to each aligned 2^j-entry block, complete the transform.  values
    must be C-contiguous, so every stage's reshape is a view of it; returns
    values.
    """
    if not values.flags.c_contiguous:
        raise ValueError("subset sums are taken in place of a C-contiguous array")
    while width < values.shape[-1]:
        view = values.reshape(-1, 2 * width)
        if width < 8:  # strided 1-D adds beat a 2-D add with inner length 2 or 4
            for j in range(width):
                view[:, width + j] += view[:, j]
        else:
            view[:, width:] += view[:, :width]
        width *= 2
    return values


def subset_zeta(coeffs: np.ndarray) -> np.ndarray:
    """out[α] = Σ_{β ⊆ α} coeffs[β], by the O(n 2^n) subset-sum transform."""
    return _subset_sums(np.array(coeffs))
