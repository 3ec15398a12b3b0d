"""Walsh-Hadamard transform, influences, and subset-sum machinery.

Coefficients follow the averaging convention: coeffs[α] = 2^{-n} Σ_x f(x)
(-1)^{<α,x>}, with the character index α encoded like a point (bit i-1 is
α_i).  The butterfly accumulates unnormalized integer-valued sums and divides
once at the end, so boolean inputs give exactly representable dyadic
coefficients at small n.  The butterfly has constant geometry (Pease): each
stage combines adjacent entries into the other buffer, sums to its low half
and differences to its high half, which leaves natural order and the
in-place butterfly's sum tree.  ``influences`` gives all n (low-degree)
influences from one squared spectrum, each summed over a contiguous
index-ordered copy so that it is the float a one-coordinate sum gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functions import BooleanFunction, RealPointFunction, _set_table


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
    """Popcount of every index in [0, 2^n), built by doubling."""
    w = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        w = np.concatenate([w, w + 1])
    return w


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The 2^n Fourier coefficients of a function on {0,1}^n."""

    n: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        _set_table(self, "coeffs", np.float64)


def wht(f: BooleanFunction | RealPointFunction) -> Spectrum:
    """Fourier transform of a truth table."""
    return Spectrum(f.n, _butterfly(np.asarray(f.table, dtype=np.float64)) / (1 << f.n))


def spectrum_counts(f: BooleanFunction) -> np.ndarray:
    """Unnormalized integer transform: counts[α] = 2^n * f̂(α), exact."""
    return _butterfly(f.table.astype(np.int64))


def _check_coordinate(n: int, i: int) -> int:
    i = int(i)
    if not 1 <= i <= n:
        raise ValueError(f"coordinate {i} out of range for n={n}")
    return i


def influences(s: Spectrum, w: int | None = None) -> list[float]:
    """[I_1(f), ..., I_n(f)], or the low-degree I_i^{<=w}(f) given w.

    Squares the spectrum and builds the |α| <= w mask once for all n
    coordinates.  Entry i-1 sums the α_i = 1 squares copied contiguously in
    index order, so it is the float the one-coordinate sum would give.
    """
    if w is not None and not 0 <= int(w) <= s.n:
        raise ValueError(f"degree bound {int(w)} out of range for n={s.n}")
    squares = s.coeffs**2
    keep = None if w is None else hamming_weights(s.n) <= int(w)
    out = []
    for i in range(1, s.n + 1):
        half = squares.reshape(-1, 2, 1 << (i - 1))[:, 1]  # the α_i = 1 blocks
        if keep is not None:
            half = half[keep.reshape(-1, 2, 1 << (i - 1))[:, 1]]
        out.append(float(np.sum(half.ravel())))
    return out


def influence(s: Spectrum, i: int) -> float:
    """I_i(f) = Σ_{α: α_i = 1} f̂(α)^2."""
    return influences(s)[_check_coordinate(s.n, i) - 1]


def low_degree_influence(s: Spectrum, i: int, w: int) -> float:
    """I_i^{<=w}(f): the influence sum restricted to |α| <= w."""
    i = _check_coordinate(s.n, i)
    return influences(s, w)[i - 1]


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """out[α] = Σ_{β ⊆ α} values[β] along the last axis, in values' dtype."""
    out = values.copy()
    width = 1
    while width < out.shape[-1]:
        view = out.reshape(-1, 2 * width)
        if width < 8:  # strided 1-D adds beat a 2-D add with inner length 2 or 4
            for j in range(width):
                view[:, width + j] += view[:, j]
        else:
            view[:, width:] += view[:, :width]
        width *= 2
    return out


def subset_zeta(s: Spectrum) -> np.ndarray:
    """out[α] = Σ_{β ⊆ α} coeffs[β], by the O(n 2^n) subset-sum transform."""
    return _subset_sums(s.coeffs)
