"""Walsh-Hadamard transform, influences, and subset-sum machinery.

Coefficients follow the averaging convention: coeffs[α] = 2^{-n} Σ_x f(x)
(-1)^{<α,x>}, with the character index α encoded like a point (bit i-1 is
α_i).  The butterfly accumulates unnormalized integer-valued sums and divides
once at the end, so boolean inputs give exactly representable dyadic
coefficients at small n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functions import BooleanFunction, RealPointFunction, _freeze, check_dimension


def _butterfly(values: np.ndarray) -> np.ndarray:
    """Unnormalized WHT out[α] = Σ_x values[x] (-1)^{<α,x>}, in values' dtype.

    Transforms along the last axis.  Fixed stage/summation order;
    deterministic across runs.
    """
    out = values.copy()
    width = 1
    while width < out.shape[-1]:
        view = out.reshape(-1, 2 * width)
        low = view[:, :width].copy()
        high = view[:, width:]
        view[:, :width] = low + high
        view[:, width:] = low - high
        width *= 2
    return out


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
        check_dimension(self.n)
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.shape != (1 << self.n,):
            raise ValueError(
                f"coeffs must have length {1 << self.n}, got {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", _freeze(coeffs))

    def __getitem__(self, alpha) -> float:
        return float(self.coeffs[int(alpha)])

    def power(self) -> float:
        """Σ_α coeffs[α]^2 (equals E[f^2] by Parseval)."""
        return float(np.sum(self.coeffs**2))


def wht(f: BooleanFunction | RealPointFunction) -> Spectrum:
    """Fourier transform of a truth table."""
    return Spectrum(f.n, _butterfly(np.asarray(f.table, dtype=np.float64)) / (1 << f.n))


def spectrum_counts(f: BooleanFunction) -> np.ndarray:
    """Unnormalized integer transform: counts[α] = 2^n * f̂(α), exact."""
    return _butterfly(f.table.astype(np.int64))


def inverse_wht(s: Spectrum) -> RealPointFunction:
    """f(x) = Σ_α coeffs[α] χ_α(x); exact inverse of the forward transform."""
    return RealPointFunction(s.n, _butterfly(s.coeffs))


def _check_coordinate(n: int, i: int) -> int:
    i = int(i)
    if not 1 <= i <= n:
        raise ValueError(f"coordinate {i} out of range for n={n}")
    return i


def influence(s: Spectrum, i: int) -> float:
    """I_i(f) = Σ_{α: α_i = 1} f̂(α)^2."""
    i = _check_coordinate(s.n, i)
    alphas = np.arange(1 << s.n)
    sel = (alphas >> (i - 1)) & 1 == 1
    return float(np.sum(s.coeffs[sel] ** 2))


def influence_combinatorial(f: BooleanFunction, i: int) -> float:
    """Pr_x[f(x) != f(x + e_i)]; equals the spectral influence for boolean f."""
    i = _check_coordinate(f.n, i)
    idx = np.arange(1 << f.n)
    flipped = f.table[idx ^ (1 << (i - 1))]
    return int(np.count_nonzero(flipped != f.table)) / (1 << f.n)


def low_degree_influence(s: Spectrum, i: int, w: int) -> float:
    """I_i^{<=w}(f): the influence sum restricted to |α| <= w."""
    i = _check_coordinate(s.n, i)
    w = int(w)
    if not 0 <= w <= s.n:
        raise ValueError(f"degree bound {w} out of range for n={s.n}")
    alphas = np.arange(1 << s.n)
    sel = ((alphas >> (i - 1)) & 1 == 1) & (hamming_weights(s.n) <= w)
    return float(np.sum(s.coeffs[sel] ** 2))


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """out[α] = Σ_{β ⊆ α} values[β] along the last axis, in values' dtype."""
    out = values.copy()
    width = 1
    while width < out.shape[-1]:
        view = out.reshape(-1, 2 * width)
        view[:, width:] += view[:, :width]
        width *= 2
    return out


def subset_zeta(s: Spectrum) -> np.ndarray:
    """out[α] = Σ_{β ⊆ α} coeffs[β], by the O(n 2^n) subset-sum transform."""
    return _subset_sums(s.coeffs)


def product_function(fs: list[RealPointFunction]) -> RealPointFunction:
    """Pointwise product of bounded functions on a common cube."""
    if not fs:
        raise ValueError("need at least one function")
    n = fs[0].n
    table = np.ones(1 << n, dtype=np.float64)
    for f in fs:
        if f.n != n:
            raise ValueError(f"dimension mismatch: {f.n} vs {n}")
        table = table * f.table
    return RealPointFunction(n, table)
