"""Gowers uniformity norms, inner products, and the influential-pair decoder.

Exact values are computed by enumeration (or by the standard recursion for
the norm) whenever the total randomness fits the guard; the inner products
fall back to seeded Monte Carlo beyond it.  All Monte Carlo paths derive
per-chunk sub-streams by counter (``rng.mc_chunks``), so estimates are
reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DEFAULT_GUARD_BITS, GuardExceeded, check_guard
from .fourier import Spectrum, influence, low_degree_influence, wht, _butterfly
from .functions import BooleanFunction, RealPointFunction, check_dimension
from .rng import mc_chunks


def _as_real(f) -> RealPointFunction:
    if isinstance(f, BooleanFunction):
        return f.as_real()
    if isinstance(f, RealPointFunction):
        return f
    raise TypeError(f"expected a point function, got {type(f).__name__}")


@dataclass(frozen=True, eq=False)
class IndexedFamily:
    """2^d bounded functions indexed by the subsets of [d].

    Subsets are bitmasks (bit i-1 <-> element i).  Members missing from the
    input mapping default to the constant-1 function; their masks are kept in
    ``defaulted`` so callers can see which slots were filled in.
    """

    d: int
    n: int
    members: tuple = field(repr=False)
    defaulted: frozenset

    def __init__(self, d: int, n: int, members=None):
        d = int(d)
        if d < 1:
            raise ValueError(f"lattice dimension must be >= 1, got {d}")
        check_dimension(n)
        given = {int(mask): _as_real(f) for mask, f in (members or {}).items()}
        for mask, f in given.items():
            if not 0 <= mask < 1 << d:
                raise ValueError(f"member mask {mask} out of range for d={d}")
            if f.n != n:
                raise ValueError(f"member dimension {f.n} != family n={n}")
        one = RealPointFunction(n, np.ones(1 << n))
        defaulted = frozenset(m for m in range(1 << d) if m not in given)
        full = tuple(given.get(m, one) for m in range(1 << d))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", full)
        object.__setattr__(self, "defaulted", defaulted)

    def member(self, mask: int) -> RealPointFunction:
        return self.members[int(mask)]

    def replace(self, mask: int, f) -> "IndexedFamily":
        members = {m: fn for m, fn in enumerate(self.members)}
        members[int(mask)] = _as_real(f)
        return IndexedFamily(self.d, self.n, members)

    @classmethod
    def constant(cls, d: int, f) -> "IndexedFamily":
        """All 2^d members equal to f."""
        f = _as_real(f)
        return cls(d, f.n, {m: f for m in range(1 << d)})


def _subset_shifts(shifts: tuple[int, ...], d: int) -> list[int]:
    """XOR of the chosen shifts over every subset mask of [d]."""
    sums = [0] * (1 << d)
    for mask in range(1, 1 << d):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] ^ shifts[low.bit_length() - 1]
    return sums


def _norm_pow_recursive(table: np.ndarray, d: int) -> float:
    if d == 1:
        return float(table.mean()) ** 2
    if d == 2:
        coeffs = _butterfly(table) / table.size
        return float(np.sum(coeffs**4))
    idx = np.arange(table.size)
    total = 0.0
    for h in range(table.size):
        total += _norm_pow_recursive(table * table[idx ^ h], d - 1)
    return total / table.size


def gowers_norm_pow(f, d: int, *, guard_bits: int = DEFAULT_GUARD_BITS) -> float:
    """||f||_{U_d}^{2^d}, by the recursion over derivative shifts.

    The recursion averages ||f * f(.+h)||_{U_{d-1}}^{2^{d-1}} over all shifts
    h, bottoming out at (E g)^2 for d=1 and Σ ĝ(α)^4 for d=2.  It costs at
    most 2^{(d+1) n}, which must fit the guard; the definitional enumeration
    is gowers_inner_product_exact of the constant family.
    """
    f = _as_real(f)
    d = int(d)
    if d < 1:
        raise ValueError(f"norm dimension must be >= 1, got {d}")
    check_guard((d + 1) * f.n, guard_bits)
    return _norm_pow_recursive(np.asarray(f.table), d)


def gowers_norm(f, d: int, *, guard_bits: int = DEFAULT_GUARD_BITS) -> float:
    """||f||_{U_d}: the 2^d-th root of gowers_norm_pow.

    Tiny negative accumulations (>= -1e-12) are clamped to 0 before the
    root; anything more negative is an arithmetic failure and raises.
    """
    power = gowers_norm_pow(f, d, guard_bits=guard_bits)
    if power < 0.0:
        if power < -1e-12:
            raise ArithmeticError(f"norm power accumulated to {power}")
        power = 0.0
    return power ** (1.0 / (1 << d))


def _family_tables(fam: IndexedFamily) -> list[np.ndarray]:
    return [np.asarray(m.table) for m in fam.members]


def gowers_inner_product_exact(
    fam: IndexedFamily, *, guard_bits: int = DEFAULT_GUARD_BITS
) -> float:
    """<{f_S}>_{U_d}: E over (x, x_1..x_d) of Π_S f_S(x + Σ_{i in S} x_i)."""
    check_guard((fam.d + 1) * fam.n, guard_bits)
    tables = _family_tables(fam)
    points = 1 << fam.n
    idx = np.arange(points)
    total = 0.0
    for shifts in itertools.product(range(points), repeat=fam.d):
        prod = np.ones(points)
        for mask, shift in enumerate(_subset_shifts(shifts, fam.d)):
            prod = prod * tables[mask][idx ^ shift]
        total += float(prod.mean())
    return total / points**fam.d


def linear_gowers_inner_product_exact(
    fam: IndexedFamily, *, guard_bits: int = DEFAULT_GUARD_BITS
) -> float:
    """<{f_S}>_{LU_d}: E over (x_1..x_d) of Π_S f_S(Σ_{i in S} x_i).

    The empty subset contributes the constant f_∅(0⃗).  The first shift is
    vectorized; the remaining d-1 are enumerated.
    """
    check_guard(fam.d * fam.n, guard_bits)
    tables = _family_tables(fam)
    d, points = fam.d, 1 << fam.n
    x1 = np.arange(points)
    total = 0.0
    for rest in itertools.product(range(points), repeat=d - 1):
        partial = _subset_shifts((0, *rest), d)
        prod = np.ones(points)
        for mask in range(1 << d):
            if mask & 1:
                prod = prod * tables[mask][partial[mask] ^ x1]
            else:
                prod = prod * tables[mask][partial[mask]]
        total += float(prod.mean())
    return total / points ** (d - 1)


def _mc_mean(sample_chunk, trials: int, seed: int) -> tuple[float, float]:
    """Chunked MC mean with standard error; chunk c uses sub-stream (seed, c)."""
    total = 0.0
    total_sq = 0.0
    for rng, m in mc_chunks(trials, seed):
        values = sample_chunk(rng, m)
        total += float(values.sum())
        total_sq += float((values**2).sum())
    mean = total / trials
    variance = max(total_sq / trials - mean**2, 0.0)
    stderr = (variance / trials) ** 0.5
    return mean, stderr


def gowers_inner_product_mc(
    fam: IndexedFamily, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the Gowers inner product: (estimate, stderr)."""
    tables = _family_tables(fam)
    d, points = fam.d, 1 << fam.n

    def sample_chunk(rng, m):
        draws = rng.integers(0, points, size=(m, d + 1))
        base = draws[:, 0]
        prod = np.ones(m)
        for mask in range(1 << d):
            shift = base.copy()
            for i in range(d):
                if mask >> i & 1:
                    shift ^= draws[:, i + 1]
            prod = prod * tables[mask][shift]
        return prod

    return _mc_mean(sample_chunk, trials, seed)


def linear_gowers_inner_product_mc(
    fam: IndexedFamily, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the linear Gowers inner product."""
    tables = _family_tables(fam)
    d, points = fam.d, 1 << fam.n

    def sample_chunk(rng, m):
        draws = rng.integers(0, points, size=(m, d))
        prod = np.ones(m)
        for mask in range(1 << d):
            shift = np.zeros(m, dtype=np.int64)
            for i in range(d):
                if mask >> i & 1:
                    shift ^= draws[:, i]
            prod = prod * tables[mask][shift]
        return prod

    return _mc_mean(sample_chunk, trials, seed)


def gowers_inner_product(
    fam: IndexedFamily,
    *,
    guard_bits: int = DEFAULT_GUARD_BITS,
    trials: int = 100_000,
    seed: int = 0,
) -> float:
    """Exact by enumeration when the guard allows, otherwise the MC estimate."""
    try:
        return gowers_inner_product_exact(fam, guard_bits=guard_bits)
    except GuardExceeded:
        return gowers_inner_product_mc(fam, trials, seed)[0]


def linear_gowers_inner_product(
    fam: IndexedFamily,
    *,
    guard_bits: int = DEFAULT_GUARD_BITS,
    trials: int = 100_000,
    seed: int = 0,
) -> float:
    """Exact by enumeration when the guard allows, otherwise the MC estimate."""
    try:
        return linear_gowers_inner_product_exact(fam, guard_bits=guard_bits)
    except GuardExceeded:
        return linear_gowers_inner_product_mc(fam, trials, seed)[0]


def find_influential_pair(
    fam: IndexedFamily, w: int | None, tau: float
) -> tuple[int, int, int] | None:
    """Search for two members sharing an influential variable.

    Returns the (S, T, i) maximizing min(I_i(f_S), I_i(f_T)) over S != T and
    coordinates i, provided that minimum reaches tau; None otherwise.  With
    an integer w the low-degree influences I_i^{<=w} are used instead.  Ties
    break toward the smallest (i, S, T).
    """
    if tau <= 0.0:
        raise ValueError(f"threshold must be positive, got {tau}")
    spectra = [wht(m) for m in fam.members]

    def infl(s: Spectrum, i: int) -> float:
        if w is None:
            return influence(s, i)
        return low_degree_influence(s, i, w)

    best: tuple[int, int, int] | None = None
    best_value = tau
    for i in range(1, fam.n + 1):
        values = [infl(s, i) for s in spectra]
        order = sorted(range(len(values)), key=lambda m: (-values[m], m))
        s_mask, t_mask = sorted(order[:2])
        pair_value = min(values[s_mask], values[t_mask])
        if pair_value > best_value or (pair_value == best_value and best is None):
            best = (s_mask, t_mask, i)
            best_value = pair_value
    return best
