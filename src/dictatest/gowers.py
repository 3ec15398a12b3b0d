"""Gowers inner products and the influential-pair decoder.

The U_d norm of f is the 2^d-th root of the inner product of the constant
family ``IndexedFamily.constant(d, f)``; the CLI reports that power.

Members are ±1 tables (``BooleanFunction``), so every total here is an
integer.  Exact values come from the derivative recursion <{f_S}>_{U_d} =
E_h <{f_S · f_{S∪{d}}(· + h)}>_{U_{d-1}} down to a Fourier sum, on undivided
sums in int64 while their bound fits 62 bits and Python ints beyond
(``_count_dtype``); each caller divides once by a power of two.  The exact
route raises GuardExceeded when the definition's randomness exceeds the
guard, and a seeded Monte Carlo route estimates the same U_d inner product;
the caller picks the route and reports it.  Monte Carlo draws come in
per-chunk sub-streams derived by counter (``rng.mc_draws``), so estimates
are reproducible.  The linear inner product LU_d exists only as the
undivided ``_linear_sum``, on which ``testers.htest_prob_exact`` runs.

The decoder ``find_influential_pair`` reads the exact integer influences of
any sequence of ±1 functions, such as a family's ``members``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DEFAULT_GUARD_BITS, check_guard
from .fourier import _butterfly, influences, spectrum_counts
from .functions import BooleanFunction
from .rng import mc_draws

# Upper bound on the array elements an exact route evaluates at once.
_EXACT_CHUNK = 1 << 18


def _count_dtype(bits: int):
    """int64 for counts below 2^bits while they fit 62 bits, else Python ints."""
    return np.int64 if bits <= 62 else object


@dataclass(frozen=True, eq=False)
class IndexedFamily:
    """2^d ±1 functions (``BooleanFunction``) indexed by the subsets of [d].

    ``members`` is one tuple in subset-mask order: ``members[S]``, with bit
    i-1 of S standing for element i.  Every member is given; none defaults.
    """

    d: int
    members: tuple = field(repr=False)

    def __init__(self, d: int, members):
        d, members = int(d), tuple(members)
        if d < 1:
            raise ValueError(f"lattice dimension must be >= 1, got {d}")
        for f in members:
            if not isinstance(f, BooleanFunction):
                raise TypeError(f"expected a BooleanFunction, got {type(f).__name__}")
            if f.n != members[0].n:
                raise ValueError("all family members must share one dimension")
        if len(members) != 1 << d:
            raise ValueError(f"need {1 << d} members (2^d), got {len(members)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "members", members)

    @property
    def n(self) -> int:
        return self.members[0].n

    @classmethod
    def constant(cls, d: int, f: BooleanFunction) -> "IndexedFamily":
        """All 2^d members equal to f."""
        return cls(d, [f] * (1 << d))


def _derivative_recursion(stack: np.ndarray, bottom):
    """Σ_b of the undivided sums of the families stack[b] (member S at [b, S]).

    A shift h of the top coordinate d leaves {f_S · f_{S∪{d}}(· + h)} over
    S ⊆ [d-1]; the sums over h add up to the family's.  Shifts form the next
    batch in chunks of about _EXACT_CHUNK entries; ``bottom`` takes the
    families at d = 2 (four members each).
    """
    batch, size, points = stack.shape
    if size == 4:
        return bottom(stack)
    half, idx = size // 2, np.arange(points)
    step = max(1, _EXACT_CHUNK // (batch * size * points))
    total = 0
    for start in range(0, points, step):
        hs = idx[start : start + step, None]
        shifted = np.moveaxis(stack[:, half:, idx ^ hs], 2, 1)
        derived = (stack[:, None, :half] * shifted).reshape(-1, half, points)
        total += _derivative_recursion(derived, bottom)
    return total


def _u2_sum(stack: np.ndarray) -> int:
    """Σ_b Σ_α Π_S F_S(α) with F = _butterfly(f): 2^n times the U_2 sums.

    ±1 members have |F| <= 2^n and Σ_α F(α)^2 = 4^n, so Σ_α |Π_S F_S(α)| <=
    2^{4n}, and b families' bound b·2^{4n} picks the transforms' dtype."""
    batch, _, points = stack.shape
    bits = 4 * (points.bit_length() - 1) + batch.bit_length()
    spectra = _butterfly(stack.astype(_count_dtype(bits)))
    return np.prod(spectra, axis=1).sum(keepdims=True).item()


def _lu2_sum(stack: np.ndarray):
    """Σ_b f_∅(0)·Σ_γ F_1 F_2 F_12(γ): 2^n times the LU_2 sums.  A family
    whose f_∅(0) is 0 adds nothing and is not transformed."""
    stack = stack[stack[:, 0, 0] != 0]
    spectra = np.prod(_butterfly(stack[:, 1:]), axis=1)
    return (stack[:, 0, 0, None] * spectra).sum(keepdims=True).item()


def _linear_sum(stack: np.ndarray):
    """2^n·Σ_b Σ_{x_1..x_d} Π_S stack[b, S](Σ_{i∈S} x_i) for a (batch, 2^d, 2^n)
    stack; int64 sums are exact modulo 2^64 (at d = 1, before the 2^n)."""
    if stack.shape[1] == 2:  # LU_1: f_∅(0)·Σ f_1
        sums = stack[:, 0, 0] * stack[:, 1].sum(axis=-1)
        return sums.sum(keepdims=True).item() * stack.shape[-1]
    return _derivative_recursion(stack, _lu2_sum)


def gowers_inner_product_exact(
    fam: IndexedFamily, *, guard_bits: int = DEFAULT_GUARD_BITS
) -> float:
    """<{f_S}>_{U_d}: E over (x, x_1..x_d) of Π_S f_S(x + Σ_{i in S} x_i).

    By the derivative recursion, whose derived members (products of ±1
    entries) stay int8, down to the exact ``_u2_sum`` at d = 2: the integer
    total, at most 2^{(d+2)n}, is divided once by 2^{(d+2)n}.  At d = 1 it is
    Σ f_∅ · Σ f_{1} / 2^{2n}.  The definition's (d + 1)·n bits must fit the
    guard.
    """
    d, n = fam.d, fam.n
    check_guard((d + 1) * n, guard_bits)
    stack = np.stack([m.table for m in fam.members])[None]
    if d == 1:
        return int(stack[0, 0].sum()) * int(stack[0, 1].sum()) / 2 ** (2 * n)
    return _derivative_recursion(stack, _u2_sum) / 2 ** ((d + 2) * n)


def gowers_inner_product_mc(
    fam: IndexedFamily, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the Gowers inner product: (estimate, stderr).

    Each draw is (x, x_1..x_d), and its value Π_S f_S(x + Σ_{i in S} x_i).
    Chunk c's draws are the uint32 rows x, x_1..x_d of its one ``mc_draws``
    block (cols = (d + 1,)): the sub-stream (seed, c)'s integers draws of
    shape (m, d + 1), transposed.  The 2^d points come in mask order by XOR
    doubling, one XOR each.  Each value is a product of ±1 entries, taken in
    int8; the values sum to an exact integer, and their mean square is 1.
    """
    tables, total = [m.table for m in fam.members], 0
    for (draws,) in mc_draws(trials, seed, fam.n, (fam.d + 1,)):
        shifts = [draws[0]]
        for step in draws[1:]:
            shifts += [s ^ step for s in shifts]
        prod = tables[0].take(shifts[0])
        for table, shift in zip(tables[1:], shifts[1:]):
            prod *= table.take(shift)
        total += int(prod.sum())
    mean = total / trials
    variance = max(1.0 - mean**2, 0.0)
    return mean, (variance / trials) ** 0.5


def find_influential_pair(
    members, w: int | None, tau: float
) -> tuple[int, int, int] | None:
    """Search a sequence of ±1 functions for two sharing an influential variable.

    Returns the (S, T, i) maximizing min(I_i(members[S]), I_i(members[T]))
    over positions S != T and coordinates i, provided that minimum reaches
    tau; None otherwise.  For an ``IndexedFamily``'s members the positions
    are the subset masks, and for a ``FunctionFamily``'s they follow
    ``testers.member_labels`` order.  With an integer w the low-degree
    influences I_i^{<=w} are used instead.  Ties break toward the smallest
    (i, S, T).  A member listed twice is transformed once.
    """
    if not 0.0 < tau < np.inf:  # also refuses nan
        raise ValueError(f"threshold must be positive and finite, got {tau}")
    if len(members) < 2 or len({m.n for m in members}) != 1:
        raise ValueError("need at least two members on one cube")
    distinct = {id(m): m for m in members}
    by_id = {key: influences(spectrum_counts(m), w) for key, m in distinct.items()}
    table = [by_id[id(m)] for m in members]  # table[S][i-1]

    best: tuple[int, int, int] | None = None
    best_value = tau
    for i, values in enumerate(zip(*table), start=1):
        order = sorted(range(len(values)), key=lambda m: (-values[m], m))
        s_mask, t_mask = sorted(order[:2])
        pair_value = min(values[s_mask], values[t_mask])
        if pair_value > best_value or (pair_value == best_value and best is None):
            best = (s_mask, t_mask, i)
            best_value = pair_value
    return best
