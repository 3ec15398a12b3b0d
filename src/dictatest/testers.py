"""Adaptive dictatorship testers and their acceptance-probability evaluators.

Two testers are evaluated here.  The four-query basic test probes a single
folded function; the hypergraph test runs one basic-style check per hyperedge
over a family {f_a} indexed by the vertices and edges of a hypergraph, reusing
the per-vertex queries across edges.  Both are two-pass: the first pass reads
f(y) values and the bits v = (1 - f(y))/2 steer the second, nonadaptive pass.

Each tester has an exact acceptance probability: an integer accept count
over all its randomness (guarded by that bit budget), from an identity: one
subset sum over f^{-1}(-1) for the basic test, a linear-form sum for the
hypergraph test.  The basic test also has a closed-form spectral evaluator,
and the hypergraph test a Monte Carlo estimate that runs both passes on
vectorized draws.  All oracle access goes through the folding rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_GUARD_BITS, check_guard
from .fourier import _butterfly, _subset_sums, hamming_weights, spectrum_counts, wht
from .functions import BooleanFunction, folded_table, require_folded
from .gowers import _count_dtype, _linear_sum
# _MC_CHUNK is bound here for bench/spans.py, which counts htest_prob_mc chunks.
from .rng import _MC_CHUNK, mc_draws  # noqa: F401
from .stats import wilson_interval


def _as_mask(x, n: int) -> int:
    j = int(x)
    if not 0 <= j < 1 << n:
        raise ValueError(f"index {j} out of range for n={n}")
    return j


# ---------------------------------------------------------------------------
# Hypergraphs and function families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hypergraph:
    """H = ([k], E): vertices 1..k and a list of distinct vertex subsets.

    Each edge lists distinct vertices, and edges need at least 2 of them
    unless the constructor is passed ``allow_singletons``.  ``edges`` holds
    each edge as the tuple of its vertices in increasing order.
    """

    k: int
    edges: tuple

    def __init__(self, k: int, edges, allow_singletons: bool = False):
        k = int(k)
        if k < 1:
            raise ValueError(f"vertex count must be >= 1, got {k}")
        normalized, seen = [], set()
        for vertices in edges:
            vertices = [int(v) for v in vertices]
            e = frozenset(vertices)
            if len(e) < len(vertices):
                repeated = next(v for v in vertices if vertices.count(v) > 1)
                raise ValueError(f"edge {vertices} repeats vertex {repeated}")
            if not e:
                raise ValueError("edges must be nonempty")
            if not e <= set(range(1, k + 1)):
                raise ValueError(f"edge {sorted(e)} not a subset of [{k}]")
            if len(e) < 2 and not allow_singletons:
                raise ValueError(f"singleton edge {sorted(e)}: edges need at least 2 vertices")
            if e in seen:
                raise ValueError(f"duplicate edge {sorted(e)}")
            seen.add(e)
            normalized.append(tuple(sorted(e)))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def t(self) -> int:
        """Number of test functions: k + |E|."""
        return self.k + len(self.edges)


def complete_hypergraph(k: int) -> Hypergraph:
    """All subsets of [k] of size >= 2; gives t = k + |E| = 2^k - 1.

    Edges are ordered by their vertex bitmask, so the layout is deterministic.
    """
    if k < 2:
        raise ValueError(f"complete hypergraph needs k >= 2, got {k}")
    edges = []
    for mask in range(1 << k):
        if mask.bit_count() >= 2:
            edges.append([i + 1 for i in range(k) if mask >> i & 1])
    return Hypergraph(k, edges)


def query_budget(h: Hypergraph) -> tuple[int, int, int]:
    """(pass-1, pass-2, total) query counts: (k, k + |E|, 2k + |E|)."""
    return h.k, h.k + len(h.edges), 2 * h.k + len(h.edges)


def member_labels(h: Hypergraph) -> list[str]:
    """A family's member labels in order: v1..vk, then the edges in order."""
    return ([f"v{i}" for i in range(1, h.k + 1)]
            + ["e" + ",".join(map(str, e)) for e in h.edges])


@dataclass(frozen=True, eq=False)
class FunctionFamily:
    """Folded boolean functions indexed by the vertices and edges of H.

    ``members`` is one tuple in ``member_labels`` order: the vertex functions
    f_1..f_k, then one function per edge in ``hypergraph.edges`` order.
    """

    hypergraph: Hypergraph
    members: tuple

    def __init__(self, hypergraph: Hypergraph, members):
        members = tuple(members)
        if len(members) != hypergraph.t:
            raise ValueError(f"need {hypergraph.t} members (k + |E|), got {len(members)}")
        n = members[0].n
        for f in members:
            if f.n != n:
                raise ValueError("all family members must share one dimension")
            require_folded(f, "family member")
        object.__setattr__(self, "hypergraph", hypergraph)
        object.__setattr__(self, "members", members)

    @property
    def n(self) -> int:
        return self.members[0].n


# ---------------------------------------------------------------------------
# Exact routes
# ---------------------------------------------------------------------------


def basic_test_prob_exact(
    f: BooleanFunction, *, guard_bits: int = DEFAULT_GUARD_BITS
) -> float:
    """Exact acceptance probability over all (x_i, x_j, y, z) tuples.

    With c = spectrum_counts(f) and s = v·1⃗ + y, the character expansion of
    f(x_i) f(x_j) = f(x_i + x_j + s ∧ z), summed over z, gives y
    2^{3n-1} + Σ_{α ⊆ 1⃗+s} c(α)^3 / 2 accepting (x_i, x_j, z).  Folding puts
    t = 1⃗ + s in f^{-1}(-1), reached from y = t and y = 1⃗ + t, so the accept
    count is 2^{4n-1} + Σ_{t ∈ f^{-1}(-1)} Σ_{α ⊆ t} c(α)^3 (2^{4n} for a
    dictator).  Its partial subset sums are within Σ|c|^3 <= 2^n Σc^2 = 2^{3n}
    (Parseval): int64 to n = 20.  The count / 2^{4n} is an exact dyadic float.
    Requires a folded input and 4n guard bits.
    """
    require_folded(f)
    n = f.n
    check_guard(4 * n, guard_bits)
    counts = spectrum_counts(f).astype(_count_dtype(3 * n + 1))
    zeta = _subset_sums(counts**3)[folded_table(f) < 0]
    return (2 ** (4 * n - 1) + int(zeta.sum(dtype=object))) / 2 ** (4 * n)


# Entries per block of basic_test_prob_fourier: a power of two >= 2^8, so each
# block is a subtree of numpy's pairwise sum, and small enough to stay in
# cache; a table of n <= 14 is one block.
_FOURIER_BLOCK = 1 << 14


def _top_stages(table: np.ndarray, width: int, transform: bool) -> np.ndarray:
    """The butterfly (``transform``) or subset-sum stages on the bits from
    log2(width) up of a ±1 table, run once in place on an int8 copy, or
    int16 past six stages: after t stages every value is a signed sum of 2^t
    entries.  A table of at most ``width`` entries has none and is returned
    as it is.  The stages of the lower bits, run on each aligned block of
    ``width`` entries, complete the transform."""
    stages = table.size.bit_length() - width.bit_length()
    if stages <= 0:
        return table
    narrow = table.astype(np.int8 if stages <= 6 else np.int16)
    if not transform:
        return _subset_sums(narrow, width)
    for _ in range(stages):
        pairs = narrow.reshape(-1, 2, width)
        low, high = pairs[:, 0], pairs[:, 1]
        low += high  # a + b
        high *= -2
        high += low  # a - b
        width *= 2
    return narrow


def basic_test_prob_fourier(f: BooleanFunction) -> float:
    """Acceptance probability from the closed-form spectral identity.

    p = 1/2 + 1/2 Σ_α f̂(α)^3 2^{-|α|} (1 + Σ_{β ⊆ α} f̂(β)); the derivation
    needs E f = 0 and f(1⃗+y) = -f(y), so the input must be folded.  Both
    factors come from integer transforms run in _FOURIER_BLOCK-entry blocks:

    - 2^n·f̂(α', α_n) = 2H(α') where |α| is odd, else 0, with H the transform
      of the x_n = 0 half (``_folded_counts``).  Each 2^14-entry half-block
      of H serves the α-blocks at α_n = 0 and α_n = 1.
    - Σ_{β ⊆ α} (-1)^{β·x} = 2^{|α|}·[x ∩ α = ∅], so Σ_{β ⊆ α} 2^n·f̂(β) =
      2^{|α|}·Sub(1⃗ + α) with Sub = ``_subset_sums`` of f's own table, read
      reversed from the complement block.

    Each transform runs its stages on the bits above the block once, on a
    narrow copy (``_top_stages``), and its low stages in int32 one block at
    a time.  Only the copies (1.5 bytes an entry at n = 20) and a few blocks
    of int32s and float64s are live, about 2.5 bytes an entry at n = 20.
    """
    require_folded(f)
    n = f.n
    size, half = 1 << n, 1 << (n - 1)
    block, half_block = min(size, _FOURIER_BLOCK), min(half, _FOURIER_BLOCK)
    lower = _top_stages(f.table[:half], half_block, True)
    table = _top_stages(f.table, block, False)
    # Each block's terms are 2^n times the whole-array pipeline's floats: c =
    # counts / 2^n and ζ / 2^n = Sub / 2^{n-|α|} are exact integers scaled by
    # powers of two, and c*c*c and pow give the exact cube while |count| <=
    # 2^17; beyond, pow (which can round ties differently) keeps coeffs**3's
    # floats.  A block at a multiple of its size has weights 2^{n-|j|}
    # 2^{-|start|} = 2^{n-|α|}, exact products of powers of two, and scaling
    # by 2^n commutes with every rounding, far from underflow and overflow.
    # numpy sums a contiguous float64 array of 2^m >= 2^8 entries pairwise,
    # halving at every level, so joining the aligned block sums pairwise
    # gives the whole term array's sum.
    ranks = hamming_weights(block.bit_length() - 1)
    block_weights = np.exp2(np.arange(n, -1.0, -1.0)).take(ranks)  # 2^{n-|j|}
    odd = ranks[:half_block] & 1
    halves = np.empty(2 * half_block, dtype=np.int32)  # counts / 2 at α_n = 0, 1
    parts = list(halves.reshape(-1, block))  # their α-blocks: one, or one each
    weights, c, t = np.empty(block), np.empty(block), np.empty(block)
    sums = np.empty(size // block)
    for low in range(0, half, half_block):
        h = _butterfly(lower[low : low + half_block].astype(np.int32))
        odd_part, rest = halves[:half_block], halves[half_block:]
        if bin(low).count("1") % 2:
            odd_part, rest = rest, odd_part
        np.multiply(h, odd, out=odd_part)
        np.subtract(h, odd_part, out=rest)
        for part, start in zip(parts, (low, half + low)):
            np.divide(part, half, out=c)
            np.multiply(c, c, out=t)
            t *= c
            wide = np.abs(part) > 1 << 16
            t[wide] = c[wide] ** 3
            np.multiply(block_weights, 0.5 ** bin(start).count("1"), out=weights)
            t *= weights
            sub = table[size - start - block : size - start].astype(np.int32)
            np.divide(_subset_sums(sub)[::-1], weights, out=c)
            c += 1.0
            t *= c
            sums[start // block] = t.sum()
    while sums.size > 1:
        sums = sums[0::2] + sums[1::2]
    return 0.5 + 0.5 * float(sums[0] / size)


def _htest_verdicts(shift_tables, sign_tables, edges, xs, ys, zv, ze):
    """Accept mask of the hypergraph test over uint32 draw arrays of one shape.

    The tables are _verdict_tables'.  xs, ys, zv hold one array per vertex
    and ze one per edge, as ``mc_draws`` hands them out; each draw is one
    two-pass run of the test.  ``edges`` is ``hypergraph.edges``, each
    edge's vertices in increasing order.

    The pass-1 shift s_i = y_i + [f_i(y_i) = -1]·1⃗ is one read of the shift
    table, S_i[y_i].  Every table is folded, f(p + 1⃗) = -f(p), so the
    vertex answer L_i = f_i(x_i + a_i), a_i = s_i ∧ z_i, folds into its
    point: w_i = x_i + [L_i = -1]·1⃗ = S_i[x_i + a_i] + a_i.  Edge e's
    equation Π_{i∈e} L_i = f_e(Σ_{i∈e} x_i + (Σ_{i∈e} s_i) ∧ z_e) then holds
    iff the sign table [f_e < 0] reads False at Σ_{i∈e} w_i + (Σ_{i∈e} s_i) ∧ z_e,
    and no sign is multiplied.  The sums over an edge extend the sums over
    its longest proper prefix, so edges that share a prefix share its XORs.
    The XORs stay uint32, not widened to int64, and each read is a
    ``take``: indexing with uint32 takes numpy's slower casting path.
    """
    sums = {}  # (i_1, ..., i_j) -> (Σ w_i, Σ s_i) over those vertices
    for i in set().union(*edges):
        table = shift_tables[i - 1]
        s = table.take(ys[i - 1])
        a = s & zv[i - 1]
        w = table.take(xs[i - 1] ^ a)
        w ^= a
        sums[(i,)] = (w, s)
    bad = np.zeros(xs[0].shape, dtype=bool)
    for negative, edge, z in zip(sign_tables, edges, ze):
        for j in range(2, len(edge) + 1):
            prefix = edge[:j]
            if prefix not in sums:
                (w, s), (w_i, s_i) = sums[prefix[:-1]], sums[prefix[-1:]]
                sums[prefix] = (w ^ w_i, s ^ s_i)
        w, s = sums[edge]
        bad |= negative.take(w ^ (s & z))
    return ~bad


class _PointReader:
    """One of _htest_verdicts' tables, computed at the points it is read:
    ``take(p)`` is S.take(p) for a vertex member (``shift``), with the shift
    table S[p] = p + [f(p) = -1]·1⃗, and (f.table < 0).take(p) for an edge
    member.  S is [f < 0]·1⃗ XOR-ed in place with the points; a ufunc
    ``where=`` mask took over ten times as long."""

    __slots__ = ("table", "shift")

    def __init__(self, table: np.ndarray, shift: bool):
        self.table, self.shift = table, shift

    def take(self, points: np.ndarray) -> np.ndarray:
        negative = self.table.take(points) < 0
        if not self.shift:
            return negative
        s = np.multiply(negative, self.table.size - 1, dtype=np.uint32)
        s ^= points
        return s


def _verdict_tables(fam: FunctionFamily, trials: int):
    """_htest_verdicts' uint32 shift tables (one per vertex) and bool sign
    tables (one per edge), or readers of them, for a call of ``trials`` draws.

    Members are folded, so f.table is their folded view.  A call reads each
    vertex table at 2·trials points, so each 2^n-entry table is built, as
    its reader taken at every point, only when 2·trials >= 2^n; below that
    the kernel gets the ``_PointReader``s, which read f.table at the draw
    points.  A member that several vertex (or edge) slots share gets one.
    """
    k = fam.hypergraph.k
    readers = {}
    for slot, f in enumerate(fam.members):
        readers.setdefault((id(f), slot < k), _PointReader(f.table, slot < k))
    if 2 * trials >= 1 << fam.n:
        index = np.arange(1 << fam.n, dtype=np.uint32)
        readers = {key: reader.take(index) for key, reader in readers.items()}
    return ([readers[id(f), True] for f in fam.members[:k]],
            [readers[id(f), False] for f in fam.members[k:]])


def htest_prob_exact(
    fam: FunctionFamily, *, guard_bits: int = DEFAULT_GUARD_BITS
) -> float:
    """Exact hypergraph-test acceptance probability as one LU_k sum on F_2^{2n}.

    Fold each vertex answer into its point, w_i = x_i + [L_i = -1]·1⃗, and
    put u_i = (w_i, s_i) at index w·2^n + s.  The shift s_i is uniform on
    f_i^{-1}(+1), w_i then has density (2^n + G_i(u_i))/4^n (G = _and_sums)
    and edge e accepts with probability (2^n + G_e(Σ_{i∈e} u_i))/2^{n+1}.  So
    with H = (2^n + G)/2 the accept count over the (3k + |E|)·n guarded bits
    is 4^k·Σ_{u_1..u_k} Π_T M_T(Σ_{i∈T} u_i): M_{i}(u) = [f_i(s) = +1]·H_i(u),
    M_{mask(e)} = H_e (times M_{i} if e = {i}), and 1 elsewhere.
    gowers._linear_sum gives 4^n times it in about 4^{n(k-1)}·2n operations on
    one 4^n table per distinct member, in int64 while its nonnegative sums (at
    most 2^{bits+2n-2k}, or 2^{bits-2k} at k = 1) stay below 2^63.
    """
    h = fam.hypergraph
    k, n = h.k, fam.n
    bits = (3 * k + len(h.edges)) * n
    check_guard(bits, guard_bits)
    halves = {f: (_and_sums(f.table) >> 1) + (1 << (n - 1))
              for f in dict.fromkeys(fam.members)}
    stack = np.ones((1 << k, 1 << n, 1 << n), dtype=np.int64)
    for i, f in enumerate(fam.members[:k]):
        np.multiply(halves[f], f.table > 0, out=stack[1 << i])
    for f, e in zip(fam.members[k:], h.edges):
        stack[sum(1 << (i - 1) for i in e)] *= halves[f]
    dtype = _count_dtype(bits - 2 * k + 2 * n * (k > 1))
    total = _linear_sum(stack.reshape(1, 1 << k, -1).astype(dtype, copy=False))
    return ((total >> 2 * n) << 2 * k) / 2**bits


def htest_prob_mc(
    fam: FunctionFamily, trials: int, seed
) -> tuple[float, float, float]:
    """Monte Carlo acceptance estimate with a 99% Wilson interval.

    Each draw's verdict is one two-pass run (see _htest_verdicts), drawn
    and evaluated in vectorized chunks in one thread; chunk c uses the
    sub-stream (seed, c) and chunk counts are summed, so the estimate is
    deterministic given (fam, trials, seed).  Chunk c's draws are its
    ``mc_draws`` blocks for cols = (k, k, k, |E|), the integers draws of
    shape (m, j) for each j in turn as column views of one random_raw block;
    test_htest_mc_stream_and_verdicts_are_pinned pins them.  The kernel's
    uint32 shift tables and bool sign tables are built once per call, not
    once per chunk, and only when 2·trials >= 2^n: a call with fewer draws
    reads f.table at its draw points (``_verdict_tables``).
    """
    shifts, signs = _verdict_tables(fam, trials)
    edges = fam.hypergraph.edges
    cols = (fam.hypergraph.k,) * 3 + (len(edges),)
    accepts = 0
    for draws in mc_draws(trials, seed, fam.n, cols):
        ok = _htest_verdicts(shifts, signs, edges, *draws)
        accepts += int(np.count_nonzero(ok))
    low, high = wilson_interval(accepts, trials)
    return accepts / trials, low, high


# ---------------------------------------------------------------------------
# The averaged-AND noise operator
# ---------------------------------------------------------------------------


def _and_sums(table: np.ndarray) -> np.ndarray:
    """G[a, s] = Σ_z f(a + s ∧ z) as a (2^n, 2^n) int32 table, for a ±1 table of f.

    s ∧ z runs over the subsets u of s, each 2^{n-|s|} times, so G[a, s] is
    2^{n-|s|} times P(a, s) = Σ_{u ⊆ s} f(a + u).  Column 0 is f, and stage j
    builds the columns s = s' + e_j, s' < 2^j, from P(a, s) = P(a, s') +
    P(a + e_j, s'), a sum that does not depend on a_j: one half-height add
    writes the rows with a_j = 0 and one copy fills the rows with a_j = 1.
    |P(a, s)| <= 2^{|s|}, so |G| <= 2^n.  The shift amounts stay uint8
    (``hamming_weights``), so nothing is widened to int64.
    """
    size = table.size
    n = size.bit_length() - 1
    sums = np.empty((size, size), dtype=np.int32)
    sums[:, 0] = table
    for j in range(n):
        width = 1 << j
        rows = sums.reshape(-1, 2, width, size)  # [high bits of a, a_j, low bits, s]
        low, high = rows[:, 0, :, width:2 * width], rows[:, 1, :, width:2 * width]
        np.add(rows[:, 0, :, :width], rows[:, 1, :, :width], out=low)
        high[...] = low
    sums <<= n - hamming_weights(n)
    return sums


def noise_and_operator(
    f: BooleanFunction, c, c_prime, *, guard_bits: int = DEFAULT_GUARD_BITS
) -> np.ndarray:
    """2^n·g as an int32 table on 2n variables, g(x; y) = E_z f(c' + x + (c + y) ∧ z).

    The output point (x; y) is encoded as x | (y << n), matching the
    spectrum encoding (α; β) -> α | (β << n).  Entry (x; y) is the integer
    sum G[c' + x, c + y] of ``_and_sums``, so g is exact as the table / 2^n.
    It is read in two permutations: ``_and_sums`` runs on f permuted by c',
    and its columns, taken as the output's rows, are permuted by c.  The
    guard charges the 3n bits of (x, y, z).
    """
    n = f.n
    c = _as_mask(c, n)
    c_prime = _as_mask(c_prime, n)
    check_guard(3 * n, guard_bits)
    idx = np.arange(1 << n)
    sums = _and_sums(f.table.take(c_prime ^ idx))  # [x, s] -> G[c' + x, s]
    return sums.T.take(c ^ idx, axis=0).reshape(-1)  # [y, x] -> G[c' + x, c + y]


def noisy_spectrum_law_deviation(
    f: BooleanFunction, c, c_prime, *, guard_bits: int = DEFAULT_GUARD_BITS
) -> float:
    """Max over (α; β) of |ĝ(α;β)^2 - f̂(α)^2 1{β ⊆ α} 4^{-|α|}|, with ĝ the
    transform of noise_and_operator's 2^n·g divided once by 2^{3n}.

    Its 4^n entries are at most 2^n, so no value passes 2^{3n}: the
    butterfly runs in int32 while 3n <= 30 and in int64 above.  The float
    arrays are reused in place, with the same operations on the same values.
    """
    n = f.n
    g = noise_and_operator(f, c, c_prime, guard_bits=guard_bits)
    actual = _butterfly(g if 3 * n <= 30 else g.astype(np.int64)) / 2 ** (3 * n)
    actual **= 2
    f_sq = wht(f) ** 2
    idx = np.arange(1 << n)
    subset = (idx[:, None] & ~idx[None, :]) == 0  # [β, α] -> β ⊆ α
    expected = f_sq[None, :] * subset
    expected *= np.exp2(-2.0 * hamming_weights(n))[None, :]
    actual = actual.reshape(1 << n, 1 << n)  # [β, α] after the (x; y) encoding
    actual -= expected
    return float(np.abs(actual, out=actual).max())
