"""Adaptive dictatorship testers and their acceptance-probability evaluators.

Two testers are evaluated here.  The four-query basic test probes a single
folded function; the hypergraph test runs one basic-style check per hyperedge
over a family {f_a} indexed by the vertices and edges of a hypergraph, reusing
the per-vertex queries across edges.  Both are two-pass: the first pass reads
f(y) values and the bits v = (1 - f(y))/2 steer the second, nonadaptive pass.

Each tester has an exact acceptance probability: an integer accept count
over all its randomness (guarded by that bit budget), computed from an
identity rather than draw by draw.  The basic test also has a closed-form
spectral evaluator, and the hypergraph test a query-level run
(``run_hypergraph_test``) and a Monte Carlo estimate.  All oracle access
goes through the folding rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DEFAULT_GUARD_BITS, check_guard
from .fourier import _butterfly, _subset_sums, hamming_weights, spectrum_counts, wht
from .functions import (
    BooleanFunction,
    FoldedOracle,
    RealPointFunction,
    folded_table,
    require_folded,
)
from .gowers import _linear_sum
# _MC_CHUNK is bound here for bench/spans.py, which counts htest_prob_mc chunks.
from .rng import _MC_CHUNK, _draw_blocks, mc_chunks  # noqa: F401
from .stats import wilson_interval


def _as_mask(x, n: int) -> int:
    j = int(x)
    if not 0 <= j < 1 << n:
        raise ValueError(f"index {j} out of range for n={n}")
    return j


# ---------------------------------------------------------------------------
# Hypergraphs and function families
# ---------------------------------------------------------------------------


def edge_label(edge: frozenset) -> str:
    return "e" + ",".join(str(v) for v in sorted(edge))


def vertex_label(i: int) -> str:
    return f"v{i}"


@dataclass(frozen=True)
class Hypergraph:
    """H = ([k], E): vertices 1..k and a list of distinct vertex subsets.

    Each edge lists distinct vertices, and edges need at least 2 of them
    unless ``allow_singletons`` is set.
    """

    k: int
    edges: tuple
    allow_singletons: bool = False

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
            normalized.append(e)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "allow_singletons", allow_singletons)

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
            edges.append(frozenset(i + 1 for i in range(k) if mask >> i & 1))
    return Hypergraph(k, edges)


def query_budget(h: Hypergraph) -> tuple[int, int, int]:
    """(pass-1, pass-2, total) query counts: (k, k + |E|, 2k + |E|)."""
    return h.k, h.k + len(h.edges), 2 * h.k + len(h.edges)


def soundness_identity_holds(k: int) -> bool:
    """Check 2^{k-|E|} == (t+1)^2 / 2^t for the complete hypergraph, exactly."""
    h = complete_hypergraph(k)
    t = h.t
    bound = Fraction(2) ** (k - len(h.edges))
    return bound == Fraction((t + 1) ** 2, 2**t)


@dataclass(frozen=True, eq=False)
class FunctionFamily:
    """Folded boolean functions indexed by the vertices and edges of H."""

    hypergraph: Hypergraph
    vertex_functions: tuple
    edge_functions: tuple

    def __init__(self, hypergraph: Hypergraph, vertex_functions, edge_functions):
        vertex_functions = tuple(vertex_functions)
        edge_functions = tuple(edge_functions)
        if len(vertex_functions) != hypergraph.k:
            raise ValueError(
                f"need {hypergraph.k} vertex functions, got {len(vertex_functions)}"
            )
        if len(edge_functions) != len(hypergraph.edges):
            raise ValueError(
                f"need {len(hypergraph.edges)} edge functions, got {len(edge_functions)}"
            )
        members = vertex_functions + edge_functions
        n = members[0].n
        for f in {id(f): f for f in members}.values():  # a shared member once
            if f.n != n:
                raise ValueError("all family members must share one dimension")
            require_folded(f, "family member")
        object.__setattr__(self, "hypergraph", hypergraph)
        object.__setattr__(self, "vertex_functions", vertex_functions)
        object.__setattr__(self, "edge_functions", edge_functions)

    @property
    def n(self) -> int:
        return self.vertex_functions[0].n

    def members(self):
        """(label, function) pairs: vertices v1..vk, then edges in order."""
        for i, f in enumerate(self.vertex_functions, start=1):
            yield vertex_label(i), f
        for e, f in zip(self.hypergraph.edges, self.edge_functions):
            yield edge_label(e), f

    @classmethod
    def uniform(cls, hypergraph: Hypergraph, f: BooleanFunction) -> "FunctionFamily":
        """Every member equal to f."""
        return cls(
            hypergraph,
            [f] * hypergraph.k,
            [f] * len(hypergraph.edges),
        )


# ---------------------------------------------------------------------------
# Transcripts and the query-level run
# ---------------------------------------------------------------------------


class QueryRecord(NamedTuple):
    fn: str
    point: int
    sign: int


@dataclass(frozen=True)
class TestTranscript:
    """Ordered query log of one tester run: two passes and a verdict."""

    pass1: tuple
    pass2: tuple
    verdict: bool
    total_queries: int


def run_hypergraph_test(
    fam: FunctionFamily, rng: np.random.Generator
) -> TestTranscript:
    """One run of the hypergraph test against a family of folded oracles.

    Draw order (four ``rng.integers`` calls): x_1..x_k, y_1..y_k, z_1..z_k,
    then one z_e per edge in edge order.  Pass 1 reads f_i(y_i) for each
    vertex; with v_i = (1 - f_i(y_i))/2 and s_i = v_i·1⃗ + y_i, pass 2 reads
    f_i(x_i + s_i ∧ z_i) for each vertex and, for each edge e,
    f_e(Σ_{i in e} x_i + (Σ_{i in e} s_i) ∧ z_e).  Accepts iff every edge
    equation Π_{i in e} f_i(...) = f_e(...) holds.
    """
    h = fam.hypergraph
    k, n = h.k, fam.n
    ones = (1 << n) - 1
    vertex_oracles = [FoldedOracle(f) for f in fam.vertex_functions]
    edge_oracles = [FoldedOracle(f) for f in fam.edge_functions]

    xs = [int(v) for v in rng.integers(0, 1 << n, size=k)]
    ys = [int(v) for v in rng.integers(0, 1 << n, size=k)]
    zv = [int(v) for v in rng.integers(0, 1 << n, size=k)]
    ze = [int(v) for v in rng.integers(0, 1 << n, size=len(h.edges))]

    pass1 = []
    shifts = []
    for i in range(k):
        s_y = vertex_oracles[i].fold_query(ys[i])
        pass1.append(QueryRecord(vertex_label(i + 1), ys[i], s_y))
        v = (1 - s_y) // 2
        shifts.append(ys[i] ^ (ones if v else 0))

    pass2 = []
    vertex_signs = []
    for i in range(k):
        point = xs[i] ^ (shifts[i] & zv[i])
        sign = vertex_oracles[i].fold_query(point)
        pass2.append(QueryRecord(vertex_label(i + 1), point, sign))
        vertex_signs.append(sign)

    verdict = True
    for j, e in enumerate(h.edges):
        x_sum = 0
        shift_sum = 0
        lhs = 1
        for i in sorted(e):
            x_sum ^= xs[i - 1]
            shift_sum ^= shifts[i - 1]
            lhs *= vertex_signs[i - 1]
        point = x_sum ^ (shift_sum & ze[j])
        sign = edge_oracles[j].fold_query(point)
        pass2.append(QueryRecord(edge_label(e), point, sign))
        verdict = verdict and lhs == sign

    total = sum(o.query_count for o in vertex_oracles + edge_oracles)
    return TestTranscript(tuple(pass1), tuple(pass2), verdict, total)


# ---------------------------------------------------------------------------
# Exact routes
# ---------------------------------------------------------------------------


def _count_dtype(bits: int):
    """int64 for counts below 2^bits while they fit 62 bits, else Python ints."""
    return np.int64 if bits <= 62 else object


def basic_test_prob_exact(
    f: BooleanFunction, *, guard_bits: int = DEFAULT_GUARD_BITS
) -> float:
    """Exact acceptance probability over all (x_i, x_j, y, z) tuples.

    pair_count[w] = #{(x_i, x_j) : f(x_i) f(x_j) = f(x_i + x_j + w)} is
    (4^n + 2^{-n}·WHT(c^3)(w))/2 with c = spectrum_counts(f), and with
    s = v·1⃗ + y, Σ_z pair_count[s ∧ z] = 2^{n-|s|} Σ_{u ⊆ s} pair_count[u].
    The accept count over 2^{4n} tuples is an integer, so the float is the
    exact dyadic rational.  Requires a folded input and 4n guard bits.
    """
    require_folded(f)
    n = f.n
    check_guard(4 * n, guard_bits)
    points = 1 << n
    counts = spectrum_counts(f).astype(_count_dtype(4 * n))
    pair_count = (points * points + _butterfly(counts**3) // points) // 2
    idx = np.arange(points)
    shifts = np.where(folded_table(f) < 0, idx ^ (points - 1), idx)
    per_y = _subset_sums(pair_count)[shifts] << (n - hamming_weights(n)[shifts])
    return int(per_y.sum()) / points**4


def basic_test_prob_fourier(f: BooleanFunction) -> float:
    """Acceptance probability from the closed-form spectral identity.

    p = 1/2 + 1/2 Σ_α f̂(α)^3 2^{-|α|} (1 + Σ_{β ⊆ α} f̂(β)); the derivation
    needs E f = 0 and f(1⃗+y) = -f(y), so the input must be folded.
    """
    require_folded(f)
    n = f.n
    counts = spectrum_counts(f)
    # Both divisions by 2^n are exact: the int32 sums are the float64
    # transforms' integers.  c*c*c and pow give the exact cube while
    # |count| <= 2^17; beyond, pow (which can round ties differently) keeps
    # coeffs**3's floats.  Each factor is made after the last one is freed,
    # so at most three 2^n-entry float arrays are live at once.
    c = counts / (1 << n)
    terms = c * c
    terms *= c
    wide = np.abs(counts) > 1 << 17
    terms[wide] = c[wide] ** 3
    del c, wide
    terms *= np.exp2(-np.arange(n + 1.0)).take(hamming_weights(n))
    zeta = _subset_sums(counts) / (1 << n)
    zeta += 1.0
    terms *= zeta
    return 0.5 + 0.5 * float(terms.sum())


def _htest_verdicts(shift_tables, sign_tables, edges, xs, ys, zv, ze):
    """Accept mask of the hypergraph test over broadcastable draw arrays.

    The tables are _verdict_tables' for the draws' dtype.  xs, ys, zv hold
    one array per vertex and ze one per edge; each draw is evaluated as in
    run_hypergraph_test, and the mask has the broadcast shape of xs[0] and
    the arrays the edge equations touch.  ``edges`` lists each edge's
    vertices in increasing order.

    The pass-1 shift s_i = y_i + [f_i(y_i) = -1]·1⃗ is one read of the shift
    table, S_i[y_i].  Every table is folded, f(p + 1⃗) = -f(p), so the
    vertex answer L_i = f_i(x_i + a_i), a_i = s_i ∧ z_i, folds into its
    point: w_i = x_i + [L_i = -1]·1⃗ = S_i[x_i + a_i] + a_i.  Edge e's
    equation Π_{i∈e} L_i = f_e(Σ_{i∈e} x_i + (Σ_{i∈e} s_i) ∧ z_e) then holds
    iff the sign table [f_e < 0] reads False at Σ_{i∈e} w_i + (Σ_{i∈e} s_i) ∧ z_e,
    and no sign is multiplied.  The sums over an edge extend the sums over
    its longest proper prefix, so edges that share a prefix share its XORs.
    The XORs stay in the draws' dtype, so uint32 draws are not widened to
    int64, and each read is a ``take``: indexing with uint32 takes numpy's
    slower casting path.  ``bad`` is rebound, not or-ed in place, because an
    edge's mask can broadcast wider than xs[0] (its own z axis on a grid).
    """
    sums = {}  # (i_1, ..., i_j) -> (Σ w_i, Σ s_i) over those vertices
    for i in set().union(*edges):
        table = shift_tables[i - 1]
        s = table.take(ys[i - 1])
        a = s & zv[i - 1]
        w = table.take(xs[i - 1] ^ a)
        w ^= a
        sums[(i,)] = (w, s)
    bad = np.zeros(np.shape(xs[0]), dtype=bool)
    for negative, edge, z in zip(sign_tables, edges, ze):
        for j in range(2, len(edge) + 1):
            prefix = tuple(edge[:j])
            if prefix not in sums:
                (w, s), (w_i, s_i) = sums[prefix[:-1]], sums[prefix[-1:]]
                sums[prefix] = (w ^ w_i, s ^ s_i)
        w, s = sums[tuple(edge)]
        bad = bad | negative.take(w ^ (s & z))
    return ~bad


def _folded_tables(fam: FunctionFamily):
    # FunctionFamily requires folded members, whose folded_table is f.table
    return (
        [f.table for f in fam.vertex_functions],
        [f.table for f in fam.edge_functions],
        [sorted(e) for e in fam.hypergraph.edges],
    )


def _verdict_tables(vertex_tables, edge_tables, edges, dtype):
    """_htest_verdicts' tables for draws of ``dtype``, from _folded_tables.

    Vertex table t gives the shift table S[p] = p + [t(p) = -1]·1⃗ in
    ``dtype``, and edge table t the bool sign table t < 0.  A table that
    several members share is converted once.  Each shift table is one fresh
    array, [t < 0]·1⃗ XOR-ed in place with an index array that all of them
    share; a ufunc ``where=`` mask took over ten times as long.
    """
    index = np.arange(vertex_tables[0].size, dtype=dtype)
    shifts, signs = {}, {}
    for t in vertex_tables:
        if id(t) not in shifts:
            shifts[id(t)] = table = np.multiply(t < 0, t.size - 1, dtype=dtype)
            table ^= index
    for t in edge_tables:
        if id(t) not in signs:
            signs[id(t)] = t < 0
    return ([shifts[id(t)] for t in vertex_tables],
            [signs[id(t)] for t in edge_tables], edges)


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
              for f in dict.fromkeys(fam.vertex_functions + fam.edge_functions)}
    stack = np.ones((1 << k, 1 << n, 1 << n), dtype=np.int64)
    for i, f in enumerate(fam.vertex_functions):
        np.multiply(halves[f], f.table > 0, out=stack[1 << i])
    for f, e in zip(fam.edge_functions, h.edges):
        stack[sum(1 << (i - 1) for i in e)] *= halves[f]
    dtype = _count_dtype(bits - 2 * k + 2 * n * (k > 1))
    total = _linear_sum(stack.reshape(1, 1 << k, -1).astype(dtype, copy=False))
    return ((total >> 2 * n) << 2 * k) / 2**bits


def htest_prob_mc(
    fam: FunctionFamily, trials: int, seed
) -> tuple[float, float, float]:
    """Monte Carlo acceptance estimate with a 99% Wilson interval.

    Verdicts follow the same two-pass procedure as run_hypergraph_test, drawn
    and evaluated in vectorized chunks in one thread; chunk c uses the
    sub-stream (seed, c) and chunk counts are summed, so the estimate is
    deterministic given (fam, trials, seed).  The draws are
    rng.integers(0, 2^n, size=(m, c)) for c = k, k, k, |E| in turn, read as
    the column views _draw_blocks makes of one shifted random_raw block;
    test_htest_mc_stream_and_verdicts_are_pinned pins them.  The kernel's
    uint32 shift tables and bool sign tables are built once per call, not
    once per chunk.
    """
    tables = _verdict_tables(*_folded_tables(fam), np.uint32)
    cols = (fam.hypergraph.k,) * 3 + (len(fam.hypergraph.edges),)
    accepts = 0
    for rng, m in mc_chunks(trials, seed):
        ok = _htest_verdicts(*tables, *_draw_blocks(rng, m, fam.n, cols))
        accepts += int(np.count_nonzero(ok))
    low, high = wilson_interval(accepts, trials)
    return accepts / trials, low, high


# ---------------------------------------------------------------------------
# The averaged-AND noise operator
# ---------------------------------------------------------------------------


def _and_sums(table: np.ndarray) -> np.ndarray:
    """G[a, s] = Σ_z f(a + s ∧ z) as int32, for a ±1 table of f.

    s ∧ z runs over the subsets u of s, each 2^{n-|s|} times, so G[a, s] is
    2^{n-|s|} times the subset sum over u ⊆ s of f(a + u), and |G| <= 2^n.
    The shift amounts are int32 too, so nothing is widened to int64.
    """
    n = table.size.bit_length() - 1
    idx = np.arange(table.size)
    shifted = table.astype(np.int32)[idx[:, None] ^ idx]  # [a, u] -> f(a + u)
    sums = _subset_sums(shifted)
    sums <<= (n - hamming_weights(n)).astype(np.int32)
    return sums


def noise_and_operator(
    f: BooleanFunction, c, c_prime, *, guard_bits: int = DEFAULT_GUARD_BITS
) -> RealPointFunction:
    """g(x; y) = E_z f(c' + x + (c + y) ∧ z), as a table on 2n variables.

    The output point (x; y) is encoded as x | (y << n), matching the
    spectrum encoding (α; β) -> α | (β << n).  Each entry is G[c' + x, c + y]
    / 2^n with the integer sums G of ``_and_sums``, hence exact.  The guard
    charges the 3n bits of (x, y, z).
    """
    n = f.n
    c = _as_mask(c, n)
    c_prime = _as_mask(c_prime, n)
    check_guard(3 * n, guard_bits)
    idx = np.arange(1 << n)
    sums = _and_sums(f.table)[c_prime ^ idx[None, :], c ^ idx[:, None]]
    return RealPointFunction(2 * n, sums.reshape(-1) / (1 << n))


def noisy_spectrum_law_deviation(
    f: BooleanFunction, c, c_prime, *, guard_bits: int = DEFAULT_GUARD_BITS
) -> float:
    """Max over (α; β) of |ĝ(α;β)^2 - f̂(α)^2 1{β ⊆ α} 4^{-|α|}|."""
    n = f.n
    g = noise_and_operator(f, c, c_prime, guard_bits=guard_bits)
    g_sq = wht(g).coeffs ** 2
    f_sq = wht(f).coeffs ** 2
    idx = np.arange(1 << n)
    subset = (idx[:, None] & ~idx[None, :]) == 0  # [β, α] -> β ⊆ α
    weights = hamming_weights(n).astype(np.float64)
    expected = f_sq[None, :] * subset * np.exp2(-2.0 * weights)[None, :]
    actual = g_sq.reshape(1 << n, 1 << n)  # [β, α] after the (x; y) encoding
    return float(np.max(np.abs(actual - expected)))
