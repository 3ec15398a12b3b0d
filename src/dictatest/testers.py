"""Adaptive dictatorship testers and their acceptance-probability evaluators.

Two testers live here.  The four-query basic test probes a single folded
function; the hypergraph test runs one basic-style check per hyperedge over a
family {f_a} indexed by the vertices and edges of a hypergraph, reusing the
per-vertex queries across edges.  Both are two-pass: the first pass reads
f(y) values and the bits v = (1 - f(y))/2 steer the second, nonadaptive pass.

Each tester comes with an exact acceptance-probability enumerator (all
randomness enumerated, integer accept counts, guarded by a randomness-bit
budget) and the basic test additionally with a closed-form spectral
evaluator.  All oracle access goes through the folding rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DEFAULT_GUARD_BITS, check_guard
from .fourier import hamming_weights, subset_zeta, wht
from .functions import (
    BitVector,
    BooleanFunction,
    FoldedOracle,
    RealPointFunction,
    folded_table,
    require_folded,
)
# _MC_CHUNK is bound here for bench/spans.py, which counts htest_prob_mc chunks.
from .rng import _MC_CHUNK, mc_chunks  # noqa: F401
from .stats import wilson_interval

# Upper bound on the grid elements htest_prob_exact evaluates at once.
_EXACT_CHUNK = 1 << 18


def _as_mask(x, n: int) -> int:
    if isinstance(x, BitVector):
        if x.n != n:
            raise ValueError(f"dimension mismatch: {x.n} vs {n}")
        return x.bits
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
    """H = ([k], E): vertices 1..k and a list of distinct vertex subsets."""

    k: int
    edges: tuple
    allow_singletons: bool = False

    def __init__(self, k: int, edges, allow_singletons: bool = False):
        k = int(k)
        if k < 1:
            raise ValueError(f"vertex count must be >= 1, got {k}")
        normalized = tuple(frozenset(int(v) for v in e) for e in edges)
        seen = set()
        for e in normalized:
            if not e:
                raise ValueError("edges must be nonempty")
            if not e <= set(range(1, k + 1)):
                raise ValueError(f"edge {sorted(e)} not a subset of [{k}]")
            if len(e) < 2 and not allow_singletons:
                raise ValueError(f"singleton edge {sorted(e)} (pass allow_singletons=True)")
            if e in seen:
                raise ValueError(f"duplicate edge {sorted(e)}")
            seen.add(e)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", normalized)
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
        for f in members:
            if f.n != n:
                raise ValueError("all family members must share one dimension")
            require_folded(f, "family member")
        object.__setattr__(self, "hypergraph", hypergraph)
        object.__setattr__(self, "vertex_functions", vertex_functions)
        object.__setattr__(self, "edge_functions", edge_functions)

    @property
    def n(self) -> int:
        return self.vertex_functions[0].n

    @property
    def t(self) -> int:
        return self.hypergraph.t

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
# Transcripts and samplers
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


def run_basic_test(oracle: FoldedOracle, rng: np.random.Generator) -> TestTranscript:
    """One run of the four-query adaptive test against a single oracle.

    Draws x_i, x_j, y, z (one ``rng.integers(0, 2^n, size=4)`` call, in that
    order), reads f(y) in pass 1, sets v = (1 - f(y))/2, then reads f(x_i),
    f(x_j) and f(x_i + x_j + (v·1⃗ + y) ∧ z) in pass 2; accepts iff
    f(x_i) f(x_j) equals the third pass-2 value.
    """
    n = oracle.n
    ones = (1 << n) - 1
    before = oracle.query_count
    x_i, x_j, y, z = (int(v) for v in rng.integers(0, 1 << n, size=4))
    s_y = oracle.fold_query(y)
    v = (1 - s_y) // 2
    shift = y ^ (ones if v else 0)
    probe = x_i ^ x_j ^ (shift & z)
    s_i = oracle.fold_query(x_i)
    s_j = oracle.fold_query(x_j)
    s_probe = oracle.fold_query(probe)
    return TestTranscript(
        pass1=(QueryRecord("f", y, s_y),),
        pass2=(
            QueryRecord("f", x_i, s_i),
            QueryRecord("f", x_j, s_j),
            QueryRecord("f", probe, s_probe),
        ),
        verdict=s_i * s_j == s_probe,
        total_queries=oracle.query_count - before,
    )


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
# Exact enumerators
# ---------------------------------------------------------------------------


def basic_test_prob_exact(
    f: BooleanFunction, *, guard_bits: int = DEFAULT_GUARD_BITS
) -> float:
    """Exact acceptance probability over all (x_i, x_j, y, z) tuples.

    Counts accepting tuples as an integer over 2^{4n}, so the returned float
    is the exact dyadic rational.  Requires a folded input and 4n guard bits.
    """
    require_folded(f)
    n = f.n
    check_guard(4 * n, guard_bits)
    table = folded_table(f).astype(np.int64)
    points = 1 << n
    ones = points - 1
    idx = np.arange(points)

    # pair_count[w] = #{(x_i, x_j) : f(x_i) f(x_j) = f(x_i + x_j + w)}
    pair_product = table[:, None] * table[None, :]
    triple_index = (idx[:, None] ^ idx[None, :])[:, :, None] ^ idx[None, None, :]
    pair_count = (pair_product[:, :, None] == table[triple_index]).sum(axis=(0, 1))

    accepts = 0
    zs = np.arange(points)
    for y in range(points):
        v = (1 - table[y]) // 2
        shift = y ^ (ones if v else 0)
        accepts += int(pair_count[shift & zs].sum())
    return accepts / points**4


def basic_test_prob_fourier(f: BooleanFunction) -> float:
    """Acceptance probability from the closed-form spectral identity.

    p = 1/2 + 1/2 Σ_α f̂(α)^3 2^{-|α|} (1 + Σ_{β ⊆ α} f̂(β)); the derivation
    needs E f = 0 and f(1⃗+y) = -f(y), so the input must be folded.
    """
    require_folded(f)
    spectrum = wht(f)
    zeta = subset_zeta(spectrum)
    weights = hamming_weights(f.n)
    terms = spectrum.coeffs**3 * np.exp2(-weights.astype(np.float64)) * (1.0 + zeta)
    return 0.5 + 0.5 * float(terms.sum())


def _htest_verdicts(vertex_tables, edge_tables, edges, xs, ys, zv, ze):
    """Accept mask of the hypergraph test over broadcastable draw arrays.

    xs, ys, zv hold one array per vertex and ze one per edge; each draw is
    read from the folded tables exactly as in run_hypergraph_test, and the
    mask has the broadcast shape of xs[0] and the arrays the edge equations
    touch.
    """
    ones = vertex_tables[0].size - 1
    shifts = [np.where(t[y] < 0, y ^ ones, y) for t, y in zip(vertex_tables, ys)]
    signs = [t[x ^ (s & z)] for t, x, s, z in zip(vertex_tables, xs, shifts, zv)]
    ok = np.ones(np.shape(xs[0]), dtype=bool)
    for table, edge, z in zip(edge_tables, edges, ze):
        lhs, x_sum, shift_sum = 1, 0, 0
        for i in edge:
            lhs = lhs * signs[i - 1]
            x_sum = x_sum ^ xs[i - 1]
            shift_sum = shift_sum ^ shifts[i - 1]
        ok = ok & (lhs == table[x_sum ^ (shift_sum & z)])
    return ok


def _folded_tables(fam: FunctionFamily):
    return (
        [folded_table(f) for f in fam.vertex_functions],
        [folded_table(f) for f in fam.edge_functions],
        [sorted(e) for e in fam.hypergraph.edges],
    )


def htest_prob_exact(
    fam: FunctionFamily, *, guard_bits: int = DEFAULT_GUARD_BITS
) -> float:
    """Exact hypergraph-test acceptance probability by full enumeration.

    Evaluates the verdict on a grid with the (x_1..x_k, y_1..y_k)
    assignments along axis 0, in chunks of about _EXACT_CHUNK grid elements,
    and one z axis per vertex and per edge.  Accepts are counted as an
    integer; a vertex z axis that no edge reads counts 2^n times.  Total
    randomness is (3k + |E|)·n bits and must fit the guard.
    """
    h = fam.hypergraph
    k, n = h.k, fam.n
    n_edges = len(h.edges)
    check_guard((3 * k + n_edges) * n, guard_bits)
    tables = _folded_tables(fam)

    points = 1 << n
    z_dims = k + n_edges
    # z axis a is grid axis 1 + a
    zs = [
        np.arange(points).reshape(-1, *(1,) * (z_dims - 1 - a)) for a in range(z_dims)
    ]
    free = k - len(set().union(*h.edges))
    combos = points ** (2 * k)
    step = max(1, _EXACT_CHUNK // points ** (z_dims - free))
    digit_shifts = n * np.arange(2 * k)
    accepts = 0
    for start in range(0, combos, step):
        combo = np.arange(start, min(start + step, combos))
        digits = (combo[:, None] >> digit_shifts) & (points - 1)
        xs_ys = list(digits.T.reshape(2 * k, -1, *(1,) * z_dims))
        ok = _htest_verdicts(*tables, xs_ys[:k], xs_ys[k:], zs[:k], zs[k:])
        accepts += int(np.count_nonzero(ok))
    return accepts * points**free / points ** (3 * k + n_edges)


def htest_prob_mc(
    fam: FunctionFamily, trials: int, seed
) -> tuple[float, float, float]:
    """Monte Carlo acceptance estimate with a 99% Wilson interval.

    Verdicts follow the same two-pass procedure as run_hypergraph_test, drawn
    and evaluated in vectorized chunks in one thread; chunk c uses the
    sub-stream (seed, c) and chunk counts are summed, so the estimate is
    deterministic given (fam, trials, seed).
    """
    chunks = mc_chunks(trials, seed)
    tables = _folded_tables(fam)
    k, n_edges, points = fam.hypergraph.k, len(fam.hypergraph.edges), 1 << fam.n
    accepts = 0
    for rng, m in chunks:
        xs, ys, zv, ze = (
            rng.integers(0, points, size=(m, c)).T for c in (k, k, k, n_edges)
        )
        ok = _htest_verdicts(*tables, xs, ys, zv, ze)
        accepts += int(np.count_nonzero(ok))
    low, high = wilson_interval(accepts, trials)
    return accepts / trials, low, high


# ---------------------------------------------------------------------------
# The averaged-AND noise operator
# ---------------------------------------------------------------------------


def noise_and_operator(
    f: BooleanFunction, c, c_prime, *, guard_bits: int = DEFAULT_GUARD_BITS
) -> RealPointFunction:
    """g(x; y) = E_z f(c' + x + (c + y) ∧ z), as a table on 2n variables.

    The output point (x; y) is encoded as x | (y << n), matching the
    spectrum encoding (α; β) -> α | (β << n).  Each entry is an integer sum
    over all 2^n values of z divided by 2^n, hence exact.
    """
    n = f.n
    c = _as_mask(c, n)
    c_prime = _as_mask(c_prime, n)
    check_guard(3 * n, guard_bits)
    points = 1 << n
    xs = np.arange(points)
    zs = np.arange(points)
    table = np.empty(points * points, dtype=np.float64)
    f_int = f.table.astype(np.int64)
    for y in range(points):
        u = c ^ y
        probe = (c_prime ^ xs)[:, None] ^ (u & zs)[None, :]
        table[(y << n) : (y << n) + points] = f_int[probe].sum(axis=1) / points
    return RealPointFunction(2 * n, table)


def noisy_spectrum_law_deviation(
    f: BooleanFunction, c, c_prime, *, guard_bits: int = DEFAULT_GUARD_BITS
) -> float:
    """Max over (α; β) of |ĝ(α;β)^2 - f̂(α)^2 1{β ⊆ α} 4^{-|α|}|."""
    n = f.n
    g = noise_and_operator(f, c, c_prime, guard_bits=guard_bits)
    g_sq = wht(g).coeffs ** 2
    f_sq = wht(f).coeffs ** 2
    alphas = np.arange(1 << n)
    betas = np.arange(1 << n)
    subset = (betas[:, None] & ~alphas[None, :]) == 0  # [β, α] -> β ⊆ α
    weights = hamming_weights(n).astype(np.float64)
    expected = f_sq[None, :] * subset * np.exp2(-2.0 * weights)[None, :]
    actual = g_sq.reshape(1 << n, 1 << n)  # [β, α] after the (x; y) encoding
    return float(np.max(np.abs(actual - expected)))
