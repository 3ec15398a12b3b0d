"""Query-level references for both testers, one oracle query at a time.

``FoldedOracle`` applies the folding rule to one point per query and counts
the queries.  ``run_basic_test`` and ``run_hypergraph_test`` run one draw of
each tester through such oracles and return a ``TestTranscript``: the two
passes' ``QueryRecord``s, the verdict and the query count.  The package's
exact, spectral and Monte Carlo routes are checked against these runs.
``whole_array_basic_fourier`` is the spectral basic-test route on whole 2^n
arrays, which the blocked route must match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from dictatest.fourier import _subset_sums, hamming_weights, spectrum_counts
from dictatest.functions import BooleanFunction, require_folded
from dictatest.testers import FunctionFamily, member_labels


class FoldedOracle:
    """Query-counting access to a function under the folding rule.

    A query at x with x_1 = 1 reads the table directly; a query at x with
    x_1 = 0 reads the complementary point 1⃗+x and negates the answer.  The
    induced function F therefore satisfies F(1⃗+x) = -F(x) for every x and
    has mean exactly 0, regardless of the wrapped table.  ``query_count``
    counts every query made through it.
    """

    __slots__ = ("inner", "query_count")

    def __init__(self, inner: BooleanFunction):
        self.inner = inner
        self.query_count = 0

    @property
    def n(self) -> int:
        return self.inner.n

    def fold_query(self, x) -> int:
        j = int(x)
        if not 0 <= j < 1 << self.n:
            raise ValueError(f"point index {j} out of range for n={self.n}")
        self.query_count += 1
        if j & 1:
            return int(self.inner.table[j])
        return -int(self.inner.table[j ^ ((1 << self.n) - 1)])


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


def run_basic_test(oracle, rng):
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
    record = QueryRecord
    return TestTranscript(
        pass1=(record("f", y, s_y),),
        pass2=(record("f", x_i, s_i), record("f", x_j, s_j), record("f", probe, s_probe)),
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
    oracles = [FoldedOracle(f) for f in fam.members]
    labels = member_labels(h)

    xs = [int(v) for v in rng.integers(0, 1 << n, size=k)]
    ys = [int(v) for v in rng.integers(0, 1 << n, size=k)]
    zv = [int(v) for v in rng.integers(0, 1 << n, size=k)]
    ze = [int(v) for v in rng.integers(0, 1 << n, size=len(h.edges))]

    pass1 = []
    shifts = []
    for i in range(k):
        s_y = oracles[i].fold_query(ys[i])
        pass1.append(QueryRecord(labels[i], ys[i], s_y))
        v = (1 - s_y) // 2
        shifts.append(ys[i] ^ (ones if v else 0))

    pass2 = []
    vertex_signs = []
    for i in range(k):
        point = xs[i] ^ (shifts[i] & zv[i])
        sign = oracles[i].fold_query(point)
        pass2.append(QueryRecord(labels[i], point, sign))
        vertex_signs.append(sign)

    verdict = True
    for j, e in enumerate(h.edges):
        x_sum = 0
        shift_sum = 0
        lhs = 1
        for i in e:
            x_sum ^= xs[i - 1]
            shift_sum ^= shifts[i - 1]
            lhs *= vertex_signs[i - 1]
        point = x_sum ^ (shift_sum & ze[j])
        sign = oracles[k + j].fold_query(point)
        pass2.append(QueryRecord(labels[k + j], point, sign))
        verdict = verdict and lhs == sign

    total = sum(o.query_count for o in oracles)
    return TestTranscript(tuple(pass1), tuple(pass2), verdict, total)


def whole_array_basic_fourier(f: BooleanFunction) -> float:
    """p = 1/2 + 1/2 Σ_α f̂(α)^3 2^{-|α|} (1 + Σ_{β ⊆ α} f̂(β)) from the int32
    counts c = ``spectrum_counts(f)`` and their subset sums ζ, each held
    whole: each 2^14-entry block's float64 terms are c·c·c/2^{3n} (the pow
    cube where |c| > 2^17), times 2^{-|α|} and (1 + ζ/2^n), and the aligned
    block sums are joined pairwise, which is numpy's sum of the whole term
    array."""
    require_folded(f)
    n = f.n
    size = 1 << n
    counts = spectrum_counts(f)
    zeta = _subset_sums(counts.copy())
    block = min(size, 1 << 14)
    levels = np.exp2(-np.arange(n + 1.0))
    block_weights = levels.take(hamming_weights(block.bit_length() - 1))
    weights, c, t = np.empty(block), np.empty(block), np.empty(block)
    sums = np.empty(size // block)
    for start in range(0, size, block):
        part = counts[start : start + block]
        np.divide(part, size, out=c)
        np.multiply(c, c, out=t)
        t *= c
        wide = np.abs(part) > 1 << 17
        t[wide] = c[wide] ** 3
        np.multiply(block_weights, levels[bin(start).count("1")], out=weights)
        t *= weights
        np.divide(zeta[start : start + block], size, out=c)
        c += 1.0
        t *= c
        sums[start // block] = t.sum()
    while sums.size > 1:
        sums = sums[0::2] + sums[1::2]
    return 0.5 + 0.5 * float(sums[0])
