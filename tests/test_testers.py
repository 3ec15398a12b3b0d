import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictatest import fourier, testers
from dictatest import rng as rng_module
from dictatest.errors import GuardExceeded, InvariantViolation
from dictatest.families import (
    dictator,
    majority,
    noisy_dictator,
    parity,
    parse_fnspec,
    random_family,
    random_folded,
)
from dictatest.fourier import (
    _butterfly,
    _subset_sums,
    hamming_weights,
    spectrum_counts,
    subset_zeta,
    wht,
)
from dictatest.functions import BooleanFunction, folded_table, make_folded
from dictatest.gowers import _EXACT_CHUNK
from dictatest.rng import derive_rng
from dictatest.testers import (
    FunctionFamily,
    Hypergraph,
    _htest_verdicts,
    _verdict_tables,
    basic_test_prob_exact,
    basic_test_prob_fourier,
    complete_hypergraph,
    htest_prob_exact,
    htest_prob_mc,
    noise_and_operator,
    noisy_spectrum_law_deviation,
    query_budget,
)
from reference import (
    FoldedOracle,
    run_basic_test,
    run_hypergraph_test,
    whole_array_basic_fourier,
)

EDGE_12 = Hypergraph(2, [frozenset({1, 2})])
PATH_3 = Hypergraph(3, [frozenset({1, 2}), frozenset({2, 3})])


def all_hypergraphs(k):
    """Every hypergraph on [k] with edges of size >= 2 (including no edges)."""
    pool = [
        frozenset(c)
        for size in range(2, k + 1)
        for c in itertools.combinations(range(1, k + 1), size)
    ]
    for substep in range(1 << len(pool)):
        yield Hypergraph(k, [e for j, e in enumerate(pool) if substep >> j & 1])


# ---------------------------------------------------------------------------
# Hypergraphs
# ---------------------------------------------------------------------------


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(2, [frozenset()])
    with pytest.raises(ValueError):
        Hypergraph(2, [frozenset({1, 3})])
    with pytest.raises(ValueError):
        Hypergraph(3, [frozenset({1, 2}), frozenset({2, 1})])
    with pytest.raises(ValueError):
        Hypergraph(2, [frozenset({1})])
    with pytest.raises(ValueError, match=r"edge \[1, 2, 2\] repeats vertex 2"):
        Hypergraph(3, [[1, 2, 2]])
    with pytest.raises(ValueError, match=r"edge \[3, 3\] repeats vertex 3"):
        Hypergraph(3, [[3, 3]], allow_singletons=True)
    # singleton edges only behind the flag
    h = Hypergraph(2, [frozenset({1})], allow_singletons=True)
    assert query_budget(h) == (2, 3, 5)


def test_complete_hypergraph_counts():
    h2 = complete_hypergraph(2)
    assert h2.edges == ((1, 2),)
    assert h2.t == 3
    h3 = complete_hypergraph(3)
    assert len(h3.edges) == 4
    assert h3.t == 7
    assert query_budget(h3) == (3, 7, 10)
    h4 = complete_hypergraph(4)
    assert len(h4.edges) == 11
    assert h4.t == 15
    assert query_budget(h4)[2] == 19
    with pytest.raises(ValueError):
        complete_hypergraph(1)


def test_complete_hypergraph_query_count_is_t_plus_log():
    for k in (2, 3, 4, 5):
        h = complete_hypergraph(k)
        t = h.t
        assert t == (1 << k) - 1
        assert query_budget(h)[2] == t + k  # k = log2(t + 1)


def test_soundness_bound_arithmetic():
    for k in range(2, 7):
        h = complete_hypergraph(k)
        t = h.t
        assert Fraction(2) ** (k - len(h.edges)) == Fraction((t + 1) ** 2, 2**t)


def test_query_budget_basic_cases():
    assert query_budget(EDGE_12) == (2, 3, 5)
    h = Hypergraph(1, [], allow_singletons=True)
    assert query_budget(h) == (1, 1, 2)


def test_family_requires_folded_members():
    with pytest.raises(InvariantViolation):
        FunctionFamily(EDGE_12, [dictator(2, 1), dictator(2, 1), parity(2, 3)])
    for count in (2, 4):  # EDGE_12 needs k + |E| = 3 members
        with pytest.raises(ValueError, match=rf"need 3 members \(k \+ \|E\|\), got {count}"):
            FunctionFamily(EDGE_12, [dictator(2, 1)] * count)
    with pytest.raises(ValueError):
        FunctionFamily(EDGE_12, [dictator(2, 1), dictator(3, 1), dictator(2, 1)])


# ---------------------------------------------------------------------------
# Basic test sampler
# ---------------------------------------------------------------------------


def test_basic_test_transcript_shape_and_count():
    oracle = FoldedOracle(dictator(3, 1))
    transcript = run_basic_test(oracle, derive_rng(0))
    assert len(transcript.pass1) == 1
    assert len(transcript.pass2) == 3
    assert transcript.total_queries == 4
    assert oracle.query_count == 4


def test_basic_test_dictator_always_accepts():
    f = dictator(4, 3)
    for trial in range(200):
        assert run_basic_test(FoldedOracle(f), derive_rng(50, trial)).verdict


def test_basic_test_seed42_replay():
    f = parity(2, {1, 2})
    transcript = run_basic_test(FoldedOracle(f), derive_rng(42))
    # replay the draw and the four folded queries by hand
    x_i, x_j, y, z = (int(v) for v in derive_rng(42).integers(0, 4, size=4))
    oracle = FoldedOracle(f)
    s_y = oracle.fold_query(y)
    v = (1 - s_y) // 2
    probe = x_i ^ x_j ^ ((y ^ (3 if v else 0)) & z)
    expected = oracle.fold_query(x_i) * oracle.fold_query(x_j) == oracle.fold_query(probe)
    assert transcript.verdict == expected
    assert transcript.pass1[0].point == y
    assert [q.point for q in transcript.pass2] == [x_i, x_j, probe]


def test_basic_test_deterministic_given_seed():
    f = random_folded(4, 9)
    a = run_basic_test(FoldedOracle(f), derive_rng(123))
    b = run_basic_test(FoldedOracle(f), derive_rng(123))
    assert a == b


# ---------------------------------------------------------------------------
# Basic test probabilities
# ---------------------------------------------------------------------------


def test_basic_exact_dictator_completeness():
    for n in (1, 2, 3, 4):
        for ell in range(1, n + 1):
            assert basic_test_prob_exact(dictator(n, ell)) == 1.0


def test_basic_fourier_dictator_completeness():
    for n in (1, 2, 3, 4):
        for ell in range(1, n + 1):
            assert abs(basic_test_prob_fourier(dictator(n, ell)) - 1.0) <= 1e-12


def test_character_acceptance_law():
    for n in (1, 2, 3, 4):
        for mask in range(1, 1 << n):
            f = parity(n, mask)
            weight = bin(mask).count("1")
            if weight % 2 == 0:
                continue  # even-weight characters are not folded
            expected = 0.5 + 2.0**-weight
            assert abs(basic_test_prob_exact(f) - expected) <= 1e-12
            assert abs(basic_test_prob_fourier(f) - expected) <= 1e-12


def test_exact_equals_fourier_exhaustively_small_n():
    for n in (2, 3):
        for half in itertools.product((-1, 1), repeat=1 << (n - 1)):
            f = make_folded(n, half)
            delta = abs(basic_test_prob_exact(f) - basic_test_prob_fourier(f))
            assert delta <= 1e-10


def test_exact_equals_fourier_random_n4():
    for t in range(100):
        f = random_folded(4, (60, t))
        delta = abs(basic_test_prob_exact(f) - basic_test_prob_fourier(f))
        assert delta <= 1e-10


def test_exact_probability_is_an_integer_count_over_all_randomness():
    for seed in range(5):
        f = random_folded(3, (8, seed))
        scaled = basic_test_prob_exact(f) * 2 ** (4 * 3)
        assert scaled == int(scaled)


def test_prob_paths_reject_unfolded_input():
    unfolded = parity(2, {1, 2})
    with pytest.raises(InvariantViolation):
        basic_test_prob_exact(unfolded)
    with pytest.raises(InvariantViolation):
        basic_test_prob_fourier(unfolded)


def test_exact_guard():
    with pytest.raises(GuardExceeded):
        basic_test_prob_exact(dictator(7, 1), guard_bits=26)
    assert basic_test_prob_exact(dictator(7, 1), guard_bits=28) == 1.0


def triple_index_accept_count(f):
    """Accepting (x_i, x_j, y, z) tuples of the basic test, by enumeration.

    pair_count[w] counts the (x_i, x_j) with f(x_i) f(x_j) = f(x_i + x_j + w)
    over a 2^{3n} (x_i, x_j, w) index array; each y then sums pair_count over
    s ∧ z for every z.
    """
    table = folded_table(f).astype(np.int64)
    points = 1 << f.n
    ones = points - 1
    idx = np.arange(points)
    pair_product = table[:, None] * table[None, :]
    triple_index = (idx[:, None] ^ idx[None, :])[:, :, None] ^ idx[None, None, :]
    pair_count = (pair_product[:, :, None] == table[triple_index]).sum(axis=(0, 1))
    accepts = 0
    for y in range(points):
        shift = y ^ (ones if table[y] < 0 else 0)
        accepts += int(pair_count[shift & idx].sum())
    return accepts


def basic_families(n):
    """Every folded function for n <= 3; structured and random ones beyond."""
    if n <= 3:
        halves = itertools.product((-1, 1), repeat=1 << (n - 1))
        return [make_folded(n, half) for half in halves]
    fs = [dictator(n, 1), dictator(n, n), noisy_dictator(n, 2, 0.2, n), parity(n, 0b111)]
    fs += [random_folded(n, (61, n, t)) for t in range(3)]
    return fs + ([majority(n)] if n % 2 else [])


def test_basic_exact_equals_triple_index_enumeration():
    for n in range(1, 8):
        for f in basic_families(n):
            count = triple_index_accept_count(f)
            assert basic_test_prob_exact(f, guard_bits=4 * n) == count / 2 ** (4 * n)


HALF_TABLES = st.sampled_from([1, 2, 4, 8, 16, 32]).flatmap(
    lambda size: st.lists(st.sampled_from([-1, 1]), min_size=size, max_size=size)
)


@settings(max_examples=60, deadline=None)
@given(HALF_TABLES)
def test_basic_exact_equals_enumeration_property(half):
    f = make_folded(len(half).bit_length(), half)
    assert basic_test_prob_exact(f) == triple_index_accept_count(f) / 2 ** (4 * f.n)


def test_basic_exact_dictator_completeness_n12():
    for ell in range(1, 13):
        assert basic_test_prob_exact(dictator(12, ell), guard_bits=48) == 1.0


def per_y_accept_count(f):
    """The basic test's accept count by the per-y formula, in int64 to n = 15.

    pair_count[w] = #{(x_i, x_j) : f(x_i) f(x_j) = f(x_i + x_j + w)} is
    (4^n + 2^{-n}·WHT(c^3)(w))/2 with c = spectrum_counts(f), and y, with
    s = v·1⃗ + y, accepts Σ_z pair_count[s ∧ z] = 2^{n-|s|} Σ_{u ⊆ s}
    pair_count[u] of the (x_i, x_j, z).
    """
    n = f.n
    points = 1 << n
    counts = spectrum_counts(f).astype(np.int64)
    pair_count = (points * points + _butterfly(counts**3) // points) // 2
    idx = np.arange(points)
    shifts = np.where(folded_table(f) < 0, idx ^ (points - 1), idx)
    per_y = _subset_sums(pair_count)[shifts] << (n - hamming_weights(n)[shifts])
    return int(per_y.sum())


@pytest.mark.parametrize("n", range(8, 15))
def test_basic_exact_equals_the_per_y_formula(n):
    fs = [dictator(n, 1), dictator(n, n), noisy_dictator(n, 2, 0.2, n),
          noisy_dictator(n, n, 0.1, 7)]
    fs += [random_folded(n, (62, n, t)) for t in range(3)]
    fs += [majority(n)] if n % 2 else []
    for f in fs:
        assert basic_test_prob_exact(f, guard_bits=4 * n) == per_y_accept_count(f) / 2 ** (4 * n)


def test_basic_exact_subset_sums_run_in_int64_to_n20(monkeypatch):
    """Partial subset sums of c^3 stay within 2^{3n}, so the transform's
    input is int64 for every n <= 20 and Python ints from n = 21."""

    class Handed(Exception):
        pass

    def record(values):
        dtypes.append(values.dtype)
        raise Handed

    dtypes = []
    monkeypatch.setattr(testers, "_subset_sums", record)
    for n in range(1, 22):
        with pytest.raises(Handed):
            basic_test_prob_exact(dictator(n, 1), guard_bits=4 * n)
    assert dtypes == [np.dtype(np.int64)] * 20 + [np.dtype(object)]


def test_basic_exact_dictator_completeness_n20_and_n21():
    for ell in (1, 20):
        assert basic_test_prob_exact(dictator(20, ell), guard_bits=80) == 1.0
    assert basic_test_prob_exact(dictator(21, 21), guard_bits=84) == 1.0  # Python ints


def test_basic_exact_equals_fourier_at_n20():
    for spec in ("random:3", "random:4", "noisydict:1:0.1:22", "noisydict:20:0.2:5"):
        f = parse_fnspec(spec, 20)
        assert abs(basic_test_prob_exact(f, guard_bits=80) - basic_test_prob_fourier(f)) <= 1e-10


# ---------------------------------------------------------------------------
# Hypergraph test sampler
# ---------------------------------------------------------------------------


def test_htest_transcript_shape_and_budget():
    h = complete_hypergraph(3)
    fam = FunctionFamily(h, [dictator(2, 1)] * h.t)
    transcript = run_hypergraph_test(fam, derive_rng(1))
    assert len(transcript.pass1) == h.k
    assert len(transcript.pass2) == h.k + len(h.edges)
    assert transcript.total_queries == query_budget(h)[2] == 10


def test_htest_dictator_family_always_accepts():
    for k in (2, 3):
        h = complete_hypergraph(k)
        for n in (2, 4):
            for ell in range(1, n + 1):
                fam = FunctionFamily(h, [dictator(n, ell)] * h.t)
                for trial in range(50):
                    assert run_hypergraph_test(fam, derive_rng(70, trial)).verdict


def test_htest_pass2_depends_on_pass1_only_through_v():
    """Recompute every pass-2 point from the drawn randomness and the v bits."""
    h = complete_hypergraph(3)
    fam = random_family(h, 3, 21)
    k, n = h.k, fam.n
    ones = (1 << n) - 1
    for trial in range(20):
        transcript = run_hypergraph_test(fam, derive_rng(80, trial))
        rng = derive_rng(80, trial)
        xs = [int(v) for v in rng.integers(0, 1 << n, size=k)]
        ys = [int(v) for v in rng.integers(0, 1 << n, size=k)]
        zv = [int(v) for v in rng.integers(0, 1 << n, size=k)]
        ze = [int(v) for v in rng.integers(0, 1 << n, size=len(h.edges))]
        assert [q.point for q in transcript.pass1] == ys
        vs = [(1 - q.sign) // 2 for q in transcript.pass1]
        shifts = [ys[i] ^ (ones if vs[i] else 0) for i in range(k)]
        expected = [xs[i] ^ (shifts[i] & zv[i]) for i in range(k)]
        for j, e in enumerate(h.edges):
            x_sum = 0
            shift_sum = 0
            for i in sorted(e):
                x_sum ^= xs[i - 1]
                shift_sum ^= shifts[i - 1]
            expected.append(x_sum ^ (shift_sum & ze[j]))
        assert [q.point for q in transcript.pass2] == expected


def test_htest_transcripts_count_queries_per_member():
    fam = FunctionFamily(EDGE_12, [dictator(2, 1)] * EDGE_12.t)
    transcript = run_hypergraph_test(fam, derive_rng(2))
    labels = [q.fn for q in transcript.pass1] + [q.fn for q in transcript.pass2]
    assert labels == ["v1", "v2", "v1", "v2", "e1,2"]


# ---------------------------------------------------------------------------
# Hypergraph test probabilities
# ---------------------------------------------------------------------------


def test_htest_exact_dictator_completeness_k2():
    for n in (1, 2, 3):
        for ell in range(1, n + 1):
            fam = FunctionFamily(EDGE_12, [dictator(n, ell)] * EDGE_12.t)
            assert htest_prob_exact(fam) == 1.0


def test_htest_exact_completeness_all_small_hypergraphs():
    # every k <= 3 hypergraph at n <= 2 fits the default guard
    for k in (1, 2, 3):
        for h in all_hypergraphs(k):
            for n in (1, 2):
                fam = FunctionFamily(h, [dictator(n, 1)] * h.t)
                assert htest_prob_exact(fam) == 1.0


def test_htest_exact_negated_edge_member_rejects_sometimes():
    base = dictator(2, 1)
    fam = FunctionFamily(EDGE_12, [base, base, BooleanFunction(2, -base.table)])
    assert htest_prob_exact(fam) < 1.0


def test_htest_exact_vs_mc_three_sigma():
    fam = FunctionFamily(EDGE_12, [parity(1, 1)] * EDGE_12.t)
    exact = htest_prob_exact(fam)
    estimate, low, high = htest_prob_mc(fam, 50_000, 31)
    assert low <= exact <= high
    fam2 = random_family(EDGE_12, 3, 77)
    exact2 = htest_prob_exact(fam2)
    estimate2, low2, high2 = htest_prob_mc(fam2, 100_000, 32)
    assert low2 <= exact2 <= high2


def test_htest_mc_dictator_family_hits_one():
    for k, n, ell in ((3, 4, 2), (4, 10, 7)):
        h = complete_hypergraph(k)
        fam = FunctionFamily(h, [dictator(n, ell)] * h.t)
        estimate, low, high = htest_prob_mc(fam, 20_000, 3)
        assert estimate == 1.0
        assert high == 1.0


MC_TRIALS = 2 * 4096 + 3  # two full chunks and a partial one


def pinned_mc_families():
    h4 = complete_hypergraph(4)
    mixed = Hypergraph(3, [frozenset({1}), frozenset({1, 2}), frozenset({2, 3})],
                       allow_singletons=True)
    noisy = [noisy_dictator(5, 2, 0.05, (9, j)) for j in range(mixed.t)]
    noisy4 = [noisy_dictator(10, 3, 0.02, (4, j)) for j in range(h4.t)]
    return {
        "random-k4": random_family(h4, 10, 21),
        "random-k3": random_family(complete_hypergraph(3), 12, 5),
        "noisy-singleton": FunctionFamily(mixed, noisy),
        "noisy-k4": FunctionFamily(h4, noisy4),
    }


# (family, seed) -> (estimate, ci_low, ci_high) over MC_TRIALS draws; the
# accept counts are 1, 2, 486, 6085, 5850 and 5780.
PINNED_MC = [
    ("random-k4", 7,
     (0.00012202562538133008, 1.4326637302385938e-05, 0.0010384996235446738)),
    ("random-k4", (7, 1, 0),
     (0.00024405125076266016, 4.7647125335547225e-05, 0.001249032955538158)),
    ("random-k3", (3, 1, 2),
     (0.05930445393532642, 0.052933587748398465, 0.06638834122537161)),
    ("noisy-singleton", 11,
     (0.7425259304453935, 0.7298919366844717, 0.7547675306184859)),
    ("noisy-k4", 13, (0.713849908480781, 0.7008208883942102, 0.726532931202486)),
    ("noisy-k4", (13, 1, 2),
     (0.7053081147040878, 0.6921739361485976, 0.7181101160462332)),
]


def test_htest_mc_stream_and_verdicts_are_pinned():
    """htest_prob_mc is a fixed function of (family, trials, seed): the draws
    come from the (seed, chunk) sub-streams in a fixed order, and a change to
    the draws or to the verdict kernel moves these values."""
    families = pinned_mc_families()
    for name, seed, expected in PINNED_MC:
        assert htest_prob_mc(families[name], MC_TRIALS, seed) == expected


def test_htest_mc_draws_without_calling_integers(no_integers):
    families = pinned_mc_families()
    for name, seed, expected in PINNED_MC:
        assert htest_prob_mc(families[name], MC_TRIALS, seed) == expected
    with pytest.raises(AssertionError, match="integers was called"):
        rng_module.derive_rng(0).integers(0, 2)


# A singleton edge {1}, and vertex 4 in no edge.
SINGLETON_AND_FREE = Hypergraph(4, [frozenset({1}), frozenset({1, 2}), frozenset({2, 3})],
                                allow_singletons=True)


def test_htest_mc_equals_query_level_run_on_its_draws():
    """Replaying each MC draw through run_hypergraph_test accepts exactly as
    often as htest_prob_mc counts, over one full chunk and a partial one,
    also at n = 19, where the draws read a small part of each shift table."""
    trials = rng_module._MC_CHUNK + 3
    cases = [(complete_hypergraph(3), random_family, 3),
             (complete_hypergraph(3), noisy_family, 12),
             (SINGLETON_AND_FREE, random_family, 12),
             (SINGLETON_AND_FREE, noisy_family, 3),
             (complete_hypergraph(2), random_family, 19)]
    for h, make, n in cases:
        fam = make(h, n, 60 + n)
        cols = (h.k,) * 3 + (len(h.edges),)
        accepts = 0
        for blocks in rng_module.mc_draws(trials, 8, n, cols):
            draws = np.concatenate(blocks).T.tolist()
            accepts += sum(run_hypergraph_test(fam, ScriptedDraws(trial)).verdict
                           for trial in draws)
        assert 0 < accepts < trials
        assert accepts / trials == htest_prob_mc(fam, trials, 8)[0]


@pytest.mark.parametrize("n", [1, 12, 20])
def test_htest_kernel_accepts_every_dictator_draw(n):
    """Perfect completeness draw by draw: a dictator family accepts each of
    one chunk's draws, with indices reaching the top of the 2^n tables."""
    shapes = [complete_hypergraph(k) for k in (2, 3, 4)]
    shapes.append(Hypergraph(2, [frozenset({2}), frozenset({1, 2})], allow_singletons=True))
    for h in shapes:
        cols = (h.k,) * 3 + (len(h.edges),)
        for j in {1, n}:
            fam = FunctionFamily(h, [dictator(n, j)] * h.t)
            draws, = rng_module.mc_draws(rng_module._MC_CHUNK, (n, j, h.k), n, cols)
            assert max(int(d.max()) for d in draws) >= (1 << n) - (1 << max(0, n - 10))
            assert kernel_verdicts(fam, *draws).all()


def test_verdict_tables_are_shift_and_sign_tables_built_once_per_member():
    """From 2·trials >= 2^n on, a vertex gets S[p] = p + [f(p) = -1]·1⃗ in
    uint32 and an edge gets f < 0, each from its member's folded view; below
    it each gets a reader whose ``take`` reads the same values.  Members that
    share a function share its table or reader, in vertex and edge slots
    apart."""
    n, h = 5, complete_hypergraph(3)
    f, g = random_folded(n, 1), random_folded(n, 2)
    fam = FunctionFamily(h, [f, g, f, g, f, f, g])
    idx = np.arange(1 << n)
    points = np.arange(1 << n, dtype=np.uint32)[::-1]  # every point, read in another order
    for trials in (16, 15):
        shifts, signs = _verdict_tables(fam, trials)
        assert len(shifts) == h.k and len(signs) == len(h.edges)
        assert shifts[0] is shifts[2] and signs[1] is signs[2]
        readers = [t for t in shifts + signs if isinstance(t, testers._PointReader)]
        assert len(readers) == (0 if trials == 16 else h.t)
        if readers:
            shifts = [t.take(points)[::-1] for t in shifts]
            signs = [t.take(points)[::-1] for t in signs]
        for table, member in zip(shifts, fam.members[: h.k]):
            assert table.dtype == np.uint32
            t = folded_table(member)
            assert np.array_equal(table, np.where(t < 0, idx ^ ((1 << n) - 1), idx))
        for table, member in zip(signs, fam.members[h.k :]):
            assert table.dtype == bool and np.array_equal(table, folded_table(member) < 0)


@pytest.mark.parametrize("trials", [2047, 2048])
def test_htest_mc_counts_the_same_on_both_sides_of_the_table_switch(trials):
    """At n = 12 a call of 2047 draws reads the members at its draw points
    and one of 2048 builds the 2^12-entry tables; either count equals the
    kernel's on both representations over the same draws."""
    n, h = 12, complete_hypergraph(3)
    fam = random_family(h, n, 12)
    readers = _verdict_tables(fam, trials)[0]
    assert isinstance(readers[0], testers._PointReader) == (trials == 2047)
    cols = (h.k,) * 3 + (len(h.edges),)
    estimate = htest_prob_mc(fam, trials, 6)[0]
    for tables in (True, False):
        accepts = sum(int(np.count_nonzero(kernel_verdicts(fam, *draws, tables)))
                      for draws in rng_module.mc_draws(trials, 6, n, cols))
        assert 0 < accepts < trials
        assert accepts / trials == estimate


def test_htest_mc_validation_and_determinism():
    fam = FunctionFamily(EDGE_12, [dictator(2, 1)] * EDGE_12.t)
    with pytest.raises(ValueError):
        htest_prob_mc(fam, 0, 1)
    a = htest_prob_mc(fam, 9_000, 5)
    b = htest_prob_mc(fam, 9_000, 5)
    assert a == b


def test_htest_mc_seed_consistency_across_reruns():
    fam = random_family(complete_hypergraph(3), 4, 55)
    est1, low1, high1 = htest_prob_mc(fam, 100_000, 1)
    est2, low2, high2 = htest_prob_mc(fam, 100_000, 2)
    assert low1 <= est2 <= high1


def test_htest_exact_guard():
    fam = FunctionFamily(complete_hypergraph(3), [dictator(3, 1)] * 7)
    with pytest.raises(GuardExceeded):
        htest_prob_exact(fam)  # (9 + 4) * 3 = 39 bits


def noisy_family(h, n, seed):
    return FunctionFamily(h, [noisy_dictator(n, 1, 0.3, (seed, j)) for j in range(h.t)])


def int8_tables(fam):
    """reference_verdicts' tables: the members' int8 folded views, vertices
    then edges, and the edges."""
    tables = [folded_table(f) for f in fam.members]
    k = fam.hypergraph.k
    return tables[:k], tables[k:], fam.hypergraph.edges


def reference_verdicts(vertex_tables, edge_tables, edges, xs, ys, zv, ze):
    """Verdicts as run_hypergraph_test states them: each edge compares the
    product of its vertex answers with its edge answer.  Takes the same
    broadcastable draws as kernel_verdicts and gives the same mask shape."""
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


def kernel_verdicts(fam, xs, ys, zv, ze, tables=True):
    """_htest_verdicts on _verdict_tables' 2^n-entry tables, or on its point
    readers if not ``tables``, with the draws cast to uint32 and broadcast to
    one shape."""
    k = fam.hypergraph.k
    draws = np.broadcast_arrays(*(np.asarray(d, dtype=np.uint32) for d in (*xs, *ys, *zv, *ze)))
    trials = 1 << (fam.n - 1) if tables else (1 << (fam.n - 1)) - 1
    return _htest_verdicts(*_verdict_tables(fam, trials), fam.hypergraph.edges,
                           draws[:k], draws[k:2 * k], draws[2 * k:3 * k], draws[3 * k:])


def test_verdict_kernel_matches_oracle_run_draw_for_draw():
    """The vectorised kernel on (1,) draw arrays reproduces run_hypergraph_test."""
    for h in (EDGE_12, complete_hypergraph(3)):
        k, n_edges = h.k, len(h.edges)
        for n in (2, 3):
            for make in (random_family, noisy_family):
                fam = make(h, n, 40 + n)
                tables = int8_tables(fam)
                points = 1 << n
                verdicts = set()
                for seed in range(200):
                    expected = run_hypergraph_test(fam, derive_rng(90, seed)).verdict
                    rng = derive_rng(90, seed)
                    xs, ys, zv, ze = (
                        rng.integers(0, points, size=(1, c)).T
                        for c in (k, k, k, n_edges)
                    )
                    ok = kernel_verdicts(fam, xs, ys, zv, ze)
                    assert ok.shape == (1,)
                    assert bool(ok[0]) == expected
                    assert np.array_equal(ok, kernel_verdicts(fam, xs, ys, zv, ze, False))
                    assert np.array_equal(ok, reference_verdicts(*tables, xs, ys, zv, ze))
                    verdicts.add(expected)
                assert verdicts == {True, False}


@st.composite
def verdict_cases(draw):
    """A hypergraph on k <= 5 vertices whose edges may be singletons, share
    prefixes or be absent, a family of folded members at n <= 5 and one seed
    for the draws."""
    k = draw(st.integers(1, 5))
    pool = [frozenset(i + 1 for i in range(k) if mask >> i & 1) for mask in range(1, 1 << k)]
    h = Hypergraph(k, draw(st.lists(st.sampled_from(pool), unique=True, max_size=10)),
                   allow_singletons=True)
    n = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rho = draw(st.sampled_from([None, 0.0, 0.1]))
    if rho is None:
        fam = random_family(h, n, seed)
    else:
        fam = FunctionFamily(h, [noisy_dictator(n, 1, rho, (seed, j)) for j in range(h.t)])
    return fam, draw(st.sampled_from([np.uint8, np.uint32, np.int64])), seed


@settings(max_examples=150, deadline=None)
@given(verdict_cases(), st.booleans())
def test_verdict_kernel_equals_reference_property(case, tables):
    """On the 2^n tables and on the point readers alike."""
    fam, dtype, seed = case
    h = fam.hypergraph
    rng = derive_rng(91, seed)
    draws = rng.integers(0, 1 << fam.n, size=(3 * h.k + len(h.edges), 512), dtype=dtype)
    xs, ys, zv, ze = np.split(draws, [h.k, 2 * h.k, 3 * h.k])
    ok = kernel_verdicts(fam, xs, ys, zv, ze, tables)
    assert np.array_equal(ok, reference_verdicts(*int8_tables(fam), xs, ys, zv, ze))


class ScriptedDraws:
    """Stands in for a Generator: hands out a fixed draw sequence in order."""

    def __init__(self, values):
        self.values = iter(values)

    def integers(self, low, high, size):
        return np.array([next(self.values) for _ in range(size)])


def oracle_accept_count(fam):
    """Accepting draws of run_hypergraph_test over every possible draw."""
    h = fam.hypergraph
    bits = 3 * h.k + len(h.edges)
    return sum(
        run_hypergraph_test(fam, ScriptedDraws(draws)).verdict
        for draws in itertools.product(range(1 << fam.n), repeat=bits)
    )


def test_basic_exact_equals_query_level_enumeration():
    """Over all 2^{4n} scripted draws, the query-level basic test accepts
    exactly basic_test_prob_exact(f)·2^{4n} times, for every folded f at
    n <= 2 and a few at n = 3; a dictator accepts on every draw."""
    cases = [make_folded(n, half) for n in (1, 2)
             for half in itertools.product((-1, 1), repeat=1 << (n - 1))]
    cases += [dictator(3, 2), majority(3), random_folded(3, 0), random_folded(3, 1)]
    for f in cases:
        verdicts = [
            run_basic_test(FoldedOracle(f), ScriptedDraws(draws)).verdict
            for draws in itertools.product(range(1 << f.n), repeat=4)
        ]
        assert sum(verdicts) == basic_test_prob_exact(f) * 2 ** (4 * f.n)
        if any(f == dictator(f.n, i) for i in range(1, f.n + 1)):
            assert all(verdicts)


def test_htest_exact_equals_scalar_oracle_enumeration():
    path = Hypergraph(3, [frozenset({1, 2}), frozenset({2, 3})])
    vertex_3_unread = Hypergraph(3, [frozenset({1, 2})])
    cases = [(EDGE_12, n) for n in (1, 2)] + [(path, 1), (vertex_3_unread, 1)]
    for h, n in cases:
        families = [random_family(h, n, s) for s in (8, 9)] + [noisy_family(h, n, 3)]
        if n % 2:
            families.append(FunctionFamily(h, [majority(n)] * h.t))
        for fam in families:
            bits = (3 * h.k + len(h.edges)) * n
            assert htest_prob_exact(fam) == oracle_accept_count(fam) / 2**bits


def test_htest_exact_grid_equals_flat_enumeration():
    """The chunked (x, y) x z-axes grid counts the same accepts as the kernel
    on one flat array per draw over all 2^{(3k+|E|)n} draws."""
    for h, n in ((EDGE_12, 3), (Hypergraph(3, [frozenset({1, 3})]), 2)):
        k, bits = h.k, 3 * h.k + len(h.edges)
        for fam in (random_family(h, n, 0), noisy_family(h, n, 1)):
            draws = np.indices((1 << n,) * bits, dtype=np.uint8).reshape(bits, -1)
            xs, ys, zv, ze = np.split(draws, [k, 2 * k, 3 * k])
            ok = kernel_verdicts(fam, xs, ys, zv, ze)
            assert np.array_equal(ok, reference_verdicts(*int8_tables(fam), xs, ys, zv, ze))
            assert htest_prob_exact(fam) == np.count_nonzero(ok) / 2 ** (bits * n)


def grid_accept_count(fam):
    """Accepting draws of the hypergraph test over all 2^{(3k+|E|)n} draws.

    Evaluates the verdict kernel on a grid with the (x_1..x_k, y_1..y_k)
    assignments along axis 0, in chunks of about _EXACT_CHUNK grid elements,
    and one z axis per vertex and per edge; the z axis of a vertex that no
    edge reads has length 1 and counts 2^n times.
    """
    h = fam.hypergraph
    k, n = h.k, fam.n
    tables = int8_tables(fam)
    points = 1 << n
    z_dims = k + len(h.edges)
    read = set().union(*h.edges)
    lengths = [points if i + 1 in read else 1 for i in range(k)] + [points] * len(h.edges)
    zs = [np.arange(m).reshape(-1, *(1,) * (z_dims - 1 - a)) for a, m in enumerate(lengths)]
    free = k - len(read)
    combos = points ** (2 * k)
    step = max(1, _EXACT_CHUNK // points ** (z_dims - free))
    digit_shifts = n * np.arange(2 * k)
    accepts = 0
    for start in range(0, combos, step):
        combo = np.arange(start, min(start + step, combos))
        digits = (combo[:, None] >> digit_shifts) & (points - 1)
        xs_ys = list(digits.T.reshape(2 * k, -1, *(1,) * z_dims))
        draws = xs_ys[:k], xs_ys[k:], zs[:k], zs[k:]
        ok = kernel_verdicts(fam, *draws)
        assert np.array_equal(ok, reference_verdicts(*tables, *draws))
        accepts += int(np.count_nonzero(ok))
    return accepts * points**free


def htest_families(h, n):
    fams = [random_family(h, n, s) for s in (5, 6)] + [noisy_family(h, n, 7)]
    fams.append(FunctionFamily(h, [dictator(n, n)] * h.t))
    if n % 2:
        fams.append(FunctionFamily(h, [majority(n)] * h.t))
    return fams


def test_htest_exact_equals_grid_enumeration():
    cases = [(EDGE_12, n) for n in (1, 2, 3)] + [(PATH_3, n) for n in (1, 2)]
    cases += [(complete_hypergraph(3), 1), (complete_hypergraph(3), 2)]
    for h, n in cases:
        bits = (3 * h.k + len(h.edges)) * n
        for fam in htest_families(h, n):
            expected = grid_accept_count(fam) / 2**bits
            assert htest_prob_exact(fam, guard_bits=bits) == expected


# ---------------------------------------------------------------------------
# Soundness checks that can fail: the exhaustive atlas and the mutants
# ---------------------------------------------------------------------------


TRIANGLE = Hypergraph(3, [frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})])
ATLAS = {
    "complete2-n2": (complete_hypergraph(2), 2),
    "complete2-n3": (complete_hypergraph(2), 3),
    "path-n2": (PATH_3, 2),
    "triangle-n2": (TRIANGLE, 2),
    "complete3-n2": (complete_hypergraph(3), 2),
    "singleton-n2": (Hypergraph(2, [{1}, {1, 2}], allow_singletons=True), 2),
}


@pytest.mark.parametrize("h, n", ATLAS.values(), ids=ATLAS.keys())
def test_htest_exact_atlas_mean_is_the_floor_and_only_dictators_reach_one(h, n):
    """Over every family of folded members, the mean acceptance is exactly
    2^{-|E|}, and p = 1 holds on the n families with the same dictator χ_j
    in every slot and on no other family."""
    members = [make_folded(n, half) for half in itertools.product((-1, 1), repeat=1 << (n - 1))]
    total, perfect = Fraction(0), []
    for slots in itertools.product(members, repeat=h.t):
        p = Fraction(htest_prob_exact(FunctionFamily(h, slots)))
        total += p
        if p == 1:
            perfect.append(slots)
    assert total / len(members) ** h.t == Fraction(1, 2 ** len(h.edges))
    assert set(perfect) == {(dictator(n, j),) * h.t for j in range(1, n + 1)}


def mutant_accept_probability(f, adaptive=True, vertex_noise=True, masked=True):
    """The hypergraph test on complete(2) with f in every slot, over all
    2^{7n} draws (x_1, x_2, y_1, y_2, z_1, z_2, z_e), with three switches:
    ``adaptive=False`` sets s_i = y_i whatever f(y_i) is, ``vertex_noise=False``
    queries f(x_i) in place of f(x_i + s_i ∧ z_i), and ``masked=False``
    queries the edge at x_1 + x_2 + z_e in place of x_1 + x_2 + (s_1 + s_2) ∧ z_e."""
    table, ones = folded_table(f), (1 << f.n) - 1
    x1, x2, y1, y2, z1, z2, ze = np.indices((1 << f.n,) * 7, dtype=np.uint8).reshape(7, -1)
    s1, s2 = (np.where(table[y] < 0, y ^ ones, y) if adaptive else y for y in (y1, y2))
    a1, a2 = (s1 & z1, s2 & z2) if vertex_noise else (0, 0)
    edge_mask = s1 ^ s2 if masked else ones
    ok = table[x1 ^ a1] * table[x2 ^ a2] == table[x1 ^ x2 ^ (edge_mask & ze)]
    return Fraction(np.count_nonzero(ok), ok.size)


MUTANTS = {"paper": {}, "nonadaptive": {"adaptive": False},
           "no vertex noise": {"vertex_noise": False}, "unmasked": {"masked": False}}
# spec at n = 3 -> acceptance in MUTANTS' order
MUTANT_TABLE = {
    "dict:1": (Fraction(1), Fraction(5, 8), Fraction(1), Fraction(1, 2)),
    "parity:7": (Fraction(17, 32), Fraction(65, 128), Fraction(5, 8), Fraction(1, 2)),
    "maj": (Fraction(77, 128), Fraction(559, 1024), Fraction(77, 128), Fraction(1, 2)),
    "random:5": (Fraction(73, 128), Fraction(529, 1024), Fraction(71, 128), Fraction(1, 2)),
}


@pytest.mark.parametrize("spec", MUTANT_TABLE)
def test_mutant_enumerator_paper_setting_equals_htest_exact(spec):
    f = parse_fnspec(spec, 3)
    h = complete_hypergraph(2)
    values = tuple(mutant_accept_probability(f, **switches) for switches in MUTANTS.values())
    assert values == MUTANT_TABLE[spec]
    assert values[0] == Fraction(htest_prob_exact(FunctionFamily(h, [f] * h.t)))


def test_each_mutant_misses_a_paper_prediction():
    """Dictator completeness (p = 1) and the weight-3 parity law
    1/2 + 2^{1-2w} = 17/32 hold in the paper setting.  The dictator catches
    the nonadaptive and unmasked mutants, and only the parity law catches the
    one without vertex noise."""
    predictions = {"dict:1": Fraction(1), "parity:7": Fraction(1, 2) + Fraction(2) ** (1 - 2 * 3)}
    missed = {name: {spec for spec, p in predictions.items()
                     if mutant_accept_probability(parse_fnspec(spec, 3), **switches) != p}
              for name, switches in MUTANTS.items()}
    assert missed == {"paper": set(), "nonadaptive": {"dict:1", "parity:7"},
                      "no vertex noise": {"parity:7"}, "unmasked": {"dict:1", "parity:7"}}


EDGE_POOL = [frozenset(e) for e in ({1}, {2}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3})]


@st.composite
def small_families(draw, max_n=None):
    """Folded families on k <= 3 vertices with up to 3 edges, singletons
    allowed; n is at most max_n, or by default small enough to enumerate."""
    k = draw(st.integers(1, 3))
    pool = [e for e in EDGE_POOL if max(e) <= k]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))
    h = Hypergraph(k, edges, allow_singletons=True)
    if max_n is None:
        max_n = 2 if (3 * k + len(edges)) * 2 <= 22 else 1
    n = draw(st.integers(1, max_n))
    half = 1 << (n - 1)
    signs = st.lists(st.sampled_from([-1, 1]), min_size=half, max_size=half)
    halves = draw(st.lists(signs, min_size=h.t, max_size=h.t))
    return FunctionFamily(h, [make_folded(n, values) for values in halves])


@settings(max_examples=60, deadline=None)
@given(small_families())
def test_htest_exact_equals_grid_enumeration_property(fam):
    bits = (3 * fam.hypergraph.k + len(fam.hypergraph.edges)) * fam.n
    assert htest_prob_exact(fam) == grid_accept_count(fam) / 2**bits


def test_exact_counts_in_python_ints_match_int64(monkeypatch):
    """Counts too wide for int64 switch to Python ints; force that path."""
    fams = htest_families(PATH_3, 2) + htest_families(complete_hypergraph(3), 1)
    fs = basic_families(3) + basic_families(6)

    def values():
        return [htest_prob_exact(fam) for fam in fams] + [basic_test_prob_exact(f) for f in fs]

    expected = values()
    calls = []
    monkeypatch.setattr(testers, "_count_dtype", lambda bits: calls.append(bits) or object)
    assert values() == expected
    assert len(calls) == len(fams) + len(fs)  # every call took the Python-int branch


def test_basic_fourier_cube_keeps_the_pow_floats():
    """Sum with coeffs**3 as the reference.  At n = 20 a noisy dictator's
    singleton coefficient has |count| > 2^17, where c*c*c and pow may round a
    tie differently; the value must stay the pow one."""
    for spec in ("noisydict:1:0.1:22", "noisydict:1:0.1:24", "random:3"):
        f = parse_fnspec(spec, 20)
        coeffs = wht(f)
        weights = np.exp2(-hamming_weights(20).astype(np.float64))
        terms = coeffs**3 * weights * (1.0 + subset_zeta(coeffs))
        assert basic_test_prob_fourier(f) == 0.5 + 0.5 * float(terms.sum())


def basic_fourier_float64(f):
    """The spectral identity with every transform of the table in float64."""
    n = f.n
    c = _butterfly(f.table.astype(np.float64)) / (1 << n)
    zeta = _subset_sums(c.copy())
    cube = c * c * c
    wide = np.abs(c) > 2.0 ** (17 - n)
    cube[wide] = c[wide] ** 3
    terms = cube * np.exp2(-hamming_weights(n).astype(np.float64)) * (1.0 + zeta)
    return 0.5 + 0.5 * float(terms.sum())


# n = 15..20 sum 2, 4, 8, 16, 32 and 64 blocks of 2^14 entries
@pytest.mark.parametrize("n", [1, 3, 8, 13, 15, 16, 17, 18, 19, 20])
def test_basic_fourier_equals_the_float64_formula(n):
    specs = ["dict:1", f"dict:{n}", "parity:1", "random:5", "random:6", "noisydict:1:0.1:22"]
    if n % 2:
        specs += ["maj", f"parity:{(1 << n) - 1:x}"]
    if n >= 3:
        specs += ["parity:7", f"noisydict:{n}:0.1:4", "noisydict:2:0.3:9"]
    if n == 20:
        specs += ["noisydict:20:0.1:22"]
    for spec in specs:
        f = parse_fnspec(spec, n)
        assert basic_test_prob_fourier(f) == basic_fourier_float64(f), spec
    if n == 20:  # where c*c*c and pow round a tie apart, the pow float must stay
        f = parse_fnspec("noisydict:1:0.1:22", n)
        counts = spectrum_counts(f)
        wide = np.abs(counts) > 1 << 17
        c = counts[wide] / (1 << n)
        assert np.any(c * c * c != c**3)
    if n == 20:  # the same tie at α = {20}, in a block past the first
        counts = spectrum_counts(parse_fnspec("noisydict:20:0.1:22", n))
        wide = np.flatnonzero(np.abs(counts) > 1 << 17)
        assert wide.tolist() == [1 << 19]
        c = counts[wide] / (1 << n)
        assert np.all(c * c * c != c**3)


# n = 15 is the first size with two α-blocks, 16 the first with two H
# half-blocks, 21 the first whose subset sums' top stages run in int16, and
# 24 the dimension cap.  A dictator's top-stage sums reach 2^t, the most
# that the narrow dtype must hold.
@pytest.mark.parametrize("n", [*range(1, 17), 18, 20, 21, 24])
def test_basic_fourier_blocks_equal_the_whole_array_route(n):
    fs = [random_folded(n, 40 + n), noisy_dictator(n, max(1, n - 2), 0.1, n), dictator(n, 1)]
    if n % 2:
        fs.append(majority(n))
    for f in fs:
        assert basic_test_prob_fourier(f) == whole_array_basic_fourier(f)


def traced_peak(call, *args, **kwargs):
    """Peak bytes numpy and Python allocate during one call, by tracemalloc."""
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_basic_fourier_traced_peak_stays_under_4_bytes_per_entry():
    """Only the narrow copies of the table and its lower half and a few
    2^14-entry blocks are live, about 2.5 bytes an entry at n = 20; the whole
    int32 counts and their subset sums read 8.6."""
    n = 20
    for spec in ("random:5", "noisydict:1:0.1:22"):
        f = parse_fnspec(spec, n)
        assert f.folded  # computed before tracing, as require_folded would
        assert traced_peak(basic_test_prob_fourier, f) < 4 << n, spec


def test_htest_mc_few_draws_traced_peak_stays_under_1_byte_per_entry():
    """2000 draws at n = 19 read 4000 points of each vertex table, so the
    members are read at the draw points: about 0.3 bytes an entry, where the
    shift and sign tables read 13."""
    n = 19
    fam = random_family(complete_hypergraph(2), n, 19)
    assert traced_peak(htest_prob_mc, fam, 2000, 3) < 1 << n


def test_noisy_dictator_traced_peak_stays_under_3_bytes_per_entry():
    """The flips are drawn 2^16 at a time, so no 2^{n-1} float64 array is
    live: about 2 bytes an entry at n = 20, where the whole draw read 6."""
    n = 20
    assert traced_peak(noisy_dictator, n, 3, 0.1, 22) < 3 << n


def test_basic_exact_traced_peak_stays_under_26_bytes_per_entry():
    """The ζ values over f^{-1}(-1) are summed in place, not as a 2^{n-1}
    element list: about 21 bytes an entry at n = 20, where the list read 32."""
    f = parse_fnspec("random:5", 20)
    assert f.folded
    assert traced_peak(basic_test_prob_exact, f, guard_bits=80) < 26 << 20


def test_and_sums_traced_peak_stays_under_6_bytes_per_entry():
    """The stages write the int32 output in place, so the peak stays near
    the table's own 4 bytes per 4^n entry (4.5 at n = 10)."""
    n = 10
    f = parse_fnspec("random:5", n)
    assert traced_peak(testers._and_sums, f.table) < 6 << 2 * n


def test_noise_law_deviation_traced_peak_stays_under_30_bytes_per_entry():
    """The int32 transform and float arrays reused in place keep the peak
    near 21 bytes per 4^n entry at n = 10."""
    n = 10
    f = parse_fnspec("random:5", n)
    peak = traced_peak(noisy_spectrum_law_deviation, f, 3, 5, guard_bits=3 * n)
    assert peak < 30 << 2 * n


@pytest.mark.parametrize("m", range(15, 21))
def test_numpy_sum_is_the_pairwise_join_of_its_block_sums(m):
    """basic_test_prob_fourier relies on numpy's pairwise sum of a contiguous
    float64 array of 2^m entries splitting at the midpoint, so that the sums
    of its aligned 2^14-entry blocks, joined pairwise, give x.sum() exactly.
    If a numpy release sums differently, this fails first."""
    rng = np.random.default_rng(290 + m)
    for _ in range(4):
        x = rng.standard_normal(1 << m) * np.exp2(rng.integers(-30, 31, 1 << m))
        blocks = x.reshape(-1, testers._FOURIER_BLOCK)
        sums = np.array([block.sum() for block in blocks])
        while sums.size > 1:
            sums = sums[0::2] + sums[1::2]
        assert sums[0] == x.sum()


def test_basic_routes_check_the_fold_once(folded_computations):
    """require_folded computes f.folded once per function object, and
    spectrum_counts' route choice reads the cached value."""
    n = fourier._FOLDED_MIN_N  # the first size whose route depends on the fold
    f = random_folded(n, 3)
    exact = basic_test_prob_exact(f, guard_bits=4 * n)
    assert basic_test_prob_fourier(f) == pytest.approx(exact, abs=1e-12)
    assert basic_test_prob_exact(f, guard_bits=4 * n) == exact
    assert folded_computations == [f]
    g = random_folded(n, 3)  # an equal function, but another object
    assert np.array_equal(spectrum_counts(g), _butterfly(g.table.astype(np.int32)))
    assert folded_computations == [f, g]


def test_basic_exact_beyond_int64_counts():
    # 4n = 64 guard bits, past 2^62, while the subset sums stay int64
    assert basic_test_prob_exact(dictator(16, 3), guard_bits=64) == 1.0
    f = random_folded(16, 62)
    exact = basic_test_prob_exact(f, guard_bits=64)
    assert abs(exact - basic_test_prob_fourier(f)) <= 1e-10


def test_htest_exact_perfect_completeness_beyond_the_old_enumerator():
    path_4 = Hypergraph(4, [frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})])
    for h, n in ((complete_hypergraph(3), 2), (complete_hypergraph(3), 3), (path_4, 2)):
        for ell in range(1, n + 1):
            fam = FunctionFamily(h, [dictator(n, ell)] * h.t)
            assert htest_prob_exact(fam, guard_bits=39) == 1.0


def test_htest_exact_perfect_completeness_at_the_lu_frontier():
    for k, top in ((2, 8), (3, 4), (4, 2)):
        h = complete_hypergraph(k)
        for n in range(1, top + 1):
            bits = (3 * k + len(h.edges)) * n
            for ell in sorted({1, n}):
                fam = FunctionFamily(h, [dictator(n, ell)] * h.t)
                assert htest_prob_exact(fam, guard_bits=bits) == 1.0


def test_htest_exact_odd_parity_on_one_edge_accepts_one_half_plus_2_to_1_minus_2w():
    """A parity of odd weight w on complete_hypergraph(2) accepts with
    probability exactly 1/2 + 2^{1-2w}, whatever n >= w."""
    h = complete_hypergraph(2)
    for w in (1, 3, 5, 7):
        for n in range(w, 8):
            fam = FunctionFamily(h, [parity(n, ((1 << w) - 1) << (n - w))] * h.t)
            value = htest_prob_exact(fam, guard_bits=7 * n)
            assert Fraction(value) == Fraction(1, 2) + Fraction(2) ** (1 - 2 * w)


def test_htest_exact_int64_at_its_widest_equals_python_ints(monkeypatch):
    """complete_hypergraph(2) at n = 7 and (3) at n = 4 are the largest n whose
    total (at most 2^62) runs in int64; the value must equal the Python-int
    one, and n + 1 must switch to Python ints."""
    count_dtype = testers._count_dtype
    chosen = []
    monkeypatch.setattr(
        testers, "_count_dtype", lambda bits: chosen.append(count_dtype(bits)) or chosen[-1]
    )
    cases = []
    for k, n in ((2, 7), (3, 4)):
        h = complete_hypergraph(k)
        bits = (3 * k + len(h.edges)) * (n + 1)
        fam = FunctionFamily(h, [dictator(n + 1, 1)] * h.t)
        assert htest_prob_exact(fam, guard_bits=bits) == 1.0
        assert chosen.pop() is object
        fams = [random_family(h, n, 11), noisy_family(h, n, 12)]
        cases += [(fam, htest_prob_exact(fam, guard_bits=bits)) for fam in fams]
        assert chosen == [np.int64] * len(fams)
        chosen.clear()
    monkeypatch.setattr(testers, "_count_dtype", lambda bits: object)
    for fam, value in cases:
        assert htest_prob_exact(fam, guard_bits=99) == value


def test_htest_exact_builds_one_and_table_per_distinct_member(monkeypatch):
    h = complete_hypergraph(3)
    uniform = FunctionFamily(h, [random_folded(2, 9)] * h.t)
    mixed = random_family(h, 2, 5)
    bits = (3 * h.k + len(h.edges)) * 2
    calls = []
    and_sums = testers._and_sums
    monkeypatch.setattr(testers, "_and_sums", lambda t: calls.append(1) or and_sums(t))
    for fam in (uniform, mixed):
        calls.clear()
        assert htest_prob_exact(fam, guard_bits=bits) == grid_accept_count(fam) / 2**bits
        distinct = set(fam.members)
        assert len(calls) == len(distinct)
    assert len(distinct) > 1


def test_htest_no_edges_always_accepts():
    h = Hypergraph(2, [])
    fam = FunctionFamily(h, [random_folded(2, 1), random_folded(2, 2)])
    assert htest_prob_exact(fam) == 1.0


# ---------------------------------------------------------------------------
# Symmetries and the junta reduction
# ---------------------------------------------------------------------------


def permute(f, perm):
    """g(x) = f(π(x)): bit i of x moves to bit perm[i] (0-based)."""
    idx = np.arange(1 << f.n)
    image = sum(((idx >> i) & 1) << j for i, j in enumerate(perm))
    return BooleanFunction(f.n, f.table[image])


def lift(g, n, coords):
    """g on {0,1}^r read off the coordinates ``coords`` (0-based bits) of n."""
    idx = np.arange(1 << n, dtype=np.uint32)
    image = sum(((idx >> c) & 1) << j for j, c in enumerate(coords))
    return BooleanFunction(n, g.table[image])


def relabel(fam, sigma):
    """The family with vertex i renamed sigma[i - 1]; edges and members follow."""
    h, k = fam.hypergraph, fam.hypergraph.k
    vertices = [None] * k
    for i, f in enumerate(fam.members[:k]):
        vertices[sigma[i] - 1] = f
    edges = [[sigma[i - 1] for i in e] for e in h.edges]
    return FunctionFamily(Hypergraph(k, edges, allow_singletons=True),
                          vertices + list(fam.members[k:]))


SYMMETRY_CASES = [(complete_hypergraph(2), 3), (complete_hypergraph(2), 4),
                  (complete_hypergraph(3), 2), (PATH_3, 3)]


@pytest.mark.parametrize("h, n", SYMMETRY_CASES)
def test_htest_exact_is_invariant_under_coordinate_permutations(h, n):
    rng = np.random.default_rng(130 + n)
    bits = (3 * h.k + len(h.edges)) * n
    for fam in htest_families(h, n):
        value = htest_prob_exact(fam, guard_bits=bits)
        for _ in range(3):
            perm = rng.permutation(n)
            moved = FunctionFamily(h, [permute(f, perm) for f in fam.members])
            assert htest_prob_exact(moved, guard_bits=bits) == value


@pytest.mark.parametrize("h, n", SYMMETRY_CASES)
def test_htest_exact_is_invariant_under_vertex_relabelling(h, n):
    bits = (3 * h.k + len(h.edges)) * n
    for fam in htest_families(h, n):
        value = htest_prob_exact(fam, guard_bits=bits)
        for sigma in itertools.permutations(range(1, h.k + 1)):
            assert htest_prob_exact(relabel(fam, sigma), guard_bits=bits) == value


def exact_bits(fam):
    return (3 * fam.hypergraph.k + len(fam.hypergraph.edges)) * fam.n


@settings(max_examples=50, deadline=None)
@given(small_families(max_n=3), st.data())
def test_htest_exact_is_invariant_under_coordinate_permutations_property(fam, data):
    perm = data.draw(st.permutations(range(fam.n)))
    moved = FunctionFamily(fam.hypergraph, [permute(f, perm) for f in fam.members])
    bits = exact_bits(fam)
    assert htest_prob_exact(moved, guard_bits=bits) == htest_prob_exact(fam, guard_bits=bits)


@settings(max_examples=50, deadline=None)
@given(small_families(max_n=3), st.data())
def test_htest_exact_is_invariant_under_vertex_relabelling_property(fam, data):
    sigma = data.draw(st.permutations(range(1, fam.hypergraph.k + 1)))
    bits = exact_bits(fam)
    value = htest_prob_exact(fam, guard_bits=bits)
    assert htest_prob_exact(relabel(fam, sigma), guard_bits=bits) == value


def test_basic_exact_is_invariant_under_coordinate_permutations():
    rng = np.random.default_rng(131)
    for n in range(2, 11):
        for f in basic_families(n):
            value = basic_test_prob_exact(f, guard_bits=4 * n)
            for _ in range(3):
                assert basic_test_prob_exact(permute(f, rng.permutation(n)), guard_bits=4 * n) == value


@pytest.mark.parametrize("k, r, n", [
    pytest.param(2, 2, 4, id="2-4"), pytest.param(2, 2, 5, id="2-5"),
    pytest.param(2, 3, 5, id="3-5"), pytest.param(3, 2, 4, id="k3-2-4"),
    pytest.param(4, 1, 2, id="k4-1-2"),
])
def test_exact_routes_reduce_a_junta_to_its_coordinates(k, r, n):
    """Members of complete(k) that read only r of the n coordinates accept
    as their restrictions to {0,1}^r do, on both exact routes."""
    rng = np.random.default_rng(132 + 10 * r + n + 100 * (k - 2))
    h = complete_hypergraph(k)
    per_n = 3 * h.k + len(h.edges)
    for fam in (random_family(h, r, 14), noisy_family(h, r, 15)):
        coords = rng.choice(n, size=r, replace=False)
        lifted = FunctionFamily(h, [lift(g, n, coords) for g in fam.members])
        assert (htest_prob_exact(lifted, guard_bits=per_n * n)
                == htest_prob_exact(fam, guard_bits=per_n * r))
        for g, f in zip(fam.members, lifted.members):
            assert basic_test_prob_exact(f, guard_bits=4 * n) == basic_test_prob_exact(g)


@pytest.mark.parametrize("k, r", [(2, 4), (3, 3), (4, 2), (5, 2)])
def test_htest_mc_of_a_lifted_junta_matches_its_restriction_exactly(k, r):
    """Past the exact frontier: a random r-junta family lifted to n = 20 has
    an MC estimate within 5 binomial standard errors of the exact value of
    its restriction to {0,1}^r."""
    assert_lifted_junta_mc_matches_exact(k, r, 20, (150, k), 151 + k, (152, k))


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("k, r", [(2, 4), (3, 3)])
def test_htest_mc_of_a_lifted_junta_at_the_dimension_cap(k, r, n):
    """The same check at n = 16 and at the dimension cap n = 24, where each
    vertex shift table holds 2^24 uint32 entries."""
    assert_lifted_junta_mc_matches_exact(k, r, n, (153, k, n), [154, k, n], (155, k, n))


def assert_lifted_junta_mc_matches_exact(k, r, n, family_seed, coords_seed, mc_seed):
    """A random r-junta family on complete(k), lifted to n, has an MC estimate
    of 200 000 draws within 5 binomial standard errors of the exact value of
    its restriction to {0,1}^r."""
    trials = 200_000
    h = complete_hypergraph(k)
    fam = random_family(h, r, family_seed)
    coords = np.random.default_rng(coords_seed).choice(n, size=r, replace=False)
    lifted = FunctionFamily(h, [lift(g, n, coords) for g in fam.members])
    exact = htest_prob_exact(fam, guard_bits=(3 * h.k + len(h.edges)) * r)
    estimate, _, _ = htest_prob_mc(lifted, trials, mc_seed)
    assert abs(estimate - exact) <= 5 * np.sqrt(exact * (1 - exact) / trials)


# ---------------------------------------------------------------------------
# Noise operator
# ---------------------------------------------------------------------------


def test_noise_operator_constant():
    const = BooleanFunction(2, np.ones(4, dtype=np.int8))
    g = noise_and_operator(const, 0, 0)
    assert g.dtype == np.int32 and g.shape == (16,)
    assert np.all(g == 4)  # 2^n·g with g = 1


def test_noise_operator_dictator_spectrum():
    g = noise_and_operator(dictator(3, 2), 0, 0)
    coeffs = _butterfly(g.astype(np.int64)) / 2**9  # ĝ = WHT(2^n·g) / (2^n·4^n)
    nonzero = {alpha for alpha, c in enumerate(coeffs) if c != 0.0}
    e2 = 1 << 1
    assert nonzero == {e2, e2 | (e2 << 3)}
    for alpha in nonzero:
        assert coeffs[alpha] ** 2 == 0.25


def test_noise_operator_spectrum_law_random():
    """The law holds exactly: every deviation is 0.0, not just small."""
    rng = np.random.default_rng(90)
    for n in range(1, 9):
        for _ in range(20):
            f = BooleanFunction(n, 1 - 2 * rng.integers(0, 2, size=1 << n))
            c, c_prime = (int(v) for v in rng.integers(0, 1 << n, size=2))
            assert noisy_spectrum_law_deviation(f, c, c_prime) == 0.0, (n, c, c_prime)
    for n in (9, 10, 11):  # the int32 transform's top (3n = 30), then int64
        for _ in range(2):
            f = BooleanFunction(n, 1 - 2 * rng.integers(0, 2, size=1 << n))
            c, c_prime = (int(v) for v in rng.integers(0, 1 << n, size=2))
            deviation = noisy_spectrum_law_deviation(f, c, c_prime, guard_bits=3 * n)
            assert deviation == 0.0, (n, c, c_prime)


def per_y_noise_table(f, c, c_prime):
    """g(x; y) at x | (y << n), summing f(c' + x + (c + y) ∧ z) over z per y."""
    n, points = f.n, 1 << f.n
    idx = np.arange(points)
    table = np.empty(points * points, dtype=np.float64)
    f_int = f.table.astype(np.int64)
    for y in range(points):
        probe = (c_prime ^ idx)[:, None] ^ ((c ^ y) & idx)[None, :]
        table[(y << n) : (y << n) + points] = f_int[probe].sum(axis=1) / points
    return table


def test_noise_operator_equals_per_y_sums():
    rng = np.random.default_rng(91)
    for n in range(1, 8):
        for _ in range(4):
            f = BooleanFunction(n, 1 - 2 * rng.integers(0, 2, size=1 << n))
            c, c_prime = (int(v) for v in rng.integers(0, 1 << n, size=2))
            g = noise_and_operator(f, c, c_prime)
            assert np.array_equal(g / (1 << n), per_y_noise_table(f, c, c_prime))


def test_noise_operator_dimension_mismatch():
    with pytest.raises(ValueError):
        noise_and_operator(dictator(3, 1), 8, 0)
    with pytest.raises(ValueError):
        noise_and_operator(dictator(3, 1), 0, 9)
