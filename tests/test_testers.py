import itertools
from fractions import Fraction

import numpy as np
import pytest

from dictatest import (
    BooleanFunction,
    FoldedOracle,
    FunctionFamily,
    GuardExceeded,
    Hypergraph,
    InvariantViolation,
    basic_test_prob_exact,
    basic_test_prob_fourier,
    complete_hypergraph,
    htest_prob_exact,
    htest_prob_mc,
    make_folded,
    noise_and_operator,
    noisy_spectrum_law_deviation,
    query_budget,
    run_basic_test,
    run_hypergraph_test,
    soundness_identity_holds,
    wht,
)
from dictatest.families import (
    dictator,
    majority,
    noisy_dictator,
    parity,
    random_family,
    random_folded,
)
from dictatest.rng import derive_rng
from dictatest.testers import _folded_tables, _htest_verdicts

EDGE_12 = Hypergraph(2, [frozenset({1, 2})])


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
    # singleton edges only behind the flag
    h = Hypergraph(2, [frozenset({1})], allow_singletons=True)
    assert query_budget(h) == (2, 3, 5)


def test_complete_hypergraph_counts():
    h2 = complete_hypergraph(2)
    assert h2.edges == (frozenset({1, 2}),)
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
        assert soundness_identity_holds(k)
        h = complete_hypergraph(k)
        t = h.t
        assert Fraction(2) ** (k - len(h.edges)) == Fraction((t + 1) ** 2, 2**t)


def test_query_budget_basic_cases():
    assert query_budget(EDGE_12) == (2, 3, 5)
    h = Hypergraph(1, [], allow_singletons=True)
    assert query_budget(h) == (1, 1, 2)


def test_family_requires_folded_members():
    with pytest.raises(InvariantViolation):
        FunctionFamily(EDGE_12, [dictator(2, 1), dictator(2, 1)], [parity(2, 3)])
    with pytest.raises(ValueError):
        FunctionFamily(EDGE_12, [dictator(2, 1)], [dictator(2, 1)])
    with pytest.raises(ValueError):
        FunctionFamily(EDGE_12, [dictator(2, 1), dictator(3, 1)], [dictator(2, 1)])


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
    oracle = FoldedOracle(dictator(4, 3))
    for trial in range(200):
        assert run_basic_test(oracle.fresh(), derive_rng(50, trial)).verdict


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
    oracle = FoldedOracle(random_folded(4, 9))
    a = run_basic_test(oracle.fresh(), derive_rng(123))
    b = run_basic_test(oracle.fresh(), derive_rng(123))
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


# ---------------------------------------------------------------------------
# Hypergraph test sampler
# ---------------------------------------------------------------------------


def test_htest_transcript_shape_and_budget():
    h = complete_hypergraph(3)
    fam = FunctionFamily.uniform(h, dictator(2, 1))
    transcript = run_hypergraph_test(fam, derive_rng(1))
    assert len(transcript.pass1) == h.k
    assert len(transcript.pass2) == h.k + len(h.edges)
    assert transcript.total_queries == query_budget(h)[2] == 10


def test_htest_dictator_family_always_accepts():
    for k in (2, 3):
        h = complete_hypergraph(k)
        for n in (2, 4):
            for ell in range(1, n + 1):
                fam = FunctionFamily.uniform(h, dictator(n, ell))
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
    fam = FunctionFamily.uniform(EDGE_12, dictator(2, 1))
    transcript = run_hypergraph_test(fam, derive_rng(2))
    labels = [q.fn for q in transcript.pass1] + [q.fn for q in transcript.pass2]
    assert labels == ["v1", "v2", "v1", "v2", "e1,2"]


# ---------------------------------------------------------------------------
# Hypergraph test probabilities
# ---------------------------------------------------------------------------


def test_htest_exact_dictator_completeness_k2():
    for n in (1, 2, 3):
        for ell in range(1, n + 1):
            fam = FunctionFamily.uniform(EDGE_12, dictator(n, ell))
            assert htest_prob_exact(fam) == 1.0


def test_htest_exact_completeness_all_small_hypergraphs():
    # every k <= 3 hypergraph at n <= 2 fits the default guard
    for k in (1, 2, 3):
        for h in all_hypergraphs(k):
            for n in (1, 2):
                fam = FunctionFamily.uniform(h, dictator(n, 1))
                assert htest_prob_exact(fam) == 1.0


def test_htest_exact_negated_edge_member_rejects_sometimes():
    base = dictator(2, 1)
    fam = FunctionFamily(EDGE_12, [base, base], [base.negate()])
    assert htest_prob_exact(fam) < 1.0


def test_htest_exact_vs_mc_three_sigma():
    fam = FunctionFamily.uniform(EDGE_12, parity(1, 1))
    exact = htest_prob_exact(fam)
    estimate, low, high = htest_prob_mc(fam, 50_000, 31)
    assert low <= exact <= high
    fam2 = random_family(EDGE_12, 3, 77)
    exact2 = htest_prob_exact(fam2)
    estimate2, low2, high2 = htest_prob_mc(fam2, 100_000, 32)
    assert low2 <= exact2 <= high2


def test_htest_mc_dictator_family_hits_one():
    fam = FunctionFamily.uniform(complete_hypergraph(3), dictator(4, 2))
    estimate, low, high = htest_prob_mc(fam, 20_000, 3)
    assert estimate == 1.0
    assert high == 1.0


def test_htest_mc_validation_and_determinism():
    fam = FunctionFamily.uniform(EDGE_12, dictator(2, 1))
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
    fam = FunctionFamily.uniform(complete_hypergraph(3), dictator(3, 1))
    with pytest.raises(GuardExceeded):
        htest_prob_exact(fam)  # (9 + 4) * 3 = 39 bits


def noisy_family(h, n, seed):
    fns = [noisy_dictator(n, 1, 0.3, (seed, j)) for j in range(h.t)]
    return FunctionFamily(h, fns[: h.k], fns[h.k :])


def test_verdict_kernel_matches_oracle_run_draw_for_draw():
    """The vectorised kernel on (1,) draw arrays reproduces run_hypergraph_test."""
    for h in (EDGE_12, complete_hypergraph(3)):
        k, n_edges = h.k, len(h.edges)
        for n in (2, 3):
            for make in (random_family, noisy_family):
                fam = make(h, n, 40 + n)
                tables = _folded_tables(fam)
                points = 1 << n
                verdicts = set()
                for seed in range(200):
                    expected = run_hypergraph_test(fam, derive_rng(90, seed)).verdict
                    rng = derive_rng(90, seed)
                    xs, ys, zv, ze = (
                        rng.integers(0, points, size=(1, c)).T
                        for c in (k, k, k, n_edges)
                    )
                    ok = _htest_verdicts(*tables, xs, ys, zv, ze)
                    assert ok.shape == (1,)
                    assert bool(ok[0]) == expected
                    verdicts.add(expected)
                assert verdicts == {True, False}


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


def test_htest_exact_equals_scalar_oracle_enumeration():
    path = Hypergraph(3, [frozenset({1, 2}), frozenset({2, 3})])
    vertex_3_unread = Hypergraph(3, [frozenset({1, 2})])
    cases = [(EDGE_12, n) for n in (1, 2)] + [(path, 1), (vertex_3_unread, 1)]
    for h, n in cases:
        families = [random_family(h, n, s) for s in (8, 9)] + [noisy_family(h, n, 3)]
        if n % 2:
            families.append(FunctionFamily.uniform(h, majority(n)))
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
            ok = _htest_verdicts(*_folded_tables(fam), xs, ys, zv, ze)
            assert htest_prob_exact(fam) == np.count_nonzero(ok) / 2 ** (bits * n)


def test_htest_no_edges_always_accepts():
    h = Hypergraph(2, [])
    fam = FunctionFamily(h, [random_folded(2, 1), random_folded(2, 2)], [])
    assert htest_prob_exact(fam) == 1.0


# ---------------------------------------------------------------------------
# Noise operator
# ---------------------------------------------------------------------------


def test_noise_operator_constant():
    const = BooleanFunction(2, np.ones(4, dtype=np.int8))
    g = noise_and_operator(const, 0, 0)
    assert np.all(g.table == 1.0)
    assert g.n == 4


def test_noise_operator_dictator_spectrum():
    g = noise_and_operator(dictator(3, 2), 0, 0)
    coeffs = wht(g).coeffs
    nonzero = {alpha for alpha, c in enumerate(coeffs) if abs(c) > 1e-12}
    e2 = 1 << 1
    assert nonzero == {e2, e2 | (e2 << 3)}
    for alpha in nonzero:
        assert abs(coeffs[alpha] ** 2 - 0.25) <= 1e-12


def test_noise_operator_spectrum_law_random():
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(50):
        f = BooleanFunction(3, 1 - 2 * rng.integers(0, 2, size=8))
        c = int(rng.integers(0, 8))
        c_prime = int(rng.integers(0, 8))
        worst = max(worst, noisy_spectrum_law_deviation(f, c, c_prime))
    assert worst <= 1e-10


def test_noise_operator_dimension_mismatch():
    from dictatest import BitVector

    with pytest.raises(ValueError):
        noise_and_operator(dictator(3, 1), BitVector(2, 0), 0)
    with pytest.raises(ValueError):
        noise_and_operator(dictator(3, 1), 0, 9)
