import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictatest import fourier, gowers
from dictatest import rng as rng_module
from dictatest.errors import GuardExceeded
from dictatest.families import (
    dictator,
    noisy_dictator,
    parity,
    planted_decoder_family,
    random_folded,
)
from dictatest.fourier import influence, low_degree_influence, spectrum_counts, wht
from dictatest.functions import BooleanFunction
from dictatest.gowers import (
    IndexedFamily,
    find_influential_pair,
    gowers_inner_product_exact,
    gowers_inner_product_mc,
)
from dictatest.rng import _MC_CHUNK, derive_rng, seed_key
from dictatest.testers import FunctionFamily, complete_hypergraph


def one(n):
    """The constant-1 function on n variables."""
    return BooleanFunction(n, np.ones(1 << n, np.int8))


def random_signs(n, rng):
    """A uniformly random ±1 table, folded or not."""
    return BooleanFunction(n, 1 - 2 * rng.integers(0, 2, size=1 << n))


def brute_norm_pow(table, d):
    """Literal definition: average the 2^d-vertex product over every
    (x, x_1, ..., x_d) tuple, one tuple at a time."""
    size = len(table)
    total = 0.0
    for tup in itertools.product(range(size), repeat=d + 1):
        x, shifts = tup[0], tup[1:]
        prod = 1.0
        for mask in range(1 << d):
            point = x
            for i in range(d):
                if mask >> i & 1:
                    point ^= shifts[i]
            prod *= table[point]
        total += prod
    return total / size ** (d + 1)


def subset_shifts(shifts, d):
    """XOR of the chosen shifts over every subset mask of [d]."""
    sums = [0] * (1 << d)
    for mask in range(1, 1 << d):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] ^ shifts[low.bit_length() - 1]
    return sums


def definition_inner_product(fam):
    """<{f_S}>_{U_d} by its definition: one (x_1..x_d) tuple at a time,
    vectorized over x."""
    tables = [np.asarray(m.table) for m in fam.members]
    points = 1 << fam.n
    idx = np.arange(points)
    total = 0.0
    for shifts in itertools.product(range(points), repeat=fam.d):
        prod = np.ones(points)
        for mask, shift in enumerate(subset_shifts(shifts, fam.d)):
            prod = prod * tables[mask][idx ^ shift]
        total += float(prod.mean())
    return total / points**fam.d


def definition_linear_inner_product(fam):
    """<{f_S}>_{LU_d} by its definition: x_1 vectorized, x_2..x_d one at a time."""
    tables = [np.asarray(m.table) for m in fam.members]
    d, points = fam.d, 1 << fam.n
    x1 = np.arange(points)
    total = 0.0
    for rest in itertools.product(range(points), repeat=d - 1):
        partial = subset_shifts((0, *rest), d)
        prod = np.ones(points)
        for mask in range(1 << d):
            if mask & 1:
                prod = prod * tables[mask][partial[mask] ^ x1]
            else:
                prod = prod * tables[mask][partial[mask]]
        total += float(prod.mean())
    return total / points ** (d - 1)


def brute_linear_inner(tables, d):
    size = len(tables[0])
    total = 0.0
    for shifts in itertools.product(range(size), repeat=d):
        prod = 1.0
        for mask in range(1 << d):
            point = 0
            for i in range(d):
                if mask >> i & 1:
                    point ^= shifts[i]
            prod *= tables[mask][point]
        total += prod
    return total / size**d


def linear_inner_product(fam):
    """<{f_S}>_{LU_d} through gowers._linear_sum, the engine of
    htest_prob_exact: 2^n times the sum over (x_1..x_d), divided once."""
    stack = np.stack([m.table for m in fam.members]).astype(np.int64)[None]
    return gowers._linear_sum(stack) / 2 ** ((fam.d + 1) * fam.n)


def norm_pow(f, d, **guard):
    """||f||_{U_d}^{2^d}: the inner product of the constant family {f}."""
    return gowers_inner_product_exact(IndexedFamily.constant(d, f), **guard)


# ---------------------------------------------------------------------------
# Norms, through the constant family
# ---------------------------------------------------------------------------


def test_norm_u1_is_absolute_mean():
    rng = np.random.default_rng(30)
    for _ in range(20):
        f = random_signs(3, rng)
        assert norm_pow(f, 1) == f.table.mean() ** 2


def test_norm_u2_of_characters_is_one():
    for n in (1, 2, 3):
        for mask in range(1 << n):
            assert norm_pow(parity(n, mask), 2) == 1.0


def test_norm_u2_power_equals_fourth_moment_of_spectrum():
    rng = np.random.default_rng(31)
    for _ in range(20):
        f = random_signs(3, rng)
        fourth = float(np.sum(wht(f) ** 4))
        assert norm_pow(f, 2) == fourth


def test_recursion_matches_definition_and_brute_force():
    rng = np.random.default_rng(32)
    for n in (1, 2, 3):
        for _ in range(6):
            f = random_signs(n, rng)
            for d in (1, 2, 3):
                rec = norm_pow(f, d)
                assert rec == definition_inner_product(IndexedFamily.constant(d, f))
                if n <= 2 and d <= 2:
                    assert rec == brute_norm_pow(f.table.tolist(), d)


def test_norm_guard_and_validation():
    f = random_signs(4, np.random.default_rng(33))
    with pytest.raises(GuardExceeded):
        norm_pow(f, 7, guard_bits=26)
    with pytest.raises(ValueError):
        norm_pow(f, 0)


# ---------------------------------------------------------------------------
# Indexed families
# ---------------------------------------------------------------------------


def test_indexed_family_validation():
    f = dictator(2, 1)
    for count in (3, 5):  # d = 2 needs 2^d = 4 members
        with pytest.raises(ValueError, match=rf"need 4 members \(2\^d\), got {count}"):
            IndexedFamily(2, [f] * count)
    with pytest.raises(ValueError, match="share one dimension"):
        IndexedFamily(2, [f, f, dictator(3, 1), f])
    for d in (0, -1):
        with pytest.raises(ValueError):
            IndexedFamily(d, [f])
        with pytest.raises(ValueError):
            IndexedFamily.constant(d, f)
    with pytest.raises(TypeError):  # members are ±1 functions, not raw tables
        IndexedFamily(2, [f, f, np.ones(4), f])
    with pytest.raises(TypeError):
        IndexedFamily.constant(2, np.ones(4))
    with pytest.raises(TypeError, match="got int"):  # a mask dict iterates as its masks
        IndexedFamily(2, {0: f})


def test_constant_indexed_family_shares_one_member():
    f = random_folded(4, 5)
    fam = IndexedFamily.constant(3, f)
    assert fam.d == 3 and fam.n == f.n == 4
    assert len(fam.members) == 8 and all(m is f for m in fam.members)


# ---------------------------------------------------------------------------
# Inner products
# ---------------------------------------------------------------------------


def test_inner_product_of_constant_family_is_norm_power():
    rng = np.random.default_rng(34)
    for d in (1, 2, 3):
        f = random_signs(2, rng)
        fam = IndexedFamily.constant(d, f)
        assert gowers_inner_product_exact(fam) == brute_norm_pow(f.table.tolist(), d)


def test_inner_product_with_one_nonconstant_character_is_zero():
    # E χ_α(x + x_1 + x_2) = 0 for α != 0, whatever the other members
    for alpha in range(1, 4):
        fam = IndexedFamily(2, [one(2), one(2), one(2), parity(2, alpha)])
        assert gowers_inner_product_exact(fam) == 0.0
        assert definition_inner_product(fam) == 0.0


def test_inner_product_exact_vs_mc_three_sigma():
    rng = np.random.default_rng(36)
    fam = IndexedFamily(2, [random_signs(2, rng) for _ in range(4)])
    exact = gowers_inner_product_exact(fam)
    est, se = gowers_inner_product_mc(fam, 200_000, 77)
    assert abs(est - exact) <= 3 * se + 1e-9


def per_mask_mc(fam, trials, seed):
    """gowers_inner_product_mc with each member's point XORed up from x anew,
    on rng.integers draws: chunk c holds the next _MC_CHUNK trials (or fewer)
    of the sub-stream (seed, c)."""
    total = total_sq = 0.0
    for c, start in enumerate(range(0, trials, _MC_CHUNK)):
        m = min(_MC_CHUNK, trials - start)
        rng = derive_rng(*seed_key(seed), c)
        draws = rng.integers(0, 1 << fam.n, size=(m, fam.d + 1))
        prod = np.ones(m)
        for mask, f in enumerate(fam.members):
            shift = draws[:, 0].copy()
            for i in range(fam.d):
                if mask >> i & 1:
                    shift ^= draws[:, 1 + i]
            prod = prod * f.table[shift]
        total += float(prod.sum())
        total_sq += float((prod**2).sum())
    mean = total / trials
    return mean, (max(total_sq / trials - mean**2, 0.0) / trials) ** 0.5


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_inner_product_mc_equals_the_per_mask_products(d):
    rng = np.random.default_rng(50 + d)
    fam = IndexedFamily(d, [random_signs(6, rng) for _ in range(1 << d)])
    assert gowers_inner_product_mc(fam, 70_000, d) == per_mask_mc(fam, 70_000, d)


@pytest.mark.parametrize("n, d", [(16, 3), (12, 5), (1, 2), (24, 2)])
def test_gowers_mc_draws_without_calling_integers(n, d, no_integers):
    """The MC route reads the same pinned stream without Generator.integers,
    over full chunks and a partial one."""
    count = 1 << d if n < 20 else 1  # one member at n = 24 keeps the tables small
    members = [random_folded(n, (n, d, j)) for j in range(count)]
    fam = IndexedFamily(d, members * ((1 << d) // count))
    trials = 2 * _MC_CHUNK + 7
    for seed in (0, 123, (5, 1)):
        assert gowers_inner_product_mc(fam, trials, seed) == per_mask_mc(fam, trials, seed)
    with pytest.raises(AssertionError, match="integers was called"):
        rng_module.derive_rng(0).integers(0, 2)


def test_inner_product_exact_refuses_over_guard_where_mc_runs():
    f = random_folded(5, 1)
    fam = IndexedFamily.constant(5, f)  # (5+1)*5 = 30 bits > guard
    value, _ = gowers_inner_product_mc(fam, 5_000, 3)
    assert -1.0 <= value <= 1.0
    with pytest.raises(GuardExceeded):
        gowers_inner_product_exact(fam, guard_bits=26)


def sign_families(d, n, seed):
    rng = np.random.default_rng(seed)
    signs = [random_signs(n, rng) for _ in range(1 << d)]
    constants = [random_folded(n, (seed, d)), parity(n, (1 << n) - 1), dictator(n, n)]
    return [IndexedFamily(d, signs)] + [IndexedFamily.constant(d, f) for f in constants]


def test_inner_products_equal_definition_exactly_on_sign_families():
    for d in (1, 2, 3, 4):
        for n in (1, 2, 3):
            for fam in sign_families(d, n, 10 * d + n):
                assert gowers_inner_product_exact(fam) == definition_inner_product(fam)
                linear = linear_inner_product(fam)
                assert linear == definition_linear_inner_product(fam)


@st.composite
def small_indexed_families(draw):
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    tables = draw(st.lists(
        st.lists(st.sampled_from([-1, 1]), min_size=1 << n, max_size=1 << n),
        min_size=1 << d, max_size=1 << d))
    return IndexedFamily(d, [BooleanFunction(n, t) for t in tables])


@settings(max_examples=80, deadline=None)
@given(small_indexed_families())
def test_inner_products_match_definition_property(fam):
    assert gowers_inner_product_exact(fam) == definition_inner_product(fam)
    assert linear_inner_product(fam) == definition_linear_inner_product(fam)


def recorded_count_dtypes(monkeypatch, forced=None):
    """The dtypes gowers._count_dtype picks from now on; ``forced`` overrides them."""
    chosen, count_dtype = [], gowers._count_dtype

    def pick(bits):
        chosen.append(forced or count_dtype(bits))
        return chosen[-1]

    monkeypatch.setattr(gowers, "_count_dtype", pick)
    return chosen


def test_inner_product_exact_in_python_ints_equals_int64(monkeypatch):
    """The U_2 bottom sums switch to Python ints past 62 bits; forced there,
    the total must equal the int64 total and the definition."""
    cases = [fam for d in (2, 3) for n in (1, 2, 3)
             for fam in sign_families(d, n, 60 + 10 * d + n)]
    chosen = recorded_count_dtypes(monkeypatch)
    expected = [gowers_inner_product_exact(fam) for fam in cases]
    assert set(chosen) == {np.int64}
    forced = recorded_count_dtypes(monkeypatch, object)
    for fam, value in zip(cases, expected):
        assert gowers_inner_product_exact(fam) == value == definition_inner_product(fam)
    assert len(forced) >= len(cases)  # every total ran through a Python-int bottom


@pytest.mark.parametrize("d, n", [(2, 15), (2, 16), (3, 4)])
def test_u2_sums_switch_to_python_ints_only_past_62_bits(d, n, monkeypatch):
    """A character family reaches each bottom sum's bound b·2^{4n}, so the
    switch point matters: at d = 2 the one sum is 2^{4n}, in int64 up to
    n = 15 and on Python ints from n = 16; both must read exactly 1."""
    chosen = recorded_count_dtypes(monkeypatch)
    fam = IndexedFamily.constant(d, parity(n, (1 << n) - 1))
    assert gowers_inner_product_exact(fam, guard_bits=(d + 1) * n) == 1.0
    assert set(chosen) == {object if 4 * n + 1 > 62 else np.int64}


def test_linear_inner_product_all_dictators_is_one():
    for d in (2, 3):
        fam = IndexedFamily.constant(d, dictator(3, 2))
        assert linear_inner_product(fam) == 1.0


def test_linear_inner_product_single_character_member():
    # only the full-set member is a nontrivial character: expectation 0
    fam = IndexedFamily(2, [one(2), one(2), one(2), parity(2, 3)])
    assert linear_inner_product(fam) == 0.0


def test_linear_inner_product_matches_brute_force():
    rng = np.random.default_rng(37)
    for _ in range(10):
        stack = rng.integers(-3, 4, size=(1, 4, 4))
        brute = brute_linear_inner(stack[0].tolist(), 2)
        assert gowers._linear_sum(stack) / 2 ** (3 * 2) == brute


def brute_linear_sum(tables, d):
    """Σ over (x_1..x_d) of Π_S tables[S][Σ_{i∈S} x_i], one tuple at a time."""
    total = 0
    for shifts in itertools.product(range(len(tables[0])), repeat=d):
        prod = 1
        for mask, point in enumerate(subset_shifts(shifts, d)):
            prod *= tables[mask][point]
        total += prod
    return total


def test_linear_sums_of_integer_members_equal_brute_force():
    """{-1, 0, 1} members give 2^n times the exact sum in int64; wider integer
    members give it in Python ints, and that sum modulo 2^64 in wrapping
    int64."""
    rng = np.random.default_rng(42)
    for d in (1, 2, 3, 4):
        for n in (1, 2):
            for _ in range(2):
                small = rng.integers(-1, 2, size=(1, 1 << d, 1 << n))
                expected = brute_linear_sum(small[0].tolist(), d) << n
                assert gowers._linear_sum(small) == expected
                wide = rng.integers(0, 1 << 20, size=(1, 1 << d, 1 << n))
                expected = brute_linear_sum(wide[0].tolist(), d) << n
                assert gowers._linear_sum(wide.astype(object)) == expected
                assert gowers._linear_sum(wide) % (1 << 64) == expected % (1 << 64)


def test_linear_inner_product_is_multilinear():
    rng = np.random.default_rng(38)
    stack = rng.integers(-5, 6, size=(1, 4, 4))
    base = gowers._linear_sum(stack)
    for mask in range(4):
        for c in (0, 3, -2, -1):
            scaled = stack.copy()
            scaled[0, mask] *= c
            assert gowers._linear_sum(scaled) == c * base


# ---------------------------------------------------------------------------
# Influential-pair decoder
# ---------------------------------------------------------------------------


def test_decoder_all_dictators():
    fam = IndexedFamily.constant(2, dictator(4, 2))
    found = find_influential_pair(fam.members, None, 0.5)
    assert found is not None
    s_mask, t_mask, coord = found
    assert s_mask != t_mask
    assert coord == 2


def test_decoder_constant_family_returns_none():
    fam = IndexedFamily.constant(2, one(3))
    assert find_influential_pair(fam.members, None, 0.2) is None
    assert find_influential_pair(fam.members, 2, 0.2) is None


def test_decoder_planted_noisy_dictator():
    planted = noisy_dictator(6, 3, 0.05, 1234)
    members = [random_folded(6, (40, 0)), planted, random_folded(6, (40, 2)), planted]
    fam = IndexedFamily(2, members)
    found = find_influential_pair(fam.members, 2, 0.2)
    assert found == (1, 3, 3)
    # refolding mirrors each of the m half-table flips, so f^({3}) is exactly
    # 1 - 4m/2^6; the degree-1 term alone clears the 0.2 decoder threshold
    m = int(np.count_nonzero(planted.table[1::2] != dictator(6, 3).table[1::2]))
    singleton_sq = wht(planted)[1 << 2] ** 2
    assert singleton_sq == (1 - 4 * m / 2**6) ** 2
    assert singleton_sq >= 0.2
    assert low_degree_influence(spectrum_counts(planted), 3, 2) >= 0.2


def decode_per_coordinate(fam, w, tau):
    """The decoder with one influence call per (member, coordinate); the
    reference for find_influential_pair."""
    spectra = [spectrum_counts(m) for m in fam.members]
    best, best_value = None, tau
    for i in range(1, fam.n + 1):
        values = [influence(s, i) if w is None else low_degree_influence(s, i, w)
                  for s in spectra]
        order = sorted(range(len(values)), key=lambda m: (-values[m], m))
        s_mask, t_mask = sorted(order[:2])
        pair_value = min(values[s_mask], values[t_mask])
        if pair_value > best_value or (pair_value == best_value and best is None):
            best, best_value = (s_mask, t_mask, i), pair_value
    return best


def decoder_families():
    rng = np.random.default_rng(41)
    planted = noisy_dictator(6, 4, 0.1, 7)
    yield IndexedFamily(2, [random_folded(6, 1), planted, one(6), planted])
    yield IndexedFamily(3, [random_signs(5, rng) for _ in range(8)])
    yield IndexedFamily.constant(2, parity(4, 0b0110))


def test_decoder_equals_per_coordinate_decoder():
    for fam in decoder_families():
        for w in (None, *range(fam.n + 1)):
            for tau in (1e-9, 0.05, 0.2, 0.5):
                assert find_influential_pair(fam.members, w, tau) == decode_per_coordinate(fam, w, tau)


def test_decoder_builds_one_weight_table_per_spectrum(monkeypatch):
    """Influences come from fourier.influences: hamming_weights is built at
    most once per member spectrum, and no per-coordinate sum is called."""
    expected = {(i, w): decode_per_coordinate(fam, w, 0.05)
                for i, fam in enumerate(decoder_families()) for w in (None, 2)}
    calls = []
    weights = fourier.hamming_weights
    monkeypatch.setattr(fourier, "hamming_weights", lambda n: calls.append(n) or weights(n))

    def refuse(*args):
        raise AssertionError("per-coordinate influence called")

    for module in (fourier, gowers):
        for name in ("influence", "low_degree_influence"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for i, fam in enumerate(decoder_families()):
        for w in (None, 2):
            calls.clear()
            assert find_influential_pair(fam.members, w, 0.05) == expected[i, w]
            assert len(calls) <= (0 if w is None else len(fam.members))


def test_decoder_rejects_nonpositive_threshold():
    fam = IndexedFamily.constant(2, dictator(3, 1))
    for tau in (0.0, -0.5, float("nan"), float("inf")):  # no influence beats nan or inf
        with pytest.raises(ValueError):
            find_influential_pair(fam.members, None, tau)


def test_decoder_rejects_fewer_than_two_members_or_mixed_cubes():
    for members in ([], [dictator(3, 1)], [dictator(3, 1), dictator(4, 1)]):
        with pytest.raises(ValueError):
            find_influential_pair(members, None, 0.5)


def test_decoder_transforms_each_distinct_member_once(monkeypatch):
    members, _ = planted_decoder_family(3, 14, 2, 0.05, 1)
    distinct = {id(m) for m in members}
    assert len(distinct) < len(members)  # the planted pair shares a member
    expected = find_influential_pair(members, None, 0.05)
    calls = []
    counts = gowers.spectrum_counts
    monkeypatch.setattr(gowers, "spectrum_counts", lambda f: calls.append(id(f)) or counts(f))
    assert find_influential_pair(members, None, 0.05) == expected
    assert sorted(calls) == sorted(distinct)


@pytest.mark.parametrize("j", [1, 4])
def test_decoder_runs_on_a_function_family(j):
    """A FunctionFamily's members are a member sequence too."""
    fam = FunctionFamily(complete_hypergraph(3), [dictator(5, j)] * 7)
    found = find_influential_pair(fam.members, None, 0.5)
    assert found == (0, 1, j)
