import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictatest import (
    GuardExceeded,
    IndexedFamily,
    RealPointFunction,
    find_influential_pair,
    gowers_inner_product_exact,
    gowers_inner_product_mc,
    influence,
    linear_gowers_inner_product_exact,
    linear_gowers_inner_product_mc,
    low_degree_influence,
    wht,
)
from dictatest import fourier, gowers
from dictatest.families import dictator, noisy_dictator, parity, random_folded


def random_real(n, rng):
    return RealPointFunction(n, rng.uniform(-1, 1, size=1 << n))


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


def norm_pow(f, d, **guard):
    """||f||_{U_d}^{2^d}: the inner product of the constant family {f}."""
    return gowers_inner_product_exact(IndexedFamily.constant(d, f), **guard)


# ---------------------------------------------------------------------------
# Norms, through the constant family
# ---------------------------------------------------------------------------


def test_norm_u1_is_absolute_mean():
    rng = np.random.default_rng(30)
    for _ in range(20):
        f = random_real(3, rng)
        assert abs(norm_pow(f, 1) - f.table.mean() ** 2) <= 1e-12


def test_norm_u2_of_characters_is_one():
    for n in (1, 2, 3):
        for mask in range(1 << n):
            assert abs(norm_pow(parity(n, mask), 2) - 1.0) <= 1e-12


def test_norm_u2_power_equals_fourth_moment_of_spectrum():
    rng = np.random.default_rng(31)
    for _ in range(20):
        f = random_real(3, rng)
        fourth = float(np.sum(wht(f).coeffs ** 4))
        assert abs(norm_pow(f, 2) - fourth) <= 1e-10


def test_recursion_matches_definition_and_brute_force():
    rng = np.random.default_rng(32)
    for n in (1, 2, 3):
        for _ in range(6):
            f = random_real(n, rng)
            for d in (1, 2, 3):
                rec = norm_pow(f, d)
                enum = definition_inner_product(IndexedFamily.constant(d, f))
                assert abs(rec - enum) <= 1e-10
                if n <= 2 and d <= 2:
                    assert abs(rec - brute_norm_pow(list(f.table), d)) <= 1e-10


def test_norm_guard_and_validation():
    f = random_real(4, np.random.default_rng(33))
    with pytest.raises(GuardExceeded):
        norm_pow(f, 7, guard_bits=26)
    with pytest.raises(ValueError):
        norm_pow(f, 0)


# ---------------------------------------------------------------------------
# Indexed families
# ---------------------------------------------------------------------------


def test_indexed_family_defaults_missing_members_to_one():
    fam = IndexedFamily(2, 3, {0: dictator(3, 1)})
    assert len(fam.members) == 4
    assert np.array_equal(fam.members[0].table, dictator(3, 1).table)
    for mask in (1, 2, 3):
        assert np.all(fam.members[mask].table == 1.0)


def test_indexed_family_validation():
    with pytest.raises(ValueError):
        IndexedFamily(2, 2, {5: dictator(2, 1)})
    with pytest.raises(ValueError):
        IndexedFamily(2, 2, {0: dictator(3, 1)})
    with pytest.raises(ValueError):
        IndexedFamily(0, 2)


# ---------------------------------------------------------------------------
# Inner products
# ---------------------------------------------------------------------------


def test_inner_product_of_constant_family_is_norm_power():
    rng = np.random.default_rng(34)
    for d in (1, 2, 3):
        f = random_real(2, rng)
        fam = IndexedFamily.constant(d, f)
        assert abs(
            gowers_inner_product_exact(fam) - brute_norm_pow(list(f.table), d)
        ) <= 1e-10


def test_inner_product_zero_member_kills_product():
    f = random_real(2, np.random.default_rng(35))
    fam = IndexedFamily(2, 2, {0: f, 1: RealPointFunction(2, np.zeros(4)), 2: f, 3: f})
    assert gowers_inner_product_exact(fam) == 0.0


def test_inner_product_exact_vs_mc_three_sigma():
    rng = np.random.default_rng(36)
    fam = IndexedFamily(2, 2, {m: random_real(2, rng) for m in range(4)})
    exact = gowers_inner_product_exact(fam)
    est, se = gowers_inner_product_mc(fam, 200_000, 77)
    assert abs(est - exact) <= 3 * se + 1e-9


def test_inner_product_exact_refuses_over_guard_where_mc_runs():
    f = random_folded(5, 1)
    fam = IndexedFamily.constant(5, f)  # (5+1)*5 = 30 bits > guard
    value, _ = gowers_inner_product_mc(fam, 5_000, 3)
    assert -1.0 <= value <= 1.0
    with pytest.raises(GuardExceeded):
        gowers_inner_product_exact(fam, guard_bits=26)


def sign_families(d, n, seed):
    rng = np.random.default_rng(seed)
    signs = {m: RealPointFunction(n, 1 - 2 * rng.integers(0, 2, size=1 << n))
             for m in range(1 << d)}
    constants = [random_folded(n, (seed, d)), parity(n, (1 << n) - 1), dictator(n, n)]
    return [IndexedFamily(d, n, signs)] + [IndexedFamily.constant(d, f) for f in constants]


def test_inner_products_equal_definition_exactly_on_sign_families():
    for d in (1, 2, 3, 4):
        for n in (1, 2, 3):
            for fam in sign_families(d, n, 10 * d + n):
                assert gowers_inner_product_exact(fam) == definition_inner_product(fam)
                linear = linear_gowers_inner_product_exact(fam)
                assert linear == definition_linear_inner_product(fam)


def test_inner_products_match_definition_on_real_families():
    rng = np.random.default_rng(41)
    for d in (1, 2, 3, 4):
        for n in (1, 2, 3):
            fam = IndexedFamily(d, n, {m: random_real(n, rng) for m in range(1 << d)})
            exact = gowers_inner_product_exact(fam)
            assert abs(exact - definition_inner_product(fam)) <= 1e-12
            linear = linear_gowers_inner_product_exact(fam)
            assert abs(linear - definition_linear_inner_product(fam)) <= 1e-12


@st.composite
def small_indexed_families(draw):
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = st.sampled_from([-1.0, 1.0]) if draw(st.booleans()) else st.floats(-1, 1)
    tables = draw(st.lists(st.lists(values, min_size=1 << n, max_size=1 << n),
                           min_size=1 << d, max_size=1 << d))
    return IndexedFamily(d, n, {m: RealPointFunction(n, t) for m, t in enumerate(tables)})


@settings(max_examples=80, deadline=None)
@given(small_indexed_families())
def test_inner_products_match_definition_property(fam):
    signs = all(np.all(np.abs(m.table) == 1.0) for m in fam.members)
    tolerance = 0.0 if signs else 1e-12
    exact = gowers_inner_product_exact(fam)
    assert abs(exact - definition_inner_product(fam)) <= tolerance
    linear = linear_gowers_inner_product_exact(fam)
    assert abs(linear - definition_linear_inner_product(fam)) <= tolerance


def test_linear_inner_product_all_dictators_is_one():
    for d in (2, 3):
        fam = IndexedFamily.constant(d, dictator(3, 2))
        assert abs(linear_gowers_inner_product_exact(fam) - 1.0) <= 1e-12


def test_linear_inner_product_single_character_member():
    # only the full-set member is a nontrivial character: expectation 0
    fam = IndexedFamily(2, 2, {3: parity(2, 3)})
    assert abs(linear_gowers_inner_product_exact(fam)) <= 1e-12


def test_linear_inner_product_matches_brute_force():
    rng = np.random.default_rng(37)
    for _ in range(10):
        fam = IndexedFamily(2, 2, {m: random_real(2, rng) for m in range(4)})
        brute = brute_linear_inner([list(m.table) for m in fam.members], 2)
        assert abs(linear_gowers_inner_product_exact(fam) - brute) <= 1e-12


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
    """{-1, 0, 1} members keep every sum an exact float; wider integer members
    give 2^n times the exact sum in Python ints, and that sum modulo 2^64 in
    wrapping int64."""
    rng = np.random.default_rng(42)
    for d in (1, 2, 3, 4):
        for n in (1, 2):
            for _ in range(2):
                tables = rng.integers(-1, 2, size=(1 << d, 1 << n)).astype(np.float64)
                fam = IndexedFamily(d, n, {m: RealPointFunction(n, t) for m, t in enumerate(tables)})
                expected = brute_linear_sum(tables.astype(np.int64).tolist(), d)
                assert linear_gowers_inner_product_exact(fam) == expected / 2 ** (d * n)
                wide = rng.integers(0, 1 << 20, size=(1, 1 << d, 1 << n))
                expected = brute_linear_sum(wide[0].tolist(), d) << n
                assert gowers._linear_sum(wide.astype(object)) == expected
                assert gowers._linear_sum(wide) % (1 << 64) == expected % (1 << 64)


def test_linear_inner_product_is_multilinear():
    rng = np.random.default_rng(38)
    fam = IndexedFamily(2, 2, {m: random_real(2, rng) for m in range(4)})
    base = linear_gowers_inner_product_exact(fam)
    for c in (0.0, 0.5, -1.0):
        members = dict(enumerate(fam.members))
        members[2] = RealPointFunction(2, c * fam.members[2].table)
        scaled = IndexedFamily(2, 2, members)
        value = linear_gowers_inner_product_exact(scaled)
        assert abs(value - c * base) <= 1e-12


def test_linear_inner_product_mc_consistent():
    rng = np.random.default_rng(39)
    fam = IndexedFamily(2, 2, {m: random_real(2, rng) for m in range(4)})
    exact = linear_gowers_inner_product_exact(fam)
    est, se = linear_gowers_inner_product_mc(fam, 200_000, 5)
    assert abs(est - exact) <= 3 * se + 1e-9


# ---------------------------------------------------------------------------
# Influential-pair decoder
# ---------------------------------------------------------------------------


def test_decoder_all_dictators():
    fam = IndexedFamily.constant(2, dictator(4, 2))
    found = find_influential_pair(fam, None, 0.5)
    assert found is not None
    s_mask, t_mask, coord = found
    assert s_mask != t_mask
    assert coord == 2


def test_decoder_constant_family_returns_none():
    fam = IndexedFamily(2, 3)  # all members default to constant 1
    assert find_influential_pair(fam, None, 0.2) is None
    assert find_influential_pair(fam, 2, 0.2) is None


def test_decoder_planted_noisy_dictator():
    planted = noisy_dictator(6, 3, 0.05, 1234)
    members = {
        0: random_folded(6, (40, 0)),
        1: planted,
        2: random_folded(6, (40, 2)),
        3: planted,
    }
    fam = IndexedFamily(2, 6, members)
    found = find_influential_pair(fam, 2, 0.2)
    assert found == (1, 3, 3)
    # refolding mirrors each of the m half-table flips, so f^({3}) is exactly
    # 1 - 4m/2^6; the degree-1 term alone clears the 0.2 decoder threshold
    from dictatest import low_degree_influence

    m = int(np.count_nonzero(planted.table[1::2] != dictator(6, 3).table[1::2]))
    singleton_sq = wht(planted).coeffs[1 << 2] ** 2
    assert singleton_sq == (1 - 4 * m / 2**6) ** 2
    assert singleton_sq >= 0.2
    assert low_degree_influence(wht(planted), 3, 2) >= 0.2


def decode_per_coordinate(fam, w, tau):
    """The decoder with one influence call per (member, coordinate); the
    reference for find_influential_pair."""
    spectra = [wht(m) for m in fam.members]
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
    yield IndexedFamily(2, 6, {0: random_folded(6, 1), 1: planted, 3: planted})
    yield IndexedFamily(3, 5, {m: random_real(5, rng) for m in range(8)})
    yield IndexedFamily.constant(2, parity(4, 0b0110))


def test_decoder_equals_per_coordinate_decoder():
    for fam in decoder_families():
        for w in (None, *range(fam.n + 1)):
            for tau in (1e-9, 0.05, 0.2, 0.5):
                assert find_influential_pair(fam, w, tau) == decode_per_coordinate(fam, w, tau)


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
            assert find_influential_pair(fam, w, 0.05) == expected[i, w]
            assert len(calls) <= (0 if w is None else len(fam.members))


def test_decoder_rejects_nonpositive_threshold():
    fam = IndexedFamily.constant(2, dictator(3, 1))
    with pytest.raises(ValueError):
        find_influential_pair(fam, None, 0.0)
