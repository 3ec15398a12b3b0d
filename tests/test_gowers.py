import itertools

import numpy as np
import pytest

from dictatest import (
    GuardExceeded,
    IndexedFamily,
    RealPointFunction,
    find_influential_pair,
    gowers_inner_product,
    gowers_inner_product_exact,
    gowers_inner_product_mc,
    gowers_norm,
    gowers_norm_pow,
    linear_gowers_inner_product,
    linear_gowers_inner_product_exact,
    linear_gowers_inner_product_mc,
    wht,
)
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


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def test_norm_u1_is_absolute_mean():
    rng = np.random.default_rng(30)
    for _ in range(20):
        f = random_real(3, rng)
        assert abs(gowers_norm(f, 1) - abs(f.mean())) <= 1e-12


def test_norm_u2_of_characters_is_one():
    for n in (1, 2, 3):
        for mask in range(1 << n):
            assert abs(gowers_norm(parity(n, mask), 2) - 1.0) <= 1e-12


def test_norm_u2_power_equals_fourth_moment_of_spectrum():
    rng = np.random.default_rng(31)
    for _ in range(20):
        f = random_real(3, rng)
        fourth = float(np.sum(wht(f).coeffs ** 4))
        assert abs(gowers_norm_pow(f, 2) - fourth) <= 1e-10


def test_recursion_matches_definition_and_brute_force():
    rng = np.random.default_rng(32)
    for n in (1, 2, 3):
        for _ in range(6):
            f = random_real(n, rng)
            for d in (1, 2, 3):
                rec = gowers_norm_pow(f, d)
                enum = gowers_inner_product_exact(IndexedFamily.constant(d, f))
                assert abs(rec - enum) <= 1e-10
                if n <= 2 and d <= 2:
                    assert abs(rec - brute_norm_pow(list(f.table), d)) <= 1e-10


def test_norm_guard_and_validation():
    f = random_real(4, np.random.default_rng(33))
    with pytest.raises(GuardExceeded):
        gowers_norm(f, 7, guard_bits=26)
    with pytest.raises(ValueError):
        gowers_norm(f, 0)


# ---------------------------------------------------------------------------
# Indexed families
# ---------------------------------------------------------------------------


def test_indexed_family_defaults_missing_members_to_one():
    fam = IndexedFamily(2, 3, {0: dictator(3, 1)})
    assert len(fam.members) == 4
    assert fam.defaulted == frozenset({1, 2, 3})
    for mask in (1, 2, 3):
        assert np.all(fam.member(mask).table == 1.0)


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
            gowers_inner_product_exact(fam) - gowers_norm_pow(f, d)
        ) <= 1e-10


def test_inner_product_zero_member_kills_product():
    fam = IndexedFamily.constant(2, random_real(2, np.random.default_rng(35)))
    fam = fam.replace(1, RealPointFunction(2, np.zeros(4)))
    assert gowers_inner_product_exact(fam) == 0.0


def test_inner_product_exact_vs_mc_three_sigma():
    rng = np.random.default_rng(36)
    fam = IndexedFamily(2, 2, {m: random_real(2, rng) for m in range(4)})
    exact = gowers_inner_product_exact(fam)
    est, se = gowers_inner_product_mc(fam, 200_000, 77)
    assert abs(est - exact) <= 3 * se + 1e-9


def test_inner_product_dispatcher_falls_back_to_mc():
    f = random_folded(5, 1)
    fam = IndexedFamily.constant(5, f)  # (5+1)*5 = 30 bits > guard
    value = gowers_inner_product(fam, guard_bits=26, trials=5_000, seed=3)
    assert -1.0 <= value <= 1.0
    with pytest.raises(GuardExceeded):
        gowers_inner_product_exact(fam, guard_bits=26)


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


def test_linear_inner_product_is_multilinear():
    rng = np.random.default_rng(38)
    fam = IndexedFamily(2, 2, {m: random_real(2, rng) for m in range(4)})
    base = linear_gowers_inner_product_exact(fam)
    for c in (0.0, 0.5, -1.0):
        scaled = fam.replace(2, RealPointFunction(2, c * fam.member(2).table))
        value = linear_gowers_inner_product_exact(scaled)
        assert abs(value - c * base) <= 1e-12


def test_linear_inner_product_mc_consistent():
    rng = np.random.default_rng(39)
    fam = IndexedFamily(2, 2, {m: random_real(2, rng) for m in range(4)})
    exact = linear_gowers_inner_product_exact(fam)
    est, se = linear_gowers_inner_product_mc(fam, 200_000, 5)
    assert abs(est - exact) <= 3 * se + 1e-9
    assert linear_gowers_inner_product(fam) == exact


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


def test_decoder_rejects_nonpositive_threshold():
    fam = IndexedFamily.constant(2, dictator(3, 1))
    with pytest.raises(ValueError):
        find_influential_pair(fam, None, 0.0)
