import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictatest import (
    BooleanFunction,
    RealPointFunction,
    Spectrum,
    influence,
    low_degree_influence,
    spectrum_counts,
    subset_zeta,
    wht,
)
from dictatest.families import dictator, parity, random_folded
from dictatest.fourier import _butterfly, _subset_sums, hamming_weights, influences


def influence_combinatorial(f, i):
    """Pr_x[f(x) != f(x + e_i)]; the reference for the spectral influence."""
    idx = np.arange(1 << f.n)
    flipped = f.table[idx ^ (1 << (i - 1))]
    return int(np.count_nonzero(flipped != f.table)) / (1 << f.n)


def inverse_wht(s):
    """f(x) = Σ_α coeffs[α] χ_α(x): the unnormalized butterfly of the spectrum."""
    return _butterfly(s.coeffs)


def naive_wht(table):
    """Definition-level transform: coeffs[α] = 2^-n Σ_x f(x) (-1)^{<α,x>}."""
    size = len(table)
    out = np.zeros(size)
    for alpha in range(size):
        for x in range(size):
            out[alpha] += table[x] * (-1) ** bin(alpha & x).count("1")
    return out / size


def random_boolean(n, rng):
    return BooleanFunction(n, 1 - 2 * rng.integers(0, 2, size=1 << n))


# ---------------------------------------------------------------------------
# Transform
# ---------------------------------------------------------------------------


def test_wht_dictator_single_coefficient():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            coeffs = wht(dictator(n, i)).coeffs
            expected = np.zeros(1 << n)
            expected[1 << (i - 1)] = 1.0
            assert np.array_equal(coeffs, expected)


def test_wht_constant():
    f = BooleanFunction(3, np.ones(8, dtype=np.int8))
    coeffs = wht(f).coeffs
    assert coeffs[0] == 1.0
    assert np.all(coeffs[1:] == 0.0)


def test_wht_worked_example_n2():
    f = BooleanFunction(2, np.array([1, 1, 1, -1], dtype=np.int8))
    assert list(wht(f).coeffs) == [0.5, 0.5, 0.5, -0.5]


def test_wht_matches_naive_definition():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        for _ in range(10):
            f = random_boolean(n, rng)
            assert np.allclose(wht(f).coeffs, naive_wht(f.table), atol=1e-12)
            g = RealPointFunction(n, rng.uniform(-1, 1, size=1 << n))
            assert np.allclose(wht(g).coeffs, naive_wht(g.table), atol=1e-12)


def copying_butterfly(values):
    """The butterfly that copies each stage's low half; the reference for
    _butterfly, which must give the same array bit for bit."""
    out = values.copy()
    width = 1
    while width < out.shape[-1]:
        view = out.reshape(-1, 2 * width)
        low = view[:, :width].copy()
        high = view[:, width:]
        view[:, :width] = low + high
        view[:, width:] = low - high
        width *= 2
    return out


def assert_butterfly_matches_copying(values):
    before = values.copy()
    out = _butterfly(values)
    expected = copying_butterfly(values)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert np.array_equal(out, expected)
    if out.dtype != object:  # bytes also tell -0.0 from 0.0
        assert out.tobytes() == expected.tobytes()
    assert np.array_equal(values, before)  # the input is left unchanged


@pytest.mark.parametrize("n", range(1, 13))
def test_butterfly_equals_copying_butterfly(n):
    rng = np.random.default_rng(100 + n)
    size = 1 << n
    for shape in ((size,), (3, 4, size)):  # one table; a Gowers (batch, member) stack
        assert_butterfly_matches_copying(rng.integers(-(1 << 20), 1 << 20, size=shape))
        assert_butterfly_matches_copying(rng.uniform(-1, 1, size=shape))
        assert_butterfly_matches_copying(1 - 2 * rng.integers(0, 2, size=shape))
        assert_butterfly_matches_copying(1.0 - 2 * rng.integers(0, 2, size=shape))
        assert_butterfly_matches_copying(rng.choice([-0.0, 0.0, -1.0, 1.0], size=shape))


def test_butterfly_equals_copying_butterfly_on_python_ints_past_2_63():
    # the object-dtype path basic_test_prob_exact takes past 62 bits
    rng = np.random.default_rng(99)
    for n in (1, 4, 7):
        values = np.array([int(v) << 70 for v in rng.integers(-(1 << 20), 1 << 20, 1 << n)],
                          dtype=object)
        out = _butterfly(values)
        assert all(type(v) is int for v in out)
        assert max(abs(v) for v in out) > 1 << 63
        assert_butterfly_matches_copying(values)


def test_butterfly_equals_copying_butterfly_at_n20():
    rng = np.random.default_rng(2020)
    assert_butterfly_matches_copying(1.0 - 2 * rng.integers(0, 2, size=1 << 20))
    assert_butterfly_matches_copying(rng.uniform(-1, 1, size=1 << 20))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10).flatmap(lambda n: st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=1 << n, max_size=1 << n)))
def test_butterfly_equals_copying_butterfly_property(table):
    assert_butterfly_matches_copying(np.array(table, dtype=np.float64))


def test_spectrum_counts_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = random_boolean(4, rng)
        assert np.array_equal(spectrum_counts(f), wht(f).coeffs * 16)


def test_parseval_boolean():
    rng = np.random.default_rng(12)
    for n in (1, 3, 5):
        for _ in range(10):
            assert abs(np.sum(wht(random_boolean(n, rng)).coeffs ** 2) - 1.0) <= 1e-9


def test_inverse_single_coefficient_gives_character():
    for n in (1, 2, 3):
        for alpha in range(1 << n):
            coeffs = np.zeros(1 << n)
            coeffs[alpha] = 1.0
            table = inverse_wht(Spectrum(n, coeffs))
            assert np.array_equal(table, parity(n, alpha).table.astype(float))


def test_inverse_roundtrip_100_random_tables():
    rng = np.random.default_rng(13)
    for _ in range(100):
        f = RealPointFunction(4, rng.uniform(-1, 1, size=16))
        back = inverse_wht(wht(f))
        assert np.max(np.abs(back - f.table)) <= 1e-12


def test_inverse_zero_spectrum():
    out = inverse_wht(Spectrum(3, np.zeros(8)))
    assert np.all(out == 0.0)


def test_folded_zero_mode_is_exactly_zero():
    for seed in range(20):
        f = random_folded(4, seed)
        assert wht(f).coeffs[0] == 0.0


# ---------------------------------------------------------------------------
# Influence
# ---------------------------------------------------------------------------


def test_influence_dictator_and_parity():
    f = dictator(4, 2)
    s = wht(f)
    for i in range(1, 5):
        assert influence(s, i) == (1.0 if i == 2 else 0.0)
    g = wht(parity(4, {1, 3}))
    for i in range(1, 5):
        assert influence(g, i) == (1.0 if i in (1, 3) else 0.0)


def test_influence_worked_example():
    s = wht(BooleanFunction(2, np.array([1, 1, 1, -1], dtype=np.int8)))
    assert influence(s, 1) == 0.5


def test_influence_combinatorial_examples():
    assert influence_combinatorial(dictator(3, 2), 2) == 1.0
    const = BooleanFunction(3, np.ones(8, dtype=np.int8))
    for i in (1, 2, 3):
        assert influence_combinatorial(const, i) == 0.0


def test_influence_two_definitions_agree_exactly():
    rng = np.random.default_rng(14)
    for _ in range(200):
        f = random_boolean(4, rng)
        s = wht(f)
        for i in range(1, 5):
            assert influence(s, i) == influence_combinatorial(f, i)


def test_influence_coordinate_range():
    s = wht(dictator(3, 1))
    with pytest.raises(ValueError):
        influence(s, 0)
    with pytest.raises(ValueError):
        influence(s, 4)


def test_low_degree_influence_full_parity_vanishes():
    for n in (2, 3, 4):
        s = wht(parity(n, (1 << n) - 1))
        for i in range(1, n + 1):
            assert low_degree_influence(s, i, 1) == 0.0
            assert low_degree_influence(s, i, n - 1) == 0.0


def test_low_degree_influence_dictator():
    s = wht(dictator(4, 3))
    assert low_degree_influence(s, 3, 1) == 1.0


def test_low_degree_influence_monotone_and_caps_at_full():
    rng = np.random.default_rng(15)
    for _ in range(20):
        f = random_boolean(4, rng)
        s = wht(f)
        for i in range(1, 5):
            values = [low_degree_influence(s, i, w) for w in range(5)]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
            assert values[-1] == influence(s, i)


def influence_by_mask(s, i, w=None):
    """One coordinate at a time, by a boolean mask over every index; the
    reference for influences."""
    alphas = np.arange(1 << s.n)
    sel = (alphas >> (i - 1)) & 1 == 1
    if w is not None:
        sel &= hamming_weights(s.n) <= w
    return float(np.sum(s.coeffs[sel] ** 2))


@pytest.mark.parametrize("n", range(1, 13))
def test_influences_equal_the_per_coordinate_masked_sums(n):
    rng = np.random.default_rng(200 + n)
    for f in (random_boolean(n, rng), RealPointFunction(n, rng.uniform(-1, 1, size=1 << n))):
        s = wht(f)
        for w in (None, *range(n + 1)):
            expected = [influence_by_mask(s, i, w) for i in range(1, n + 1)]
            assert influences(s, w) == expected
            if w is None:
                assert [influence(s, i) for i in range(1, n + 1)] == expected
            else:
                assert [low_degree_influence(s, i, w) for i in range(1, n + 1)] == expected


def test_low_degree_influence_range_checks():
    s = wht(dictator(3, 1))
    with pytest.raises(ValueError):
        low_degree_influence(s, 1, 4)
    with pytest.raises(ValueError):
        low_degree_influence(s, 1, -1)


# ---------------------------------------------------------------------------
# Subset zeta
# ---------------------------------------------------------------------------


def naive_subset_sums(coeffs):
    size = len(coeffs)
    out = np.zeros(size)
    for alpha in range(size):
        for beta in range(size):
            if beta & ~alpha == 0:
                out[alpha] += coeffs[beta]
    return out


def test_subset_zeta_identities():
    rng = np.random.default_rng(16)
    f = RealPointFunction(3, rng.uniform(-1, 1, size=8))
    s = wht(f)
    z = subset_zeta(s)
    assert z[0] == s.coeffs[0]
    # at the full set the sum is the inversion formula at the origin
    assert abs(z[-1] - f.table[0]) <= 1e-12


def test_subset_zeta_matches_naive_double_loop():
    rng = np.random.default_rng(17)
    for _ in range(20):
        s = Spectrum(3, rng.uniform(-1, 1, size=8))
        assert np.allclose(subset_zeta(s), naive_subset_sums(s.coeffs), atol=1e-12)


def block_add_subset_sums(values):
    """The subset-sum transform as one 2-D block add per stage."""
    out = values.copy()
    width = 1
    while width < out.shape[-1]:
        view = out.reshape(-1, 2 * width)
        view[:, width:] += view[:, :width]
        width *= 2
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
@pytest.mark.parametrize("rows", [None, 3])
def test_subset_sums_equal_the_block_add_loop_bit_for_bit(dtype, rows):
    rng = np.random.default_rng(18)
    for n in range(1, 11):
        shape = (1 << n,) if rows is None else (rows, 1 << n)
        if dtype is np.float64:
            values = rng.uniform(-1, 1, size=shape)
        else:
            values = rng.integers(-(1 << 40), 1 << 40, size=shape)
        out = _subset_sums(values)
        assert out.dtype == dtype
        assert np.array_equal(out, block_add_subset_sums(values)), n


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


def product(fs):
    """The pointwise product of functions on one cube."""
    return RealPointFunction(fs[0].n, np.prod([f.table for f in fs], axis=0))


def test_product_of_characters_is_character_sum():
    for a in range(8):
        for b in range(8):
            prod = product([parity(3, a), parity(3, b)])
            assert np.array_equal(prod.table, parity(3, a ^ b).table.astype(float))


def test_influence_of_product_bounded_functions():
    rng = np.random.default_rng(19)
    for _ in range(100):
        fs = [RealPointFunction(3, rng.uniform(-1, 1, size=8)) for _ in range(3)]
        prod_s = wht(product(fs))
        member_s = [wht(f) for f in fs]
        for i in (1, 2, 3):
            bound = 3 * sum(influence(s, i) for s in member_s)
            assert influence(prod_s, i) <= bound + 1e-9


def test_influence_of_product_boolean_union_bound():
    rng = np.random.default_rng(20)
    for _ in range(100):
        fs = [random_boolean(3, rng) for _ in range(3)]
        prod_s = wht(product(fs))
        member_s = [wht(f) for f in fs]
        for i in (1, 2, 3):
            bound = sum(influence(s, i) for s in member_s)
            assert influence(prod_s, i) <= bound + 1e-9
