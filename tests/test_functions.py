import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictatest import (
    BooleanFunction,
    FoldedOracle,
    RealPointFunction,
    folded_table,
    is_folded,
    make_folded,
    refold,
    table_from_hex,
    table_to_hex,
)
from dictatest.families import dictator, parity


def constant(n, sign=1):
    return BooleanFunction(n, np.full(1 << n, sign, dtype=np.int8))


# ---------------------------------------------------------------------------
# Point evaluation (x_1 is bit 0 of the index)
# ---------------------------------------------------------------------------


def test_evaluate_dictator_examples():
    f = dictator(2, 1)
    assert f.table[0b01] == -1  # x = (1, 0)
    assert f.table[0b10] == 1  # x = (0, 1)


def test_evaluate_parity_example():
    f = parity(3, {1, 2, 3})
    assert f.table[0b111] == -1


def test_table_validation():
    with pytest.raises(ValueError):
        BooleanFunction(2, np.array([1, -1, 1], dtype=np.int8))
    with pytest.raises(ValueError):
        BooleanFunction(1, np.array([1, 0], dtype=np.int8))
    with pytest.raises(ValueError):
        BooleanFunction(0, np.array([], dtype=np.int8))
    with pytest.raises(ValueError):
        RealPointFunction(1, np.array([1.0, -1.5]))


def test_tables_are_immutable():
    f = dictator(2, 1)
    with pytest.raises(ValueError):
        f.table[0] = -1


# ---------------------------------------------------------------------------
# Folding
# ---------------------------------------------------------------------------


def test_fold_query_constant_both_branches():
    oracle = FoldedOracle(constant(3))
    assert oracle.fold_query(0b001) == 1  # x = (1, 0, 0)
    # x_1 = 0: the oracle reads 1⃗+x and negates
    assert oracle.fold_query(0b010) == -1  # x = (0, 1, 0)
    assert oracle.query_count == 2


def test_fold_query_matches_folded_extension():
    # derived example: inner = dictator(2, 2), query at (0, 1)
    oracle = FoldedOracle(dictator(2, 2))
    assert oracle.fold_query(0b10) == -1
    # the induced view is folded for any inner function
    view = folded_table(dictator(2, 2))
    ones = 3
    for j in range(4):
        assert view[j ^ ones] == -view[j]


def test_fold_query_counts_every_call():
    oracle = FoldedOracle(dictator(3, 1))
    for count, j in enumerate(range(8), start=1):
        oracle.fold_query(j)
        assert oracle.query_count == count


def test_folded_view_has_zero_mean():
    rng = np.random.default_rng(0)
    for _ in range(20):
        inner = BooleanFunction(3, 1 - 2 * rng.integers(0, 2, size=8))
        assert int(folded_table(inner).sum()) == 0


def oracle_view(f):
    """Reference folded view: one FoldedOracle query per point."""
    oracle = FoldedOracle(f)
    return np.array([oracle.fold_query(j) for j in range(1 << f.n)], dtype=np.int8)


def test_folded_table_matches_oracle_loop():
    rng = np.random.default_rng(11)
    for n in range(1, 11):
        for _ in range(3):
            inner = BooleanFunction(n, 1 - 2 * rng.integers(0, 2, size=1 << n))
            view = folded_table(inner)
            assert view.dtype == np.int8
            assert np.array_equal(view, oracle_view(inner))


SIGN_TABLES = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.sampled_from([-1, 1]), min_size=1 << n, max_size=1 << n)
)


@settings(max_examples=200, deadline=None)
@given(SIGN_TABLES)
def test_folded_table_matches_oracle_loop_property(signs):
    inner = BooleanFunction(len(signs).bit_length() - 1, np.array(signs))
    assert np.array_equal(folded_table(inner), oracle_view(inner))


def test_make_folded_n1():
    f = make_folded(1, [-1])
    assert list(f.table) == [1, -1]
    assert f == dictator(1, 1)


def test_make_folded_n2_example():
    # half table for points (1,0), (1,1) = [+1, +1]
    f = make_folded(2, [1, 1])
    assert f.table[0b10] == -1  # x = (0, 1)
    assert f.table[0b00] == -1
    assert list(f.table) == [-1, 1, -1, 1]


def test_make_folded_outputs_are_folded_and_balanced():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            half = 1 - 2 * rng.integers(0, 2, size=1 << (n - 1))
            f = make_folded(n, half)
            assert is_folded(f)
            assert int(f.table.sum()) == 0


def test_make_folded_rejects_bad_half():
    with pytest.raises(ValueError):
        make_folded(2, [1])
    with pytest.raises(ValueError):
        make_folded(2, [1, 0])


def test_is_folded_cases():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            assert is_folded(dictator(n, i))
    assert not is_folded(constant(2))
    assert not is_folded(parity(2, {1, 2}))


def test_refold_identity_on_folded():
    f = make_folded(3, [1, -1, -1, 1])
    assert refold(f) == f
    # refolding an unfolded table keeps its x_1 = 1 half
    g = refold(constant(2))
    assert is_folded(g)
    assert list(g.table[1::2]) == [1, 1]


def test_folded_table_refold_make_folded_and_is_folded_agree():
    """The four views of the fold rule agree on 20 random tables per n."""
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        for _ in range(20):
            f = BooleanFunction(n, 1 - 2 * rng.integers(0, 2, size=1 << n))
            view = folded_table(f)
            assert np.array_equal(view, refold(f).table)
            assert make_folded(n, f.table[1::2]) == refold(f)
            assert is_folded(refold(f))
            assert is_folded(f) == np.array_equal(view, f.table)


# ---------------------------------------------------------------------------
# Hex serialization
# ---------------------------------------------------------------------------


def test_hex_roundtrip_random():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            f = BooleanFunction(n, 1 - 2 * rng.integers(0, 2, size=1 << n))
            text = table_to_hex(f)
            assert len(text) == max(1, (1 << n) // 4)
            assert table_from_hex(n, text) == f


def test_hex_known_value():
    # dictator on one variable: table [+1, -1] -> bits 01 -> 0x2
    assert table_to_hex(dictator(1, 1)) == "2"
    assert table_from_hex(1, "2") == dictator(1, 1)


def test_hex_rejects_malformed():
    with pytest.raises(ValueError):
        table_from_hex(2, "ab")  # wrong length
    with pytest.raises(ValueError):
        table_from_hex(2, "G")
    with pytest.raises(ValueError):
        table_from_hex(1, "5")  # bits beyond the 2 table entries
