import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictatest.families import dictator, parity
from dictatest.functions import (
    BooleanFunction,
    folded_table,
    make_folded,
    table_from_hex,
    table_to_hex,
)
from reference import FoldedOracle


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
    for values in ([1, 0], [2, -1], [1, -2], [127, -128]):
        with pytest.raises(ValueError, match=r"entries must be -1 or \+1"):
            BooleanFunction(1, np.array(values, dtype=np.int8))
    with pytest.raises(ValueError):
        BooleanFunction(0, np.array([], dtype=np.int8))


def test_tables_are_immutable():
    f = dictator(2, 1)
    with pytest.raises(ValueError):
        f.table[0] = -1


def test_construction_leaves_the_callers_array_writeable():
    a = np.array([1, -1, 1, -1], dtype=np.int8)
    f = BooleanFunction(2, a)
    assert a.flags.writeable and not f.table.flags.writeable
    a[0] = -1
    assert f.table[0] == 1


def test_a_read_only_view_of_a_writeable_array_is_copied():
    a = np.array([1, -1, 1, -1], dtype=np.int8)
    view = a.view()
    view.setflags(write=False)
    f = BooleanFunction(2, view)
    assert not np.shares_memory(f.table, a)
    a[0] = -1
    assert f.table[0] == 1


def test_make_folded_keeps_its_table_without_a_copy():
    """At n = 20, make_folded's traced peak stays under 1.5 bytes a point: it
    keeps _fold_half's fresh read-only table, and the ±1 check makes no 2^n
    temporaries."""
    n = 20
    half = np.ones(1 << (n - 1), dtype=np.int8)
    half[::3] = -1
    tracemalloc.start()
    try:
        f = make_folded(n, half)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.folded and np.array_equal(f.table[1::2], half)
    assert peak <= 1.5 * (1 << n)


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
            assert f.folded
            assert int(f.table.sum()) == 0


def test_make_folded_rejects_bad_half():
    with pytest.raises(ValueError):
        make_folded(2, [1])
    with pytest.raises(ValueError):
        make_folded(2, [1, 0])


def test_folded_cases():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            assert dictator(n, i).folded
    assert not constant(2).folded
    assert not parity(2, {1, 2}).folded


def test_make_folded_of_the_x1_half_is_identity_on_folded():
    f = make_folded(3, [1, -1, -1, 1])
    assert make_folded(3, f.table[1::2]) == f
    # folding an unfolded table keeps its x_1 = 1 half
    g = make_folded(2, constant(2).table[1::2])
    assert g.folded
    assert list(g.table[1::2]) == [1, 1]


def test_folded_table_make_folded_and_folded_agree():
    """The three views of the fold rule agree on 20 random tables per n."""
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        for _ in range(20):
            f = BooleanFunction(n, 1 - 2 * rng.integers(0, 2, size=1 << n))
            view = folded_table(f)
            g = make_folded(n, f.table[1::2])
            assert np.array_equal(view, g.table)
            assert g.folded
            assert f.folded == np.array_equal(view, f.table)


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
