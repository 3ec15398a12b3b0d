import json

import numpy as np
import pytest

from dictatest.errors import InvariantViolation, SpecParseError
from dictatest.families import (
    build_family,
    dictator,
    load_family,
    majority,
    noisy_dictator,
    parity,
    parse_fnspec,
    planted_decoder_family,
    random_family,
    random_folded,
)
from dictatest.fourier import influence, low_degree_influence, wht
from dictatest.functions import is_folded, make_folded, refold, table_to_hex
from dictatest.rng import derive_rng, seed_key
from dictatest.testers import (
    FunctionFamily,
    Hypergraph,
    complete_hypergraph,
    edge_label,
    vertex_label,
)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def test_dictator_table_and_spectrum():
    assert list(dictator(1, 1).table) == [1, -1]
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            f = dictator(n, i)
            assert is_folded(f)
            coeffs = wht(f).coeffs
            assert coeffs[1 << (i - 1)] == 1.0
            assert np.count_nonzero(coeffs) == 1
    with pytest.raises(ValueError):
        dictator(3, 4)


def test_parity_basic_cases():
    for n in (2, 3):
        for i in range(1, n + 1):
            assert parity(n, {i}) == dictator(n, i)
        assert np.all(parity(n, 0).table == 1)


def test_parity_foldedness_law():
    # enumerate every mask for n <= 4: folded exactly when |α| is odd
    for n in (1, 2, 3, 4):
        for mask in range(1 << n):
            expected = bin(mask).count("1") % 2 == 1
            assert is_folded(parity(n, mask)) == expected, (n, mask)


def test_random_folded_properties():
    for seed in range(30):
        f = random_folded(5, seed)
        assert is_folded(f)
    assert random_folded(5, 7) == random_folded(5, 7)
    assert random_folded(5, 7) != random_folded(5, 8)
    # folding forces every sample's mean (hence its empirical average) to 0
    means = [wht(random_folded(4, s)).coeffs[0] for s in range(100)]
    assert means == [0.0] * 100


def test_random_folded_signs_are_the_seeds_integers_stream():
    """random_folded's half table is 1 - 2·rng.integers(0, 2, size=2^{n-1})
    on the seed's stream, because numpy draws a bit as the top bit of each
    32-bit half of random_raw, which is what _draw_blocks reads."""
    for n in range(1, 21):
        for seed in (0, 7, (n, 1), (3, n, 2), (2**40, 5)):
            rng = derive_rng(*seed_key(seed))
            half = 1 - 2 * rng.integers(0, 2, size=1 << (n - 1)).astype(np.int8)
            f = random_folded(n, seed)
            assert f.table.dtype == np.int8
            assert f == make_folded(n, half), (n, seed)


def test_noisy_dictator_zero_noise_is_exact():
    for seed in (0, 1, 2):
        f = noisy_dictator(4, 2, 0.0, seed)
        assert f == dictator(4, 2)
        assert influence(wht(f), 2) == 1.0


def _half_table_flips(f, base):
    """Number m of x_1 = 1 half-table entries where f differs from base."""
    return int(np.count_nonzero(f.table[1::2] != base.table[1::2]))


def test_noisy_dictator_keeps_low_degree_influence():
    # Refolding mirrors each of the m half-table flips, so 2m of the 2^n
    # points differ from the dictator and f^({i}) = 1 - 4m/2^n exactly.
    # Hence I^{<=1}_i = (1 - 4m/2^n)^2, a dyadic rational that float64 holds
    # exactly.  m ~ Bin(2^{n-1}, rho) is random, so no floor on the influence
    # holds for every seed; the identity does.
    n, i = 6, 4
    base = dictator(n, i)
    for seed in range(20):
        f = noisy_dictator(n, i, 0.05, seed)
        m = _half_table_flips(f, base)
        assert is_folded(f)
        assert np.count_nonzero(f.table != base.table) == 2 * m
        assert low_degree_influence(wht(f), i, 1) == (1 - 4 * m / 2**n) ** 2


@pytest.mark.parametrize("n, i, rho", [(6, 4, 0.05), (5, 2, 0.3)])
def test_noisy_dictator_flip_count_law(n, i, rho):
    # each half-table entry flips independently with probability rho, so the
    # flip count is Bin(2^{n-1}, rho); its mean over N seeds lies within 5
    # standard errors of 2^{n-1} rho
    seeds = 2000
    half = 1 << (n - 1)
    base = dictator(n, i)
    counts = [
        _half_table_flips(noisy_dictator(n, i, rho, s), base) for s in range(seeds)
    ]
    stderr = np.sqrt(half * rho * (1 - rho) / seeds)
    assert abs(np.mean(counts) - half * rho) <= 5 * stderr


def test_noisy_dictator_rejects_bad_rho():
    with pytest.raises(ValueError):
        noisy_dictator(4, 1, 0.6, 0)
    with pytest.raises(ValueError):
        noisy_dictator(4, 1, -0.1, 0)


def test_majority_small_cases():
    assert majority(1) == dictator(1, 1)
    m3 = majority(3)
    assert is_folded(m3)
    s = wht(m3)
    for i in (1, 2, 3):
        assert influence(s, i) == 0.5
    with pytest.raises(ValueError):
        majority(4)


# ---------------------------------------------------------------------------
# fnspec
# ---------------------------------------------------------------------------


def test_parse_fnspec_all_kinds():
    assert parse_fnspec("dict:2", 3) == dictator(3, 2)
    assert parse_fnspec("parity:5", 3) == parity(3, 0x5)
    assert parse_fnspec("maj", 3) == majority(3)
    assert parse_fnspec("random:9", 4) == random_folded(4, 9)
    assert parse_fnspec("noisydict:1:0.1:7", 4) == noisy_dictator(4, 1, 0.1, 7)
    f = random_folded(4, 11)
    assert parse_fnspec(f"table:{table_to_hex(f)}", 4) == f


def test_parse_fnspec_errors():
    for bad in ("dict", "dict:0", "dict:9", "parity:QQ", "table:zz", "nope:1", "maj:1"):
        with pytest.raises(SpecParseError):
            parse_fnspec(bad, 3)


# ---------------------------------------------------------------------------
# Family assembly
# ---------------------------------------------------------------------------


def test_build_family_all_spec():
    h = Hypergraph(2, [frozenset({1, 2})])
    fam = build_family(h, 3, "all=dict:1")
    assert isinstance(fam, FunctionFamily)
    assert all(f == dictator(3, 1) for _, f in fam.members())


def test_build_family_parses_and_checks_each_distinct_spec_once(monkeypatch):
    import dictatest.families as families_module
    import dictatest.functions as functions_module

    calls = {"parse_fnspec": 0, "is_folded": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(families_module, "parse_fnspec", counted("parse_fnspec", parse_fnspec))
    monkeypatch.setattr(functions_module, "is_folded", counted("is_folded", is_folded))
    h = complete_hypergraph(3)
    fam = build_family(h, 5, "all=random:7")
    assert calls == {"parse_fnspec": 1, "is_folded": 1}
    labels = [vertex_label(i) for i in (1, 2, 3)] + [edge_label(e) for e in h.edges]
    mixed = build_family(h, 5, {label: "dict:2" if label[0] == "v" else "parity:7"
                                for label in labels})
    assert calls == {"parse_fnspec": 3, "is_folded": 3}
    monkeypatch.undo()
    assert all(f == refold(random_folded(5, 7)) for _, f in fam.members())
    assert mixed.vertex_functions == (dictator(5, 2),) * 3
    assert all(f == refold(parity(5, 7)) for f in mixed.edge_functions)


def test_build_family_per_member_and_labels():
    h = Hypergraph(2, [frozenset({1, 2})])
    fam = build_family(
        h, 3, {"v1": "dict:1", "v2": "dict:2", "e1,2": "random:4"}
    )
    labels = [label for label, _ in fam.members()]
    assert labels == ["v1", "v2", "e1,2"]
    assert fam.vertex_functions[1] == dictator(3, 2)


def test_build_family_refolds_by_default():
    h = Hypergraph(2, [frozenset({1, 2})])
    fam = build_family(h, 2, "all=parity:3")  # even-weight character: unfolded
    for _, f in fam.members():
        assert is_folded(f)
    with pytest.raises(InvariantViolation):
        build_family(h, 2, "all=parity:3", fold="strict")
    strict = build_family(h, 2, "all=dict:1", fold="strict")
    assert strict.vertex_functions[0] == dictator(2, 1)


def test_build_family_label_mismatch():
    h = Hypergraph(2, [frozenset({1, 2})])
    with pytest.raises(SpecParseError):
        build_family(h, 2, {"v1": "dict:1"})
    with pytest.raises(SpecParseError):
        build_family(
            h, 2, {"v1": "dict:1", "v2": "dict:1", "e1,2": "dict:1", "v3": "dict:1"}
        )
    with pytest.raises(SpecParseError):
        build_family(h, 2, "dict:1")


def test_random_family_deterministic_and_folded():
    h = Hypergraph(3, [frozenset({1, 2}), frozenset({1, 2, 3})])
    fam = random_family(h, 4, 5)
    again = random_family(h, 4, 5)
    for (_, f), (_, g) in zip(fam.members(), again.members()):
        assert is_folded(f)
        assert f == g
    # members are mutually independent draws
    tables = [tuple(f.table) for _, f in fam.members()]
    assert len(set(tables)) == len(tables)


def test_load_family_file(tmp_path):
    doc = {
        "n": 2,
        "k": 2,
        "edges": [[1, 2]],
        "members": {"v1": "dict:1", "v2": "dict:1", "e1,2": "dict:1"},
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    fam = load_family(path)
    assert fam.n == 2
    assert fam.hypergraph.k == 2
    assert fam.vertex_functions[0] == dictator(2, 1)


def test_load_family_all_string(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": 3, "k": 2, "edges": [[1, 2]], "members": "all=maj"}))
    fam = load_family(path)
    assert all(f == majority(3) for _, f in fam.members())


def test_load_family_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SpecParseError):
        load_family(path)
    path.write_text(json.dumps({"n": 2, "k": 2}))
    with pytest.raises(SpecParseError):
        load_family(path)
    with pytest.raises(SpecParseError):
        load_family(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# Planted decoder instances
# ---------------------------------------------------------------------------


def test_planted_decoder_family_structure():
    fam, (s_mask, t_mask) = planted_decoder_family(2, 5, 2, 0.05, 17)
    assert s_mask != t_mask
    assert np.array_equal(fam.members[s_mask].table, fam.members[t_mask].table)
    again, pair = planted_decoder_family(2, 5, 2, 0.05, 17)
    assert pair == (s_mask, t_mask)
    assert np.array_equal(again.members[s_mask].table, fam.members[s_mask].table)
