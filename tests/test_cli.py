import csv
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dictatest import cli, fourier, gowers, testers
from dictatest.cli import main
from dictatest.families import parse_fnspec, random_folded
from dictatest.functions import BooleanFunction, table_to_hex


def run(argv, capsys):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr()


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_success_exits_0_and_writes_csv_to_stdout(capsys):
    code, out = run(["basictest", "--fn", "dict:2", "--n", 3], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.out)))
    assert [(r["method"], r["value"]) for r in rows] == [("exact", "1.0")]


CONFIG_ERRORS = {
    "htest-mc-trials-0":
        "htest --complete-k 2 --n 2 --members all=dict:1 --method mc --trials 0",
    "soundness-trials-0": "htest --complete-k 2 --n 2 --random-families 1 --trials 0",
    "random-families-0": "htest --complete-k 2 --n 2 --random-families 0",
    "members-with-random-families":
        "htest --complete-k 2 --n 2 --random-families 1 --members all=dict:1",
    "gowers-d-0": "gowers --fn dict:1 --n 3 --d 0",
    "gowers-mc-trials-0": "gowers --fn dict:1 --n 3 --d 1 --method mc --trials 0",
    "decode-coord-out-of-range":
        "decode --n 4 --d 2 --coord 9 --rho 0.1 --tau 0.3 --count 1",
    "decode-rho-out-of-range":
        "decode --n 4 --d 2 --coord 1 --rho 0.9 --tau 0.3 --count 1",
    "complete-k-1": "htest --complete-k 1 --n 2 --members all=dict:1",
    "xcheck-n-0": "xcheck --n 0 --count 1",
    "random-families-method-exact":
        "htest --complete-k 2 --n 2 --random-families 1 --method exact --trials 100",
    "random-families-method-unknown":
        "htest --complete-k 2 --n 2 --random-families 1 --method bogus --trials 100",
    "bad-fnspec": "basictest --fn nope:1 --n 3",
    "missing-argument": "basictest --fn dict:1",
}


@pytest.mark.parametrize("argv", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
def test_config_errors_exit_2(argv, capsys):
    code, out = run(argv.split(), capsys)
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ")


EXIT_2_LINES = {  # id -> (argv, stderr line); FAMILY is a file with fold "loose"
    "gowers-method": ("gowers --fn dict:1 --n 3 --d 1 --method bogus",
                      "unknown gowers method 'bogus'"),
    "basictest-method": ("basictest --fn dict:1 --n 3 --method bogus",
                         "unknown basictest method 'bogus'"),
    "htest-method": ("htest --complete-k 2 --n 2 --members all=dict:1 --method bogus",
                     "unknown htest method 'bogus'"),
    "xcheck-law": ("xcheck --law bogus --n 3 --count 1", "unknown xcheck law 'bogus'"),
    "edge-not-integer": ("htest --k 2 --edges 1,x --n 2 --members all=dict:1",
                         "bad edge list '1,x': invalid literal for int() with base 10: 'x'"),
    "no-hypergraph": ("htest --n 2 --members all=dict:1",
                      "need either complete_k or both k and edges"),
    "k-without-edges": ("htest --k 2 --n 2 --members all=dict:1",
                        "need either complete_k or both k and edges"),
    "family-fold": ("htest --family FAMILY",
                    "family file FAMILY: bad value for 'fold': 'loose'"),
    "decode-d-0": ("decode --n 4 --d 0 --coord 1 --rho 0.1 --tau 0.3",
                   "decode needs d >= 1, got 0"),
    "decode-d-negative": ("decode --n 4 --d -1 --coord 1 --rho 0.1 --tau 0.3",
                          "decode needs d >= 1, got -1"),
}


@pytest.mark.parametrize("argv, line", EXIT_2_LINES.values(), ids=EXIT_2_LINES.keys())
def test_exit_2_writes_nothing_but_its_error_line(argv, line, tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(
        {"n": 2, "k": 2, "edges": [[1, 2]], "members": "all=dict:1", "fold": "loose"}))
    code, out = run(argv.replace("FAMILY", str(family)).split(), capsys)
    line = line.replace("FAMILY", str(family))
    assert (code, out.out, out.err) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize("law", ["basic", "noise"])
def test_xcheck_checks_n_before_drawing_anything(law, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("drew a table before checking n")

    monkeypatch.setattr(cli, "derive_rng", refuse)
    monkeypatch.setattr(cli, "random_folded", refuse)
    code, out = run(["xcheck", "--law", law, "--n", 25, "--count", 1], capsys)
    assert (code, out.out) == (2, "")
    assert out.err == "error: dimension must be in [1, 24], got 25\n"


def test_decode_checks_its_guard_before_drawing_anything(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("drew a family before checking the guard")

    monkeypatch.setattr(cli, "planted_decoder_family", refuse)
    argv = "decode --n 4 --d 30 --coord 1 --rho 0.1 --tau 0.1 --count 1".split()
    code, out = run(argv, capsys)
    assert (code, out.out) == (3, "")
    assert "decode covers 2^30 members of 2^4 points (2^34), guard allows 2^26" in out.err


NONPOSITIVE_COUNTS = {
    "xcheck-basic-count-0": "xcheck --law basic --n 3 --count 0",
    "xcheck-noise-count-0": "xcheck --law noise --n 3 --count 0",
    "xcheck-basic-count-negative": "xcheck --law basic --n 3 --count -1",
    "xcheck-noise-count-negative": "xcheck --law noise --n 3 --count -2",
    "decode-count-0": "decode --n 4 --d 2 --coord 1 --rho 0.1 --tau 0.3 --count 0",
}


@pytest.mark.parametrize("argv", NONPOSITIVE_COUNTS.values(), ids=NONPOSITIVE_COUNTS.keys())
def test_nonpositive_count_exits_2_naming_count(argv, capsys):
    code, out = run(argv.split(), capsys)
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ")
    assert "'count'" in out.err


NEGATIVE_SEEDS = {
    "htest-mc": "htest --complete-k 2 --n 2 --members all=dict:1 --method mc --trials 10",
    "gowers-mc": "gowers --fn dict:1 --n 3 --d 1 --method mc --trials 10",
    "wht": "wht --fn dict:1 --n 3",
}


@pytest.mark.parametrize("argv", NEGATIVE_SEEDS.values(), ids=NEGATIVE_SEEDS.keys())
def test_negative_seed_exits_2_naming_seed(argv, capsys, tmp_path):
    code, out = run(argv.split() + ["--seed", -1], capsys)
    assert (code, out.out, out.err) == (2, "", "error: 'seed' must be >= 0, got -1\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -5}))
    code, out = run(argv.split() + ["--config", config], capsys)
    message = f"error: {argv.split()[0]} config {config}: 'seed' must be >= 0, got -5\n"
    assert (code, out.out, out.err) == (2, "", message)


NEGATIVE_GUARDS = NEGATIVE_SEEDS | {
    "basictest": "basictest --fn dict:1 --n 2",
    "gowers-auto": "gowers --fn dict:1 --n 2 --d 1",
}


@pytest.mark.parametrize("argv", NEGATIVE_GUARDS.values(), ids=NEGATIVE_GUARDS.keys())
def test_negative_guard_bits_exits_2_naming_guard_bits(argv, capsys, tmp_path):
    """A negative guard is an argument out of range, not a guard that refuses
    the exact route (exit 3) or sends gowers' auto method to Monte Carlo."""
    code, out = run(argv.split() + ["--guard-bits", -1], capsys)
    assert (code, out.out, out.err) == (2, "", "error: 'guard_bits' must be >= 0, got -1\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"guard_bits": -4}))
    code, out = run(argv.split() + ["--config", config], capsys)
    message = f"error: {argv.split()[0]} config {config}: 'guard_bits' must be >= 0, got -4\n"
    assert (code, out.out, out.err) == (2, "", message)


def test_singleton_edge_error_names_no_library_argument(capsys):
    argv = ["htest", "--k", 2, "--edges", "1;1,2", "--n", 2, "--members", "all=dict:1"]
    code, out = run(argv, capsys)
    assert (code, out.out) == (2, "")
    assert out.err == "error: singleton edge [1]: edges need at least 2 vertices\n"


@pytest.mark.parametrize("w", [-1, 4])
def test_influence_degree_out_of_range_exits_2_naming_it(w, capsys):
    code, out = run(["influence", "--fn", "random:1", "--n", 3, "--degree", w], capsys)
    assert code == 2
    assert out.out == ""
    assert out.err == f"error: degree bound {w} out of range for n=3\n"


@pytest.mark.parametrize("tau", ["nan", "inf", "0", "-0.5"])
def test_decode_threshold_not_positive_and_finite_exits_2(tau, capsys):
    argv = ["decode", "--n", 4, "--d", 2, "--coord", 1, "--rho", 0.1, "--tau", tau, "--count", 1]
    code, out = run(argv, capsys)
    assert (code, out.out) == (2, "")
    assert out.err == f"error: threshold must be positive and finite, got {float(tau)}\n"


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    code, _ = run(["wht", "--config", tmp_path / "missing.json"], capsys)
    assert code == 2


def test_guard_exceeded_exits_3(capsys):
    code, out = run("basictest --fn dict:1 --n 8 --guard-bits 10".split(), capsys)
    assert code == 3
    assert "guard allows 2^10" in out.err
    code, out = run("gowers --fn dict:1 --n 5 --d 4 --method exact --guard-bits 24".split(),
                    capsys)
    assert code == 3
    assert out.out == ""
    assert "guard allows 2^24" in out.err


@pytest.mark.parametrize("guard", [9, 10, 14, 15, 19, 20, 25])
def test_gowers_auto_is_exact_exactly_where_the_guard_allows(guard, capsys):
    n = 5
    argv = f"gowers --fn random:3 --n {n} --d 4 --trials 200 --guard-bits {guard}"
    code, out = run(argv.split(), capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.out)))
    assert [r["method"] for r in rows] == [
        "exact" if (d + 1) * n <= guard else "mc" for d in (1, 2, 3, 4)
    ]
    assert [r["stderr"] == "" for r in rows] == [r["method"] == "exact" for r in rows]


def test_invariant_violation_exits_4(capsys):
    unfolded = BooleanFunction(2, np.ones(4, dtype=np.int8))
    code, out = run(["basictest", "--fn", f"table:{table_to_hex(unfolded)}", "--n", 2],
                    capsys)
    assert code == 4
    assert "folded" in out.err


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


def test_failed_run_leaves_no_output(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, _ = run(["basictest", "--fn", "dict:1", "--n", 8, "--guard-bits", 10,
                   "--out", out], capsys)
    assert code == 3
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_exits_2_without_temp_files(tmp_path, capsys):
    missing_dir = tmp_path / "no-such-dir" / "report.csv"
    code, out = run(["wht", "--fn", "dict:1", "--n", 2, "--out", missing_dir], capsys)
    assert code == 2
    assert out.err.startswith("error: ")
    target_is_dir = tmp_path / "taken"
    target_is_dir.mkdir()
    code, _ = run(["wht", "--fn", "dict:1", "--n", 2, "--out", target_is_dir], capsys)
    assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(target_is_dir.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_report_mode_follows_the_umask(umask, mode, tmp_path, capsys):
    out = tmp_path / "report.csv"
    old = os.umask(umask)
    try:
        for _ in range(2):  # a new report, then a second run over it
            code, _ = run(["wht", "--fn", "dict:1", "--n", 2, "--out", out], capsys)
            assert code == 0
            assert out.stat().st_mode & 0o777 == mode
    finally:
        os.umask(old)


def test_successful_run_leaves_only_the_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _ = run(["wht", "--fn", "dict:1", "--n", 2, "--json", "--out", out], capsys)
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert len(json.loads(out.read_text())) == 4


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def test_flags_override_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fn": "dict:2", "n": 3, "method": "both", "seed": 7}))
    code, out = run(["basictest", "--config", config, "--method", "fourier"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.out)))
    assert [(r["family"], r["n"], r["method"], r["seed"]) for r in rows] == [
        ("dict:2", "3", "fourier", "7")
    ]


UNKNOWN_KEYS = {
    "dashed-long-name": ("basictest", {"fn": "dict:1", "n": 8, "guard-bits": 10}, "guard-bits"),
    "flag-name-not-key": ("influence", {"fn": "dict:1", "n": 3, "degree": 1}, "degree"),
    "misspelt": ("htest", {"complete_k": 2, "n": 2, "members": "all=dict:1", "trails": 5},
                 "trails"),
    "other-command": ("wht", {"fn": "dict:1", "n": 2, "count": 3}, "count"),
}


@pytest.mark.parametrize("command, doc, key", UNKNOWN_KEYS.values(), ids=UNKNOWN_KEYS.keys())
def test_unknown_config_key_exits_2_naming_it(command, doc, key, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, out = run([command, "--config", config], capsys)
    assert code == 2
    assert out.out == ""
    assert f"unknown key {key!r}" in out.err


MISTYPED_VALUES = {  # id -> (the bad key, the config)
    "json-string": ("json", {"fn": "dict:1", "n": 2, "json": "false"}),
    "json-number": ("json", {"fn": "dict:1", "n": 2, "json": 0}),
    "int-float": ("n", {"fn": "dict:1", "n": 3.7}),
    "int-bool": ("n", {"fn": "dict:1", "n": True}),
    "int-string": ("n", {"fn": "dict:1", "n": "3"}),
    "str-number": ("fn", {"fn": 1, "n": 3}),
}


@pytest.mark.parametrize("key, doc", MISTYPED_VALUES.values(), ids=MISTYPED_VALUES.keys())
def test_mistyped_config_value_exits_2(key, doc, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, out = run(["wht", "--config", config], capsys)
    assert code == 2
    assert out.out == ""
    assert out.err == f"error: wht config {config}: bad value for {key!r}: {doc[key]!r}\n"


BAD_EDGES = {"integers": [1, 2], "strings": ["1,2"], "float-vertex": [[1, 2.0]],
             "bool-vertex": [[1, True]], "object": [{"1": 2}]}


@pytest.mark.parametrize("edges", BAD_EDGES.values(), ids=BAD_EDGES.keys())
def test_config_edges_must_be_a_string_or_integer_lists(edges, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 2, "edges": edges, "n": 2, "members": "all=dict:1"}))
    code, out = run(["htest", "--config", config], capsys)
    assert code == 2
    assert out.out == ""
    assert out.err == f"error: htest config {config}: bad value for 'edges': {edges!r}\n"


def test_config_null_is_absent_and_an_integer_passes_for_a_float(tmp_path, capsys):
    """A null config value leaves its option at the default, and an integer
    fills a float option: the report equals the flag run's."""
    argv = "decode --n 4 --d 2 --coord 2 --rho 0.0 --count 2".split()
    code, out = run(argv + ["--tau", "1.0"], capsys)
    assert code == 0
    expected = csv_without_wall_ms(out.out)
    value = expected[0].index("value")
    assert [row[value] for row in expected[1:]] == ["1.0", "1.0"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tau": 1, "w": None, "seed": None, "guard_bits": None}))
    code, out = run(argv + ["--config", config], capsys)
    assert code == 0
    assert csv_without_wall_ms(out.out) == expected


FAMILY_FILE = {"n": 2, "k": 2, "edges": [[1, 2]], "members": "all=dict:2"}
# Every option of every subcommand, so that each can be moved into a config file.
ALL_OPTIONS = [
    "wht --fn dict:2 --n 3 --seed 1 --guard-bits 20 --json",
    "influence --fn random:4 --n 4 --degree 2 --seed 1 --guard-bits 20",
    "gowers --fn random:3 --n 5 --d 3 --method auto --trials 300 --seed 2 --guard-bits 15",
    "basictest --fn random:5 --n 3 --method both --seed 3 --guard-bits 12",
    "htest --k 3 --edges 1,2;2,3 --n 3 --members all=random:1 --method mc --trials 300"
    " --seed 4 --guard-bits 30",
    "htest --complete-k 2 --n 2 --random-families 2 --method mc --trials 200 --seed 5",
    "htest --family FAMILY --method exact --guard-bits 30",
    "xcheck --law noise --n 3 --count 2 --seed 6 --guard-bits 20",
    "decode --n 4 --d 2 --coord 2 --rho 0.1 --tau 0.2 --w 2 --count 2 --seed 7",
]
CONFIG_KEYS = {"--random-families": "families", "--degree": "w"}


def json_value(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


@pytest.mark.parametrize("argv", ALL_OPTIONS, ids=lambda argv: argv.split()[0])
def test_each_option_gives_the_same_report_as_flag_or_config_key(argv, tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(FAMILY_FILE))
    report, config = tmp_path / "report", tmp_path / "config.json"
    command, *tokens = argv.replace("FAMILY", str(family)).split() + ["--out", str(report)]
    options = []  # (flag, value text or None for a bare flag)
    for token in tokens:
        if token.startswith("--"):
            options.append((token, None))
        else:
            options[-1] = (options[-1][0], token)

    def report_of(opts, doc):
        config.write_text(json.dumps(doc))
        flags = [t for flag, value in opts for t in (flag, value) if t is not None]
        code, _ = run([command, *flags, "--config", config], capsys)
        assert code == 0
        text = report.read_text()
        report.unlink()
        return csv_without_wall_ms(text)

    expected = report_of(options, {})
    assert len(expected) > 1
    for i, (flag, value) in enumerate(options):
        key = CONFIG_KEYS.get(flag, flag[2:].replace("-", "_"))
        doc = {key: True if value is None else json_value(value)}
        assert report_of(options[:i] + options[i + 1:], doc) == expected, flag


FAMILY_OPTIONS = {"n": ("--n", "5"), "k": ("--k", "2"), "edges": ("--edges", "1,2"),
                  "complete_k": ("--complete-k", "4"), "members": ("--members", "all=dict:2")}


@pytest.mark.parametrize("key", FAMILY_OPTIONS)
def test_family_file_with_a_family_option_exits_2_naming_it(key, tmp_path, capsys):
    """A family file fixes the hypergraph, n and members; a flag or config key
    that also sets one of them contradicts it."""
    family, config = tmp_path / "family.json", tmp_path / "config.json"
    family.write_text(json.dumps(FAMILY_FILE))
    flag, value = FAMILY_OPTIONS[key]
    expected = (2, "", f"error: a family file fixes the family; drop {key}\n")
    argv = ["htest", "--family", family, "--method", "mc", "--trials", 50]
    code, out = run(argv + [flag, value], capsys)
    assert (code, out.out, out.err) == expected
    config.write_text(json.dumps({key: json_value(value)}))
    code, out = run(argv + ["--config", config], capsys)
    assert (code, out.out, out.err) == expected
    config.write_text(json.dumps({"family": str(family)}))
    code, out = run(["htest", "--config", config, flag, value], capsys)
    assert (code, out.out, out.err) == expected


def test_family_file_names_every_conflicting_option(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(FAMILY_FILE))
    argv = ["htest", "--family", family, "--n", 5, "--complete-k", 4,
            "--members", "all=dict:2"]
    code, out = run(argv, capsys)
    assert (code, out.out) == (2, "")
    assert out.err == "error: a family file fixes the family; drop n, complete_k, members\n"


HYPERGRAPH_CONFLICTS = {"k": {"k": 3}, "edges": {"edges": "1,2;2,3"},
                        "k-and-edges": {"k": 3, "edges": "1,2;2,3"}}


@pytest.mark.parametrize("source", ["flag", "config-file"])
@pytest.mark.parametrize("rest", ["--members all=dict:1", "--random-families 1 --trials 10"],
                         ids=["completeness", "soundness"])
@pytest.mark.parametrize("extra", HYPERGRAPH_CONFLICTS.values(),
                         ids=HYPERGRAPH_CONFLICTS.keys())
def test_complete_k_beside_k_or_edges_exits_2_naming_them(extra, rest, source, tmp_path,
                                                          capsys):
    """complete_k fixes the hypergraph, so a k or edges beside it contradicts it."""
    argv = ["htest", "--n", 2, *rest.split()]
    if source == "flag":
        argv += ["--complete-k", 2]
        for key, value in extra.items():
            argv += [f"--{key}", value]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"complete_k": 2, **extra}))
        argv += ["--config", config]
    code, out = run(argv, capsys)
    message = f"error: complete_k fixes the hypergraph; drop {', '.join(extra)}\n"
    assert (code, out.out, out.err) == (2, "", message)


MALFORMED_FAMILY_FILES = {  # id -> (the bad key, the fields that replace FAMILY_FILE's)
    "n-float": ("n", {"n": 3.9}),
    "n-string": ("n", {"n": "3"}),
    "k-bool": ("k", {"k": True}),
    "edges-integers": ("edges", {"edges": [1, 2]}),
    "edges-float-vertex": ("edges", {"edges": [[1, 2.0]]}),
    "members-number": ("members", {"members": 5}),
    "member-value-number": ("members", {"members": {"v1": "dict:1", "v2": 5, "e1,2": "dict:1"}}),
    "allow-singletons-string": ("allow_singletons",
                                {"allow_singletons": "false", "edges": [[1], [1, 2]]}),
    "fold-number": ("fold", {"fold": 1}),
    "fold-unknown": ("fold", {"fold": "loose"}),
}


@pytest.mark.parametrize("key, fields", MALFORMED_FAMILY_FILES.values(),
                         ids=MALFORMED_FAMILY_FILES.keys())
def test_malformed_family_file_exits_2_naming_the_key(key, fields, tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({**FAMILY_FILE, **fields}))
    code, out = run(["htest", "--family", family], capsys)
    assert (code, out.out) == (2, "")
    assert out.err == f"error: family file {family}: bad value for {key!r}: {fields[key]!r}\n"


def test_family_file_with_an_unknown_key_exits_2_naming_it(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"n": 2, "k": 2, "edges": [[1, 2]],
                                  "members": "all=parity:3", "folding": "strict"}))
    code, out = run(["htest", "--family", family], capsys)
    assert (code, out.out) == (2, "")
    assert out.err == (f"error: family file {family}: unknown key 'folding' "
                       "(keys: n, k, edges, members, allow_singletons, fold)\n")


@pytest.mark.parametrize("source", ["flag", "config-file", "family-file"])
def test_edge_with_a_repeated_vertex_exits_2_naming_it(source, tmp_path, capsys):
    """An edge that lists a vertex twice is refused, not run on its vertex set."""
    path = tmp_path / "input.json"
    doc = {"k": 3, "edges": [[1, 3], [1, 2, 2]], "n": 2, "members": "all=dict:1"}
    if source == "flag":
        argv = ["htest", "--k", 3, "--edges", "1,3;1,2,2", "--n", 2, "--members", "all=dict:1"]
    elif source == "config-file":
        path.write_text(json.dumps(doc))
        argv = ["htest", "--config", path]
    else:
        path.write_text(json.dumps(doc))
        argv = ["htest", "--family", path]
    code, out = run(argv, capsys)
    assert (code, out.out, out.err) == (2, "", "error: edge [1, 2, 2] repeats vertex 2\n")


BAD_INPUT_FILES = {  # id -> (the file's text, None for no file; the key it names)
    "missing": (None, None),
    "invalid-json": ("{not json", None),
    "json-list": ("[1, 2]", None),
    "unknown-key": ('{"folding": "strict"}', "folding"),
    "mistyped-value": ('{"n": "3"}', "n"),
}


@pytest.mark.parametrize("option, what", [("--config", "htest config"),
                                          ("--family", "family file")])
@pytest.mark.parametrize("text, key", BAD_INPUT_FILES.values(), ids=BAD_INPUT_FILES.keys())
def test_bad_input_file_exits_2_naming_the_file_and_key(option, what, text, key,
                                                        tmp_path, capsys):
    """Config and family files are read by one reader with one error contract."""
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    code, out = run(["htest", option, path], capsys)
    assert (code, out.out) == (2, "")
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert f"{what} {path}" in out.err
    if key is not None:
        assert repr(key) in out.err


# ---------------------------------------------------------------------------
# Report writer
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _builtin(value):
    return value.item() if isinstance(value, np.generic) else value


def builtin_records(report):
    """The report as one dict per row, each numpy value as the builtin it
    stands for."""
    columns = list(report)
    return [{c: _builtin(report[c][i]) for c in columns}
            for i in range(len(report[columns[0]]))]


def report_by_rows(records, columns, as_json):
    """The report text built row by row from builtin values; the reference
    for write_report."""
    if as_json:
        return json.dumps(records, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for record in records:
        writer.writerow([_format_cell(record[c]) for c in columns])
    return buffer.getvalue()


def every_report(tmp_path):
    """The report of every ALL_OPTIONS call and of influence without --degree."""
    family = tmp_path / "family.json"
    family.write_text(json.dumps(FAMILY_FILE))
    parser = cli.build_parser()
    reports, commands = [], set()
    for argv in ALL_OPTIONS + ["influence --fn random:4 --n 4"]:
        args = parser.parse_args(argv.replace("FAMILY", str(family)).split())
        reports.append(cli.COMMANDS[args.command].run(cli._config(args)))
        commands.add(args.command)
    assert commands == set(cli.COMMANDS)
    return reports


def test_write_report_equals_the_per_row_report(tmp_path):
    out = tmp_path / "report"
    for report in every_report(tmp_path):
        columns = list(report)
        records = builtin_records(report)
        for as_json in (False, True):
            cli.write_report(report, columns, str(out), as_json)
            assert out.read_text() == report_by_rows(records, columns, as_json)


def test_write_report_formats_each_numpy_value_as_its_builtin(tmp_path):
    floats = [-0.0, 0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
              5e-324, 1e16, 1e-05, 0.1]
    report = {
        "x": np.array(floats + floats[::-1] + [0.1, -0.0]),
        "k": np.array([-3, 0, 7, -(2**62), 2**40, -1, 7, -3, 0, 1] * 2 + [-1, 5], dtype=np.int64),
        "s": [None, "a,b", '"', "", "x", None, '"', "a,b", "y", "z"] * 2 + ["a,b", None],
    }
    records = builtin_records(report)
    out = tmp_path / "report"
    for as_json in (False, True):
        cli.write_report(report, list(report), str(out), as_json)
        assert out.read_text() == report_by_rows(records, list(report), as_json)


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
def test_wht_report_equals_the_per_row_spectrum(as_json, capsys):
    n = 12
    coeffs = fourier.wht(parse_fnspec("random:3", n))
    records = [{"alpha_hex": format(alpha, "x"), "weight": bin(alpha).count("1"),
                "coeff": float(coeffs[alpha])} for alpha in range(1 << n)]
    code, out = run(["wht", "--fn", "random:3", "--n", n] + ["--json"] * as_json, capsys)
    assert code == 0
    assert out.out == report_by_rows(records, list(records[0]), as_json)


def test_wht_and_influence_build_no_per_row_object(monkeypatch, capsys):
    argvs = [["wht", "--fn", "random:2", "--n", 9], ["influence", "--fn", "random:2", "--n", 9],
             ["influence", "--fn", "random:2", "--n", 9, "--degree", 2, "--json"]]
    expected = [run(argv, capsys) for argv in argvs]
    report = cli._run_wht(cli.Config(fn="random:2", n=9))
    assert all(isinstance(report[c], np.ndarray) for c in ("weight", "coeff"))

    def refuse(*args, **kwargs):
        raise AssertionError("per-row object built")

    for name in ("ReportRow", "GowersRow", "_columns"):
        monkeypatch.setattr(cli, name, refuse)
    assert [run(argv, capsys) for argv in argvs] == expected


def test_few_row_reports_never_reach_np_unique(tmp_path, monkeypatch, capsys):
    """The per-value formatter is for the 2^n-row wht columns; the 1-10 row
    reports go to csv.writer as they are."""
    family = tmp_path / "family.json"
    family.write_text(json.dumps(FAMILY_FILE))
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
    for argv in ALL_OPTIONS + ["htest --complete-k 2 --n 3 --members all=dict:1"]:
        if not argv.startswith("wht"):
            code, _ = run(argv.replace("FAMILY", str(family)).split(), capsys)
            assert (code, calls) == (0, []), argv
    code, _ = run(["wht", "--fn", "dict:2", "--n", 3], capsys)
    assert (code, len(calls)) == (0, 2)  # one per numpy column


BUILTIN_SCALARS = {int, float, str, bool, type(None)}


def test_report_rows_hold_only_builtin_scalars(tmp_path):
    """csv.writer formats a numpy scalar by its own str or repr, which need not
    be the builtin's (np.float32(0.1) writes as 0.1, not 0.10000000149011612)."""
    for report in every_report(tmp_path):
        for name, column in report.items():
            cells = cli._cells(column)
            assert type(cells) is list and len(cells) == len(column), name
            kinds = {type(cell) for cell in cells}
            assert kinds <= BUILTIN_SCALARS, (name, kinds)
    assert cli._cells(np.array([0.1], dtype=np.float32)) == [repr(float(np.float32(0.1)))]


def test_influence_builds_one_weight_table_and_no_per_coordinate_sums(
        monkeypatch, capsys):
    argv = ["influence", "--fn", "random:5", "--n", 6, "--degree", 2]
    code, expected = run(argv, capsys)
    assert code == 0
    calls = []
    weights = fourier.hamming_weights
    monkeypatch.setattr(fourier, "hamming_weights", lambda n: calls.append(n) or weights(n))

    def refuse(*args):
        raise AssertionError("per-coordinate influence called")

    for module in (fourier, cli):
        for name in ("influence", "low_degree_influence"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    code, out = run(argv, capsys)
    assert (code, out.out) == (0, expected.out)
    assert calls == [6]


# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------

RERUN_ARGVS = [
    "htest --complete-k 3 --n 5 --random-families 2 --trials 5000 --seed 4",
    "htest --k 3 --edges 1,2;2,3 --n 4 --method mc --trials 9000 --members all=table:"
    + table_to_hex(random_folded(4, 2)),
    "gowers --fn random:3 --n 6 --d 3 --guard-bits 20 --seed 1",
    "xcheck --law basic --n 3 --count 2 --seed 5",
    "decode --n 6 --d 2 --coord 3 --rho 0.05 --tau 0.2 --count 2",
]


def csv_without_wall_ms(text):
    rows = list(csv.reader(io.StringIO(text)))
    if "wall_ms" in rows[0]:
        col = rows[0].index("wall_ms")
        for row in rows[1:]:
            row[col] = ""
    return rows


@pytest.mark.parametrize("argv", RERUN_ARGVS, ids=lambda argv: argv.split()[0])
def test_rerun_reproduces_csv_except_wall_ms(argv, tmp_path, capsys):
    texts = []
    for name in ("a.csv", "b.csv"):
        code, _ = run(argv.split() + ["--out", tmp_path / name], capsys)
        assert code == 0
        texts.append((tmp_path / name).read_text())
    assert len(csv_without_wall_ms(texts[0])) > 1
    assert csv_without_wall_ms(texts[0]) == csv_without_wall_ms(texts[1])


def test_main_builds_the_parser_once_per_process(monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    for argv in ["wht --fn dict:1 --n 2", "basictest --fn nope:1 --n 3",
                 "xcheck --n 3 --count 1", "gowers --fn dict:1 --n 3 --d 2"]:
        run(argv.split(), capsys)
    with pytest.raises(SystemExit):
        main(["wht", "--n", "x"])
    assert builds == [1]


def fresh_interpreter_report(argv, out):
    """Run main(argv) alone in a new interpreter; the report text."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys; from dictatest.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)],
                   env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return out.read_text()


def without_wall_ms(text):
    """The report's bytes, or its CSV cells with wall_ms emptied when it has one."""
    return csv_without_wall_ms(text) if "wall_ms" in text else text


def test_reused_parser_carries_nothing_from_one_call_to_the_next(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(FAMILY_FILE))
    argvs = [argv.replace("FAMILY", str(family)).split() for argv in ALL_OPTIONS]
    out = tmp_path / "report"
    expected = [without_wall_ms(fresh_interpreter_report(argv, out)) for argv in argvs]
    reports = {}
    for order in (range(len(argvs)), reversed(range(len(argvs)))):
        for i in order:
            assert main(argvs[i] + ["--out", str(out)]) == 0
            reports.setdefault(i, []).append(without_wall_ms(out.read_text()))
        with pytest.raises(SystemExit) as exit_2:
            main(["htest", "--n", "x", "--complete-k", "2"])
        with pytest.raises(SystemExit) as help_0:
            main(["htest", "--help"])
        assert (exit_2.value.code, help_0.value.code) == (2, 0)
    capsys.readouterr()
    assert [reports[i] for i in range(len(argvs))] == [[e, e] for e in expected]


# ---------------------------------------------------------------------------
# Import path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("module", ["dictatest.cli"])
def test_every_exported_name_resolves(module):
    """Each name in __all__ is an attribute, listed once, and a star import
    binds exactly those names to those attributes."""
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
    namespace = {}
    exec(f"from {module} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(mod.__all__)
    assert all(namespace[name] is getattr(mod, name) for name in mod.__all__)


def run_python(args, check=True):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=check
    )


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, dictatest.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert run_python(["-c", code]).stdout.strip() == "[]"


def test_python_m_runs_main_and_the_package_root_loads_nothing(capsys):
    """``python -m dictatest`` is ``main``; ``import dictatest`` loads no
    submodule and no numpy, and gives the version."""
    argv = ["wht", "--fn", "dict:1", "--n", "2"]
    code, out = run(argv, capsys)
    assert code == 0
    assert run_python(["-m", "dictatest", *argv]).stdout == out.out
    code = (
        "import sys, dictatest; "
        "print([m for m in sys.modules if m.startswith('dictatest.') "
        "or m.split('.')[0] == 'numpy'], dictatest.__version__)"
    )
    assert run_python(["-c", code]).stdout == "[] 0.1.0\n"


PROCESS_STATUSES = {
    "success": ("htest --complete-k 2 --n 2 --members all=dict:1", 0),
    "config-error": ("wht --fn dict:1 --n 0", 2),
    "guard-exceeded": ("htest --complete-k 3 --n 3 --members all=dict:1", 3),
    "invariant-violation": ("basictest --fn parity:0 --n 3", 4),
}


@pytest.mark.parametrize("argv, status", PROCESS_STATUSES.values(),
                         ids=PROCESS_STATUSES.keys())
def test_python_m_exits_with_mains_code(argv, status):
    """The status a shell sees from ``python -m dictatest`` is main's return."""
    result = run_python(["-m", "dictatest", *argv.split()], check=False)
    assert result.returncode == status
    assert (result.stdout == "") == (status != 0)


# ---------------------------------------------------------------------------
# One integer engine
# ---------------------------------------------------------------------------

# One call per subcommand and route; the gowers mc call reaches no transform.
ENGINE_CALLS = [
    "wht --fn random:3 --n 4",
    "influence --fn random:4 --n 4 --degree 2",
    "gowers --fn random:3 --n 3 --d 3 --method exact",
    "gowers --fn random:3 --n 3 --d 2 --method mc --trials 300",
    "basictest --fn random:5 --n 3 --method both",
    "htest --complete-k 2 --n 2 --members all=random:1 --method exact",
    "xcheck --law basic --n 3 --count 2",
    "xcheck --law noise --n 3 --count 2",
    "decode --n 4 --d 2 --coord 2 --rho 0.1 --tau 0.2 --w 2 --count 2",
]


def test_every_transform_runs_on_integer_tables(monkeypatch, capsys):
    """No subcommand hands a float array to the butterfly: every transform runs
    on int32/int64 tables, or Python ints past 62 bits."""
    kinds = []
    butterfly = fourier._butterfly

    def recording(values):
        kinds.append(values.dtype.kind)
        return butterfly(values)

    for module in (fourier, gowers, testers):  # where callers look it up
        monkeypatch.setattr(module, "_butterfly", recording)
    for argv in ENGINE_CALLS:
        kinds.clear()
        code, _ = run(argv.split(), capsys)
        assert code == 0, argv
        assert set(kinds) <= {"i", "O"}, (argv, kinds)
        assert kinds or "--method mc" in argv, argv


TRACED_CALLS = ENGINE_CALLS + [
    "gowers --fn random:3 --n 3 --d 2 --method auto --trials 300",
    "htest --complete-k 2 --n 2 --members all=random:1 --method mc --trials 300",
    "htest --complete-k 2 --n 2 --random-families 1 --trials 300",
]
# traced names that only library callers reach
LIBRARY_ONLY = {"fourier.subset_zeta", "fourier.influence", "fourier.low_degree_influence"}


def test_every_subcommand_runs_under_the_bench_tracer(monkeypatch, capsys):
    """bench/run.py --trace 1 wraps the functions in spans.TRACED by name and
    reads their arguments; a changed name or signature must fail here."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    original = fourier.wht
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        for argv in TRACED_CALLS:
            code = cli.main(argv.split())  # through cli, where the tracer wraps main
            capsys.readouterr()
            assert code == 0, argv
    finally:
        uninstall()
    assert fourier.wht is original
    assert {argv.split()[0] for argv in TRACED_CALLS} == set(cli.COMMANDS)
    assert {span.name for span in tracer.spans} == set(spans.TRACED) - LIBRARY_ONLY
