import csv
import io
import json

import numpy as np
import pytest

from dictatest.cli import main
from dictatest.families import random_folded
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
    "bad-fnspec": "basictest --fn nope:1 --n 3",
    "missing-argument": "basictest --fn dict:1",
}


@pytest.mark.parametrize("argv", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
def test_config_errors_exit_2(argv, capsys):
    code, out = run(argv.split(), capsys)
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ")


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    code, _ = run(["wht", "--config", tmp_path / "missing.json"], capsys)
    assert code == 2


def test_guard_exceeded_exits_3(capsys):
    code, out = run("basictest --fn dict:1 --n 8 --guard-bits 10".split(), capsys)
    assert code == 3
    assert "guard allows 2^10" in out.err


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
