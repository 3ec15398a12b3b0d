"""Correctness checks on the CSV each benchmark call writes.

Two kinds of check:

* invariants that hold by construction for any seed (a dictator family is
  accepted with probability exactly 1, an exact enumerator returns a dyadic
  rational, the exact and spectral routes of the basic test agree, ...);
* for the default workload seed, a comparison with committed expected CSVs,
  column by column and by name.  ``wall_ms`` and any column the expected CSV
  lacks are ignored, so a later change that only adds a column still passes
  while any changed value fails.

Every check takes the parsed rows (a list of column -> text dicts) and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io

IGNORED_COLUMNS = frozenset({"wall_ms"})
FOURIER_TOLERANCE = 1e-10  # the tolerance tests/test_testers.py uses for exact vs fourier
NOISE_LAW_TOLERANCE = 1e-12
MAX_REPORTED = 5


def parse_csv(text: str) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(text))
    rows = list(reader)
    return list(reader.fieldnames or []), rows


def drop_ignored(text: str) -> str:
    """The CSV without the columns a comparison ignores."""
    columns, rows = parse_csv(text)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, [c for c in columns if c not in IGNORED_COLUMNS],
                            extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def compare_with_expected(actual: str, expected: str) -> list[str]:
    """Problems of ``actual`` against ``expected``, compared by column name."""
    actual_cols, actual_rows = parse_csv(actual)
    expected_cols, expected_rows = parse_csv(expected)
    columns = [c for c in expected_cols if c not in IGNORED_COLUMNS]
    missing = [c for c in columns if c not in actual_cols]
    if missing:
        return [f"missing columns {missing}"]
    if len(actual_rows) != len(expected_rows):
        return [f"{len(actual_rows)} rows, expected {len(expected_rows)}"]
    problems = []
    for i, (got, want) in enumerate(zip(actual_rows, expected_rows)):
        for c in columns:
            if got[c] != want[c]:
                problems.append(f"row {i} {c}: {got[c]!r}, expected {want[c]!r}")
    return problems


def carries(rows, expect) -> list[str]:
    """Every row repeats the inputs the call was given."""
    return [
        f"row {i} {col}: {row.get(col)!r}, expected {want!r}"
        for i, row in enumerate(rows)
        for col, want in expect
        if row.get(col) != want
    ]


def _values(rows, method=None):
    return [float(r["value"]) for r in rows if method is None or r["method"] == method]


def value_is_one(rows) -> list[str]:
    """Completeness on a dictator family is exactly 1, exact and MC alike."""
    return [f"value {v!r} != 1.0" for v in _values(rows) if v != 1.0]


def probability(rows) -> list[str]:
    return [f"value {v!r} outside [0, 1]" for v in _values(rows) if not 0.0 <= v <= 1.0]


def _is_dyadic(value: float, bits: int) -> bool:
    scaled = value * (1 << bits)
    return 0.0 <= value <= 1.0 and scaled == int(scaled)


def dyadic(bits: int):
    """Exact rows are accept counts over 2^bits equally likely draws."""

    def check(rows) -> list[str]:
        return [
            f"exact value {v!r} is not a multiple of 2^-{bits} in [0, 1]"
            for v in _values(rows, "exact")
            if not _is_dyadic(v, bits)
        ]

    return check


def soundness_interval(rows) -> list[str]:
    """An MC estimate is accepts/trials and lies inside its Wilson interval."""
    problems = []
    for row in rows:
        value, trials = float(row["value"]), int(row["trials"])
        low, high = float(row["ci_low"]), float(row["ci_high"])
        if not 0.0 <= low <= value <= high <= 1.0:
            problems.append(f"interval [{low}, {high}] does not hold {value}")
        if abs(value * trials - round(value * trials)) > 1e-6:
            problems.append(f"value {value} is not a count over {trials} trials")
    return problems


def exact_matches_fourier(rows) -> list[str]:
    """Each function's exact and closed-form basic-test values agree."""
    by_family: dict[str, dict[str, float]] = {}
    for row in rows:
        by_family.setdefault(row["family"], {})[row["method"]] = float(row["value"])
    problems = []
    for family, values in by_family.items():
        if set(values) != {"exact", "fourier"}:
            problems.append(f"{family}: methods {sorted(values)}, expected exact and fourier")
        elif abs(values["exact"] - values["fourier"]) > FOURIER_TOLERANCE:
            problems.append(f"{family}: exact {values['exact']!r} != fourier {values['fourier']!r}")
    return problems


def noise_law(rows) -> list[str]:
    return [
        f"noise-law deviation {v!r} > {NOISE_LAW_TOLERANCE}"
        for v in _values(rows)
        if not 0.0 <= v <= NOISE_LAW_TOLERANCE
    ]


def gowers_rows(max_d: int):
    """Rows d = 1..max_d; exact rows are dyadic, every value lies in [-1, 1]."""

    def check(rows) -> list[str]:
        problems = []
        if [row["d"] for row in rows] != [str(d) for d in range(1, max_d + 1)]:
            problems.append(f"rows for d = {[row['d'] for row in rows]}")
        for row in rows:
            value, d, n = float(row["value"]), int(row["d"]), int(row["n"])
            if not -1.0 <= value <= 1.0:
                problems.append(f"d={d}: value {value!r} outside [-1, 1]")
            if row["method"] == "exact":
                scaled = value * (1 << (d + 1) * n)
                if scaled != int(scaled):
                    problems.append(f"d={d}: exact value {value!r} not dyadic")
            elif not float(row["stderr"]) >= 0.0:
                problems.append(f"d={d}: stderr {row['stderr']!r}")
        return problems

    return check


def decode_rows(rows) -> list[str]:
    return [f"decode value {v!r} not 0 or 1" for v in _values(rows) if v not in (0.0, 1.0)]


def influence_rows(n: int):
    """Coordinates 1..n with 0 <= I^{<=w}_i <= I_i <= 1."""

    def check(rows) -> list[str]:
        problems = []
        if [row["coord"] for row in rows] != [str(i) for i in range(1, n + 1)]:
            problems.append("coordinates are not 1..n")
        for row in rows:
            infl, low = float(row["influence"]), float(row["low_degree"])
            if not 0.0 <= low <= infl + 1e-12 <= 1.0 + 1e-12:
                problems.append(f"coord {row['coord']}: low {low!r}, influence {infl!r}")
        return problems

    return check


def wht_rows(n: int):
    """2^n rows in index order with popcount weights and Parseval exact.

    Coefficients of a ±1 table are multiples of 2^-n, so their squares and
    every partial sum are exact doubles for n <= 26: the sum must be 1.0.
    """

    def check(rows) -> list[str]:
        if len(rows) != 1 << n:
            return [f"{len(rows)} rows, expected {1 << n}"]
        problems = []
        for i, row in enumerate(rows):
            if row["alpha_hex"] != format(i, "x") or int(row["weight"]) != i.bit_count():
                problems.append(f"row {i}: alpha {row['alpha_hex']}, weight {row['weight']}")
        power = sum(float(row["coeff"]) ** 2 for row in rows)
        if power != 1.0:
            problems.append(f"Parseval sum {power!r} != 1.0")
        return problems

    return check


def check_output(call, exit_code, text: str | None, expected: dict | None) -> list[str]:
    """All problems of one call's result; ``expected`` is its golden record."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    if text is None:
        return ["no output file"]
    _, rows = parse_csv(text)
    if not rows:
        return ["empty report"]
    problems = carries(rows, call.expect)
    for check in call.checks:
        problems += check(rows)
    if expected is not None:
        if tuple(expected["argv"]) != call.argv:
            problems.append("argv differs from the expected record; re-baseline")
        else:
            problems += compare_with_expected(text, expected["csv"])
    return problems[:MAX_REPORTED]
