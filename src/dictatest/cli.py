"""Command-line front end: seeded experiments with CSV/JSON reports.

Subcommands: wht, influence, gowers, basictest, htest, xcheck, decode.  Every
subcommand takes --seed, --out, --guard-bits, --json and --config.  --config
names a JSON object whose keys are the subcommand's option dest names: the
long option name with '_' for '-' (``guard_bits``, ``complete_k``), except
that --random-families is ``families`` and --degree is ``w``.  ``json`` takes
true or false, and null counts as absent.  Explicit flags win; an unknown
key or a value of the wrong JSON type is a config error naming the file
(``families.read_json_object`` reads family files by the same rules).
Reports are written atomically (temp file + rename), so a failed run leaves
no partial output; the file gets the mode ``open()`` would give it.
Re-running a config reproduces the CSV byte-for-byte except for the wall_ms
column.  ``main`` reuses one parser per process, built on its first call.

A runner returns its report as columns: column name -> a list, or a numpy
array for wht's 2^n-row weight and coeff columns.  ``write_report`` formats
a numpy column once per distinct value, by the builtin's repr or str, and
leaves lists to ``csv.writer``; JSON is ``json.dumps(records, indent=2)``
of the same columns, one record per row.

Exit codes: 0 success; 2 parse/config error (a bad flag, config file or
fnspec, an argument out of range, flags that contradict each other, or an
--out that cannot be written); 3 exact-route guard exceeded; 4 invariant
violation or arithmetic failure detected mid-run.
"""

import argparse
import csv
import json
import os
import sys
import time
import typing
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DEFAULT_GUARD_BITS, GuardExceeded, InvariantViolation, SpecParseError, check_guard,
)
from .families import (
    _int_lists, build_family, load_family, parse_fnspec, planted_decoder_family,
    random_family, random_folded, read_json_object,
)
from .fourier import hamming_weights, influences, spectrum_counts, wht
from .functions import BooleanFunction, check_dimension, table_to_hex
from .gowers import (
    IndexedFamily, find_influential_pair, gowers_inner_product_exact,
    gowers_inner_product_mc,
)
from .rng import derive_rng
from .testers import (
    Hypergraph, basic_test_prob_exact, basic_test_prob_fourier, complete_hypergraph,
    htest_prob_exact, htest_prob_mc, noisy_spectrum_law_deviation, query_budget,
)

__all__ = ["build_parser", "main", "write_report"]

DEFAULT_TRIALS = 100_000
_PARSER: argparse.ArgumentParser | None = None  # built by the first main() call


def _parse_edges(text: str) -> list[list[int]]:
    try:
        return [[int(v) for v in part.split(",")] for part in text.split(";") if part]
    except ValueError as exc:
        raise SpecParseError(f"bad edge list {text!r}: {exc}") from exc


@dataclass
class Config:
    """One run's settings.

    Field names are the argparse dest names and the config-file keys.  The
    first type of each annotation is the flag's type; a config-file value
    must have one of the annotation's JSON types (an integer also passes as
    a float).
    """

    fn: str | None = None
    n: int | None = None
    k: int | None = None
    edges: str | list | None = None
    complete_k: int | None = None
    family: str | None = None
    members: str | None = None
    d: int | None = None
    w: int | None = None
    tau: float | None = None
    rho: float | None = None
    coord: int | None = None
    count: int | None = None
    families: int | None = None
    trials: int = DEFAULT_TRIALS
    seed: int = 0
    guard_bits: int = DEFAULT_GUARD_BITS
    method: str | None = None
    law: str | None = None
    out: str | None = None
    json: bool = False

    def __post_init__(self):
        if isinstance(self.edges, str):
            self.edges = _parse_edges(self.edges)


# Config field name -> the types its annotation allows, flag type first.
# This module does not postpone annotations, so ``f.type`` is a type.
_FIELD_TYPES = {f.name: typing.get_args(f.type) or (f.type,) for f in fields(Config)}


@dataclass(kw_only=True)
class ReportRow:
    experiment: str
    n: int
    k: int | None = None
    edge_count: int | None = None
    family: str
    method: str
    value: float
    ci_low: float | None = None
    ci_high: float | None = None
    trials: int | None = None
    seed: int | None = None
    total_queries: int | None = None
    wall_ms: int


@dataclass(kw_only=True)
class GowersRow:
    d: int
    n: int
    method: str
    value: float
    stderr: float | None = None


def _require(cfg: Config, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise SpecParseError(f"missing required option {name!r}")


def _count(cfg: Config) -> range:
    """range(count), once count is given and positive."""
    _require(cfg, "count")
    if cfg.count < 1:
        raise SpecParseError(f"'count' must be >= 1, got {cfg.count}")
    return range(cfg.count)


def _columns(row_type, rows) -> dict[str, list]:
    """A few-row report's rows as columns, in the row dataclass's field order."""
    return {f.name: [getattr(row, f.name) for row in rows] for f in fields(row_type)}


def _cells(column) -> list:
    """A column's CSV cells.  A numpy column is formatted once per distinct
    value by the builtin's repr (floats, told apart by bit pattern, so that
    -0.0 and every nan and inf keep their own text) or str (other dtypes).
    A list goes to ``csv.writer`` as it is."""
    if not isinstance(column, np.ndarray):
        return column
    if column.dtype.kind == "f":
        bits = column.astype(np.float64, copy=False).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        texts = map(repr, distinct.view(np.float64).tolist())
    else:
        distinct, inverse = np.unique(column, return_inverse=True)
        texts = map(str, distinct.tolist())
    return np.array(list(texts), dtype=object)[inverse].tolist()


def write_report(report, columns, out: str | None, as_json: bool) -> None:
    """Serialize ``report``'s ``columns`` (name -> a list or numpy array, all
    of one length), a row per index; atomic rename when writing to a file.
    CSV rows go to the stream through one ``csv.writer`` as they are made."""

    def write(stream) -> None:
        if as_json:
            values = [v.tolist() if isinstance(v, np.ndarray) else v
                      for v in map(report.__getitem__, columns)]
            rows = [dict(zip(columns, row)) for row in zip(*values)]
            stream.write(json.dumps(rows, indent=2) + "\n")
        else:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(zip(*(_cells(report[c]) for c in columns)))

    if out is None:
        write(sys.stdout)
        return
    tmp_name = os.path.join(os.path.dirname(out), f"tmp{os.urandom(6).hex()}.tmp")
    handle = open(tmp_name, "x")  # a new file's mode under the umask, as open() gives
    try:
        with handle:
            write(handle)
        os.replace(tmp_name, out)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _elapsed_ms(start: float) -> int:
    return int((time.perf_counter() - start) * 1000)


def _hypergraph(cfg: Config) -> Hypergraph:
    if cfg.complete_k is not None:
        if extra := [key for key in ("k", "edges") if getattr(cfg, key) is not None]:
            raise SpecParseError(f"complete_k fixes the hypergraph; drop {', '.join(extra)}")
        return complete_hypergraph(cfg.complete_k)
    if cfg.k is not None and cfg.edges is not None:
        return Hypergraph(cfg.k, cfg.edges)
    raise SpecParseError("need either complete_k or both k and edges")


# ---------------------------------------------------------------------------
# Runners: one per subcommand, each a pure function of its Config
# ---------------------------------------------------------------------------


def _run_wht(cfg: Config) -> dict:
    _require(cfg, "n", "fn")
    return {"alpha_hex": [format(alpha, "x") for alpha in range(1 << cfg.n)],
            "weight": hamming_weights(cfg.n), "coeff": wht(parse_fnspec(cfg.fn, cfg.n))}


def _run_influence(cfg: Config) -> dict:
    _require(cfg, "n", "fn")
    counts = spectrum_counts(parse_fnspec(cfg.fn, cfg.n))
    low = [None] * cfg.n if cfg.w is None else influences(counts, cfg.w)
    return {"coord": list(range(1, cfg.n + 1)), "influence": influences(counts),
            "low_degree": low}


def _gowers_row(cfg: Config, fam: IndexedFamily, method: str) -> GowersRow:
    """Exact unless the method is mc, or it is auto and the guard refuses."""
    if method != "mc":
        try:
            value = gowers_inner_product_exact(fam, guard_bits=cfg.guard_bits)
        except GuardExceeded:
            if method == "exact":
                raise
        else:
            return GowersRow(d=fam.d, n=cfg.n, method="exact", value=value)
    value, stderr = gowers_inner_product_mc(fam, cfg.trials, cfg.seed)
    return GowersRow(d=fam.d, n=cfg.n, method="mc", value=value, stderr=stderr)


def _run_gowers(cfg: Config) -> dict:
    """Rows of <constant family of f>_{U_d} = ||f||_{U_d}^{2^d} for d = 1..D."""
    _require(cfg, "n", "fn", "d")
    if cfg.d < 1:
        raise SpecParseError(f"gowers needs d >= 1, got {cfg.d}")
    f = parse_fnspec(cfg.fn, cfg.n)
    method = cfg.method or "auto"
    if method not in ("auto", "exact", "mc"):
        raise SpecParseError(f"unknown gowers method {method!r}")
    return _columns(GowersRow, [
        _gowers_row(cfg, IndexedFamily.constant(d, f), method)
        for d in range(1, cfg.d + 1)
    ])


def _basic_row(cfg: Config, experiment: str, family: str, f, method: str) -> ReportRow:
    start = time.perf_counter()
    if method == "exact":
        value = basic_test_prob_exact(f, guard_bits=cfg.guard_bits)
    else:
        value = basic_test_prob_fourier(f)
    return ReportRow(experiment=experiment, n=cfg.n, family=family, method=method,
                     value=value, seed=cfg.seed, total_queries=4,
                     wall_ms=_elapsed_ms(start))


def _run_basictest(cfg: Config) -> dict:
    _require(cfg, "n", "fn")
    f = parse_fnspec(cfg.fn, cfg.n)
    methods = {None: ["exact"], "exact": ["exact"], "fourier": ["fourier"],
               "both": ["exact", "fourier"]}.get(cfg.method)
    if methods is None:
        raise SpecParseError(f"unknown basictest method {cfg.method!r}")
    return _columns(ReportRow, [_basic_row(cfg, "completeness", cfg.fn, f, method)
                                for method in methods])


def _htest_row(h: Hypergraph, start: float, **row) -> ReportRow:
    return ReportRow(k=h.k, edge_count=len(h.edges), total_queries=query_budget(h)[2],
                     wall_ms=_elapsed_ms(start), **row)


def _run_htest(cfg: Config) -> dict:
    """Soundness on random families with --random-families, else completeness."""
    if cfg.families is not None:
        _require(cfg, "n")
        if cfg.members is not None or cfg.family is not None:
            raise SpecParseError("random families replace --members and --family")
        if cfg.families < 1:
            raise SpecParseError(f"need at least one random family, got {cfg.families}")
        if cfg.method not in (None, "mc"):
            raise SpecParseError(f"random families run only --method mc, got {cfg.method!r}")
        h = _hypergraph(cfg)
        rows = []
        for idx in range(cfg.families):
            start = time.perf_counter()
            fam = random_family(h, cfg.n, (cfg.seed, 0, idx))
            value, low, high = htest_prob_mc(fam, cfg.trials, (cfg.seed, 1, idx))
            rows.append(_htest_row(
                h, start, experiment="soundness", n=cfg.n, family=f"random[{idx}]",
                method="mc", value=value, ci_low=low, ci_high=high, trials=cfg.trials,
                seed=cfg.seed))
        return _columns(ReportRow, rows)
    if cfg.family is not None:
        if extra := [key for key in ("n", "k", "edges", "complete_k", "members")
                     if getattr(cfg, key) is not None]:
            raise SpecParseError(f"a family file fixes the family; drop {', '.join(extra)}")
        fam, family = load_family(cfg.family), "family-file"
    else:
        _require(cfg, "n", "members")
        fam, family = build_family(_hypergraph(cfg), cfg.n, cfg.members), cfg.members
    method = cfg.method or "exact"
    start = time.perf_counter()
    if method == "exact":
        value = htest_prob_exact(fam, guard_bits=cfg.guard_bits)
        low = high = trials = None
    elif method == "mc":
        trials = cfg.trials
        value, low, high = htest_prob_mc(fam, trials, cfg.seed)
    else:
        raise SpecParseError(f"unknown htest method {method!r}")
    return _columns(ReportRow, [_htest_row(
        fam.hypergraph, start, experiment="completeness", n=fam.n, family=family,
        method=method, value=value, ci_low=low, ci_high=high, trials=trials,
        seed=cfg.seed)])


def _run_xcheck(cfg: Config) -> dict:
    """The basic test's exact and Fourier routes on random folded functions
    (law basic), or the noisy-spectrum law's deviation (law noise)."""
    law = cfg.law or "basic"
    if law not in ("basic", "noise"):
        raise SpecParseError(f"unknown xcheck law {law!r}")
    _require(cfg, "n")
    check_dimension(cfg.n)
    rows = []
    for t in _count(cfg):
        if law == "basic":
            f = random_folded(cfg.n, (cfg.seed, t))
            family = f"table:{table_to_hex(f)}"
            rows += [_basic_row(cfg, "formula-xcheck", family, f, method)
                     for method in ("exact", "fourier")]
            continue
        rng = derive_rng(cfg.seed, t)
        f = BooleanFunction(cfg.n, 1 - 2 * rng.integers(0, 2, size=1 << cfg.n))
        c = int(rng.integers(0, 1 << cfg.n))
        c_prime = int(rng.integers(0, 1 << cfg.n))
        start = time.perf_counter()
        value = noisy_spectrum_law_deviation(f, c, c_prime, guard_bits=cfg.guard_bits)
        rows.append(ReportRow(
            experiment="noise-prop", n=cfg.n,
            family=f"table:{table_to_hex(f)}|c:{c:x}|cp:{c_prime:x}", method="exact",
            value=value, seed=cfg.seed, wall_ms=_elapsed_ms(start)))
    return _columns(ReportRow, rows)


def _run_decode(cfg: Config) -> dict:
    _require(cfg, "n", "d", "coord", "rho", "tau")
    if cfg.d < 1:
        raise SpecParseError(f"decode needs d >= 1, got {cfg.d}")
    n = check_dimension(cfg.n)
    check_guard(cfg.d + n, cfg.guard_bits,
                f"decode covers 2^{cfg.d} members of 2^{n} points (2^{cfg.d + n})")
    rows = []
    for s in _count(cfg):
        start = time.perf_counter()
        members, _ = planted_decoder_family(cfg.d, cfg.n, cfg.coord, cfg.rho, (cfg.seed, s))
        found = find_influential_pair(members, cfg.w, cfg.tau)
        rows.append(ReportRow(
            experiment="decode", n=cfg.n, k=cfg.d,
            family=f"planted[{s}]:dict@{cfg.coord},rho={cfg.rho}", method="exact",
            value=1.0 if found is not None and found[2] == cfg.coord else 0.0,
            seed=cfg.seed, wall_ms=_elapsed_ms(start)))
    return _columns(ReportRow, rows)


# ---------------------------------------------------------------------------
# The command table, and the parser and config merge built from it
# ---------------------------------------------------------------------------


def _opt(flag: str, help: str | None = None, dest: str | None = None) -> tuple:
    """(flag, dest, help); dest defaults to the flag's name with '_' for '-'."""
    return flag, dest or flag[2:].replace("-", "_"), help


@dataclass
class Command:
    help: str
    run: typing.Callable[[Config], dict]  # the report: column name -> column
    options: tuple


_COMMON = (_opt("--seed"), _opt("--out"), _opt("--guard-bits"), _opt("--json"))
_FN_N = (_opt("--fn"), _opt("--n"))

COMMANDS = {
    "wht": Command("spectrum of one function as CSV", _run_wht, _FN_N),
    "influence": Command("per-coordinate influences", _run_influence,
                         (*_FN_N, _opt("--degree", dest="w"))),
    "gowers": Command("uniformity-norm powers of one function", _run_gowers,
                      (*_FN_N, _opt("--d"), _opt("--method", "auto|exact|mc"),
                       _opt("--trials"))),
    "basictest": Command("four-query test acceptance probability", _run_basictest,
                         (*_FN_N, _opt("--method", "exact|fourier|both"))),
    "htest": Command("hypergraph test acceptance probability", _run_htest, (
        _opt("--family", "family JSON file"),
        _opt("--n"),
        _opt("--k"),
        _opt("--edges", 'e.g. "1,2;1,3;2,3"'),
        _opt("--complete-k"),
        _opt("--members", 'e.g. "all=dict:1"'),
        _opt("--method", "exact|mc"),
        _opt("--trials"),
        _opt("--random-families",
             "run the soundness experiment on this many i.i.d. random families",
             "families"),
    )),
    "xcheck": Command("dual-path identity checks", _run_xcheck,
                      (_opt("--law", "basic|noise"), _opt("--n"), _opt("--count"))),
    "decode": Command("influential-pair decoding on planted families", _run_decode,
                      (_opt("--n"), _opt("--d"), _opt("--coord"), _opt("--rho"),
                       _opt("--tau"), _opt("--w"), _opt("--count"))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dictatest",
        description="Dictatorship-test experiments on the boolean hypercube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, dest, help in command.options + _COMMON:
            kind = _FIELD_TYPES[dest][0]
            how = {"action": "store_const", "const": True} if kind is bool else {"type": kind}
            p.add_argument(flag, dest=dest, default=None, help=help, **how)
        p.add_argument("--config", type=str, default=None)
    return parser


def _config(args: argparse.Namespace) -> Config:
    """Each option from its flag, else from the config file, else the default."""
    keys = {dest: _FIELD_TYPES[dest] for _, dest, _ in COMMANDS[args.command].options + _COMMON}
    doc, where = {}, f"{args.command} config {args.config}: "
    if args.config is not None:
        doc = read_json_object(args.config, f"{args.command} config", keys)
        if type(doc.get("edges")) is list and not _int_lists(doc["edges"]):
            raise SpecParseError(f"{where}bad value for 'edges': {doc['edges']!r}")
    flags = {key: value for key in keys if (value := getattr(args, key)) is not None}
    for key in ("seed", "guard_bits"):  # the file's value first, then the flag's
        for prefix, values in ((where, doc), ("", flags)):
            if values.get(key, 0) < 0:
                raise SpecParseError(f"{prefix}'{key}' must be >= 0, got {values[key]}")
    return Config(**(doc | flags))


def main(argv=None) -> int:
    global _PARSER
    _PARSER = _PARSER or build_parser()
    args = _PARSER.parse_args(argv)
    command = COMMANDS[args.command]
    try:
        cfg = _config(args)
        report = command.run(cfg)
        write_report(report, list(report), cfg.out, cfg.json)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvariantViolation, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # SpecParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
