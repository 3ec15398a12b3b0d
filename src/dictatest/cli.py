"""Command-line front end: seeded experiments with CSV/JSON reports.

Subcommands: wht, influence, gowers, basictest, htest, xcheck, decode.  Every
subcommand takes --seed, --out, --guard-bits, --json and --config (a JSON
file whose keys are the long option names; explicit flags win).  Reports are
written atomically (temp file + rename), so a failed run leaves no partial
output.  Re-running a config reproduces the CSV byte-for-byte except for the
wall_ms column.

Exit codes: 0 success; 2 parse/config error (a bad flag, config file or
fnspec, an argument out of range, flags that contradict each other, or an
--out that cannot be written); 3 enumeration guard exceeded; 4 invariant
violation or arithmetic failure detected mid-run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import (
    DEFAULT_GUARD_BITS,
    GuardExceeded,
    InvariantViolation,
    SpecParseError,
)
from .families import (
    build_family,
    load_family,
    parse_fnspec,
    planted_decoder_family,
    random_family,
    random_folded,
)
from .fourier import hamming_weights, influence, low_degree_influence, wht
from .functions import BooleanFunction, table_to_hex
from .gowers import (
    IndexedFamily,
    find_influential_pair,
    gowers_inner_product_exact,
    gowers_inner_product_mc,
)
from .rng import derive_rng
from .stats import wilson_interval
from .testers import (
    FunctionFamily,
    Hypergraph,
    basic_test_prob_exact,
    basic_test_prob_fourier,
    complete_hypergraph,
    htest_prob_exact,
    htest_prob_mc,
    noisy_spectrum_law_deviation,
    query_budget,
)

__all__ = [
    "ExperimentConfig",
    "GowersRow",
    "ReportRow",
    "build_parser",
    "main",
    "run_experiment",
    "wilson_interval",
    "write_report",
]

DEFAULT_TRIALS = 100_000

REPORT_COLUMNS = [
    "experiment",
    "n",
    "k",
    "edge_count",
    "family",
    "method",
    "value",
    "ci_low",
    "ci_high",
    "trials",
    "seed",
    "total_queries",
    "wall_ms",
]

GOWERS_COLUMNS = ["d", "n", "method", "value", "stderr"]
SPECTRUM_COLUMNS = ["alpha_hex", "weight", "coeff"]
INFLUENCE_COLUMNS = ["coord", "influence", "low_degree"]


@dataclass
class ReportRow:
    experiment: str
    n: int
    k: int | None
    edge_count: int | None
    family: str
    method: str
    value: float
    ci_low: float | None
    ci_high: float | None
    trials: int | None
    seed: int | None
    total_queries: int | None
    wall_ms: int


@dataclass
class GowersRow:
    d: int
    n: int
    method: str
    value: float
    stderr: float | None


@dataclass
class ExperimentConfig:
    """One experiment: what to run, on what, with which seeds and guards."""

    kind: str
    n: int | None = None
    k: int | None = None
    edges: list | None = None
    complete_k: int | None = None
    family_file: str | None = None
    members: str | None = None
    fn: str | None = None
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
    as_json: bool = False


def _require(cfg: ExperimentConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise SpecParseError(f"experiment {cfg.kind!r} requires {name!r}")


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_report(rows, columns, out: str | None, as_json: bool) -> None:
    """Serialize rows; atomic rename when writing to a file."""
    records = [asdict(r) for r in rows]
    if as_json:
        text = json.dumps(records, indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for record in records:
            writer.writerow([_format_cell(record[c]) for c in columns])
        text = buffer.getvalue()
    if out is None:
        sys.stdout.write(text)
        return
    target = Path(out)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent if str(target.parent) else ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _build_hypergraph(cfg: ExperimentConfig) -> Hypergraph:
    if cfg.complete_k is not None:
        return complete_hypergraph(cfg.complete_k)
    if cfg.k is not None and cfg.edges is not None:
        return Hypergraph(cfg.k, [frozenset(e) for e in cfg.edges])
    raise SpecParseError("need either complete_k or both k and edges")


def _build_function_family(cfg: ExperimentConfig) -> FunctionFamily:
    if cfg.family_file is not None:
        return load_family(cfg.family_file)
    _require(cfg, "n", "members")
    return build_family(_build_hypergraph(cfg), cfg.n, cfg.members)


def _elapsed_ms(start: float) -> int:
    return int((time.perf_counter() - start) * 1000)


# ---------------------------------------------------------------------------
# Experiment kinds
# ---------------------------------------------------------------------------


def _run_completeness(cfg: ExperimentConfig) -> list[ReportRow]:
    rows: list[ReportRow] = []
    wants_family = (
        cfg.family_file is not None
        or cfg.complete_k is not None
        or cfg.edges is not None
    )
    if wants_family:
        fam = _build_function_family(cfg)
        budget = query_budget(fam.hypergraph)[2]
        methods = [cfg.method or "exact"]
        for method in methods:
            start = time.perf_counter()
            if method == "exact":
                value = htest_prob_exact(fam, guard_bits=cfg.guard_bits)
                ci_low = ci_high = trials = None
            elif method == "mc":
                trials = cfg.trials
                value, ci_low, ci_high = htest_prob_mc(fam, trials, cfg.seed)
            else:
                raise SpecParseError(f"unknown htest method {method!r}")
            rows.append(
                ReportRow(
                    "completeness",
                    fam.n,
                    fam.hypergraph.k,
                    len(fam.hypergraph.edges),
                    cfg.members if isinstance(cfg.members, str) else "family-file",
                    method,
                    value,
                    ci_low,
                    ci_high,
                    trials,
                    cfg.seed,
                    budget,
                    _elapsed_ms(start),
                )
            )
        return rows

    _require(cfg, "n", "fn")
    f = parse_fnspec(cfg.fn, cfg.n)
    methods = {
        None: ["exact"],
        "exact": ["exact"],
        "fourier": ["fourier"],
        "both": ["exact", "fourier"],
    }.get(cfg.method)
    if methods is None:
        raise SpecParseError(f"unknown basictest method {cfg.method!r}")
    for method in methods:
        start = time.perf_counter()
        if method == "exact":
            value = basic_test_prob_exact(f, guard_bits=cfg.guard_bits)
        else:
            value = basic_test_prob_fourier(f)
        rows.append(
            ReportRow(
                "completeness",
                cfg.n,
                None,
                None,
                cfg.fn,
                method,
                value,
                None,
                None,
                None,
                cfg.seed,
                4,
                _elapsed_ms(start),
            )
        )
    return rows


def _run_soundness(cfg: ExperimentConfig) -> list[ReportRow]:
    _require(cfg, "n")
    if cfg.members is not None or cfg.family_file is not None:
        raise SpecParseError("random families replace --members and --family")
    n_families = 1 if cfg.families is None else cfg.families
    if n_families < 1:
        raise SpecParseError(f"need at least one random family, got {n_families}")
    h = _build_hypergraph(cfg)
    budget = query_budget(h)[2]
    rows = []
    for idx in range(n_families):
        start = time.perf_counter()
        fam = random_family(h, cfg.n, (cfg.seed, 0, idx))
        value, ci_low, ci_high = htest_prob_mc(fam, cfg.trials, (cfg.seed, 1, idx))
        rows.append(
            ReportRow(
                "soundness",
                cfg.n,
                h.k,
                len(h.edges),
                f"random[{idx}]",
                "mc",
                value,
                ci_low,
                ci_high,
                cfg.trials,
                cfg.seed,
                budget,
                _elapsed_ms(start),
            )
        )
    return rows


def _run_formula_xcheck(cfg: ExperimentConfig) -> list[ReportRow]:
    _require(cfg, "n", "count")
    rows = []
    for t in range(cfg.count):
        f = random_folded(cfg.n, (cfg.seed, t))
        family = f"table:{table_to_hex(f)}"
        for method, prob in (
            ("exact", lambda g: basic_test_prob_exact(g, guard_bits=cfg.guard_bits)),
            ("fourier", basic_test_prob_fourier),
        ):
            start = time.perf_counter()
            rows.append(
                ReportRow(
                    "formula-xcheck",
                    cfg.n,
                    None,
                    None,
                    family,
                    method,
                    prob(f),
                    None,
                    None,
                    None,
                    cfg.seed,
                    4,
                    _elapsed_ms(start),
                )
            )
    return rows


def _run_noise_prop(cfg: ExperimentConfig) -> list[ReportRow]:
    _require(cfg, "n", "count")
    rows = []
    for t in range(cfg.count):
        rng = derive_rng(cfg.seed, t)
        table = 1 - 2 * rng.integers(0, 2, size=1 << cfg.n)
        f = BooleanFunction(cfg.n, table)
        c = int(rng.integers(0, 1 << cfg.n))
        c_prime = int(rng.integers(0, 1 << cfg.n))
        start = time.perf_counter()
        deviation = noisy_spectrum_law_deviation(
            f, c, c_prime, guard_bits=cfg.guard_bits
        )
        rows.append(
            ReportRow(
                "noise-prop",
                cfg.n,
                None,
                None,
                f"table:{table_to_hex(f)}|c:{c:x}|cp:{c_prime:x}",
                "exact",
                deviation,
                None,
                None,
                None,
                cfg.seed,
                None,
                _elapsed_ms(start),
            )
        )
    return rows


def _run_decode(cfg: ExperimentConfig) -> list[ReportRow]:
    _require(cfg, "n", "d", "coord", "rho", "tau", "count")
    rows = []
    for s in range(cfg.count):
        start = time.perf_counter()
        fam, _planted = planted_decoder_family(
            cfg.d, cfg.n, cfg.coord, cfg.rho, (cfg.seed, s)
        )
        found = find_influential_pair(fam, cfg.w, cfg.tau)
        success = found is not None and found[2] == cfg.coord
        rows.append(
            ReportRow(
                "decode",
                cfg.n,
                cfg.d,
                None,
                f"planted[{s}]:dict@{cfg.coord},rho={cfg.rho}",
                "exact",
                1.0 if success else 0.0,
                None,
                None,
                None,
                cfg.seed,
                None,
                _elapsed_ms(start),
            )
        )
    return rows


def _run_gowers_report(cfg: ExperimentConfig) -> list[GowersRow]:
    """Rows of <constant family of f>_{U_d} = ||f||_{U_d}^{2^d} for d = 1..D."""
    _require(cfg, "n", "fn", "d")
    if cfg.d < 1:
        raise SpecParseError(f"gowers needs d >= 1, got {cfg.d}")
    f = parse_fnspec(cfg.fn, cfg.n)
    rows = []
    for d in range(1, cfg.d + 1):
        fam = IndexedFamily.constant(d, f)
        method = cfg.method or "auto"
        if method not in ("auto", "exact", "mc"):
            raise SpecParseError(f"unknown gowers method {method!r}")
        use_exact = method == "exact" or (
            method == "auto" and (d + 1) * cfg.n <= cfg.guard_bits
        )
        if use_exact:
            value = gowers_inner_product_exact(fam, guard_bits=cfg.guard_bits)
            rows.append(GowersRow(d, cfg.n, "exact", value, None))
        else:
            value, stderr = gowers_inner_product_mc(fam, cfg.trials, cfg.seed)
            rows.append(GowersRow(d, cfg.n, "mc", value, stderr))
    return rows


_KIND_RUNNERS = {
    "completeness": _run_completeness,
    "soundness": _run_soundness,
    "formula-xcheck": _run_formula_xcheck,
    "noise-prop": _run_noise_prop,
    "decode": _run_decode,
    "gowers-report": _run_gowers_report,
}


def run_experiment(cfg: ExperimentConfig):
    """Dispatch a config to its experiment; deterministic given cfg."""
    runner = _KIND_RUNNERS.get(cfg.kind)
    if runner is None:
        raise SpecParseError(f"unknown experiment kind {cfg.kind!r}")
    if cfg.count is not None and cfg.count < 1:
        raise SpecParseError(f"'count' must be >= 1, got {cfg.count}")
    return runner(cfg)


def _columns_for(kind: str):
    return GOWERS_COLUMNS if kind == "gowers-report" else REPORT_COLUMNS


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_edges(text: str) -> list[list[int]]:
    try:
        return [[int(v) for v in part.split(",")] for part in text.split(";") if part]
    except ValueError as exc:
        raise SpecParseError(f"bad edge list {text!r}: {exc}") from exc


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecParseError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecParseError(f"config {path} must be a JSON object")
    return doc


def _merged(args, config: dict, name: str, cast, default=None):
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name)
    if value is None:
        return default
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise SpecParseError(f"bad value for {name!r}: {value!r}") from exc


def _config_from_args(args, kind: str) -> ExperimentConfig:
    config = _load_config_file(getattr(args, "config", None))
    edges = _merged(args, config, "edges", lambda v: v)
    if isinstance(edges, str):
        edges = _parse_edges(edges)
    members = _merged(args, config, "members", str)
    return ExperimentConfig(
        kind=kind,
        n=_merged(args, config, "n", int),
        k=_merged(args, config, "k", int),
        edges=edges,
        complete_k=_merged(args, config, "complete_k", int),
        family_file=_merged(args, config, "family", str),
        members=members,
        fn=_merged(args, config, "fn", str),
        d=_merged(args, config, "d", int),
        w=_merged(args, config, "w", int),
        tau=_merged(args, config, "tau", float),
        rho=_merged(args, config, "rho", float),
        coord=_merged(args, config, "coord", int),
        count=_merged(args, config, "count", int),
        families=_merged(args, config, "families", int),
        trials=_merged(args, config, "trials", int, DEFAULT_TRIALS),
        seed=_merged(args, config, "seed", int, 0),
        guard_bits=_merged(args, config, "guard_bits", int, DEFAULT_GUARD_BITS),
        method=_merged(args, config, "method", str),
        law=_merged(args, config, "law", str),
        out=_merged(args, config, "out", str),
        as_json=bool(_merged(args, config, "json", bool, False)),
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--guard-bits", dest="guard_bits", type=int, default=None)
    parser.add_argument("--json", action="store_const", const=True, default=None)
    parser.add_argument("--config", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dictatest",
        description="Dictatorship-test experiments on the boolean hypercube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wht", help="spectrum of one function as CSV")
    p.add_argument("--fn", type=str, default=None)
    p.add_argument("--n", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("influence", help="per-coordinate influences")
    p.add_argument("--fn", type=str, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--degree", dest="w", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("gowers", help="uniformity-norm powers of one function")
    p.add_argument("--fn", type=str, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--method", type=str, default=None, help="auto|exact|mc")
    p.add_argument("--trials", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("basictest", help="four-query test acceptance probability")
    p.add_argument("--fn", type=str, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--method", type=str, default=None, help="exact|fourier|both")
    _add_common(p)

    p = sub.add_parser("htest", help="hypergraph test acceptance probability")
    p.add_argument("--family", type=str, default=None, help="family JSON file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--edges", type=str, default=None, help='e.g. "1,2;1,3;2,3"')
    p.add_argument("--complete-k", dest="complete_k", type=int, default=None)
    p.add_argument("--members", type=str, default=None, help='e.g. "all=dict:1"')
    p.add_argument("--method", type=str, default=None, help="exact|mc")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument(
        "--random-families",
        dest="families",
        type=int,
        default=None,
        help="run the soundness experiment on this many i.i.d. random families",
    )
    _add_common(p)

    p = sub.add_parser("xcheck", help="dual-path identity checks")
    p.add_argument("--law", type=str, default=None, help="basic|noise")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("decode", help="influential-pair decoding on planted families")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--coord", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    _add_common(p)

    return parser


@dataclass
class SpectrumRow:
    alpha_hex: str
    weight: int
    coeff: float


@dataclass
class InfluenceRow:
    coord: int
    influence: float
    low_degree: float | None


def _command_wht(cfg: ExperimentConfig) -> None:
    _require(cfg, "n", "fn")
    f = parse_fnspec(cfg.fn, cfg.n)
    spectrum = wht(f)
    weights = hamming_weights(cfg.n)
    rows = [
        SpectrumRow(format(alpha, "x"), int(weights[alpha]), float(coeff))
        for alpha, coeff in enumerate(spectrum.coeffs)
    ]
    write_report(rows, SPECTRUM_COLUMNS, cfg.out, cfg.as_json)


def _command_influence(cfg: ExperimentConfig) -> None:
    _require(cfg, "n", "fn")
    f = parse_fnspec(cfg.fn, cfg.n)
    spectrum = wht(f)
    rows = []
    for i in range(1, cfg.n + 1):
        low = None if cfg.w is None else low_degree_influence(spectrum, i, cfg.w)
        rows.append(InfluenceRow(i, influence(spectrum, i), low))
    write_report(rows, INFLUENCE_COLUMNS, cfg.out, cfg.as_json)


def _dispatch(command: str, cfg: ExperimentConfig) -> None:
    if command == "wht":
        _command_wht(cfg)
        return
    if command == "influence":
        _command_influence(cfg)
        return
    if command == "gowers":
        kind = "gowers-report"
    elif command == "basictest":
        kind = "completeness"
    elif command == "htest":
        kind = "soundness" if cfg.families is not None else "completeness"
    elif command == "xcheck":
        law = cfg.law or "basic"
        if law == "basic":
            kind = "formula-xcheck"
        elif law == "noise":
            kind = "noise-prop"
        else:
            raise SpecParseError(f"unknown xcheck law {law!r}")
    elif command == "decode":
        kind = "decode"
    else:  # pragma: no cover - argparse restricts commands
        raise SpecParseError(f"unknown command {command!r}")
    cfg.kind = kind
    rows = run_experiment(cfg)
    write_report(rows, _columns_for(kind), cfg.out, cfg.as_json)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args, kind="")
        _dispatch(args.command, cfg)
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
