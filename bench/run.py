"""Benchmark of the dictatest command line, one workload per run.

    python3 bench/run.py --workload mc-soundness --seed 0 --seconds 20 --trace 0

Run from a source checkout: the package is imported from ``src/`` next to
this directory, and the run fails (exit 2) when it is not there.  One client
drives ``dictatest.cli.main(argv)`` in a closed loop, one call at a time, in
this single Python process, with ``DICTATEST_THREADS`` unset.  A pass is one
sweep over the workload's call list (``workloads.py``).  Passes repeat with
fresh inputs until ``--seconds`` of calls have run and, for ``--trace 0``,
at least MIN_CALLS calls were made.  Each call is bracketed by runs of a
fixed reference work (``pace.py``), outside its timed region, and the gated
times are given at the reference speed, so that the drifting speed of a
shared host cancels.  Every call's CSV is checked (``checks.py``) after its
pass, outside the timed region; a line per pass goes to standard error.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json, then
the informational raw wall time, latency percentiles and failed fraction.
``--trace 1`` splits ``--seconds`` between the same loop untraced and the
loop again with spans (``spans.py``), and
prints the per-layer metrics, the tracing overhead, the import-time split of
set-up and the exact routes' frontier.  Each metric is printed with its unit
and sample count, and the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"} holding the declared metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import importlib
import inspect
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
import pace
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden"

MIN_CALLS = 100  # a p90 needs ten calls beyond it
# Printed with each result but absent from BENCHMARK.json: over ten runs on a
# shared host the latency percentiles spread by more than any allowed bound,
# and failed_frac is 0 (its complement ok_frac is declared instead).
INFORMATIONAL_UNITS = {
    "wall_raw_s": "s", "op_ms.p50": "ms", "op_ms.p90": "ms", "failed_frac": "fraction",
}
IMPORTTIME_STARTS = 3
SETUP_STARTS = 5  # interpreter starts per untraced run, spread over its seconds
SUBPROCESS_SECONDS = 120
# Child of ``setup_sample``: time three spins, import, time three more; print
# the clock before the spins, the import's time, and the median spin before
# and after the import.
STAMP = inspect.getsource(pace.spin) + """
import time
def spins():
    times = []
    for _ in range(3):
        start = time.perf_counter(); spin(); times.append(time.perf_counter() - start)
    return sorted(times)[1], sum(times)
start = time.perf_counter(); before, spun = spins()
import dictatest.cli
imported = time.perf_counter() - start - spun; after, _ = spins()
print(repr(start), repr(imported), repr(before), repr(after))
"""


@dataclass
class PassResult:
    op_s: list = field(default_factory=list)  # wall seconds of each call
    op_cpu_s: list = field(default_factory=list)
    pace_s: list = field(default_factory=list)  # wall, cpu of each pace sample
    failures: list = field(default_factory=list)
    auto_rows: int = 0  # rows of gowers calls left to pick their own method
    auto_exact_rows: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.op_s)

    @property
    def cpu_s(self) -> float:
        return sum(self.op_cpu_s)

    def paced(self, times: str) -> list:
        """Each call's ``op_s`` or ``op_cpu_s`` at the reference speed: wall
        times are scaled by the brackets' wall times, CPU times by their CPU
        times."""
        brackets = [p[times == "op_cpu_s"] for p in self.pace_s]
        return [pace.scaled(t, a, b)
                for t, a, b in zip(getattr(self, times), brackets, brackets[1:])]


def child_env() -> dict:
    """Environment of every interpreter the benchmark starts."""
    env = dict(os.environ)
    env.pop("DICTATEST_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # so later starts reuse cached bytecode
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(args: list, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=SUBPROCESS_SECONDS, check=True,
    )


def setup_sample(env: dict) -> float:
    """Seconds from launching an interpreter until ``import dictatest.cli``
    returned, at the reference speed of ``pace.py``; the child's own runs of
    ``pace.spin`` are not counted.

    The child prints CLOCK_MONOTONIC readings, the clock ``time.perf_counter``
    reads here.
    """
    launched = time.perf_counter()
    done = _python(["-c", STAMP], env)
    start, imported, before, after = map(float, done.stdout.split()[-4:])
    return pace.scaled(start - launched + imported, before, after, pace.SPIN_REFERENCE_S)


IMPORT_GROUPS = ("numpy", "scipy", "dictatest")


def _import_tree(text: str) -> list:
    """``-X importtime`` lines as a tree of (name, self_us, children)."""
    pending = defaultdict(list)  # indent -> finished nodes waiting for their parent
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        own, _, name = line.split("|")
        indent = len(name) - len(name.lstrip())
        node = (name.strip(), int(own.split(":")[1]), pending.pop(indent + 2, []))
        pending[indent].append(node)
    return pending[min(pending)] if pending else []


def _attribute(nodes, owner, totals) -> None:
    """Add each module's own import time to the nearest group it is in or under."""
    for name, own_us, children in nodes:
        group = next((g for g in IMPORT_GROUPS if name == g or name.startswith(g + ".")), owner)
        if group is not None:
            totals[group] += own_us
        _attribute(children, group, totals)


def import_split(text: str) -> dict[str, float]:
    """Seconds of import time owned by numpy, scipy and dictatest.  A module
    counts for the nearest of the three that it belongs to or was imported
    under, so stdlib modules imported by dictatest count for dictatest."""
    totals = dict.fromkeys(IMPORT_GROUPS, 0)
    _attribute(_import_tree(text), None, totals)
    return {f"{group}_s": us / 1e6 for group, us in totals.items()}


def import_breakdown(env: dict, starts: int) -> dict[str, float]:
    splits = [
        import_split(_python(["-X", "importtime", "-c", "import dictatest.cli"], env).stderr)
        for _ in range(starts)
    ]
    return {key: statistics.median(s[key] for s in splits) for key in splits[0]}


def load_expected(workload: str) -> dict:
    path = GOLDEN / f"{workload}.json.gz"
    with gzip.open(path, "rt") as handle:
        return json.load(handle)["calls"]


def _is_auto_gowers(call) -> bool:
    return call.argv[0] == "gowers" and "--method" not in call.argv


def run_pass(cli, calls, out_dir: Path, expected=None, record=None) -> PassResult:
    """Run one pass; check every output after the timed region.

    ``expected`` maps call ids to golden records; ``record``, when given,
    collects each call's argv and CSV in the same form.
    """
    finished = []
    result = PassResult(pace_s=[pace.sample()])
    for call in calls:
        target = out_dir / f"{call.id}.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                code = cli.main([*call.argv, "--out", str(target)])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crashing call is a failed call; the loop goes on
                code = f"{type(exc).__name__}: {exc}"
            result.op_s.append(time.perf_counter() - start)
            result.op_cpu_s.append(time.process_time() - start_cpu)
        result.pace_s.append(pace.sample())
        finished.append((call, target, code, err.getvalue().strip()))

    for call, target, code, err in finished:
        text = target.read_text() if target.exists() else None
        golden = None
        if expected is not None:
            golden = expected.get(call.id, {"argv": (), "csv": ""})
        problems = checks.check_output(call, code, text, golden)
        if problems:
            note = f" (stderr: {err})" if err else ""
            result.failures.append(f"{call.id}: {'; '.join(problems)}{note}")
        if text is not None and _is_auto_gowers(call):
            methods = [row["method"] for row in checks.parse_csv(text)[1]]
            result.auto_rows += len(methods)
            result.auto_exact_rows += methods.count("exact")
        if record is not None:
            record[call.id] = {"argv": list(call.argv), "csv": text}
        if text is not None:
            target.unlink()
    return result


def run_loop(cli, workload: str, seed: int, seconds: float, out_dir: Path,
             first_pass: int = 0, min_calls: int = 0, after_pass=None) -> list[PassResult]:
    """Passes from index ``first_pass`` on, until both ``seconds`` of calls
    have run and ``min_calls`` calls were made; ``after_pass(elapsed)`` runs
    after each pass, outside its timed region, with the seconds of calls so
    far."""
    passes = []
    elapsed, made = 0.0, 0
    while not passes or elapsed < seconds or made < min_calls:
        index = first_pass + len(passes)
        expected = None
        if seed == workloads.DEFAULT_SEED and index == 0:
            expected = load_expected(workload)
        result = run_pass(cli, workloads.pass_calls(workload, seed, index), out_dir, expected)
        elapsed += result.wall_s
        made += len(result.op_s)
        passes.append(result)
        print(f"pass {index}: {result.wall_s:.4f} s wall, {result.cpu_s:.4f} s cpu, "
              f"{len(result.op_s)} calls, {len(result.failures)} failed", file=sys.stderr)
        if after_pass is not None:
            after_pass(elapsed)
    return passes


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def median_pass(columns) -> float:
    """Seconds of one pass made of each call position's median time.

    ``columns`` holds one list of call times per pass.  Every pass makes the
    same calls with other seeds, so position i costs the same work in each.
    """
    return sum(map(statistics.median, zip(*columns)))


def paced_pass(passes, times: str) -> float:
    """``median_pass`` of ``op_s`` or ``op_cpu_s`` at the reference speed."""
    return median_pass([p.paced(times) for p in passes])


def end_to_end(passes, setup, attempted, failed) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count), from the timed passes."""
    ops_ms = [s * 1e3 for p in passes for s in p.op_s]
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (paced_pass(passes, "op_s"), len(passes)),
        "wall_raw_s": (median_pass([p.op_s for p in passes]), len(passes)),
        "op_ms.p50": (statistics.median(ops_ms), len(ops_ms)),
        "op_ms.p90": (_p90(ops_ms), len(ops_ms)),
        "cpu_s": (paced_pass(passes, "op_cpu_s"), len(passes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "ok_frac": (1 - failed / attempted, attempted),
    }


def per_layer(declared, untraced, traced, tracer, breakdown, frontier) -> dict:
    """name -> (value, sample count); layer figures are per traced pass."""
    count = len(traced)
    values = {}
    for layer, totals in spans.layer_totals(tracer.spans).items():
        for key, total in totals.items():
            values[f"{layer}.{key}"] = (total / count, count)
    auto_rows = sum(p.auto_rows for p in traced)
    exact_rows = sum(p.auto_exact_rows for p in traced)
    values["gowers.auto_exact_frac"] = (exact_rows / auto_rows if auto_rows else 0.0, auto_rows)
    for key, value in breakdown.items():
        values[f"setup.import.{key}"] = (value, IMPORTTIME_STARTS)
    for route, reached in frontier.items():
        values[f"frontier.{route}"] = (reached["n"], 1)
    overhead = paced_pass(traced, "op_s") / paced_pass(untraced, "op_s") - 1
    values["trace.overhead_frac"] = (overhead, count)
    for metric in declared:  # traced functions a workload never calls
        if metric["name"].rsplit(".", 1)[0] in spans.TRACED:
            values.setdefault(metric["name"], (0.0, count))
    return values


def run_frontier(env: dict, out_dir: Path) -> dict:
    done = _python([str(BENCH / "frontier.py"), str(out_dir)], env)
    return json.loads(done.stdout.splitlines()[-1])


def _print_report(declared, values, attempted, failed, failures) -> None:
    """Declared metrics, then the informational ones, then the JSON result."""
    values = {**values, "failed_frac": (failed / attempted, attempted)}
    for metric in declared:
        value, samples = values[metric["name"]]
        print(f"{metric['name']:<44} {value:>14.6g} {metric['unit']:<8} n={samples}")
    for name, unit in INFORMATIONAL_UNITS.items():
        if name in values:
            value, samples = values[name]
            print(f"{name:<44} {value:>14.6g} {unit:<8} n={samples} (not gated)")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in declared
        },
    }))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dictatest" / "cli.py").is_file():
        print(f"error: no dictatest sources at {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    os.environ.pop("DICTATEST_THREADS", None)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    setup_sample(env)  # writes the bytecode cache; later starts reuse it
    if args.trace:
        breakdown = import_breakdown(env, IMPORTTIME_STARTS)
    cli = importlib.import_module("dictatest.cli")
    if Path(cli.__file__).resolve().parent != SRC / "dictatest":
        print(f"error: imported dictatest from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        scratch = Path(scratch)
        # Only --trace 0 reports percentiles and set-up, so only it needs
        # MIN_CALLS and starts interpreters.  Spreading the starts over the
        # run exposes set-up to the same host load as the passes, rather than
        # to whatever load the first seconds saw.  A traced run splits its
        # seconds between the untraced and the traced loop.
        setup = []

        def sample_setup(elapsed):
            due = min(SETUP_STARTS, 1 + int(elapsed * SETUP_STARTS / args.seconds))
            while len(setup) < due:
                setup.append(setup_sample(env))

        loop_seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = run_loop(
            cli, args.workload, args.seed, loop_seconds, scratch,
            min_calls=0 if args.trace else MIN_CALLS,
            after_pass=None if args.trace else sample_setup,
        )
        passes = list(untraced)
        if args.trace:
            tracer = spans.Tracer()
            uninstall = tracer.install()
            try:
                traced = run_loop(cli, args.workload, args.seed, loop_seconds, scratch,
                                  first_pass=len(passes))
            finally:
                uninstall()
            passes += traced
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            frontier = run_frontier(env, scratch)

    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.op_s) for p in passes)
    if args.trace:
        metrics = declared["per_layer"]
        values = per_layer(metrics, untraced, traced, tracer, breakdown, frontier)
    else:
        metrics = declared["end_to_end"]
        values = end_to_end(untraced, setup, attempted, len(failures))
    _print_report(metrics, values, attempted, len(failures), failures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
