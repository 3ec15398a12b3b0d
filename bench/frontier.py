"""Reachable frontier of the exact routes: the largest n each one finishes.

Run as its own process (``python3 bench/frontier.py OUT_DIR`` with the
package on PYTHONPATH).  It caps its address space before numpy is imported,
so an exact enumerator that would need more memory than the cap is refused
its allocation (MemoryError) instead of pressing on the machine.  For each
route it runs the CLI at n = 1, 2, ... with ``--guard-bits`` raised to the
route's randomness bits, and stops at the first call that does not finish
within CALL_SECONDS, runs out of memory, errs, or reports a wrong value.
Prints one JSON object {route: {"n": largest n finished, "stop": reason}}.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import checks

CALL_SECONDS = 5.0
ADDRESS_SPACE_BYTES = 2 << 30  # numpy import ~0.35 GiB; basictest n=8 peaks ~0.6 GiB
MAX_N = 24

# route -> (argv at n, randomness bits at n).  Dictator families pass the
# tests with probability 1 and the constant function parity:0 has every Gowers
# norm power 1, so every row must read exactly 1.0.
ROUTES = {
    "htest_exact_n": lambda n: (
        ["htest", "--complete-k", "2", "--n", str(n), "--members", "all=dict:1",
         "--method", "exact"], 7 * n),
    "basic_exact_n": lambda n: (
        ["basictest", "--fn", "dict:1", "--method", "exact", "--n", str(n)], 4 * n),
    "gowers_exact_n": lambda n: (
        ["gowers", "--fn", "parity:0", "--method", "exact", "--d", "3", "--n", str(n)], 4 * n),
}


class CallTimeout(BaseException):
    """Raised from the alarm handler; not an Exception so the CLI cannot absorb it."""


def _alarm(signum, frame):
    raise CallTimeout


def reach(route: str, out: Path, cli_main) -> dict:
    best, stop = 0, "max_n"
    for n in range(1, MAX_N + 1):
        argv, bits = ROUTES[route](n)
        target = out / f"{route}-{n}.csv"
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(argv + ["--guard-bits", str(bits), "--out", str(target)])
        except CallTimeout:
            stop = "time"
        except MemoryError:
            stop = "memory"
        else:
            stop = None if code == 0 else f"exit {code}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if stop is None:
            rows = checks.parse_csv(target.read_text())[1]
            if not rows or any(row["value"] != "1.0" for row in rows):
                stop = "wrong value"
        if stop is not None:
            return {"n": best, "stop": stop}
        best = n
        print(f"{route} n={n} {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return {"n": best, "stop": stop}


def main() -> int:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_BYTES if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_BYTES)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    from dictatest.cli import main as cli_main

    signal.signal(signal.SIGALRM, _alarm)
    out = Path(sys.argv[1])
    print(json.dumps({route: reach(route, out, cli_main) for route in ROUTES}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
