"""Rewrite the expected CSVs of every workload from the current program.

    python3 bench/rebaseline.py

Runs pass 0 of each workload at the default seed and stores every call's argv
and CSV, without the ignored ``wall_ms`` column, in
``bench/golden/<workload>.json.gz`` (gzip with a zero timestamp, so equal
outputs give equal bytes).  Refuses, writing nothing, when any call
fails its invariant checks.  Re-baseline only in a change that touches
nothing but the benchmark, e.g. after a change to a generator's random stream
has been accepted on its own.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = importlib.import_module("dictatest.cli")
    run.OUT.mkdir(exist_ok=True)
    records = {}
    with tempfile.TemporaryDirectory(dir=run.OUT) as scratch:
        for workload in workloads.WORKLOADS:
            calls = workloads.pass_calls(workload, workloads.DEFAULT_SEED, 0)
            record = {}
            result = run.run_pass(cli, calls, Path(scratch), record=record)
            if result.failures:
                print("\n".join(result.failures), file=sys.stderr)
                return 1
            for entry in record.values():
                entry["csv"] = checks.drop_ignored(entry["csv"])
            records[workload] = record
    for workload, record in records.items():
        doc = {"workload": workload, "seed": workloads.DEFAULT_SEED, "pass": 0, "calls": record}
        data = json.dumps(doc, indent=1, sort_keys=True).encode()
        with open(run.GOLDEN / f"{workload}.json.gz", "wb") as handle:
            with gzip.GzipFile(filename="", mode="wb", fileobj=handle, mtime=0) as gz:
                gz.write(data)
        print(f"{workload}: {len(record)} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
