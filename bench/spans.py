"""Spans around the package's public functions, recorded from outside it.

``install`` wraps each function in ``TRACED`` and puts the wrapper on every
``dictatest`` module attribute that refers to it, i.e. where callers look the
function up: ``dictatest.cli.htest_prob_mc`` and
``dictatest.testers.htest_prob_mc`` are both replaced.  A span's parent is the
traced function that was running when it was called, and all spans of one
CLI call share the id that the enclosing ``cli.main`` span opened.

Spans stay in memory until the run ends.  ``self_times`` turns them into
self time: a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path


def _bits_points(bits):
    return {"points": 1 << bits}


def _htest_mc_counts(fam, trials, seed, **_):
    chunk = importlib.import_module("dictatest.testers")._MC_CHUNK
    return {"trials": trials, "chunks": math.ceil(trials / chunk)}


def _basic_exact_counts(f, **_):
    # bytes: the int64 triple_index array of 2^{3n} entries (computed, not measured)
    return {"points": 1 << 4 * f.n, "bytes": 8 << 3 * f.n}


def _report_bytes(rows, columns, out, as_json):
    return {"bytes": Path(out).stat().st_size if out else 0}


# name -> counter(*args, **kwargs) giving the span's counts, or None
TRACED = {
    "functions.folded_table": lambda f: {"points": 1 << f.n},
    "fourier.wht": lambda f: {"points": 1 << f.n},
    "fourier.subset_zeta": None,
    "fourier.influence": None,
    "fourier.low_degree_influence": None,
    "testers.htest_prob_mc": _htest_mc_counts,
    "testers.htest_prob_exact": lambda fam, **_: _bits_points(
        (3 * fam.hypergraph.k + len(fam.hypergraph.edges)) * fam.n
    ),
    "testers.basic_test_prob_exact": _basic_exact_counts,
    "testers.basic_test_prob_fourier": None,
    "testers.noise_and_operator": None,
    "testers.noisy_spectrum_law_deviation": None,
    "stats.wilson_interval": None,
    "gowers.gowers_inner_product_exact": lambda fam, **_: _bits_points((fam.d + 1) * fam.n),
    "gowers.gowers_inner_product_mc": lambda fam, trials, seed: {"trials": trials},
    "gowers.find_influential_pair": None,
    "families.parse_fnspec": None,
    "families.random_folded": None,
    "families.build_family": None,
    "families.random_family": None,
    "families.planted_decoder_family": None,
    "cli.write_report": _report_bytes,
    "cli.main": None,
}
CALL_ROOT = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span in Tracer.spans
    call: int  # id of the CLI call the span belongs to
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._call = 0

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == CALL_ROOT:
                self._call += 1
            parent = self._open[-1] if self._open else None
            span = Span(name, 0.0, 0.0, parent, self._call)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span.counts = counter(*args, **kwargs)
            return result

        return traced

    def install(self):
        """Wrap every function in TRACED; returns a function that undoes it."""
        wrappers = {}
        for name, counter in TRACED.items():
            module, attr = name.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"dictatest.{module}"), attr)
            wrappers[id(fn)] = self.wrap(name, fn, counter)
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dictatest" and not mod_name.startswith("dictatest."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, value))

        def uninstall():
            for module, attr, value in patched:
                setattr(module, attr, value)

        return uninstall

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.end - span.start - _covered(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed self_s, number of calls and summed counts."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.name]
        entry["self_s"] += own
        entry["calls"] += 1
        for key, value in span.counts.items():
            entry[key] += value
    return totals
