"""The CLI calls each benchmark workload makes.

A pass is one closed-loop sweep over a workload's call list.  Every seed that
reaches the CLI (``--seed`` values and the seeds inside ``random:``/
``noisydict:`` specs) is drawn from a stream keyed by (workload, workload
seed, pass index), so the argv lists are a pure function of those three
values and no two passes of a run repeat a call: an in-process cache cannot
turn a later pass into a lookup.

The call mix of each workload is chosen so that its median call and its 90th
percentile call fall inside a group of similar calls rather than on the edge
between two groups of very different latency; the positions are noted next
to each list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import checks

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Call:
    """One CLI invocation: argv (without ``--out``) and how to check its CSV."""

    id: str
    argv: tuple
    checks: tuple = ()
    expect: tuple = ()  # (column, text) pairs that every output row carries


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


def _fnspec(rng: random.Random, kind: str, n: int, rho: float = 0.1) -> str:
    if kind == "dict":
        return f"dict:{rng.randint(1, n)}"
    if kind == "random":
        return f"random:{_seed(rng)}"
    return f"noisydict:{rng.randint(1, n)}:{rho}:{_seed(rng)}"


def _edge_count(complete_k: int) -> int:
    return (1 << complete_k) - 1 - complete_k


def _soundness(rng, complete_k: int, n: int, trials: int) -> Call:
    seed = _seed(rng)
    edges = _edge_count(complete_k)
    argv = ("htest", "--complete-k", complete_k, "--n", n, "--random-families", 1,
            "--trials", trials, "--seed", seed)
    expect = {"experiment": "soundness", "method": "mc", "n": n, "k": complete_k,
              "edge_count": edges, "trials": trials, "seed": seed,
              "total_queries": 2 * complete_k + edges}
    return _call(f"sound-k{complete_k}n{n}", argv, (checks.soundness_interval,), expect)


def _htest_completeness(rng, n: int, members: str, method: str, *, complete_k=None,
                        k=None, edges=None, trials=None, guard=None) -> Call:
    seed = _seed(rng)
    if complete_k is not None:
        shape = ("--complete-k", complete_k)
        k, edge_count = complete_k, _edge_count(complete_k)
    else:
        shape = ("--k", k, "--edges", ";".join(",".join(map(str, e)) for e in edges))
        edge_count = len(edges)
    argv = ("htest", *shape, "--n", n, "--members", members, "--method", method,
            "--seed", seed)
    expect = {"experiment": "completeness", "method": method, "n": n, "k": k,
              "edge_count": edge_count, "family": members, "seed": seed,
              "total_queries": 2 * k + edge_count}
    if trials is not None:
        argv += ("--trials", trials)
        expect["trials"] = trials
    if guard is not None:
        argv += ("--guard-bits", guard)
    if members.startswith("all=dict:"):
        check = checks.value_is_one
    else:
        check = checks.dyadic((3 * k + edge_count) * n)
    label = f"htest-{method}-{members.split('=')[1].split(':')[0]}-n{n}"
    return _call(label, argv, (check,), expect)


def _call(label: str, argv, check_fns, expect) -> Call:
    return Call(
        label,
        tuple(str(a) for a in argv),
        tuple(check_fns),
        tuple((col, str(value)) for col, value in expect.items()),
    )


def mc_soundness(rng: random.Random) -> list[Call]:
    # 22 calls, ~1.3 s on a 2-vCPU x86 VM: 4 completeness (~45 ms) below
    # 10 soundness at |E|=4 (~55 ms, holds p50) below 8 at |E|=11 (~75 ms,
    # holds p90).  Short passes give each call position's median more
    # passes to draw from.
    calls = []
    for _ in range(4):
        calls.append(_htest_completeness(
            rng, 12, f"all={_fnspec(rng, 'dict', 12)}", "mc",
            complete_k=3, trials=200_000))
    calls += [_soundness(rng, 3, 12, 200_000) for _ in range(10)]
    calls += [_soundness(rng, 4, 10, 200_000) for _ in range(8)]
    return calls


def exact_small(rng: random.Random) -> list[Call]:
    # 21 calls, ~3.8 s: xcheck calls (~10-20 ms) fill the lowest 48%, htest
    # exact at n=3 (~80 ms, holds p50), the path hypergraph, basictest n=8,
    # gowers exact d=3 n=5 (~600 ms, holds p90) and htest exact at n=4
    # (~1.4 s) on top.
    calls = []
    for _ in range(5):
        seed = _seed(rng)
        calls.append(_call(
            "xcheck-basic-n6",
            ("xcheck", "--law", "basic", "--n", 6, "--count", 2, "--seed", seed,
             "--guard-bits", 24),
            (checks.exact_matches_fourier, checks.dyadic(24)),
            {"experiment": "formula-xcheck", "n": 6, "seed": seed}))
    for _ in range(5):
        seed = _seed(rng)
        calls.append(_call(
            "xcheck-noise-n7",
            ("xcheck", "--law", "noise", "--n", 7, "--count", 2, "--seed", seed,
             "--guard-bits", 21),
            (checks.noise_law,),
            {"experiment": "noise-prop", "n": 7, "seed": seed}))
    for kind in ("dict", "random", "noisydict"):
        calls.append(_htest_completeness(
            rng, 3, f"all={_fnspec(rng, kind, 3)}", "exact", complete_k=2, guard=21))
    for kind in ("dict", "random", "noisydict"):
        calls.append(_htest_completeness(
            rng, 2, f"all={_fnspec(rng, kind, 2, rho=0.25)}", "exact",
            k=3, edges=((1, 2), (2, 3)), guard=22))
    for kind in ("random", "noisydict"):
        fn = _fnspec(rng, kind, 8)
        calls.append(_call(
            "basictest-both-n8",
            ("basictest", "--fn", fn, "--method", "both", "--n", 8, "--guard-bits", 32),
            (checks.exact_matches_fourier, checks.dyadic(32)),
            {"experiment": "completeness", "n": 8, "family": fn}))
    for kind in ("random", "noisydict"):
        calls.append(_call(
            "gowers-exact-d3n5",
            ("gowers", "--fn", _fnspec(rng, kind, 5), "--method", "exact", "--d", 3,
             "--n", 5, "--guard-bits", 20),
            (checks.gowers_rows(3),),
            {"n": 5, "method": "exact"}))
    calls.append(_htest_completeness(
        rng, 4, f"all={_fnspec(rng, 'dict', 4)}", "exact", complete_k=2, guard=28))
    return calls


def wide_n(rng: random.Random) -> list[Call]:
    # 21 calls, ~3.5 s: gowers in auto mode and decode (~20-30 ms) fill the
    # lowest 38%, influence at n=18 (~60-80 ms, holds p50), basictest
    # fourier n=20 and one 2^15-row wht report, htest soundness at n=18
    # (~500 ms, holds p90) and one at n=19 on top.  One wht call keeps its
    # expected CSV small.
    calls = []
    for _ in range(4):
        seed = _seed(rng)
        calls.append(_call(
            "gowers-auto-d3n16",
            ("gowers", "--fn", _fnspec(rng, "random", 16), "--d", 3, "--n", 16,
             "--seed", seed),
            (checks.gowers_rows(3),),
            {"n": 16}))
    for _ in range(4):
        seed = _seed(rng)
        coord = rng.randint(1, 14)
        calls.append(_call(
            "decode-n14d3",
            ("decode", "--n", 14, "--d", 3, "--w", 3, "--coord", coord, "--rho", 0.05,
             "--tau", 0.3, "--count", 1, "--seed", seed),
            (checks.decode_rows,),
            {"experiment": "decode", "n": 14, "k": 3, "seed": seed}))
    for _ in range(6):
        calls.append(_call(
            "influence-n18",
            ("influence", "--fn", _fnspec(rng, "random", 18), "--n", 18, "--degree", 3),
            (checks.influence_rows(18),),
            {}))
    for kind in ("random", "noisydict"):
        fn = _fnspec(rng, kind, 20)
        calls.append(_call(
            "basictest-fourier-n20",
            ("basictest", "--fn", fn, "--method", "fourier", "--n", 20),
            (checks.probability,),
            {"experiment": "completeness", "method": "fourier", "n": 20, "family": fn}))
    calls.append(_call(
        "wht-n15",
        ("wht", "--fn", _fnspec(rng, "random", 15), "--n", 15),
        (checks.wht_rows(15),),
        {}))
    calls += [_soundness(rng, 2, n, 2000) for n in (18, 18, 18, 19)]
    return calls


WORKLOADS = {
    "mc-soundness": mc_soundness,
    "exact-small": exact_small,
    "wide-n": wide_n,
}


def pass_calls(workload: str, seed: int, pass_index: int) -> list[Call]:
    """The calls of one pass; ids are "<position>-<label>"."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    calls = WORKLOADS[workload](rng)
    return [
        Call(f"{i:02d}-{c.id}", c.argv, c.checks, c.expect) for i, c in enumerate(calls)
    ]
