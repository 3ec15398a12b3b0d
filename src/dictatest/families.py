"""Generators for experiment function families, the fnspec mini-language,
and the family file format.

fnspec grammar (the dimension n always comes from context):

    dict:<i>                  the i-th dictator, (-1)^{x_i}
    parity:<hex-mask>         the character χ_α with α given as lowercase hex
    table:<hex>               explicit truth table (see table_to_hex)
    random:<seed>             uniformly random folded function
    noisydict:<i>:<rho>:<seed>  dictator with half-table noise, refolded
    maj                       majority (n odd)

Family files are JSON objects with integer fields n and k, edges (a list of
integer vertex lists) and members: either the string "all=<fnspec>" or a map
from member labels ("v1".."vk" for vertices, "e1,2"-style for edges) to
fnspecs.  Optional: allow_singletons (a bool, default false) and fold
("refold", the default, or "strict").  A null field counts as absent.  An
unknown key, or a field of another JSON type, is a SpecParseError naming it;
``read_json_object`` applies the same rules to CLI config files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import SpecParseError
from .fourier import hamming_weights
from .functions import (
    BooleanFunction,
    check_dimension,
    make_folded,
    refold,
    require_folded,
    table_from_hex,
)
from .gowers import IndexedFamily
from .rng import _draw_blocks, derive_rng, seed_key
from .testers import FunctionFamily, Hypergraph, edge_label, vertex_label


def dictator(n: int, i: int) -> BooleanFunction:
    """f(x) = (-1)^{x_i}, the character of {i}."""
    return parity(n, {i})


def parity(n: int, alpha) -> BooleanFunction:
    """The character χ_α(x) = (-1)^{Σ_{i in α} x_i}; α = 0 gives constant +1."""
    check_dimension(n)
    if isinstance(alpha, (set, frozenset, list, tuple)):
        mask = 0
        for i in alpha:
            if not 1 <= int(i) <= n:
                raise ValueError(f"coordinate {i} out of range for n={n}")
            mask |= 1 << (int(i) - 1)
    else:
        mask = int(alpha)
        if not 0 <= mask < 1 << n:
            raise ValueError(f"mask {mask} out of range for n={n}")
    table = np.ones(1, dtype=np.int8)
    for b in range(n):  # built by doubling: χ_α(x + e_b) = (-1)^{α_b} χ_α(x)
        table = np.concatenate([table, -table if mask >> b & 1 else table])
    return BooleanFunction(n, table)


def random_folded(n: int, seed) -> BooleanFunction:
    """Uniform over the 2^{2^{n-1}} folded functions; deterministic per seed.

    The half table's signs are one-bit draws of _draw_blocks: the top bit of
    each 32-bit half of one random_raw block, which is the seed's stream of
    rng.integers(0, 2, size=2^{n-1}).
    """
    check_dimension(n)
    bits = _draw_blocks(derive_rng(*seed_key(seed)), 1 << (n - 1), 1, (1,))[0][0]
    return make_folded(n, 1 - 2 * bits.astype(np.int8))


def noisy_dictator(n: int, i: int, rho: float, seed) -> BooleanFunction:
    """Dictator i with each half-table sign flipped with probability rho,
    then refolded (so the mean stays exactly 0).

    The half table is the x_1 = 1 half (entry j is the point with index
    2j+1, as in ``make_folded``); each entry flips independently.  Refolding
    mirrors every flip onto the x_1 = 0 half, so m flips change 2m of the 2^n
    points and f^({i}) = 1 - 4m/2^n exactly, with m ~ Bin(2^{n-1}, rho).  The
    low-degree influence I^{<=1}_i = (1 - 4m/2^n)^2 is therefore bounded
    only in distribution: for rho > 0 no positive floor holds for every seed
    (m = 2^{n-2} gives 0).
    """
    if not 0.0 <= rho <= 0.5:
        raise ValueError(f"flip probability must be in [0, 1/2], got {rho}")
    base = dictator(n, i)
    half = base.table[1::2].copy()
    rng = derive_rng(*seed_key(seed))
    flips = rng.random(half.size) < rho
    half[flips] *= -1
    return make_folded(n, half)


def majority(n: int) -> BooleanFunction:
    """+1 when strictly more coordinates are 0 than 1; n must be odd."""
    check_dimension(n)
    if n % 2 == 0:
        raise ValueError(f"majority needs odd n, got {n}")
    weights = hamming_weights(n)
    return BooleanFunction(n, np.where(weights * 2 < n, 1, -1).astype(np.int8))


# ---------------------------------------------------------------------------
# fnspec parsing
# ---------------------------------------------------------------------------


def parse_fnspec(spec: str, n: int) -> BooleanFunction:
    """Build the function denoted by a spec string, on n variables."""
    parts = spec.strip().split(":")
    kind = parts[0]
    try:
        if kind == "dict" and len(parts) == 2:
            return dictator(n, int(parts[1]))
        if kind == "parity" and len(parts) == 2:
            if not parts[1] or not all(c in "0123456789abcdef" for c in parts[1]):
                raise SpecParseError(f"parity mask must be lowercase hex: {spec!r}")
            return parity(n, int(parts[1], 16))
        if kind == "table" and len(parts) == 2:
            return table_from_hex(n, parts[1])
        if kind == "random" and len(parts) == 2:
            return random_folded(n, int(parts[1]))
        if kind == "noisydict" and len(parts) == 4:
            return noisy_dictator(n, int(parts[1]), float(parts[2]), int(parts[3]))
        if kind == "maj" and len(parts) == 1:
            return majority(n)
    except SpecParseError:
        raise
    except ValueError as exc:
        raise SpecParseError(f"bad fnspec {spec!r}: {exc}") from exc
    raise SpecParseError(f"unrecognized fnspec {spec!r}")


def _resolve_member(spec: str, n: int, fold: str) -> BooleanFunction:
    f = parse_fnspec(spec, n)
    if fold == "refold":
        return refold(f)
    if fold == "strict":
        require_folded(f, f"member {spec!r}")
        return f
    raise ValueError(f"unknown fold policy {fold!r}")


def build_family(
    hypergraph: Hypergraph,
    n: int,
    members,
    *,
    fold: str = "refold",
) -> FunctionFamily:
    """Assemble a FunctionFamily from fnspecs.

    ``members`` is either "all=<fnspec>" (one spec for every member) or a
    mapping from member labels to fnspecs.  The default fold policy refolds
    every parsed member (a no-op for already-folded functions); "strict"
    rejects unfolded members instead.
    """
    labels = [vertex_label(i) for i in range(1, hypergraph.k + 1)]
    labels += [edge_label(e) for e in hypergraph.edges]
    if isinstance(members, str):
        text = members.strip()
        if not text.startswith("all="):
            raise SpecParseError(
                f"member string must look like 'all=<fnspec>', got {members!r}"
            )
        spec_map = {label: text[len("all=") :] for label in labels}
    else:
        spec_map = dict(members)
        missing = [label for label in labels if label not in spec_map]
        extra = [label for label in spec_map if label not in labels]
        if missing or extra:
            raise SpecParseError(
                f"member labels mismatch: missing {missing}, unexpected {extra}"
            )
    specs = [spec_map[label] for label in labels]
    # each distinct spec is parsed and folded once, and its members share it
    resolved = {spec: _resolve_member(spec, n, fold) for spec in dict.fromkeys(specs)}
    fns = [resolved[spec] for spec in specs]
    return FunctionFamily(hypergraph, fns[: hypergraph.k], fns[hypergraph.k :])


def random_family(hypergraph: Hypergraph, n: int, seed) -> FunctionFamily:
    """I.i.d. uniformly random folded members; member j uses stream (seed, j)."""
    fns = [random_folded(n, (*seed_key(seed), j)) for j in range(hypergraph.t)]
    k = hypergraph.k
    return FunctionFamily(hypergraph, fns[:k], fns[k:])


def _int_lists(value) -> bool:
    """Whether a JSON value is a list of lists of integers (a bool is no int)."""
    return type(value) is list and all(
        type(e) is list and all(type(v) is int for v in e) for e in value)


def read_json_object(path, what: str, types: dict[str, tuple]) -> dict:
    """The JSON object in the file at ``path``, with its null values dropped.

    Each key must be one of ``types`` and each value of one of its key's
    JSON types; an integer also passes as a float, and becomes one.  Every
    SpecParseError names the file as ``what`` and ``path``.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecParseError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecParseError(f"{what} {path} must be a JSON object")
    values = {}
    for key, value in doc.items():
        if key not in types:
            raise SpecParseError(
                f"{what} {path}: unknown key {key!r} (keys: {', '.join(types)})")
        if value is None:
            continue
        if types[key][0] is float and type(value) is int:
            value = float(value)
        if type(value) not in types[key]:
            raise SpecParseError(f"{what} {path}: bad value for {key!r}: {value!r}")
        values[key] = value
    return values


def load_family(path) -> FunctionFamily:
    """Read a family file (JSON: n, k, edges, members, and optionally
    allow_singletons and fold), checking the JSON type of each field."""
    doc = {"allow_singletons": False, "fold": "refold", **read_json_object(
        path, "family file", {"n": (int,), "k": (int,), "edges": (list,),
                              "members": (str, dict), "allow_singletons": (bool,),
                              "fold": (str,)})}
    members = doc.get("members", "")
    for key, ok in (("edges", _int_lists(doc.get("edges", []))),
                    ("members", type(members) is str
                     or all(type(v) is str for v in members.values()))):
        if not ok:
            raise SpecParseError(f"family file {path}: bad value for {key!r}: {doc[key]!r}")
    for key in ("n", "k", "edges", "members"):
        if key not in doc:
            raise SpecParseError(f"family file {path} missing field: {key!r}")
    hypergraph = Hypergraph(doc["k"], doc["edges"], doc["allow_singletons"])
    return build_family(hypergraph, doc["n"], doc["members"], fold=doc["fold"])


# ---------------------------------------------------------------------------
# Planted instances for the influential-pair decoder
# ---------------------------------------------------------------------------


def planted_decoder_family(
    d: int, n: int, coord: int, rho: float, seed
) -> tuple[IndexedFamily, tuple[int, int]]:
    """An indexed family with one noisy dictator planted at two slots.

    Two subset masks (chosen from stream (seed, 0)) share the same noisy
    dictator at ``coord``; every other member is an independent random
    folded function.  Returns the family and the planted mask pair.
    """
    chooser = derive_rng(*seed_key(seed), 0)
    planted = sorted(int(m) for m in chooser.permutation(1 << d)[:2])
    shared = noisy_dictator(n, coord, rho, seed)
    members = {}
    for mask in range(1 << d):
        if mask in planted:
            members[mask] = shared
        else:
            members[mask] = random_folded(n, (*seed_key(seed), 1, mask))
    return IndexedFamily(d, n, members), (planted[0], planted[1])
