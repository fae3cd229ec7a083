"""Seeded request generators for the three benchmark workloads.

The generators read only the committed catalogue (``catalog.json``) and the
seed; they never import the program.  Predicted sizes in the catalogue come
from ``registry.estimate`` (``g_gates``) and were recorded before anything
was compiled, so every bound below is applied *before* a request is sent:

* compile-bearing requests need ``MIN_ROWS <= predicted rows <= MAX_ROWS``;
* simulate and verify requests also need ``d**num_wires - 1`` inside int64,
  the range of the flat-index paths;
* non-permutation (macro-level) circuits need at most ``MAX_ROWS`` predicted
  macro ops and a basis of at most ``MAX_DENSE_BASIS`` states.

``NOTES.md`` lists the regions these bounds exclude, with reproducers.

The same seed always gives the same request sequence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import MAX_ROWS, MIN_ROWS, ROW_BUCKETS, draw_states, flat_index_fits, key_name

#: Strategies drawn by compile-cold (``auto`` is resolved by the program).
COMPILE_STRATEGIES = (
    "mct", "mct-odd", "mct-even", "pk", "increment", "mcu", "mct-clean-ladder", "auto",
)
DIMS = (3, 4, 5)
#: Keys per (strategy, d, size bucket) kept in the catalogue.
KEYS_PER_BUCKET = 6
#: Largest k the compile pool considers (clean-ladder rows grow ~18 per k).
MAX_POOL_K = 512

# ----------------------------------------------------------------------
# warm-simulate-verify: the hot set, one of each per round
# ----------------------------------------------------------------------
W2_SIMULATE = (
    ("mct", 3, 6), ("mct", 4, 8), ("mct", 5, 3), ("mct-even", 4, 6),
    ("pk", 3, 15), ("pk", 5, 4), ("increment", 3, 5), ("mcu", 4, 5),
)
W2_VERIFY = (
    ("mct", 3, 12), ("mct-odd", 3, 9), ("mcu", 4, 8), ("pk", 5, 8), ("increment", 4, 5),
)
#: Non-permutation circuits (macro level, dense payloads) and their backend.
W2_NONPERM = (
    ("unitary", 3, 2, "dense"), ("unitary", 4, 2, "sparse"),
    ("mcu-exponential", 3, 5, "dense"), ("mcu-exponential", 4, 3, "sparse"),
)
W2_STATES = (16, 128)
#: Largest basis a non-permutation (dense/sparse statevector) simulate may have.
MAX_DENSE_BASIS = 4096

# ----------------------------------------------------------------------
# serve-mixed: Zipf-ranked hot keys per kind, plus a cold tail
# ----------------------------------------------------------------------
W3_COMPILE_HOT = (
    ("mct", 3, 4), ("mct", 4, 4), ("mct", 5, 3), ("pk", 5, 3), ("mcu", 3, 3),
    ("increment", 4, 4), ("mct-even", 4, 6), ("pk", 3, 10), ("mct-odd", 3, 5), ("mcu", 4, 4),
)
W3_VERIFY_HOT = (("mct", 4, 10), ("mcu", 4, 8), ("pk", 5, 9), ("mct-even", 4, 12))
W3_ESTIMATE_HOT = (
    ("mct", 3, 20), ("mct", 4, 14), ("mct", 5, 7), ("pk", 5, 11), ("mcu", 3, 11),
    ("mct-clean-ladder", 3, 120), ("mct", 3, 100_000), ("mct", 4, 100_001),
)
#: Estimator residue classes the warmup never touches: the first estimate
#: of each on a worker calibrates it (materialises three circuits).
W3_ESTIMATE_COLD = tuple(
    (strategy, d, 100_000 + r)
    for strategy, d, residues in (
        ("pk", 3, 2), ("mcu", 3, 2), ("mcu", 4, 2), ("mct-clean-ladder", 4, 2),
        ("mct-odd", 3, 2),
    )
    for r in range(residues)
)
#: Slots per deck of 40 requests: 10 % cold, the rest by kind.
W3_KIND_DECK = {"cold": 4, "synthesize": 11, "simulate": 11, "verify": 5, "estimate": 9}
#: Every tenth cold slot is a new estimator residue class while any is left.
W3_COLD_ESTIMATE_EVERY = 10
W3_ZIPF_S = 1.1
W3_STATES = (8, 32)
#: Largest predicted rows a serve-mixed cold compile may have.
W3_COLD_MAX_ROWS = 54_198
W3_MAX_SUBMIT = 8


def bucket_of(rows: int) -> Optional[int]:
    for i in range(len(ROW_BUCKETS) - 1):
        if ROW_BUCKETS[i] <= rows <= ROW_BUCKETS[i + 1]:
            return i
    return None


def in_size_bounds(entry: Dict[str, object]) -> bool:
    return MIN_ROWS <= int(entry["predicted_rows"]) <= MAX_ROWS


def simulable(entry: Dict[str, object]) -> bool:
    return flat_index_fits(int(entry["d"]), int(entry["num_wires"]))


def _compile_index(catalog) -> Dict[str, Dict[str, object]]:
    return {key_name(e["strategy"], e["d"], e["k"]): e for e in catalog["compile"]}


def _entry(index, strategy: str, dim: int, k: int) -> Dict[str, object]:
    return index[key_name(strategy, dim, k)]


def _resolved_key(entry) -> str:
    return key_name(entry["resolved"], entry["d"], entry["k"])


# ----------------------------------------------------------------------
# compile-cold
# ----------------------------------------------------------------------
def _spread_order(n: int) -> List[int]:
    """An order of ``range(n)`` whose every prefix is spread over the range.

    Round ``r`` aims at the van der Corput point ``(vdc(r) + 1/2) mod 1``
    and takes the nearest index not used yet: the first pick is the middle,
    then the ends, then the quarters, and so on.
    """
    def vdc(r: int) -> float:
        value, denom = 0.0, 1.0
        while r:
            denom *= 2
            r, bit = divmod(r, 2)
            value += bit / denom
        return value

    free = list(range(n))
    order = []
    for r in range(n):
        target = ((vdc(r) + 0.5) % 1.0) * (n - 1)
        pick = min(free, key=lambda i: (abs(i - target), i))
        free.remove(pick)
        order.append(pick)
    return order


def compile_cold(catalog, seed: int) -> List[Dict[str, object]]:
    """Rounds of one distinct synthesize key per (d, size bucket) stratum.

    Inside a stratum, keys are sorted by predicted size and taken in
    :func:`_spread_order`, which does not depend on the seed: after ``r``
    rounds every seed has compiled the same keys, so the size mix of a run
    is fixed by its length.  The seed orders the strata within each round.
    Keys never repeat within a sequence (``auto`` is checked on the key it
    resolves to).
    """
    rng = np.random.default_rng(seed)
    strata: Dict[Tuple[int, int], List[Dict[str, object]]] = {}
    for entry in catalog["compile"]:
        if entry.get("pool") and in_size_bounds(entry):
            bucket = bucket_of(int(entry["predicted_rows"]))
            strata.setdefault((entry["d"], bucket), []).append(entry)
    used = set()
    queues = {}
    for name in sorted(strata):
        entries = sorted(strata[name], key=lambda e: (e["predicted_rows"], e["strategy"], e["k"]))
        queue = []
        for i in _spread_order(len(entries)):
            resolved = _resolved_key(entries[i])
            if resolved not in used:
                used.add(resolved)
                queue.append(entries[i])
        queues[name] = queue[::-1]  # popped from the end
    sequence: List[Dict[str, object]] = []
    while any(queues.values()):
        order = [name for name in sorted(queues) if queues[name]]
        for i in rng.permutation(len(order)):
            entry = queues[order[i]].pop()
            sequence.append(
                {"kind": "synthesize", "strategy": entry["strategy"],
                 "d": entry["d"], "k": entry["k"]}
            )
    return sequence


# ----------------------------------------------------------------------
# warm-simulate-verify
# ----------------------------------------------------------------------
def w2_hot_keys() -> List[Tuple[str, int, int]]:
    keys = [(s, d, k) for s, d, k in W2_SIMULATE + W2_VERIFY]
    keys += [(s, d, k) for s, d, k, _ in W2_NONPERM]
    return list(dict.fromkeys(keys))


def warm_simulate_verify(catalog, seed: int, rounds: int) -> List[Dict[str, object]]:
    """Rounds over the hot set, each item once per round in seeded order."""
    rng = np.random.default_rng(seed)
    index = _compile_index(catalog)
    items = [("simulate", s, d, k, "dense") for s, d, k in W2_SIMULATE]
    items += [("verify", s, d, k, None) for s, d, k in W2_VERIFY]
    items += [("simulate", s, d, k, b) for s, d, k, b in W2_NONPERM]
    sequence = []
    for _ in range(rounds):
        for i in rng.permutation(len(items)):
            kind, strategy, dim, k, backend = items[i]
            entry = _entry(index, strategy, dim, k)
            if kind == "verify":
                sequence.append({"kind": "synthesize", "strategy": strategy, "d": dim,
                                 "k": k, "verify": "standard"})
                continue
            count = int(rng.integers(W2_STATES[0], W2_STATES[1] + 1))
            request = {"kind": "simulate", "strategy": strategy, "d": dim, "k": k,
                       "states": draw_states(rng, entry, count)}
            if backend != "dense":
                request["backend"] = backend
            sequence.append(request)
    return sequence


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def w3_warmup() -> Dict[str, object]:
    """The daemon's ``--warmup`` spec: every hot compile key and estimate.

    Estimates are listed twice, back to back: the two idle workers each take
    one copy, so both calibrate every hot residue class before serving.
    """
    keys = list(dict.fromkeys(W3_COMPILE_HOT + W3_VERIFY_HOT))
    requests = [{"kind": "synthesize", "strategy": s, "d": d, "k": k} for s, d, k in keys]
    for s, d, k in W3_ESTIMATE_HOT:
        requests += [{"kind": "estimate", "strategy": s, "d": d, "k": k}] * 2
    return {"requests": requests}


def _deck(rng, counts: Dict[object, int]):
    """Endless seeded shuffles of a fixed multiset.

    Every full deck holds exactly ``counts`` of each item, so the mix of a
    run depends on its length, not on the seed; the seed orders each deck.
    """
    items = [item for item, n in counts.items() for _ in range(n)]
    while True:
        for i in rng.permutation(len(items)):
            yield items[i]


def _zipf_deck(rng, keys, size: int):
    weights = 1.0 / np.arange(1, len(keys) + 1) ** W3_ZIPF_S
    counts = np.maximum(1, np.round(size * weights / weights.sum())).astype(int)
    return _deck(rng, dict(zip(keys, counts.tolist())))


def serve_mixed(catalog, seed: int, submits: int) -> List[List[Dict[str, object]]]:
    """Seeded submits of 1..8 requests; hot keys Zipf-ranked per kind.

    Kinds, keys per kind and submit sizes are dealt from fixed decks; cold
    compile keys (outside the warmup, at most ``W3_COLD_MAX_ROWS`` rows) come
    in the seed-independent :func:`_spread_order` of their sizes.
    """
    rng = np.random.default_rng(seed)
    index = _compile_index(catalog)
    hot = set(W3_COMPILE_HOT + W3_VERIFY_HOT)
    cold_pool = sorted(
        (e for e in catalog["compile"]
         if e.get("pool") and e["strategy"] != "auto" and in_size_bounds(e)
         and int(e["predicted_rows"]) <= W3_COLD_MAX_ROWS
         and (e["strategy"], e["d"], e["k"]) not in hot),
        key=lambda e: (e["predicted_rows"], e["strategy"], e["d"], e["k"]),
    )
    cold_compile = [cold_pool[i] for i in _spread_order(len(cold_pool))][::-1]
    cold_estimate = list(W3_ESTIMATE_COLD)[::-1]
    kinds = _deck(rng, W3_KIND_DECK)
    sizes = _deck(rng, {n: 1 for n in range(1, W3_MAX_SUBMIT + 1)})
    decks = {
        "synthesize": _zipf_deck(rng, W3_COMPILE_HOT, 40),
        "simulate": _zipf_deck(rng, W3_COMPILE_HOT, 40),
        "verify": _zipf_deck(rng, W3_VERIFY_HOT, 20),
        "estimate": _zipf_deck(rng, W3_ESTIMATE_HOT, 40),
    }
    cold_slots = 0
    out = []
    for _ in range(submits):
        batch = []
        for _ in range(next(sizes)):
            kind = next(kinds)
            if kind == "cold":
                cold_slots += 1
                if cold_estimate and cold_slots % W3_COLD_ESTIMATE_EVERY == 1:
                    s, d, k = cold_estimate.pop()
                    batch.append({"kind": "estimate", "strategy": s, "d": d, "k": k})
                    continue
                if cold_compile:
                    e = cold_compile.pop()
                    batch.append({"kind": "synthesize", "strategy": e["strategy"],
                                  "d": e["d"], "k": e["k"]})
                    continue
                kind = "synthesize"  # the cold pool ran out: fall back to hot
            s, d, k = next(decks[kind])
            if kind == "simulate":
                count = int(rng.integers(W3_STATES[0], W3_STATES[1] + 1))
                batch.append({"kind": "simulate", "strategy": s, "d": d, "k": k,
                              "states": draw_states(rng, _entry(index, s, d, k), count)})
            elif kind == "verify":
                batch.append({"kind": "synthesize", "strategy": s, "d": d, "k": k,
                              "verify": "standard"})
            else:
                batch.append({"kind": kind, "strategy": s, "d": d, "k": k})
        out.append(batch)
    return out


def all_extra_compile_keys() -> List[Tuple[str, int, int]]:
    """Non-pool compile keys the hot sets need in the catalogue."""
    return list(dict.fromkeys(w2_hot_keys() + list(W3_COMPILE_HOT + W3_VERIFY_HOT)))


def all_estimate_keys() -> List[Tuple[str, int, int]]:
    return list(dict.fromkeys(W3_ESTIMATE_HOT + W3_ESTIMATE_COLD))


def check_requests_bounded(catalog, requests: Sequence[Dict[str, object]]) -> None:
    """Refuse a generated request that falls outside the size bounds."""
    index = _compile_index(catalog)
    for request in requests:
        if request["kind"] == "estimate":
            continue
        entry = _entry(index, request["strategy"], request["d"], request["k"])
        if entry.get("nonperm"):
            if (int(entry["predicted_rows"]) > MAX_ROWS
                    or int(entry["d"]) ** int(entry["num_wires"]) > MAX_DENSE_BASIS):
                raise ValueError(f"non-permutation request too large: {request}")
            continue
        if not in_size_bounds(entry):
            raise ValueError(f"request outside the size bounds: {request}")
        if (request["kind"] == "simulate" or request.get("verify")) and not simulable(entry):
            raise ValueError(f"request outside the int64 flat-index range: {request}")
