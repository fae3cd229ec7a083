"""Shared pieces of the end-to-end benchmark: paths, catalogue, checkers.

Everything that decides whether an output is *correct* lives here, and
none of it calls the compiler a second time:

* lowered tables are compared against committed expected digests
  (:func:`table_digest`, the gate-for-gate identical contract);
* simulate outputs are compared against hand-written semantic specs
  (:func:`expected_simulate_output`): ``repro.verify.checks.mct_spec`` for
  the Toffoli family, ``pk_map`` for ``P_k``, ``increment_reference`` for
  the ripple increment, and the argmax column of the seed-0 Haar matrix for
  ``unitary``;
* estimate rows are compared against pinned values in the catalogue, which
  for in-range keys were cross-checked against the materialised lowering
  when the catalogue was built.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
CATALOG_PATH = BENCH_DIR / "catalog.json"

WORKLOADS = ("compile-cold", "warm-simulate-verify", "serve-mixed")

#: Predicted lowered rows (``registry.estimate(...).g_gates``) every
#: compile-bearing request must fall inside.
MIN_ROWS = 1_000
MAX_ROWS = 300_000
#: Edges of the ten size buckets (predicted rows, geometric from MIN_ROWS
#: to MAX_ROWS) that compile-cold's rounds take one key from per dimension.
ROW_BUCKETS = tuple(round(MIN_ROWS * (MAX_ROWS / MIN_ROWS) ** (i / 10)) for i in range(11))
#: Largest flat basis index numpy's int64 index arithmetic can hold.
INT64_MAX = 2**63 - 1


def src_available() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def ensure_src_on_path() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_catalog() -> Dict[str, object]:
    return json.loads(CATALOG_PATH.read_text(encoding="utf-8"))


def key_name(strategy: str, dim: int, k: int) -> str:
    return f"{strategy}/{dim}/{k}"


def flat_index_fits(dim: int, num_wires: int) -> bool:
    """True when every basis index of the register fits int64."""
    return dim**num_wires - 1 <= INT64_MAX


# ----------------------------------------------------------------------
# Gate-for-gate digest of a lowered table
# ----------------------------------------------------------------------
def _token(*parts) -> int:
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little", signed=True)


def table_digest(table) -> str:
    """A digest of a :class:`GateTable` that depends on gate content only.

    Pool ids are replaced by tokens of the payload they name (permutation
    and label, predicate type and label, unitary label and matrix bytes),
    so two tables that are identical gate for gate hash equal even if
    their pools were interned in another order.
    """
    import numpy as np

    from repro.ir.table import OP_PERM, OP_UNITARY

    pools = table.pools
    perm = [
        _token("perm", type(g).__name__, tuple(g.permutation()), g.label)
        for g in (pools.perms.gate(i) for i in range(len(pools.perms)))
    ]
    unitary = [
        _token("unitary", g.label, np.round(g.matrix(), 12).tobytes())
        for g in (pools.unitaries.gate(i) for i in range(len(pools.unitaries)))
    ]
    preds = [
        _token("pred", type(p).__name__, p.label)
        for p in (pools.preds.predicate(i) for i in range(len(pools.preds)))
    ]
    extras = [
        _token("extra", tuple((int(w), preds[int(pid)]) for w, pid in pools.extras.entry(i)))
        for i in range(len(pools.extras))
    ]

    def lookup(column, tokens):
        column = np.asarray(column, dtype=np.int64)
        table_tokens = np.asarray(tokens + [0], dtype=np.int64)  # slot -1 -> 0
        return np.where(column >= 0, table_tokens[np.where(column >= 0, column, -1)], -1)

    opcode = np.asarray(table.opcode, dtype=np.int64)
    payload = np.asarray(table.payload, dtype=np.int64)
    payload_tok = payload.copy()
    is_perm = opcode == OP_PERM
    is_unitary = opcode == OP_UNITARY
    if is_perm.any():
        payload_tok[is_perm] = lookup(payload[is_perm], perm)
    if is_unitary.any():
        payload_tok[is_unitary] = lookup(payload[is_unitary], unitary)
    columns = (
        opcode,
        np.asarray(table.target, dtype=np.int64),
        np.asarray(table.wire_a, dtype=np.int64),
        np.asarray(table.wire_b, dtype=np.int64),
        lookup(table.pred_a, preds),
        lookup(table.pred_b, preds),
        payload_tok,
        lookup(table.extra, extras),
    )
    h = hashlib.sha256(f"{table.num_wires},{table.dim},{len(table)}".encode())
    for column in columns:
        h.update(np.ascontiguousarray(column, dtype="<i8").tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Hand-written semantic specs for simulate outputs
# ----------------------------------------------------------------------
TOFFOLI_FAMILY = ("mct", "mct-odd", "mct-even", "mcu", "mct-clean-ladder", "mcu-exponential")


class SpecCache:
    """Spec callables per (strategy, d, k); the Haar matrix is built once."""

    def __init__(self):
        self._specs: Dict[Tuple[str, int, int], object] = {}

    def spec(self, entry: Dict[str, object]):
        key = (entry["resolved"], entry["d"], entry["k"])
        spec = self._specs.get(key)
        if spec is None:
            spec = self._specs[key] = _make_spec(entry)
        return spec


def _make_spec(entry: Dict[str, object]):
    strategy, dim, k = entry["resolved"], int(entry["d"]), int(entry["k"])
    if strategy in TOFFOLI_FAMILY:
        from repro.verify.checks import mct_spec

        return mct_spec(list(entry["controls"]), int(entry["target"]), dim)
    if strategy == "pk":
        from repro.core.pk import pk_map

        def pk_spec(state):
            return tuple(pk_map(dim, state[:k])) + tuple(state[k:])

        return pk_spec
    if strategy == "increment":
        from repro.applications.arithmetic import increment_reference

        def increment_spec(state):
            return tuple(increment_reference(dim, k, state[:k])) + tuple(state[k:])

        return increment_spec
    if strategy == "unitary":
        import numpy as np

        from repro.applications.unitary_synthesis import random_unitary
        from repro.utils.indexing import digits_to_index, index_to_digits

        matrix = np.asarray(random_unitary(dim**k, seed=0))
        winners = np.argmax(np.abs(matrix) ** 2, axis=0)

        def unitary_spec(state):
            column = digits_to_index(state[:k], dim)
            return tuple(index_to_digits(int(winners[column]), dim, k)) + tuple(state[k:])

        return unitary_spec
    raise KeyError(f"no hand-written spec for strategy {strategy!r}")


def expected_simulate_output(specs: SpecCache, entry, state: Sequence[int]) -> str:
    return "".join(str(int(x)) for x in specs.spec(entry)(tuple(state)))


def draw_states(rng, entry: Dict[str, object], count: int) -> List[List[int]]:
    """Seeded basis states: clean ancillas |0⟩, every other wire random.

    Borrowed ancillas get random digits on purpose — the constructions must
    restore whatever they borrowed.
    """
    dim, wires = int(entry["d"]), int(entry["num_wires"])
    clean = {int(w) for w, kind in entry["ancillas"].items() if kind == "clean"}
    states = []
    for _ in range(count):
        row = [int(x) for x in rng.integers(0, dim, size=wires)]
        for wire in clean:
            row[wire] = 0
        states.append(row)
    return states
