"""Interned payload and predicate pools backing the columnar gate tables.

A :class:`~repro.ir.table.GateTable` stores per-row integer *ids* into these
pools instead of per-op Python objects: structurally equal payloads (the
same permutation gate with the same label, the same control predicate, the
same dense unitary) are stored exactly once no matter how many thousand rows
reference them.  Lowered circuits repeat a few dozen gate forms across tens
of thousands of rows, so the pools are what turn the object-level O(k)
payload churn into O(distinct forms) memory.

Pools are append-only.  Derived numpy annotations (identity flags,
transposition flags, per-``dim`` firing matrices, inverse maps) are cached
against the pool length, so they are recomputed only after new entries were
interned.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import GateError
from repro.qudit.controls import ControlPredicate, Value
from repro.qudit.gates import Gate, XPerm
from repro.utils import permutations as perm_utils


def _length_guarded(pool, name: str, build):
    """Return a cached annotation, rebuilding when the pool has grown."""
    cached = pool._caches.get(name)
    if cached is None or cached[0] != len(pool):
        cached = (len(pool), build())
        pool._caches[name] = cached
    return cached[1]


def _at_least_one(values, dtype) -> np.ndarray:
    """Pack ``values`` as an array with at least one entry (safe indexing)."""
    if not values:
        return np.zeros(1, dtype=dtype)
    return np.asarray(values, dtype=dtype)


class PermGatePool:
    """Interned permutation-gate payloads (``XPerm``/``XPlus`` instances).

    Gates are keyed by ``(type, permutation, label)`` so structurally equal
    gates share one entry while distinct labels survive round-tripping.  A
    parallel *structural* id (the permutation alone) powers the vectorized
    inverse-cancellation check.
    """

    def __init__(self) -> None:
        self._gates: List[Gate] = []
        self._ids: Dict[tuple, int] = {}
        self._struct_ids: Dict[tuple, int] = {}
        self._struct_of: List[int] = []
        self._inverse_memo: Dict[int, int] = {}
        self._caches: Dict[str, tuple] = {}

    def __len__(self) -> int:
        return len(self._gates)

    def gate(self, gid: int) -> Gate:
        return self._gates[gid]

    def intern(self, gate: Gate) -> int:
        perm = gate.permutation()
        key = (type(gate).__name__, perm, gate.label)
        gid = self._ids.get(key)
        if gid is None:
            gid = len(self._gates)
            self._ids[key] = gid
            self._gates.append(gate)
            self._struct_of.append(self._struct_ids.setdefault(perm, len(self._struct_ids)))
        return gid

    def inverse_id(self, gid: int) -> int:
        """Pool id of ``gate.inverse()`` (interned on first use)."""
        out = self._inverse_memo.get(gid)
        if out is None:
            out = self.intern(self._gates[gid].inverse())
            self._inverse_memo[gid] = out
        return out

    # ------------------------------------------------------------------
    # Vectorized annotations (all safe to index with a clamped id column)
    # ------------------------------------------------------------------
    def is_identity(self) -> np.ndarray:
        return _length_guarded(
            self,
            "is_identity",
            lambda: _at_least_one(
                [g.permutation() == tuple(range(len(g.permutation()))) for g in self._gates],
                bool,
            ),
        )

    def is_g_payload(self) -> np.ndarray:
        """True where the gate is a G-set payload: an ``XPerm`` transposition.

        ``Operation.is_g_gate`` requires the *class* too (an ``XPlus`` whose
        permutation happens to be a transposition, e.g. ``X+1`` at d = 2, is
        not a G-gate), so the column kernel checks ``isinstance`` as well.
        """
        return _length_guarded(
            self,
            "is_g_payload",
            lambda: _at_least_one(
                [isinstance(g, XPerm) and g.is_transposition() for g in self._gates], bool
            ),
        )

    def is_x01(self) -> np.ndarray:
        """True where the gate is the ``X01`` transposition (points (0, 1))."""

        def build():
            flags = []
            for g in self._gates:
                flags.append(
                    isinstance(g, XPerm)
                    and g.is_transposition()
                    and g.transposition_points() == (0, 1)
                )
            return _at_least_one(flags, bool)

        return _length_guarded(self, "is_x01", build)

    def struct_ids(self) -> np.ndarray:
        return _length_guarded(self, "struct_ids", lambda: _at_least_one(self._struct_of, np.int64))

    def inverse_struct_ids(self) -> np.ndarray:
        """For each gate id, the structural id of its *inverse* permutation.

        ``-1`` when the inverse permutation was never interned — no row can
        cancel against such a gate.
        """

        def build():
            out = []
            for g in self._gates:
                inv = perm_utils.invert(g.permutation())
                out.append(self._struct_ids.get(inv, -1))
            return _at_least_one(out, np.int64)

        return _length_guarded(self, "inverse_struct_ids", build)


class UnitaryGatePool:
    """Interned dense-unitary payloads (``SingleQuditUnitary`` instances)."""

    def __init__(self) -> None:
        self._gates: List[Gate] = []
        self._ids: Dict[tuple, int] = {}
        self._inverse_memo: Dict[int, int] = {}
        self._cancel_memo: Dict[Tuple[int, int], bool] = {}
        self._caches: Dict[str, tuple] = {}

    def __len__(self) -> int:
        return len(self._gates)

    def gate(self, gid: int) -> Gate:
        return self._gates[gid]

    def intern(self, gate: Gate) -> int:
        matrix = gate.matrix()
        key = (type(gate).__name__, gate.label, matrix.shape[0], matrix.tobytes())
        gid = self._ids.get(key)
        if gid is None:
            gid = len(self._gates)
            self._ids[key] = gid
            self._gates.append(gate)
        return gid

    def inverse_id(self, gid: int) -> int:
        out = self._inverse_memo.get(gid)
        if out is None:
            out = self.intern(self._gates[gid].inverse())
            self._inverse_memo[gid] = out
        return out

    def cancels(self, first: int, second: int) -> bool:
        """True if applying ``first`` then ``second`` is the identity."""
        out = self._cancel_memo.get((first, second))
        if out is None:
            product = self._gates[second].matrix() @ self._gates[first].matrix()
            dim = product.shape[0]
            out = bool(np.allclose(product, np.eye(dim), atol=1e-9))
            self._cancel_memo[(first, second)] = out
        return out

    def is_identity(self) -> np.ndarray:
        return _length_guarded(
            self,
            "is_identity",
            lambda: _at_least_one(
                [
                    bool(np.allclose(g.matrix(), np.eye(g.dim), atol=1e-12))
                    for g in self._gates
                ],
                bool,
            ),
        )


class PredicatePool:
    """Interned control predicates (keyed by their structural equality)."""

    def __init__(self) -> None:
        self._preds: List[ControlPredicate] = []
        self._ids: Dict[ControlPredicate, int] = {}
        self._caches: Dict[str, tuple] = {}

    def __len__(self) -> int:
        return len(self._preds)

    def predicate(self, pid: int) -> ControlPredicate:
        return self._preds[pid]

    def intern(self, predicate: ControlPredicate) -> int:
        pid = self._ids.get(predicate)
        if pid is None:
            pid = len(self._preds)
            self._ids[predicate] = pid
            self._preds.append(predicate)
        return pid

    def labels(self) -> List[str]:
        return _length_guarded(self, "labels", lambda: [p.label for p in self._preds])

    def is_value0(self) -> np.ndarray:
        return _length_guarded(
            self,
            "is_value0",
            lambda: _at_least_one(
                [isinstance(p, Value) and p.value == 0 for p in self._preds], bool
            ),
        )

    def _fires(self, dim: int) -> Tuple[np.ndarray, np.ndarray]:
        """(fires matrix (p, dim) bool, invalid flags (p,) bool) for ``dim``.

        A predicate whose ``values(dim)`` raises (out-of-range control value)
        is flagged invalid; callers keep such rows and let the simulator
        reject them, matching the object-level pass behavior.
        """

        def build():
            count = max(len(self._preds), 1)
            fires = np.zeros((count, dim), dtype=bool)
            invalid = np.zeros(count, dtype=bool)
            for pid, predicate in enumerate(self._preds):
                try:
                    for value in predicate.values(dim):
                        fires[pid, value] = True
                except GateError:
                    invalid[pid] = True
            return fires, invalid

        return _length_guarded(self, f"fires:{dim}", build)

    def fires_matrix(self, dim: int) -> np.ndarray:
        return self._fires(dim)[0]

    def invalid_for(self, dim: int) -> np.ndarray:
        return self._fires(dim)[1]

    def never_fires(self, dim: int) -> np.ndarray:
        """True where the predicate is valid for ``dim`` yet fires on nothing."""
        fires, invalid = self._fires(dim)
        return ~invalid & ~fires.any(axis=1)


class ExtraControlsPool:
    """Interned overflow control lists for rows with more than two controls.

    Each entry is a tuple of ``(wire, predicate_id)`` pairs covering the
    controls beyond the two inline column slots.  Lowered circuits never use
    this (G-gates carry at most one control); it exists so *every* circuit —
    including raw synthesis macros like ``|0^k⟩-X`` — round-trips losslessly.
    """

    def __init__(self) -> None:
        self._entries: List[Tuple[Tuple[int, int], ...]] = []
        self._ids: Dict[Tuple[Tuple[int, int], ...], int] = {}
        self._caches: Dict[str, tuple] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, eid: int) -> Tuple[Tuple[int, int], ...]:
        return self._entries[eid]

    def intern(self, entry: Tuple[Tuple[int, int], ...]) -> int:
        eid = self._ids.get(entry)
        if eid is None:
            eid = len(self._entries)
            self._ids[entry] = eid
            self._entries.append(entry)
        return eid

    def lengths(self) -> np.ndarray:
        return _length_guarded(
            self, "lengths", lambda: _at_least_one([len(e) for e in self._entries], np.int64)
        )


class SegmentGatherCache:
    """Interned whole-basis gather tables for composed row segments.

    Keyed by the segment's row content (plus register shape and direction),
    so every table sharing one :class:`PoolSet` — ``select``/``inverse``
    derivatives, re-lowered copies, the fuzz oracles' twins — reuses one
    composed array per distinct segment instead of recomposing it.  Bounded
    FIFO-style: composed tables over a ``d^n`` basis are large, so the cache
    holds at most ``max_entries`` of them.
    """

    def __init__(self, max_entries: int = 128) -> None:
        self._arrays: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self.max_entries = int(max_entries)
        self.hits = 0
        self.builds = 0

    def __len__(self) -> int:
        return len(self._arrays)

    def intern(self, key: tuple, build) -> np.ndarray:
        """The cached array under ``key``, calling ``build()`` on first use."""
        array = self._arrays.get(key)
        if array is None:
            array = build()
            self.builds += 1
            self._arrays[key] = array
            while len(self._arrays) > self.max_entries:
                self._arrays.popitem(last=False)
        else:
            self._arrays.move_to_end(key)
            self.hits += 1
        return array


class PoolSet:
    """The pools one table (or a family of derived tables) shares."""

    __slots__ = ("perms", "unitaries", "preds", "extras", "segments")

    def __init__(
        self,
        perms: Optional[PermGatePool] = None,
        unitaries: Optional[UnitaryGatePool] = None,
        preds: Optional[PredicatePool] = None,
        extras: Optional[ExtraControlsPool] = None,
        segments: Optional[SegmentGatherCache] = None,
    ) -> None:
        self.perms = perms or PermGatePool()
        self.unitaries = unitaries or UnitaryGatePool()
        self.preds = preds or PredicatePool()
        self.extras = extras or ExtraControlsPool()
        self.segments = segments or SegmentGatherCache()
