"""Whole-circuit gather composition over maximal permutation segments.

PR 5 showed that composing a *permutation-only* table's rows into one
whole-basis index table turns thousands of per-op gathers into a single
gather.  This module generalises that to **any** table: the rows are
partitioned into maximal permutation-only runs separated by dense-unitary
rows (:func:`repro.ir.rewrite.segment_bounds`), and each permutation run is
composed into one index table.  A mixed circuit with ``u`` unitary rows then
simulates as at most ``u + 1`` fused gathers plus ``u`` unitary-row kernels,
regardless of how many thousand permutation rows it contains.

Composition is a *fired-slice* kernel: it views the index table as
``(d,) * n`` and composes the rows in reverse on the index side, each row
rewriting only the states it moves — the slices where its controls fire
(control axes fixed to their firing values by basic indexing), and within
them only the moved local states of its target (and star) wire, as cycles
of slices (:meth:`repro.qudit.operations.BaseOp.slice_cycles`).  A raw
synthesis macro with ``k`` controls touches ``d^(n-k)``-sized slices, not
the whole basis, and never enumerates ``d^|wires|`` local states.  The
object-level per-op gather walk
(:func:`repro.sim.permutation.permutation_index_table` on a circuit without
a table) is the reference it is tested against, exactly.

Composed arrays are interned in the table's
:class:`~repro.ir.pools.SegmentGatherCache` keyed by the segment's row
content, so derived tables (``select``/``inverse`` twins, re-lowered
copies) and repeated simulate calls all share one composition per distinct
segment; a :class:`Segment` also memoizes its own arrays, so a repeated
lookup skips the content key.

Conventions (matching ``BaseOp.permutation_table``): the *forward* table
``g`` maps basis state ``i`` to its image ``g[i]``, so a statevector evolves
by scatter ``new[g] = old``.  The *inverse* table is the gather form
``new[j] = old[g_inv[j]]`` — sequential writes, which is what the streaming
backend tiles over.  It is one scatter of the forward table.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.exceptions import GateError
from repro.ir.rewrite import segment_bounds
from repro.ir.table import OP_UNITARY, GateTable


def _segment_key(table: GateTable, start: int, stop: int, inverse: bool) -> tuple:
    """Content key of a row range: the raw rows plus register shape.

    Rows reference pool ids, and the cache lives on the pool set itself, so
    equal keys imply identical semantics for every table sharing the pools.
    """
    block = np.stack([column[start:stop] for column in table.columns])
    return (table.num_wires, table.dim, bool(inverse), block.tobytes())


def _compose_forward(table: GateTable, start: int, stop: int) -> np.ndarray:
    """Fired-slice composition of rows ``[start, stop)`` into a forward table.

    Index side, rows in reverse: ``h_new[i] = h[p_row[i]]``, starting from
    the identity, gives ``p_last ∘ … ∘ p_first``.  Each row rewrites only the
    states it moves, walking its :meth:`~repro.qudit.operations.BaseOp.slice_cycles`
    over the ``(d,) * n`` view of ``h``: one copy of the first slice of a
    cycle, then one slice assignment per state around it.
    """
    dim, num_wires = table.dim, table.num_wires
    ops, row_map = table.unique_ops()
    rows = row_map[start:stop][::-1].tolist()
    moves = {u: ops[u].slice_cycles(dim, num_wires) for u in set(rows)}
    out = np.arange(dim**num_wires)
    cube = out.reshape((dim,) * num_wires)
    for u in rows:
        for cycle in moves[u]:
            if len(cycle) == 2:  # a transposition: the common case
                a, b = cycle
                first = cube[a].copy()
                cube[a] = cube[b]
                cube[b] = first
                continue
            head = cycle[0]
            first = cube[head].copy()
            for src in cycle[1:]:
                cube[head] = cube[src]
                head = src
            cube[head] = first
    return out


def compose_gather(
    table: GateTable, start: int, stop: int, *, inverse: bool = False
) -> np.ndarray:
    """Compose rows ``[start, stop)`` into one whole-basis index table.

    All rows in the range must be permutations.  The result is read-only and
    interned in ``table.pools.segments``; the inverse direction is derived
    from the (cached) forward table by one scatter, so requesting both costs
    one composition.
    """
    if bool((table.opcode[start:stop] == OP_UNITARY).any()):
        raise GateError(
            f"rows [{start}, {stop}) of {table.name!r} contain a dense unitary; "
            "only permutation segments compose into an index table"
        )

    def build() -> np.ndarray:
        if inverse:
            forward = compose_gather(table, start, stop)
            out = np.empty_like(forward)
            out[forward] = np.arange(forward.size)
        else:
            out = _compose_forward(table, start, stop)
        out.setflags(write=False)
        return out

    return table.pools.segments.intern(_segment_key(table, start, stop, inverse), build)


class Segment:
    """One maximal run of table rows applied as a single fused unit.

    ``kind`` is ``"perm"`` (a run of permutation rows, applied as one
    composed gather) or ``"unitary"`` (a single dense-unitary row, applied
    through the engine's einsum kernel).
    """

    __slots__ = ("table", "start", "stop", "kind", "_forward", "_inverse")

    def __init__(self, table: GateTable, start: int, stop: int, kind: str):
        self.table = table
        self.start = int(start)
        self.stop = int(stop)
        self.kind = kind
        self._forward = None
        self._inverse = None

    @property
    def num_rows(self) -> int:
        return self.stop - self.start

    def index_table(self) -> np.ndarray:
        """Forward composed table: basis state ``i`` maps to ``table[i]``.

        Memoized on the segment (whose table is immutable), so a repeated
        lookup skips the content key; the first one goes through the pool's
        interning and shares the composition with derived tables.
        """
        if self._forward is None:
            self._forward = compose_gather(self.table, self.start, self.stop)
        return self._forward

    def inverse_index_table(self) -> np.ndarray:
        """Gather form: output amplitude ``j`` pulls from ``table[j]``."""
        if self._inverse is None:
            self._inverse = compose_gather(self.table, self.start, self.stop, inverse=True)
        return self._inverse

    def op(self):
        """The decoded operation of a single-row (unitary) segment."""
        if self.num_rows != 1:
            raise GateError(f"segment spans {self.num_rows} rows; op() needs exactly one")
        ops, row_map = self.table.unique_ops()
        return ops[int(row_map[self.start])]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Segment({self.kind}, rows=[{self.start}, {self.stop}))"


def segment_table(table: GateTable) -> Tuple[Segment, ...]:
    """Partition ``table`` into maximal fused segments (cached on the table).

    A permutation-only table yields exactly one ``"perm"`` segment spanning
    every row; an empty table yields no segments.
    """
    cached = table._cache.get("segments")
    if cached is None:
        segments: List[Segment] = [
            Segment(table, start, stop, "perm" if is_perm else "unitary")
            for start, stop, is_perm in segment_bounds(table)
        ]
        cached = tuple(segments)
        table._cache["segments"] = cached
    return cached


__all__ = ["Segment", "compose_gather", "segment_table"]
