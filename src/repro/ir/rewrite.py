"""Table-native peephole rewrites (the columnar form of ``repro.passes``).

Each kernel consumes a :class:`~repro.ir.table.GateTable` and returns a new
one sharing the same pools, implementing exactly the semantics of the
object-level passes in :mod:`repro.passes.optimize` — the two paths are
gate-for-gate identical, which the test suite asserts:

* :func:`drop_identities` — one vectorized mask over the payload/predicate
  annotation flags;
* :func:`cancel_adjacent_inverses` — event-driven: numpy finds each row's
  nearest earlier wire-sharing row and tests that pair column-wise in
  O(rows) (plus one stable sort of the wire incidences), and Python then
  visits only the rows that cancel and the next rows on their wires, so
  its work is proportional to the cancellations, not to the rows.

Single-qudit fusion has no kernel here: production lowering fuses at the
macro level with the object pass, before expansion.
"""

from __future__ import annotations

import heapq
from typing import List

import numpy as np

from repro.ir.table import OP_PERM, OP_STAR, OP_UNITARY, GateTable


def segment_bounds(table: GateTable) -> List[tuple]:
    """``(start, stop, is_permutation)`` runs splitting the rows at unitary ops.

    One vectorized pass over the opcode column: every ``OP_UNITARY`` row is
    its own single-row run, and the maximal stretches between them (``OP_PERM``
    and ``OP_STAR`` rows — both permutations of the computational basis) are
    permutation runs.  The simulation layer composes each permutation run
    into one whole-basis gather (:mod:`repro.ir.segment`).
    """
    bounds: List[tuple] = []
    cursor = 0
    for row in np.flatnonzero(table.opcode == OP_UNITARY).tolist():
        if row > cursor:
            bounds.append((cursor, row, True))
        bounds.append((row, row + 1, False))
        cursor = row + 1
    if cursor < len(table):
        bounds.append((cursor, len(table), True))
    return bounds


def drop_identities(table: GateTable) -> GateTable:
    """Remove rows that act as the identity on every basis state.

    Mirrors ``DropIdentities``: only controlled-gate rows are candidates
    (star rows never are); a row is dropped when its payload is the identity
    or when a control predicate that can never fire precedes any predicate
    that is invalid for this ``dim`` (invalid predicates keep the row for the
    simulator to reject, exactly like the object pass's ``GateError`` branch).
    """
    n = len(table)
    if not n:
        return table
    preds = table.pools.preds
    never = preds.never_fires(table.dim)
    invalid = preds.invalid_for(table.dim)
    m_gate = table.opcode != OP_STAR

    pa = np.where(table.pred_a >= 0, table.pred_a, 0)
    pb = np.where(table.pred_b >= 0, table.pred_b, 0)
    has_a = table.wire_a >= 0
    has_b = table.wire_b >= 0
    # Position of the first never-firing / first invalid predicate, scanning
    # the controls in order (inline slot a, slot b, then the overflow list);
    # ``any(...)`` in the object pass stops at whichever comes first.
    big = np.iinfo(np.int64).max
    first_never = np.where(has_a & never[pa], 0, np.where(has_b & never[pb], 1, big))
    first_invalid = np.where(has_a & invalid[pa], 0, np.where(has_b & invalid[pb], 1, big))
    for i in np.nonzero(table.extra >= 0)[0].tolist():
        if first_never[i] != big or first_invalid[i] != big:
            continue
        for position, (_, pid) in enumerate(table.pools.extras.entry(int(table.extra[i])), 2):
            if never[pid]:
                first_never[i] = position
                break
            if invalid[pid]:
                first_invalid[i] = position
                break
    dead_controls = m_gate & (first_never < first_invalid)

    m_perm = table.opcode == OP_PERM
    m_unitary = table.opcode == OP_UNITARY
    identity_payload = (
        m_perm & table.pools.perms.is_identity()[np.where(m_perm, table.payload, 0)]
    ) | (m_unitary & table.pools.unitaries.is_identity()[np.where(m_unitary, table.payload, 0)])
    drop = dead_controls | (m_gate & identity_payload & (first_invalid == big))
    if not drop.any():
        return table
    return table.select(~drop)


def _incidences(table: GateTable):
    """Every (row, wire) pair of the table, rows ascending, as int32 columns.

    Returns ``(rows, wires, starts)``: row ``i`` owns the incidence slice
    ``starts[i]:starts[i + 1]`` — its target, inline control wires, then any
    overflow (``extras``) control wires.
    """
    n = len(table)
    wire_a, wire_b, extra = table.wire_a, table.wire_b, table.extra
    has_a = wire_a >= 0
    has_b = wire_b >= 0
    counts = 1 + has_a.astype(np.int32) + has_b
    overflow = np.flatnonzero(extra >= 0)
    if overflow.size:
        counts[overflow] += table.pools.extras.lengths()[extra[overflow]].astype(np.int32)
    starts = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=starts[1:])
    wires = np.empty(int(starts[-1]), dtype=np.int32)
    slot = starts[:-1].copy()
    wires[slot] = table.target
    slot += 1
    wires[slot[has_a]] = wire_a[has_a]
    slot += has_a
    wires[slot[has_b]] = wire_b[has_b]
    slot += has_b
    for i in overflow.tolist():
        cursor = int(slot[i])
        for w, _ in table.pools.extras.entry(int(extra[i])):
            wires[cursor] = w
            cursor += 1
    rows = np.repeat(np.arange(n, dtype=np.int32), counts)
    return rows, wires, starts


def _static_cancels(table: GateTable, prev: np.ndarray) -> np.ndarray:
    """Rows ``i`` (ascending) that cancel against ``prev[i]``, column-wise."""
    # Full-length compares on the two most selective columns, then filter.
    clamped = np.maximum(prev, 0)
    same = prev >= 0
    same &= table.target[clamped] == table.target
    same &= table.wire_a[clamped] == table.wire_a
    later = np.flatnonzero(same)
    earlier = prev[later]
    for column in (table.opcode, table.wire_b, table.pred_a, table.pred_b, table.extra):
        same = column[earlier] == column[later]
        later, earlier = later[same], earlier[same]
    code = table.opcode[later]
    first = table.payload[earlier]
    second = table.payload[later]
    ok = (code == OP_STAR) & (first == -second)
    perm = np.flatnonzero(code == OP_PERM)
    partner = table.pools.perms.inverse_struct_ids()[first[perm]]
    ok[perm] = (partner >= 0) & (partner == table.pools.perms.struct_ids()[second[perm]])
    unitaries = table.pools.unitaries
    for k in np.flatnonzero(code == OP_UNITARY).tolist():
        ok[k] = unitaries.cancels(int(first[k]), int(second[k]))
    return later[ok]


def cancel_adjacent_inverses(table: GateTable) -> GateTable:
    """Remove ``U, U†`` row pairs separated only by wire-disjoint rows.

    Exactly the object pass's sweep — each row meets its nearest *surviving*
    earlier row sharing a wire (its *prior*) and both go when they cancel —
    but Python only visits the rows whose outcome can differ from "kept":

    1. numpy sorts the (row, wire) incidences by wire to find ``prev[i]``,
       the nearest earlier row sharing a wire with ``i`` in the *input*, and
       tests ``prev[i], i`` for cancellation column-wise (the static pairs);
    2. the sweep's prior of ``i`` is ``prev[i]`` unless ``prev[i]`` was
       already removed, and then only as the *later* row of its own pair
       (were it the earlier one, its partner would share all its wires and
       sit nearer to ``i``);
    3. so the events, in row order, are the static rows and the *children*
       of removed later rows (rows whose ``prev`` they are).  A static row
       with a live ``prev`` cancels with it; every other event finds its
       real prior by walking its wires back past removed rows, through
       per-wire skip links with path compression.

    Cost: O(rows + wire incidences) numpy, including one stable sort of the
    wire keys, plus Python work proportional to the cancellations.  Returns
    ``table`` itself when nothing cancels.
    """
    n = len(table)
    if not n:
        return table
    inc_rows, inc_wires, starts = _incidences(table)
    if inc_wires.max() < np.iinfo(np.int16).max:
        inc_wires = inc_wires.astype(np.int16)  # radix-sortable keys
    order = np.argsort(inc_wires, kind="stable")  # (wire, row) order
    s_wires = inc_wires[order]
    s_rows = inc_rows[order]
    # Each temporary is dropped once used, keeping the kernel's peak memory
    # below the old per-row sweep's on 10^5-row tables.
    del inc_rows, inc_wires
    same_wire = s_wires[1:] == s_wires[:-1]
    del s_wires
    # back[q]: row of the previous incidence on sorted position q's wire.
    back = np.full(len(order), -1, dtype=np.int32)
    back[1:][same_wire] = s_rows[:-1][same_wire]
    del same_wire
    scattered = np.empty_like(back)
    scattered[order] = back
    prev = np.maximum.reduceat(scattered, starts[:-1])
    del scattered
    position = np.empty(len(order), dtype=np.int32)  # incidence -> sorted position
    position[order] = np.arange(len(order), dtype=np.int32)
    del order

    static = _static_cancels(table, prev).tolist()
    if not static:
        return table

    # Scalar reads in the event loop go through memoryviews (plain ints,
    # no numpy scalar boxing, no copies of the columns).
    back_at, row_at, prev_of = memoryview(back), memoryview(s_rows), memoryview(prev)
    spots_of, start_of = memoryview(position), memoryview(starts)
    columns = [memoryview(column) for column in (
        table.target, table.opcode, table.wire_a, table.wire_b,
        table.pred_a, table.pred_b, table.extra)]
    opcode, payload = columns[1], memoryview(table.payload)
    perms, unitaries = table.pools.perms, table.pools.unitaries
    struct = memoryview(perms.struct_ids())
    inverse_struct = memoryview(perms.inverse_struct_ids())
    last_spot = len(back) - 1

    def rows_cancel(j: int, i: int) -> bool:
        """``_static_cancels``'s test for one pair, for the walked priors."""
        for column in columns:
            if column[j] != column[i]:
                return False
        code = opcode[i]
        if code == OP_STAR:
            return payload[j] == -payload[i]
        if code == OP_PERM:
            partner = inverse_struct[payload[j]]
            return partner >= 0 and partner == struct[payload[i]]
        return unitaries.cancels(payload[j], payload[i])

    removed = bytearray(n)
    skip: dict = {}  # sorted position -> earlier position, over removed rows

    def live_before(q: int) -> int:
        """Row of the nearest surviving incidence before position ``q``."""
        row = back_at[q]
        if row < 0 or not removed[row]:
            return row
        hops = []
        q -= 1  # where ``row`` sits on this wire
        while removed[row]:
            hops.append(q)
            q = skip.get(q, q - 1 if back_at[q] >= 0 else -1)
            if q < 0:
                row = -1
                break
            row = row_at[q]
        for hop in hops:  # path compression
            skip[hop] = q
        return row

    children: List[int] = []  # heap: rows whose ``prev`` was removed as a later row
    cursor, last = 0, -1
    while cursor < len(static) or children:
        if children and (cursor == len(static) or children[0] <= static[cursor]):
            i = heapq.heappop(children)
        else:
            i = static[cursor]
            cursor += 1
        if i == last:
            continue
        last = i
        spots = spots_of[start_of[i]:start_of[i + 1]].tolist()
        prior = prev_of[i]
        if removed[prior]:  # always so for children; static rows may be either
            prior = max(live_before(q) for q in spots)
            if prior < 0 or not rows_cancel(prior, i):
                continue
        removed[prior] = removed[i] = 1
        for q in spots:
            if q < last_spot and back_at[q + 1] == i:
                child = row_at[q + 1]
                if prev_of[child] == i:
                    heapq.heappush(children, child)
    keep = np.frombuffer(removed, dtype=np.uint8) == 0
    return table.select(keep)
