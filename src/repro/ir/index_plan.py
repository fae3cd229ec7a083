"""Window plans: basis-index propagation straight from the table columns.

:meth:`repro.ir.table.GateTable.apply_to_indices` and the sparse engine's
permutation segments push a batch of flat ``int64`` basis indices through a
run of permutation rows.  Every row touches at most a few wires, and
consecutive rows of a lowered circuit stay on the same few wires for long
stretches, so the rows are cut into **windows**: maximal runs whose wires
together have at most :data:`LOCAL_STATES_MAX` local states (``d^|wires|``).
Each window is composed once over its ``d^m`` local states into one ``int64``
delta lookup; applying it to a batch is a few stride operations that decode
the window's digits into a local index, then ``idx += delta[local]``.

Rows that do not pay for a lookup — a row whose own wires exceed the cap
(wide macro rows at large ``d``), or a window of fewer than
:data:`WINDOW_MIN_ROWS` rows — become direct per-row stride steps read from
the columns.  The cut depends only on the rows and their wires, never on
the batch.  No operation objects are involved: control firing comes from
``pools.preds.fires_matrix(dim)``, permutations from the perm pool, and
star rows shift the target by ``sign * star`` modulo ``d``.  All arithmetic
is exact integer arithmetic, so images are bit-for-bit those of the per-row
reference walk (:func:`reference_apply_to_indices`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import GateError, WireError
from repro.ir.table import LOCAL_STATES_MAX, OP_STAR, OP_UNITARY, WINDOW_MIN_ROWS, GateTable
from repro.utils.indexing import require_int64_basis

#: ``(dim, m) -> (m, dim**m)`` digit matrix of the local states of ``m`` wires.
_LOCAL_DIGITS: Dict[Tuple[int, int], np.ndarray] = {}


def _local_digits(dim: int, m: int) -> np.ndarray:
    digits = _LOCAL_DIGITS.get((dim, m))
    if digits is None:
        strides = dim ** np.arange(m - 1, -1, -1, dtype=np.int64)
        digits = (np.arange(dim**m, dtype=np.int64)[None, :] // strides[:, None]) % dim
        digits.setflags(write=False)
        _LOCAL_DIGITS[(dim, m)] = digits
    return digits


class _RowStep:
    """One row applied directly: decode its digits, shift the target where fired.

    Controls on adjacent wires share one decode: each run of them is read as
    one local index into the AND of their firing vectors.
    """

    __slots__ = ("dim", "target_stride", "shift", "star_stride", "sign", "controls")

    def __init__(self, dim, target_stride, shift, star_stride, sign, controls):
        self.dim = dim
        self.target_stride = target_stride
        self.shift = shift  # (perm - identity) * target_stride, or None for a star row
        self.star_stride = star_stride
        self.sign = sign
        self.controls = controls  # ((stride, modulus, fires[modulus] bool), ...)

    def apply(self, idx: np.ndarray) -> None:
        dim = self.dim
        target = idx // self.target_stride
        target %= dim
        if self.shift is not None:
            delta = self.shift[target]
        else:
            delta = idx // self.star_stride
            delta %= dim
            delta *= self.sign
            delta += target
            delta %= dim
            delta -= target
            delta *= self.target_stride
        for stride, modulus, fires in self.controls:
            local = idx // stride
            local %= modulus
            delta *= fires[local]
        idx += delta


class _WindowStep:
    """A composed window: local index from digit runs, then one delta gather."""

    __slots__ = ("runs", "delta")

    def __init__(self, runs, delta):
        self.runs = runs  # ((stride, modulus), ...) most significant run first
        self.delta = delta

    def apply(self, idx: np.ndarray) -> None:
        runs = self.runs
        stride, modulus = runs[0]
        local = idx // stride
        local %= modulus
        for stride, modulus in runs[1:]:
            local *= modulus
            part = idx // stride
            part %= modulus
            local += part
        idx += self.delta[local]


class IndexPlan:
    """Rows ``[start, stop)`` of a permutation table as window and row steps.

    ``windows`` lists every cut window as ``(start, stop, wires)`` in table
    row numbers — composed windows and short ones left as row steps alike —
    so the cut is inspectable; ``steps`` is what :meth:`apply` runs.
    """

    __slots__ = ("windows", "steps")

    def __init__(self, windows, steps):
        self.windows = tuple(windows)
        self.steps = tuple(steps)

    @property
    def composed(self) -> int:
        """How many windows run as one composed lookup."""
        return sum(1 for step in self.steps if isinstance(step, _WindowStep))

    def apply(self, idx: np.ndarray) -> None:
        """Map the contiguous ``int64`` index array ``idx`` in place."""
        for step in self.steps:
            step.apply(idx)


def build_index_plan(table: GateTable, start: int, stop: int) -> IndexPlan:
    """Cut rows ``[start, stop)`` of ``table`` into windows and compose them."""
    dim, num_wires = table.dim, table.num_wires
    require_int64_basis(dim, num_wires, f"index propagation through {table.name!r}")
    if bool((table.opcode[start:stop] == OP_UNITARY).any()):
        raise GateError(
            f"rows [{start}, {stop}) of {table.name!r} contain a dense unitary; "
            "basis indices only propagate through permutation rows"
        )
    pools = table.pools
    fires = pools.preds.fires_matrix(dim)
    invalid = pools.preds.invalid_for(dim)
    wire_strides = [dim ** (num_wires - 1 - w) for w in range(num_wires)]
    max_wires = 0
    while dim ** (max_wires + 1) <= LOCAL_STATES_MAX:
        max_wires += 1

    # Per distinct row: [wires, controls, predicate ids, direct step or None].
    # ``wires`` lists the target, then a star row's star wire, then every
    # control wire; the direct step is built only for rows that need one.
    meta: Dict[tuple, list] = {}
    perms: Dict[int, np.ndarray] = {}

    def permutation(payload: int) -> np.ndarray:
        perm = perms.get(payload)
        if perm is None:
            perm = np.asarray(pools.perms.gate(payload).permutation(), dtype=np.int64)
            perms[payload] = perm
        return perm

    def row_meta(row: tuple) -> list:
        opcode, target, wire_a, wire_b, pred_a, pred_b, _, extra = row
        star = opcode == OP_STAR
        controls = []
        if wire_a >= 0 and not star:
            controls.append((wire_a, pred_a))
        if wire_b >= 0:
            controls.append((wire_b, pred_b))
        if extra >= 0:
            controls.extend(pools.extras.entry(extra))
        wires = (target,) + ((wire_a,) if star else ()) + tuple(w for w, _ in controls)
        for wire in wires:
            if not 0 <= wire < num_wires:
                raise WireError(f"wire {wire} out of range for {num_wires} wires")
        pids = tuple(p for _, p in controls)
        for pid in pids:
            if invalid[pid]:
                list(pools.preds.predicate(pid).values(dim))  # raises its own GateError
                raise GateError(f"control predicate {pid} is invalid for dimension {dim}")
        return [wires, controls, pids, None]

    def control_runs(controls: List[Tuple[int, int]]) -> tuple:
        """Controls as runs of adjacent wires: ``(stride, d^len, fires lookup)``."""
        runs = []
        group: List[Tuple[int, int]] = []
        for wire, pid in sorted(controls) + [(-1, -1)]:
            if group and (wire != group[-1][0] + 1 or len(group) >= max(max_wires, 1)):
                lookup = fires[group[0][1]]
                if len(group) > 1:
                    digits = _local_digits(dim, len(group))
                    lookup = lookup[digits[0]]
                    for j, (_, p) in enumerate(group[1:], 1):
                        lookup = lookup & fires[p][digits[j]]
                runs.append((wire_strides[group[-1][0]], dim ** len(group), lookup))
                group = []
            if wire >= 0:
                group.append((wire, pid))
        return tuple(runs)

    def row_step(row: tuple) -> _RowStep:
        info = meta[row]
        if info[3] is None:
            stride = wire_strides[row[1]]
            controls = control_runs(info[1])
            if row[0] == OP_STAR:
                info[3] = _RowStep(dim, stride, None, wire_strides[row[2]], row[6], controls)
            else:
                perm = permutation(row[6])
                shift = (perm - np.arange(perm.size, dtype=np.int64)) * stride
                info[3] = _RowStep(dim, stride, shift, 0, 0, controls)
        return info[3]

    local_perms: Dict[tuple, np.ndarray] = {}

    def local_perm(row: tuple, position: Dict[int, int], m: int) -> np.ndarray:
        """A row as a permutation of its window's ``d^m`` local states."""
        wires, _, pids, _ = meta[row]
        places = tuple(map(position.__getitem__, wires))
        key = (m, row[0], row[6], places, pids)
        perm = local_perms.get(key)
        if perm is None:
            digits = _local_digits(dim, m)
            target = digits[places[0]]
            if row[0] == OP_STAR:
                moved = (target + row[6] * digits[places[1]]) % dim
                control_places = places[2:]
            else:
                moved = permutation(row[6])[target]
                control_places = places[1:]
            shift = (moved - target) * dim ** (m - 1 - places[0])
            for place, pid in zip(control_places, pids):
                shift *= fires[pid][digits[place]]
            perm = shift
            perm += np.arange(dim**m, dtype=np.int64)
            local_perms[key] = perm
        return perm

    layouts: Dict[tuple, tuple] = {}

    def layout(wires: tuple) -> tuple:
        """``(position map, global offset per local state, digit runs)`` of a wire set."""
        found = layouts.get(wires)
        if found is None:
            m = len(wires)
            strides = np.array([wire_strides[w] for w in wires], dtype=np.int64)
            runs = []
            first = 0
            for j in range(1, m + 1):
                if j == m or wires[j] != wires[j - 1] + 1:
                    runs.append((wire_strides[wires[j - 1]], dim ** (j - first)))
                    first = j
            found = ({w: j for j, w in enumerate(wires)}, strides @ _local_digits(dim, m),
                     tuple(runs))
            layouts[wires] = found
        return found

    window_steps: Dict[tuple, Optional[_WindowStep]] = {}

    def window_step(rows: tuple, wires: tuple) -> Optional[_WindowStep]:
        """Compose a window's rows into one delta lookup (``None`` if identity)."""
        if rows in window_steps:
            return window_steps[rows]
        position, offsets, runs = layout(wires)
        m = len(wires)
        composed = local_perm(rows[0], position, m)
        for row in rows[1:]:
            composed = local_perm(row, position, m)[composed]
        delta = offsets[composed]
        delta -= offsets
        step = _WindowStep(runs, delta) if delta.any() else None
        window_steps[rows] = step
        return step

    windows: List[tuple] = []
    steps: list = []
    window_start = start
    window_rows: List[tuple] = []
    window_wires: set = set()

    def close() -> None:
        if not window_rows:
            return
        wires = tuple(sorted(window_wires))
        windows.append((window_start, window_start + len(window_rows), wires))
        if len(window_rows) >= WINDOW_MIN_ROWS:
            step = window_step(tuple(window_rows), wires)
            if step is not None:
                steps.append(step)
        else:
            steps.extend(row_step(row) for row in window_rows)

    rows = zip(*(column[start:stop].tolist() for column in table.columns))
    for i, row in enumerate(rows, start):
        info = meta.get(row)
        if info is None:
            info = meta[row] = row_meta(row)
        wires = info[0]
        if len(wires) > max_wires:
            close()
            window_rows, window_wires = [], set()
            steps.append(row_step(row))
            continue
        merged = window_wires.union(wires)
        if len(merged) > max_wires:
            close()
            window_start, window_rows, merged = i, [], set(wires)
        elif not window_rows:
            window_start = i
        window_rows.append(row)
        window_wires = merged
    close()
    return IndexPlan(windows, steps)


def reference_apply_to_indices(table: GateTable, indices) -> np.ndarray:
    """The plain per-row walk through :meth:`BaseOp.map_indices`.

    The reference the window plan is checked against (tests, the
    ``backends`` fuzz oracle, the sparse benchmark); production code goes
    through :meth:`GateTable.apply_to_indices`.
    """
    out = np.asarray(indices, dtype=np.int64)
    for op in table.to_ops():
        out = op.map_indices(out, table.dim, table.num_wires)
    return out


__all__ = [
    "IndexPlan",
    "build_index_plan",
    "reference_apply_to_indices",
]
