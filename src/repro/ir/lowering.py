"""Lower synthesis output straight into a columnar gate table.

The object-level lowering (``ExpandMacros`` + peephole passes) spends almost
all of its time constructing tens of thousands of short-lived ``Operation``
objects — one per emitted G-gate — even though a lowered multi-controlled
circuit repeats the same few dozen *macro forms* over and over on different
wires, and every expansion rule in :mod:`repro.passes.expand_macros` is
wire-label independent.

This module exploits that: each distinct macro form is expanded **once** to
a canonical *template* (a pre-encoded ``(rows, 8)`` int block with wires
numbered ``0..m-1``), and every further occurrence is instantiated by a
vectorized gather that relabels the template's wire columns through the
op's actual wires.  A circuit with hundreds of macros and ~10^5 G-gates
therefore costs a handful of template expansions plus one numpy remap per
macro — no per-G-gate Python object is ever created.

:func:`lower_circuit_to_table` is the engine behind
:func:`repro.core.lowering.lower_to_g_gates`; it runs the same pass order
as the reference object pipeline (drop → fuse → expand → cancel → drop)
and is gate-for-gate identical to it, which the test suite asserts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import SynthesisError
from repro.ir.rewrite import cancel_adjacent_inverses, drop_identities
from repro.ir.table import GateTable, TableBuilder, encode_op
from repro.qudit.circuit import QuditCircuit, _remap_op
from repro.qudit.operations import BaseOp, Operation, StarShiftOp

#: Canonical G-gate sequences per macro form, shared across lowering runs.
#: Keyed by the wire-independent structure of the macro; values are
#: ``(ops tuple with wires 0..m-1, borrow_used)``.
_TEMPLATE_OPS_CACHE: Dict[tuple, Tuple[Tuple[BaseOp, ...], bool]] = {}
_TEMPLATE_OPS_CACHE_MAX = 1024

_WIRE_COLUMNS = (1, 2, 3)  # target, wire_a, wire_b positions in a row block


def _template_key(op: BaseOp, dim: int) -> tuple:
    """The wire-independent structure that determines an op's expansion."""
    if isinstance(op, StarShiftOp):
        return ("star", dim, op.sign, tuple(pred for _, pred in op.controls))
    if isinstance(op, Operation):
        payload = op.gate.permutation() if op.gate.is_permutation else None
        return ("op", dim, payload, tuple(pred for _, pred in op.controls))
    raise SynthesisError(f"cannot lower unknown operation {op!r}")


def _canonical_expansion(op: BaseOp, dim: int) -> Tuple[Tuple[BaseOp, ...], bool]:
    """Expand ``op`` with wires relabelled to ``0..m-1`` (cached globally)."""
    # Imported here: repro.passes.__init__ pulls in synthesis modules that
    # must not load while repro.ir is being imported at package-init time.
    from repro.passes.expand_macros import expand_fully

    key = _template_key(op, dim)
    cached = _TEMPLATE_OPS_CACHE.get(key)
    if cached is None:
        roles = {wire: slot for slot, wire in enumerate(op.wires())}
        canonical = _remap_op(op, roles)
        borrow_slot = len(roles)
        used = [False]

        def find_borrow(_child: BaseOp) -> int:
            used[0] = True
            return borrow_slot

        ops = tuple(expand_fully(canonical, dim, find_borrow))
        cached = (ops, used[0])
        while len(_TEMPLATE_OPS_CACHE) >= _TEMPLATE_OPS_CACHE_MAX:
            _TEMPLATE_OPS_CACHE.pop(next(iter(_TEMPLATE_OPS_CACHE)))
        _TEMPLATE_OPS_CACHE[key] = cached
    return cached


def _lowest_idle_wire(num_wires: int, op: BaseOp) -> int:
    """The borrow wire the object reference would pick (one shared policy)."""
    from repro.passes.expand_macros import lowest_idle_wire

    return lowest_idle_wire(num_wires, op)


def expand_to_table(circuit: QuditCircuit) -> GateTable:
    """Expand every macro of ``circuit`` into a G-gate table via templates."""
    dim = circuit.dim
    builder = TableBuilder(circuit.num_wires, dim, name=circuit.name)
    # Per-run cache of encoded blocks: template ops only need interning into
    # this run's pools once, after which instantiation is pure numpy.
    blocks: Dict[tuple, Tuple[np.ndarray, bool, int]] = {}
    for op in circuit:
        if op.is_g_gate(dim):
            builder.add_op(op)
            continue
        key = _template_key(op, dim)
        entry = blocks.get(key)
        if entry is None:
            ops, borrow_used = _canonical_expansion(op, dim)
            if ops:
                block = np.asarray([encode_op(g, builder.pools) for g in ops], dtype=np.int64)
            else:
                block = np.zeros((0, 8), dtype=np.int64)
            entry = (block, borrow_used, op.span())
            blocks[key] = entry
        block, borrow_used, _span = entry
        if not block.shape[0]:
            continue
        slots = list(op.wires())
        if borrow_used:
            slots.append(_lowest_idle_wire(circuit.num_wires, op))
        # Trailing -1 makes the absent-wire sentinel map to itself.
        slot_map = np.asarray(slots + [-1], dtype=np.int64)
        instance = block.copy()
        for column in _WIRE_COLUMNS:
            instance[:, column] = slot_map[block[:, column]]
        builder.add_block(instance)
    return builder.build()


def lower_circuit_to_table(circuit: QuditCircuit) -> GateTable:
    """The columnar twin of the default lowering pipeline.

    Stage order matches :func:`repro.passes.default_lowering_pipeline`:
    identity removal and single-qudit fusion at the (small, object-level)
    macro layer, template expansion into a table, then the columnar cancel
    and drop kernels.
    """
    # Imported lazily for the same package-init reason as above.
    from repro.passes.optimize import DropIdentities, FuseSingleQuditGates

    macro = FuseSingleQuditGates().run(DropIdentities().run(circuit))
    table = expand_to_table(macro)
    table = cancel_adjacent_inverses(table)
    table = drop_identities(table)
    table.name = circuit.name
    return table
