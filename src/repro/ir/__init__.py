"""Columnar compiled-circuit IR: struct-of-arrays gate tables.

``repro.ir`` is the array-backed twin of the object IR in ``repro.qudit``:
a :class:`GateTable` stores a circuit as eight parallel numpy int columns
(opcode, wire triple, control-predicate ids, payload id, overflow id) with
all Python payloads interned once into shared pools.  Conversion is
lossless in both directions (``QuditCircuit.to_table()`` /
``GateTable.to_circuit()``), counting/depth/inverse/remap queries run as
column kernels, the identity-drop and inverse-cancel passes have
table-native rewrites (:mod:`repro.ir.rewrite`), and
:func:`lower_circuit_to_table` lowers synthesis output straight into a
table through cached wire-relabelled expansion templates.
"""

from repro.ir.pools import (
    ExtraControlsPool,
    PermGatePool,
    PoolSet,
    PredicatePool,
    SegmentGatherCache,
    UnitaryGatePool,
)
from repro.ir.rewrite import (
    cancel_adjacent_inverses,
    drop_identities,
    segment_bounds,
)
from repro.ir.segment import Segment, compose_gather, segment_table
from repro.ir.table import OP_PERM, OP_STAR, OP_UNITARY, GateTable, TableBuilder
from repro.ir.lowering import expand_to_table, lower_circuit_to_table

__all__ = [
    "GateTable",
    "TableBuilder",
    "PoolSet",
    "PermGatePool",
    "UnitaryGatePool",
    "PredicatePool",
    "ExtraControlsPool",
    "SegmentGatherCache",
    "OP_PERM",
    "OP_UNITARY",
    "OP_STAR",
    "Segment",
    "compose_gather",
    "segment_table",
    "segment_bounds",
    "drop_identities",
    "cancel_adjacent_inverses",
    "expand_to_table",
    "lower_circuit_to_table",
]
