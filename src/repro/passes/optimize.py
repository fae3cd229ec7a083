"""Peephole optimization passes.

Three cheap, semantics-preserving rewrites that shrink circuits emitted by
the synthesis routines and the macro expansion:

* :class:`DropIdentities` — remove operations whose payload acts as the
  identity (identity permutations, identity matrices, controls that can
  never fire);
* :class:`CancelAdjacentInverses` — remove ``U, U†`` pairs that are adjacent
  up to operations on disjoint wires (which commute past both);
* :class:`FuseSingleQuditGates` — merge runs of uncontrolled single-qudit
  gates on the same wire into one gate (permutations compose into one
  ``XPerm``, matrices into one ``SingleQuditUnitary``).

All three only ever remove or merge operations, so downstream G-gate counts
can shrink but never grow.

Each pass runs in a single linear sweep: per-wire stacks (cancel) or a
per-wire last-touch index (fuse) make "the nearest prior op sharing a wire"
an O(1) lookup, replacing the old quadratic backward rescans.  These passes
are the object reference for the columnar kernels in
:mod:`repro.ir.rewrite` (:func:`~repro.ir.rewrite.drop_identities` and
:func:`~repro.ir.rewrite.cancel_adjacent_inverses`), which are checked gate
for gate against them.  Fusion runs only here: production lowering fuses
at the small macro level, before expansion, so it has no table kernel.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import GateError
from repro.passes.base import Pass
from repro.qudit.circuit import QuditCircuit
from repro.qudit.gates import Gate, SingleQuditUnitary, XPerm
from repro.qudit.operations import BaseOp, Operation, StarShiftOp
from repro.utils import permutations as perm_utils


def _rebuild(circuit: QuditCircuit, ops: List[BaseOp]) -> QuditCircuit:
    # Every op comes from (or is a same-shape rewrite of an op from) the
    # validated input circuit, so the rebuilt circuit skips re-validation
    # instead of re-checking — and re-copying — the whole list.
    return QuditCircuit._from_validated_ops(
        circuit.num_wires, circuit.dim, ops, name=circuit.name
    )


def _gates_are_inverse(first: Gate, second: Gate) -> bool:
    """True if applying ``first`` then ``second`` is the identity."""
    if first.dim != second.dim:
        return False
    if first.is_permutation and second.is_permutation:
        composed = perm_utils.compose(second.permutation(), first.permutation())
        return composed == perm_utils.identity_permutation(first.dim)
    if not first.is_permutation and not second.is_permutation:
        product = second.matrix() @ first.matrix()
        return bool(np.allclose(product, np.eye(first.dim), atol=1e-9))
    return False


def _ops_cancel(first: BaseOp, second: BaseOp) -> bool:
    """True if ``second`` undoes ``first`` exactly (same wires and controls)."""
    if isinstance(first, Operation) and isinstance(second, Operation):
        return (
            first.target == second.target
            and first.controls == second.controls
            and _gates_are_inverse(first.gate, second.gate)
        )
    if isinstance(first, StarShiftOp) and isinstance(second, StarShiftOp):
        return (
            first.star_wire == second.star_wire
            and first.target == second.target
            and first.controls == second.controls
            and first.sign == -second.sign
        )
    return False


class DropIdentities(Pass):
    """Remove operations that act as the identity on every basis state."""

    name = "drop-identities"

    def run(self, circuit: QuditCircuit) -> QuditCircuit:
        kept = [op for op in circuit if not self._is_identity(op, circuit.dim)]
        return _rebuild(circuit, kept)

    @staticmethod
    def _is_identity(op: BaseOp, dim: int) -> bool:
        if not isinstance(op, Operation):
            return False
        try:
            if any(not predicate.values(dim) for _, predicate in op.controls):
                return True  # no basis state can ever fire the controls
        except GateError:
            return False  # out-of-range predicate: leave for the simulator to reject
        gate = op.gate
        if gate.is_permutation:
            return gate.permutation() == perm_utils.identity_permutation(gate.dim)
        return bool(np.allclose(gate.matrix(), np.eye(gate.dim), atol=1e-12))


class CancelAdjacentInverses(Pass):
    """Remove ``U, U†`` pairs separated only by wire-disjoint operations.

    One forward sweep with per-wire stacks of surviving op indices.  The
    nearest prior op sharing a wire with ``op`` is the largest stack top over
    ``op``'s wires (anything later would itself top one of those stacks), and
    when it cancels it has the same wire set, so it is popped from exactly
    its stack tops — O(ops + wire incidences) overall, where the previous
    backward-rescan implementation was quadratic.
    """

    name = "cancel-adjacent-inverses"

    def run(self, circuit: QuditCircuit) -> QuditCircuit:
        kept: List[Optional[BaseOp]] = []
        stacks: List[List[int]] = [[] for _ in range(circuit.num_wires)]
        for op in circuit:
            wires = op.wires()
            prior = -1
            for w in wires:
                stack = stacks[w]
                if stack and stack[-1] > prior:
                    prior = stack[-1]
            if prior >= 0 and _ops_cancel(kept[prior], op):
                for w in wires:
                    stacks[w].pop()
                kept[prior] = None
                continue
            index = len(kept)
            kept.append(op)
            for w in wires:
                stacks[w].append(index)
        return _rebuild(circuit, [op for op in kept if op is not None])


class FuseSingleQuditGates(Pass):
    """Fuse runs of uncontrolled single-qudit gates on one wire into one gate.

    Two permutations compose into a single :class:`XPerm`; anything involving
    a dense payload composes into a single :class:`SingleQuditUnitary`.
    Intervening operations that do not touch the wire commute past the run
    and do not block fusion.  A per-wire last-touch index finds the nearest
    prior op on the target wire in O(1), making the pass one linear sweep.
    """

    name = "fuse-single-qudit-gates"

    def run(self, circuit: QuditCircuit) -> QuditCircuit:
        kept: List[BaseOp] = []
        last = [-1] * circuit.num_wires
        for op in circuit:
            if self._fusable(op):
                prior = last[op.target]
                if prior >= 0 and self._fusable(kept[prior]):
                    # The prior fusable op touches only this target wire, so
                    # replacing it in place keeps the last-touch index valid.
                    kept[prior] = Operation(_fuse_gates(kept[prior].gate, op.gate), op.target)
                    continue
            index = len(kept)
            kept.append(op)
            for w in op.wires():
                last[w] = index
        return _rebuild(circuit, kept)

    @staticmethod
    def _fusable(op: BaseOp) -> bool:
        return isinstance(op, Operation) and not op.controls


def _fuse_gates(first: Gate, second: Gate) -> Gate:
    """The single gate equal to applying ``first`` then ``second``."""
    if first.is_permutation and second.is_permutation:
        merged = perm_utils.compose(second.permutation(), first.permutation())
        return XPerm(merged, label=f"{first.label}·{second.label}")
    product = second.matrix() @ first.matrix()
    return SingleQuditUnitary(product, label=f"{first.label}·{second.label}", check=False)
