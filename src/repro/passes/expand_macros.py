"""ExpandMacros: rewrite macro operations down to the G-gate set.

The synthesis routines emit circuits whose operations are at most
"two-controlled macros": singly-controlled permutation gates with arbitrary
predicates, two-controlled permutation gates, and the ``|⋆⟩|0⟩-X±⋆`` star
gates.  The paper's cost metric, however, is the number of G-gates
(``G = {Xij} ∪ {|0⟩-X01}``).  This pass rewrites a circuit so that every
operation is literally a G-gate, applying the following rules until a fixed
point is reached:

1. an uncontrolled permutation gate → its transposition decomposition;
2. ``|l⟩-Xij`` → conjugated ``|0⟩-X01`` (Section II's observation);
3. a singly-controlled permutation with an ``Odd``/``EvenNonZero``/set
   predicate → a product over its firing values;
4. a two-controlled permutation → the Lemma III.3 gadget (odd ``d``,
   ancilla-free) or the Lemma III.1 gadget (even ``d``, borrowing the
   lowest-index idle wire of the circuit — the paper borrows idle control
   wires in exactly the same way);
5. a star gate → a product of two-controlled ``X+y`` gates over the star
   wire's values ``y = 1 .. d−1`` (Fig. 6), which rule 4 then expands.

Operations with three or more value controls are rejected: producing those
is the job of the multi-controlled synthesis itself, not of the expansion
pass.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from repro.exceptions import SynthesisError
from repro.passes.base import Pass
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import Value
from repro.qudit.gates import XPerm
from repro.qudit.operations import BaseOp, Operation, StarShiftOp
from repro.core.single_controlled import (
    controlled_permutation_g_ops,
    controlled_transposition_g_ops,
    transposition_ops,
)
from repro.core.two_controlled import two_controlled_transposition_ops
from repro.utils import permutations as perm_utils


#: Bound on macro nesting: the number of rewriting sweeps ``ExpandMacros``
#: runs, and the recursion depth of ``expand_fully`` (and so of the table
#: lowering templates).  One sweep expands one level of nesting, so both
#: accept and reject exactly the same circuits.
MAX_EXPANSION_DEPTH = 12


class ExpandMacros(Pass):
    """Expand every macro operation into G-gates (fixed-point rewriter)."""

    name = "expand-macros"

    def run(self, circuit: QuditCircuit) -> QuditCircuit:
        current = circuit
        for _ in range(MAX_EXPANSION_DEPTH):
            if current.is_g_circuit():
                return current.copy()
            next_circuit = QuditCircuit(current.num_wires, current.dim, name=current.name)
            find_borrow = partial(_find_borrow, current)
            for op in current:
                next_circuit.extend(_expand_op(op, current.dim, find_borrow))
            current = next_circuit
        if not current.is_g_circuit():
            raise SynthesisError("lowering did not converge to G-gates")
        return current


#: Lazily resolves the borrowed wire for an even-``d`` two-controlled gadget;
#: called only when an expansion rule actually needs one.
BorrowFinder = Callable[[BaseOp], int]


def expand_fully(
    op: BaseOp, dim: int, find_borrow: BorrowFinder, fuel: int = MAX_EXPANSION_DEPTH
) -> List[BaseOp]:
    """Expand one operation all the way down to G-gates (depth-first).

    Produces exactly the sequence the sweep-based :class:`ExpandMacros` pass
    would: each rewrite rule is context-free given ``dim`` and the borrow
    wire, so expanding depth-first instead of sweep-by-sweep preserves the
    concatenation order at every level.  The table-lowering templates in
    :mod:`repro.ir.lowering` are built from this.
    """
    if op.is_g_gate(dim):
        return [op]
    if fuel <= 0:
        raise SynthesisError("lowering did not converge to G-gates")
    expanded: List[BaseOp] = []
    for child in _expand_op(op, dim, find_borrow):
        expanded.extend(expand_fully(child, dim, find_borrow, fuel - 1))
    return expanded


def _expand_op(op: BaseOp, dim: int, find_borrow: Optional[BorrowFinder]) -> List[BaseOp]:
    if op.is_g_gate(dim):
        return [op]

    if isinstance(op, StarShiftOp):
        return _expand_star(op, dim)

    if not isinstance(op, Operation):  # pragma: no cover - defensive
        raise SynthesisError(f"cannot lower unknown operation {op!r}")
    if not op.gate.is_permutation:
        raise SynthesisError(
            "cannot lower a non-permutation payload to G-gates; keep |1⟩-U gates "
            "as two-qudit gates instead"
        )

    perm = op.gate.permutation()
    if perm == perm_utils.identity_permutation(dim):
        return []

    if op.num_controls == 0:
        return list(transposition_ops(dim, op.target, perm))

    if op.num_controls == 1:
        control, predicate = op.controls[0]
        if isinstance(predicate, Value) and perm_utils.is_transposition(perm):
            i, j = XPerm(perm).transposition_points()
            return list(
                controlled_transposition_g_ops(dim, control, predicate.value, op.target, i, j)
            )
        return list(
            controlled_permutation_g_ops(dim, control, predicate, op.target, perm)
        )

    if op.num_controls == 2:
        (c1, p1), (c2, p2) = op.controls
        borrow = find_borrow(op) if dim % 2 == 0 else None
        ops: List[BaseOp] = []
        for i, j in perm_utils.transpositions_of(perm):
            ops.extend(
                two_controlled_transposition_ops(dim, c1, p1, c2, p2, op.target, i, j, borrow)
            )
        return ops

    raise SynthesisError(
        f"lowering does not expand operations with {op.num_controls} controls; "
        "use the multi-controlled synthesis routines instead"
    )


def _expand_star(op: StarShiftOp, dim: int) -> List[BaseOp]:
    """Expand ``|⋆⟩[controls]-X±⋆`` into per-value controlled shifts (Fig. 6)."""
    if len(op.controls) > 1:
        raise SynthesisError(
            "star gates with more than one ordinary control must be synthesised "
            "with the ladder (multi_controlled_star_ops), not the lowering pass"
        )
    ops: List[BaseOp] = []
    for star_value in range(1, dim):
        shift = (op.sign * star_value) % dim
        perm = perm_utils.cycle_plus(dim, shift)
        controls = list(op.controls) + [(op.star_wire, Value(star_value))]
        ops.append(Operation(XPerm(perm, label=f"X+{shift}"), op.target, controls))
    return ops


def lowest_idle_wire(num_wires: int, op: BaseOp) -> int:
    """The borrow-wire policy shared by table lowering and its reference.

    Picks the lowest-index wire of an ``num_wires``-wide register not used
    by ``op`` — the paper borrows idle control wires in exactly this way.
    Table lowering (:mod:`repro.ir.lowering`) must agree with this choice
    to stay gate-for-gate identical to the object reference pipeline, so
    any policy change belongs here and nowhere else.
    """
    used = set(op.wires())
    for wire in range(num_wires):
        if wire not in used:
            return wire
    raise SynthesisError(
        "no idle wire available to borrow for the even-d two-controlled gadget; "
        "add one borrowed ancilla wire to the circuit (Lemma III.1 requires it)"
    )


def _find_borrow(circuit: QuditCircuit, op: BaseOp) -> int:
    """Pick an idle wire of the circuit to borrow for an even-``d`` gadget."""
    return lowest_idle_wire(circuit.num_wires, op)
