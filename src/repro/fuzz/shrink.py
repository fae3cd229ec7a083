"""Greedy delta-debugging of failing fuzz artifacts.

A fuzz divergence on a 60-op random circuit is nearly useless for
debugging; the same divergence on a 3-op circuit is a bug report.  The
shrinkers here minimise a failing artifact while a caller-supplied
predicate (``fails``) keeps returning ``True`` — the predicate is the
oracle that reported the divergence, so every intermediate candidate is a
genuine reproducer.

Circuit shrinking interleaves five reductions until a fixed point:

1. **drop ops** — ddmin-style chunk removal (halving chunk sizes);
2. **drop controls** — remove one control predicate at a time;
3. **simplify payloads** — replace gates by the plain ``X01`` transposition
   and predicates by ``Value(0)``;
4. **drop wires** — compact the register to the used wires (optionally
   keeping one idle borrow wire);
5. **shrink d** — re-express every op in a smaller dimension when all
   payloads restrict.

Instance shrinking walks ``k`` down to the strategy's ``min_k`` and then
``d`` down to ``min_dim``.  Note delta debugging only needs the *predicate*
preserved, not the circuit's semantics — a candidate may compute something
completely different as long as the oracle still flags it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import ControlPredicate, InSet, Value
from repro.qudit.gates import XPerm, XPlus
from repro.qudit.operations import BaseOp, Operation, StarShiftOp
from repro.fuzz.generators import SynthesisInstance

FailPredicate = Callable[[QuditCircuit], bool]


def _rebuild(
    num_wires: int, dim: int, ops: List[BaseOp], name: str = "shrunk"
) -> Optional[QuditCircuit]:
    try:
        return QuditCircuit(num_wires, dim, name=name).extend(ops)
    except Exception:  # noqa: BLE001 - invalid candidates are simply skipped
        return None


def _still_fails(fails: FailPredicate, candidate: Optional[QuditCircuit]) -> bool:
    if candidate is None:
        return False
    try:
        return bool(fails(candidate))
    except Exception:  # noqa: BLE001 - a crashing predicate never accepts
        return False


def _shrink_ops(circuit: QuditCircuit, fails: FailPredicate) -> Tuple[QuditCircuit, bool]:
    """ddmin-style greedy chunk removal over the op list."""
    ops = circuit.ops
    changed = False
    chunk = max(1, len(ops) // 2)
    while chunk >= 1:
        index = 0
        while index < len(ops):
            candidate_ops = ops[:index] + ops[index + chunk :]
            candidate = _rebuild(circuit.num_wires, circuit.dim, candidate_ops)
            if candidate_ops != ops and _still_fails(fails, candidate):
                ops = candidate_ops
                changed = True
            else:
                index += chunk
        chunk //= 2
    return (_rebuild(circuit.num_wires, circuit.dim, ops) or circuit), changed


def _op_without_control(op: BaseOp, control_index: int) -> Optional[BaseOp]:
    controls = list(op.controls)
    del controls[control_index]
    if isinstance(op, StarShiftOp):
        return StarShiftOp(op.star_wire, op.target, op.sign, controls)
    if isinstance(op, Operation):
        return Operation(op.gate, op.target, controls)
    return None


def _shrink_controls(circuit: QuditCircuit, fails: FailPredicate) -> Tuple[QuditCircuit, bool]:
    ops = circuit.ops
    changed = False
    for i, op in enumerate(ops):
        control_index = 0
        while control_index < len(ops[i].controls):
            simpler = _op_without_control(ops[i], control_index)
            if simpler is None:
                break
            candidate_ops = ops[:i] + [simpler] + ops[i + 1 :]
            candidate = _rebuild(circuit.num_wires, circuit.dim, candidate_ops)
            if _still_fails(fails, candidate):
                ops = candidate_ops
                changed = True
            else:
                control_index += 1
    return (_rebuild(circuit.num_wires, circuit.dim, ops) or circuit), changed


def _simpler_ops(op: BaseOp, dim: int) -> List[BaseOp]:
    """Candidate single-step payload simplifications of one op."""
    candidates: List[BaseOp] = []
    x01 = XPerm.transposition(dim, 0, 1)
    if isinstance(op, StarShiftOp):
        candidates.append(Operation(x01, op.target, op.controls))
        if op.sign < 0:
            candidates.append(StarShiftOp(op.star_wire, op.target, 1, op.controls))
    elif isinstance(op, Operation):
        if op.gate != x01:
            candidates.append(Operation(x01, op.target, op.controls))
        for index, (wire, predicate) in enumerate(op.controls):
            if not (isinstance(predicate, Value) and predicate.value == 0):
                controls = list(op.controls)
                controls[index] = (wire, Value(0))
                candidates.append(Operation(op.gate, op.target, controls))
    return candidates


def _simplify_payloads(circuit: QuditCircuit, fails: FailPredicate) -> Tuple[QuditCircuit, bool]:
    ops = circuit.ops
    changed = False
    for i in range(len(ops)):
        for simpler in _simpler_ops(ops[i], circuit.dim):
            candidate_ops = ops[:i] + [simpler] + ops[i + 1 :]
            candidate = _rebuild(circuit.num_wires, circuit.dim, candidate_ops)
            if _still_fails(fails, candidate):
                ops = candidate_ops
                changed = True
                break
    return (_rebuild(circuit.num_wires, circuit.dim, ops) or circuit), changed


def _compact_wires(circuit: QuditCircuit, fails: FailPredicate) -> Tuple[QuditCircuit, bool]:
    """Relabel the used wires to 0..m−1 and drop the rest (if still failing).

    Tried twice: a fully compact register, then one keeping a single idle
    wire (some oracles only fire when lowering can borrow).
    """
    used = circuit.used_wires()
    if not used:
        return circuit, False
    mapping = {wire: index for index, wire in enumerate(used)}
    for extra in (0, 1):
        target_wires = len(used) + extra
        if target_wires >= circuit.num_wires:
            continue
        try:
            candidate = circuit.remap_wires(mapping, num_wires=target_wires)
        except Exception:  # noqa: BLE001
            continue
        if _still_fails(fails, candidate):
            return candidate, True
    return circuit, False


def _restrict_predicate(predicate: ControlPredicate, new_dim: int) -> Optional[ControlPredicate]:
    if isinstance(predicate, Value):
        return predicate if predicate.value < new_dim else None
    if isinstance(predicate, InSet):
        (values,) = predicate._key()  # the explicit firing-value tuple
        return predicate if max(values) < new_dim else None
    return predicate  # Odd / EvenNonZero restrict to any dimension


def _restrict_op(op: BaseOp, new_dim: int) -> Optional[BaseOp]:
    controls = []
    for wire, predicate in op.controls:
        restricted = _restrict_predicate(predicate, new_dim)
        if restricted is None:
            return None
        controls.append((wire, restricted))
    if isinstance(op, StarShiftOp):
        return StarShiftOp(op.star_wire, op.target, op.sign, controls)
    if not isinstance(op, Operation) or not op.gate.is_permutation:
        return None
    perm = op.gate.permutation()
    if any(perm[value] != value for value in range(new_dim, len(perm))):
        return None
    if isinstance(op.gate, XPlus):
        if op.gate.shift != 0:
            return None
        return Operation(XPlus(new_dim, 0), op.target, controls)
    return Operation(XPerm(tuple(perm[:new_dim])), op.target, controls)


def _shrink_dim(circuit: QuditCircuit, fails: FailPredicate) -> Tuple[QuditCircuit, bool]:
    for new_dim in range(2, circuit.dim):
        restricted: List[BaseOp] = []
        for op in circuit.ops:
            translated = _restrict_op(op, new_dim)
            if translated is None:
                break
            restricted.append(translated)
        else:
            candidate = _rebuild(circuit.num_wires, new_dim, restricted)
            if _still_fails(fails, candidate):
                return candidate, True
    return circuit, False


def shrink_circuit(
    circuit: QuditCircuit, fails: FailPredicate, *, max_rounds: int = 6
) -> QuditCircuit:
    """Minimise a failing circuit while ``fails`` keeps returning ``True``.

    The input must fail; the result is a (usually far smaller) circuit that
    still fails.  Each round applies every reduction once; rounds stop at a
    fixed point or after ``max_rounds``.
    """
    if not _still_fails(fails, circuit):
        raise ValueError("shrink_circuit needs an input on which the oracle fails")
    best = circuit
    for _ in range(max_rounds):
        round_changed = False
        for step in (_shrink_ops, _shrink_controls, _simplify_payloads, _compact_wires, _shrink_dim):
            best, changed = step(best, fails)
            round_changed = round_changed or changed
        if not round_changed:
            break
    best.name = f"{circuit.name} [shrunk]"
    return best


def shrink_instance(
    instance: SynthesisInstance, fails: Callable[[SynthesisInstance], bool]
) -> SynthesisInstance:
    """Walk a failing ``(strategy, d, k)`` down to minimal ``k``, then ``d``."""
    from repro.synth import registry

    strategy = registry.get(instance.strategy)
    caps = strategy.capabilities
    best = instance

    def still_fails(candidate: SynthesisInstance) -> bool:
        try:
            return bool(fails(candidate))
        except Exception:  # noqa: BLE001
            return False

    k = best.k
    while k - 1 >= max(caps.min_k, 1) and strategy.supports(best.dim, k - 1):
        candidate = SynthesisInstance(best.strategy, best.dim, k - 1)
        if not still_fails(candidate):
            break
        best = candidate
        k -= 1
    for dim in range(caps.min_dim, best.dim):
        if not strategy.supports(dim, best.k):
            continue
        candidate = SynthesisInstance(best.strategy, dim, best.k)
        if still_fails(candidate):
            best = candidate
            break
    return best


__all__ = ["shrink_circuit", "shrink_instance"]
