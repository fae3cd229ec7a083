"""Tests for the circuit-transform pass pipeline (repro.passes).

Each pass must preserve semantics on randomized circuits: permutation-table
equality for permutation circuits, unitary equality for small unitary
circuits.  The optimization passes must also actually shrink the circuits
they claim to shrink.
"""

import random

import numpy as np
import pytest

from repro.core.lowering import lower_to_g_gates
from repro.core.toffoli import synthesize_mct
from repro.passes import (
    CancelAdjacentInverses,
    DropIdentities,
    ExpandMacros,
    FuseSingleQuditGates,
    Pass,
    PassPipeline,
    PassRecord,
    default_lowering_pipeline,
)
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import EvenNonZero, Odd, Value
from repro.qudit.gates import SingleQuditUnitary, XPerm, XPlus
from repro.qudit.operations import Operation, StarShiftOp
from repro.sim import circuit_unitary, permutation_index_table
from repro.utils import permutations as perm_utils

OPTIMIZE_PASSES = [CancelAdjacentInverses(), DropIdentities(), FuseSingleQuditGates()]


def random_permutation_circuit(rng, num_wires=3, dim=3, num_ops=12):
    """A random circuit of permutation gates: plain, controlled, star."""
    circuit = QuditCircuit(num_wires, dim, name="random-perm")
    for _ in range(num_ops):
        kind = rng.randrange(4)
        wires = rng.sample(range(num_wires), 2)
        if kind == 0:
            circuit.add_gate(XPlus(dim, rng.randrange(dim)), wires[0])
        elif kind == 1:
            perm = perm_utils.random_permutation(dim, rng)
            circuit.add_gate(XPerm(perm), wires[0])
        elif kind == 2:
            predicate = rng.choice([Value(rng.randrange(dim)), Odd(), EvenNonZero()])
            i, j = rng.sample(range(dim), 2)
            circuit.add_gate(XPerm.transposition(dim, i, j), wires[1], [(wires[0], predicate)])
        else:
            circuit.append(StarShiftOp(wires[0], wires[1], rng.choice([+1, -1])))
    return circuit


def random_unitary_circuit(rng, num_wires=2, dim=3, num_ops=8):
    """A random circuit mixing dense unitaries with controlled permutations."""
    circuit = QuditCircuit(num_wires, dim, name="random-unitary")
    for _ in range(num_ops):
        wires = rng.sample(range(num_wires), 2)
        if rng.randrange(2):
            phases = np.exp(2j * np.pi * np.array([rng.random() for _ in range(dim)]))
            circuit.add_gate(SingleQuditUnitary(np.diag(phases), label="D"), wires[0])
        else:
            circuit.add_gate(
                XPerm.transposition(dim, 0, 1), wires[1], [(wires[0], Value(rng.randrange(dim)))]
            )
    return circuit


class TestSemanticsPreserved:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("optimization", OPTIMIZE_PASSES, ids=lambda p: p.name)
    def test_permutation_circuits(self, optimization, seed):
        rng = random.Random(seed)
        circuit = random_permutation_circuit(rng)
        transformed = optimization.run(circuit)
        assert np.array_equal(
            permutation_index_table(transformed), permutation_index_table(circuit)
        )
        assert transformed.num_ops() <= circuit.num_ops()

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("optimization", OPTIMIZE_PASSES, ids=lambda p: p.name)
    def test_unitary_circuits(self, optimization, seed):
        rng = random.Random(100 + seed)
        circuit = random_unitary_circuit(rng)
        transformed = optimization.run(circuit)
        assert np.allclose(circuit_unitary(transformed), circuit_unitary(circuit), atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_expand_macros(self, seed):
        rng = random.Random(200 + seed)
        # 4 wires keeps an idle wire available should a borrow be needed.
        circuit = random_permutation_circuit(rng, num_wires=4, dim=3, num_ops=6)
        expanded = ExpandMacros().run(circuit)
        assert expanded.is_g_circuit()
        assert np.array_equal(permutation_index_table(expanded), permutation_index_table(circuit))

    @pytest.mark.parametrize("seed", range(4))
    def test_default_pipeline(self, seed):
        rng = random.Random(300 + seed)
        circuit = random_permutation_circuit(rng, num_wires=4, dim=3, num_ops=6)
        lowered = default_lowering_pipeline().run(circuit)
        assert lowered.is_g_circuit()
        assert np.array_equal(permutation_index_table(lowered), permutation_index_table(circuit))

    def test_passes_do_not_mutate_input(self):
        circuit = QuditCircuit(2, 3)
        circuit.add_gate(XPlus(3, 1), 0)
        circuit.add_gate(XPlus(3, 2), 0)
        before = circuit.ops
        FuseSingleQuditGates().run(circuit)
        assert circuit.ops == before


class TestCancelAdjacentInverses:
    def test_round_trip_cancels_completely(self):
        circuit = synthesize_mct(3, 2).circuit
        round_trip = circuit.copy().compose(circuit.inverse())
        reduced = CancelAdjacentInverses().run(round_trip)
        assert reduced.num_ops() < round_trip.num_ops()
        assert reduced.num_ops() == 0

    def test_lowered_round_trip_shrinks(self):
        lowered = lower_to_g_gates(synthesize_mct(3, 2).circuit)
        round_trip = lowered.copy().compose(lowered.inverse())
        reduced = CancelAdjacentInverses().run(round_trip)
        assert reduced.num_ops() < round_trip.num_ops()

    def test_cancels_across_disjoint_ops(self):
        circuit = QuditCircuit(3, 3)
        circuit.add_gate(XPlus(3, 1), 0)
        circuit.add_gate(XPerm.transposition(3, 0, 1), 1, [(2, Value(0))])  # disjoint from wire 0
        circuit.add_gate(XPlus(3, 2), 0)  # inverse of the first op
        reduced = CancelAdjacentInverses().run(circuit)
        assert reduced.num_ops() == 1

    def test_blocked_by_intervening_op_on_same_wire(self):
        circuit = QuditCircuit(2, 3)
        circuit.add_gate(XPlus(3, 1), 0)
        circuit.add_gate(XPerm.transposition(3, 0, 1), 1, [(0, Value(0))])  # reads wire 0
        circuit.add_gate(XPlus(3, 2), 0)
        reduced = CancelAdjacentInverses().run(circuit)
        assert reduced.num_ops() == 3

    def test_star_shift_pairs_cancel(self):
        circuit = QuditCircuit(2, 3)
        circuit.append(StarShiftOp(0, 1, +1))
        circuit.append(StarShiftOp(0, 1, -1))
        assert CancelAdjacentInverses().run(circuit).num_ops() == 0


class TestFuseAndDrop:
    def test_fuses_shift_run_into_one_gate(self):
        circuit = QuditCircuit(2, 5)
        circuit.add_gate(XPlus(5, 1), 0)
        circuit.add_gate(XPlus(5, 2), 0)
        circuit.add_gate(XPlus(5, 1), 1)  # other wire: commutes, not fused with wire 0
        fused = FuseSingleQuditGates().run(circuit)
        assert fused.num_ops() == 2
        assert fused[0].gate.permutation() == perm_utils.cycle_plus(5, 3)

    def test_fusion_blocked_by_control_on_wire(self):
        circuit = QuditCircuit(2, 3)
        circuit.add_gate(XPlus(3, 1), 0)
        circuit.add_gate(XPerm.transposition(3, 0, 1), 1, [(0, Value(0))])  # reads wire 0
        circuit.add_gate(XPlus(3, 1), 0)
        assert FuseSingleQuditGates().run(circuit).num_ops() == 3

    def test_drop_identities(self):
        circuit = QuditCircuit(2, 3)
        circuit.add_gate(XPlus(3, 0), 0)  # identity shift
        circuit.add_gate(SingleQuditUnitary(np.eye(3)), 1)  # identity matrix
        circuit.add_gate(XPlus(3, 1), 1, [(0, EvenNonZero())])
        dropped = DropIdentities().run(circuit)
        assert dropped.num_ops() == 1

    def test_drop_never_firing_control(self):
        # On qutrits EvenNonZero never fires for d=2... use d=2 circuit.
        circuit = QuditCircuit(2, 2)
        circuit.add_gate(XPerm.transposition(2, 0, 1), 1, [(0, EvenNonZero())])
        assert DropIdentities().run(circuit).num_ops() == 0


class TestPipelinePlumbing:
    def test_history_records(self):
        pipeline = default_lowering_pipeline()
        lowered = pipeline.run(synthesize_mct(3, 2).circuit)
        assert lowered.is_g_circuit()
        assert len(pipeline.history) == len(pipeline)
        assert all(isinstance(record, PassRecord) for record in pipeline.history)
        expand = [r for r in pipeline.history if r.pass_name == "expand-macros"][0]
        assert expand.ops_after > expand.ops_before

    def test_lower_to_g_gates_never_grows(self):
        """The wrapper's optimization passes may only shrink G-gate counts
        relative to plain macro expansion."""
        for dim, k in [(3, 2), (3, 3), (4, 3)]:
            circuit = synthesize_mct(dim, k).circuit
            plain = CancelAdjacentInverses().run(ExpandMacros().run(circuit))
            assert plain.num_ops() <= ExpandMacros().run(circuit).num_ops()
            assert lower_to_g_gates(circuit).num_ops() <= ExpandMacros().run(circuit).num_ops()

    def test_custom_pass_in_pipeline(self):
        class Reverse(Pass):
            name = "reverse"

            def run(self, circuit):
                out = QuditCircuit(circuit.num_wires, circuit.dim, name=circuit.name)
                out.extend(reversed(circuit.ops))
                return out

        circuit = QuditCircuit(1, 3)
        circuit.add_gate(XPlus(3, 1), 0)
        circuit.add_gate(XPerm.transposition(3, 0, 2), 0)
        pipeline = PassPipeline([Reverse(), Reverse()])
        assert pipeline.run(circuit).ops == circuit.ops
