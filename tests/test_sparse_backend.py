"""The sparse amplitude-map engine and the batched index-propagation layer.

The sparse contract has two halves:

* on **permutation** circuits the engine is *bit-for-bit* equal to
  ``dense`` — indices propagate by exact integer stride arithmetic and
  amplitudes are only carried, never recomputed (``np.array_equal``
  throughout, like the streaming suite);
* on circuits with **unitary** rows the expansion/merge/prune path is
  ``allclose`` to dense, densifies transparently past the occupancy
  threshold, and stays total (every circuit dense accepts, sparse accepts).

The batched-verification layer underneath
(:meth:`repro.ir.table.GateTable.apply_to_indices`, the sampled tiers of
the ``assert_*`` helpers, the sampled-columns unitary tier) is what
makes registers beyond any statevector *verified* rather than trusted, so
its failure messages — seed, failing row, replay recipe — are pinned here
too.
"""

import json
import random

import numpy as np
import pytest

from repro.exceptions import GateError, VerificationError, WireError
from repro.ir.index_plan import reference_apply_to_indices
from repro.ir.segment import segment_table
from repro.ir.table import DEFAULT_INDEX_CHUNK, LOCAL_STATES_MAX
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import Odd, Value
from repro.qudit.gates import SingleQuditUnitary, XPerm, XPlus
from repro.qudit.operations import StarShiftOp
from repro.sim import (
    MATERIALIZE_LIMIT,
    SparseBackend,
    SparseState,
    assert_mct_spec,
    available_backends,
    get_backend,
)
from repro.sim.verify import (
    assert_implements_permutation,
    assert_wires_preserved,
    sample_basis_states,
)
from repro.synth import synthesize
from repro.verify import UNBOUNDED, TieredVerifier, VerificationBudget
from repro.utils import permutations as perm_utils

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def mixed_circuit(seed, num_wires=3, dim=3, num_ops=12, unitary=True):
    rng = random.Random(seed)
    circuit = QuditCircuit(num_wires, dim, name=f"mixed{seed}")
    for _ in range(num_ops):
        wires = rng.sample(range(num_wires), min(2, num_wires))
        kind = rng.randrange((4 if unitary else 3) if num_wires > 1 else 2)
        if kind == 0:
            circuit.add_gate(XPlus(dim, rng.randrange(1, dim)), wires[0])
        elif kind == 1:
            predicate = rng.choice([Value(rng.randrange(dim)), Odd()])
            controls = [(wires[1], predicate)] if num_wires > 1 else []
            circuit.add_gate(
                XPerm(perm_utils.random_permutation(dim, rng)), wires[0], controls
            )
        elif kind == 2:
            circuit.append(StarShiftOp(wires[0], wires[1], rng.choice([+1, -1])))
        else:
            phases = np.exp(2j * np.pi * np.array([rng.random() for _ in range(dim)]))
            controls = [(wires[1], Value(rng.randrange(dim)))] if rng.randrange(2) else []
            circuit.add_gate(SingleQuditUnitary(np.diag(phases), label="D"), wires[0], controls)
    return circuit


def sparse_input(dim, num_wires, nnz, seed=0):
    size = dim**num_wires
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(size, size=min(nnz, size), replace=False)).astype(np.int64)
    amplitudes = rng.normal(size=indices.size) + 1j * rng.normal(size=indices.size)
    amplitudes /= np.linalg.norm(amplitudes)
    return indices, amplitudes


def dense_of(indices, amplitudes, size):
    data = np.zeros(size, dtype=complex)
    data[indices] = amplitudes
    return data


# ----------------------------------------------------------------------
# SparseState representation
# ----------------------------------------------------------------------
class TestSparseState:
    def test_from_basis_state_is_one_amplitude(self):
        state = SparseState.from_basis_state([1, 0, 2], 3)
        assert state.nnz == 1
        assert state.indices.tolist() == [1 * 9 + 0 * 3 + 2]
        assert state.amplitudes.tolist() == [1.0 + 0.0j]
        assert state.norm() == pytest.approx(1.0)
        assert state.digit_rows().tolist() == [[1, 0, 2]]

    def test_from_dense_round_trip(self):
        data = np.zeros(27, dtype=complex)
        data[[3, 7, 20]] = [0.5, 0.5j, -0.5]
        state = SparseState.from_dense(data, 3, 3)
        assert state.nnz == 3
        assert np.array_equal(state.to_dense(), data)

    def test_from_dense_eps_drops_dust(self):
        data = np.zeros(9, dtype=complex)
        data[[1, 4]] = [1.0, 1e-15]
        assert SparseState.from_dense(data, 3, 2, eps=1e-12).indices.tolist() == [1]

    def test_size_is_a_python_int(self):
        state = SparseState.from_basis_state([0] * 40, 3)
        assert state.size == 3**40  # would overflow int64
        assert state.occupancy == pytest.approx(1 / 3**40)

    def test_nbytes_counts_both_arrays(self):
        state = SparseState(2, 3, [1, 5], [1.0, 2.0])
        assert state.nbytes == 2 * 8 + 2 * 16

    def test_validation(self):
        with pytest.raises(GateError):
            SparseState(2, 1, [0], [1.0])  # dim < 2
        with pytest.raises(WireError):
            SparseState(0, 3, [0], [1.0])  # no wires
        with pytest.raises(GateError):
            SparseState(2, 3, [0, 1], [1.0])  # shape mismatch
        with pytest.raises(WireError):
            SparseState(2, 3, [9], [1.0])  # index out of range
        with pytest.raises(GateError):
            SparseState(2, 3, [4, 2], [1.0, 1.0])  # not sorted
        with pytest.raises(GateError):
            SparseState(2, 3, [2, 2], [1.0, 1.0])  # duplicate
        with pytest.raises(GateError):
            SparseState.from_basis_state([0, 3], 3)  # digit out of range

    def test_to_dense_refuses_huge_registers(self):
        state = SparseState.from_basis_state([0] * 40, 3)
        with pytest.raises(GateError, match="keep it sparse"):
            state.to_dense()
        assert 3**40 > MATERIALIZE_LIMIT


# ----------------------------------------------------------------------
# Equivalence matrix against dense
# ----------------------------------------------------------------------
class TestSparseVsDense:
    @pytest.mark.parametrize("seed", range(4))
    def test_permutation_circuits_bit_for_bit(self, seed):
        circuit = mixed_circuit(seed, num_ops=14, unitary=False)
        assert circuit.is_permutation
        indices, amplitudes = sparse_input(3, 3, nnz=4, seed=seed)
        data = dense_of(indices, amplitudes, 27)
        expected = get_backend("dense").apply_table(data.copy(), circuit.to_table())
        actual = SparseBackend().apply_table(data.copy(), circuit.to_table())
        assert np.array_equal(np.asarray(actual), expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_circuits_allclose(self, seed):
        circuit = mixed_circuit(seed, num_ops=14)
        indices, amplitudes = sparse_input(3, 3, nnz=4, seed=seed)
        data = dense_of(indices, amplitudes, 27)
        expected = get_backend("dense").apply_table(data.copy(), circuit.to_table())
        actual = SparseBackend().apply_table(data.copy(), circuit.to_table())
        assert np.allclose(np.asarray(actual), expected, atol=1e-12)

    def test_empty_circuit_is_identity(self):
        circuit = QuditCircuit(3, 3, name="empty")
        indices, amplitudes = sparse_input(3, 3, nnz=3)
        state = SparseState(3, 3, indices, amplitudes)
        out = SparseBackend().apply_table_sparse(state, circuit.to_table())
        assert np.array_equal(out.indices, indices)
        assert np.array_equal(out.amplitudes, amplitudes)

    def test_width_one_circuit(self):
        circuit = mixed_circuit(5, num_wires=1, dim=4, num_ops=6)
        data = dense_of([2], [1.0 + 0.0j], 4)
        expected = get_backend("dense").apply_table(data.copy(), circuit.to_table())
        actual = SparseBackend().apply_table(data.copy(), circuit.to_table())
        assert np.allclose(np.asarray(actual), expected, atol=1e-12)

    def test_non_contiguous_wires_in_a_wide_register(self):
        # The circuit acts on wires 0, 3, 6 of a 7-wire register: stride
        # arithmetic must address the right digits with everything between
        # them untouched.
        circuit = QuditCircuit(7, 3, name="gappy")
        circuit.add_gate(XPlus(3, 1), 6)
        circuit.add_gate(XPerm((2, 0, 1)), 3, [(0, Value(0))])
        circuit.add_gate(XPlus(3, 2), 0, [(6, Odd())])
        indices, amplitudes = sparse_input(3, 7, nnz=5, seed=3)
        data = dense_of(indices, amplitudes, 3**7)
        expected = get_backend("dense").apply_table(data.copy(), circuit.to_table())
        actual = SparseBackend().apply_table(data.copy(), circuit.to_table())
        assert np.array_equal(np.asarray(actual), expected)

    def test_batched_and_circuit_entry_points(self):
        circuit = mixed_circuit(9, num_ops=10)
        data = np.zeros((27, 3), dtype=complex)
        data[[1, 5, 9], [0, 1, 2]] = 1.0
        expected = get_backend("dense").apply_table_batch(data.copy(), circuit.to_table())
        engine = SparseBackend()
        assert np.allclose(
            np.asarray(engine.apply_table_batch(data.copy(), circuit.to_table())),
            expected,
            atol=1e-12,
        )
        assert np.allclose(
            np.asarray(engine.apply_circuit_batch(data.copy(), circuit)),
            expected,
            atol=1e-12,
        )
        with pytest.raises(GateError):
            engine.apply_table_batch(data[:, 0], circuit.to_table())

    def test_per_op_path_matches_dense(self):
        circuit = mixed_circuit(13, num_ops=8)
        data = dense_of([4, 11], np.array([0.6, 0.8j]), 27)
        expected = data.copy()
        actual = data.copy()
        dense, engine = get_backend("dense"), SparseBackend()
        for op in circuit:
            expected = dense.apply_op(expected, op, 3, 3)
            actual = engine.apply_op(actual, op, 3, 3)
        assert np.allclose(np.asarray(actual), expected, atol=1e-12)


# ----------------------------------------------------------------------
# Occupancy crossover, fallbacks, pruning, counters
# ----------------------------------------------------------------------
class TestOccupancyAndStats:
    def test_full_occupancy_input_falls_back_on_entry(self):
        circuit = mixed_circuit(2, num_ops=10, unitary=False)
        rng = np.random.default_rng(0)
        data = rng.normal(size=27) + 1j * rng.normal(size=27)
        engine = SparseBackend()
        expected = get_backend("dense").apply_table(data.copy(), circuit.to_table())
        actual = engine.apply_table(data.copy(), circuit.to_table())
        assert np.array_equal(np.asarray(actual), expected)  # delegated verbatim
        assert engine.cache_stats()["dense_fallbacks"] == 1

    def test_unitary_expansion_densifies_mid_run(self):
        # Hadamards on every wire of |000...0> double the occupancy per row;
        # with a low threshold the run must cross over mid-circuit and still
        # agree with dense.
        circuit = QuditCircuit(5, 2, name="spread")
        for wire in range(5):
            circuit.add_gate(SingleQuditUnitary(HADAMARD, label="H"), wire)
        circuit.add_gate(XPlus(2, 1), 0)  # exercise the post-densify segment path
        data = dense_of([0], [1.0 + 0.0j], 32)
        expected = get_backend("dense").apply_table(data.copy(), circuit.to_table())
        engine = SparseBackend(max_occupancy=0.25)
        actual = engine.apply_table(data.copy(), circuit.to_table())
        assert np.allclose(np.asarray(actual), expected, atol=1e-12)
        stats = engine.cache_stats()
        assert stats["densifies"] == 1
        assert stats["unitary_expands"] >= 1

    def test_sparse_native_recompresses_after_densify(self):
        circuit = QuditCircuit(3, 2, name="spread3")
        for wire in range(3):
            circuit.add_gate(SingleQuditUnitary(HADAMARD, label="H"), wire)
        engine = SparseBackend(max_occupancy=0.25)
        out = engine.apply_table_sparse(SparseState.from_basis_state([0, 0, 0], 2), circuit.to_table())
        assert isinstance(out, SparseState)
        assert out.nnz == 8  # uniform superposition
        assert np.allclose(np.abs(out.amplitudes), 1 / np.sqrt(8))

    def test_epsilon_pruning_cancels_interference(self):
        # H then H is the identity: the second expansion merges amplitudes
        # that cancel exactly, and the pruned counter records the kill.
        circuit = QuditCircuit(1, 2, name="hh")
        circuit.add_gate(SingleQuditUnitary(HADAMARD, label="H"), 0)
        circuit.add_gate(SingleQuditUnitary(HADAMARD, label="H"), 0)
        engine = SparseBackend(max_occupancy=1.0)  # never densify: stay on the merge path
        out = engine.apply_table_sparse(SparseState.from_basis_state([0], 2), circuit.to_table())
        assert out.indices.tolist() == [0]
        assert out.amplitudes[0] == pytest.approx(1.0)
        assert engine.cache_stats()["pruned"] >= 1

    def test_stats_reset_and_threshold_validation(self):
        engine = SparseBackend()
        engine.apply_table(dense_of([0], [1.0], 27), mixed_circuit(0, unitary=False).to_table())
        assert engine.cache_stats()["sparse_applies"] == 1
        engine.reset_stats()
        assert all(v == 0 for v in engine.cache_stats().values())
        with pytest.raises(GateError):
            SparseBackend(max_occupancy=0.0)
        with pytest.raises(GateError):
            SparseBackend(max_occupancy=1.5)

    def test_sparse_is_registered(self):
        assert "sparse" in available_backends()
        assert isinstance(get_backend("sparse"), SparseBackend)


# ----------------------------------------------------------------------
# Batches: one sparse state keyed by column · d^n + index
# ----------------------------------------------------------------------
def low_occupancy_batch(dim, num_wires, batch, seed):
    """``(d^n, batch)`` data with at most three live amplitudes per column."""
    size = dim**num_wires
    data = np.zeros((size, batch), dtype=complex)
    for b in range(batch):
        indices, amplitudes = sparse_input(dim, num_wires, 1 + b % 3, seed=seed + b)
        data[indices, b] = amplitudes
    return data


def dense_columns(data, table):
    dense = get_backend("dense")
    return np.stack(
        [dense.apply_table(data[:, b].copy(), table) for b in range(data.shape[1])], axis=1
    )


class TestSparseBatches:
    @pytest.mark.parametrize("batch", [1, 2, 64])
    def test_permutation_batches_are_bit_for_bit(self, batch):
        table = mixed_circuit(batch, num_wires=4, num_ops=25, unitary=False).to_table()
        data = low_occupancy_batch(3, 4, batch, seed=batch)
        engine = SparseBackend()
        evolved = engine.apply_table_batch(data.copy(), table)
        assert np.array_equal(evolved, dense_columns(data, table))
        stats = engine.cache_stats()
        # Counters count once per call, not once per column.
        assert stats["sparse_applies"] == 1
        assert stats["perm_segments"] == 1
        assert stats["dense_fallbacks"] == 0

    @pytest.mark.parametrize("batch", [1, 2, 64])
    def test_mixed_batches_match_dense(self, batch):
        table = mixed_circuit(100 + batch, num_wires=4, num_ops=25).to_table()
        data = low_occupancy_batch(3, 4, batch, seed=batch)
        engine = SparseBackend()
        evolved = engine.apply_table(data.copy(), table)
        assert np.allclose(evolved, dense_columns(data, table), atol=1e-12)
        unitary_rows = sum(1 for s in segment_table(table) if s.kind == "unitary")
        assert engine.cache_stats()["unitary_expands"] == unitary_rows

    @pytest.mark.parametrize("batch", [2, 64])
    def test_mid_run_densify_counts_once_per_batch(self, batch):
        circuit = QuditCircuit(5, 2, name="spread")
        for wire in range(5):
            circuit.add_gate(SingleQuditUnitary(HADAMARD, label="H"), wire)
        circuit.add_gate(XPlus(2, 1), 0)  # a permutation segment after the densify
        table = circuit.to_table()
        data = np.zeros((32, batch), dtype=complex)
        data[np.arange(batch) % 32, np.arange(batch)] = 1.0
        engine = SparseBackend(max_occupancy=0.25)
        evolved = engine.apply_table_batch(data.copy(), table)
        assert np.allclose(evolved, dense_columns(data, table), atol=1e-12)
        stats = engine.cache_stats()
        assert stats["densifies"] == 1
        assert stats["dense_fallbacks"] == 0

    def test_occupancy_threshold_applies_to_the_whole_batch(self):
        table = mixed_circuit(3, num_wires=3, num_ops=10, unitary=False).to_table()
        data = np.zeros((27, 4), dtype=complex)
        data[::2, 0] = 1.0  # 14 of 27 amplitudes: past 0.25 on its own
        data[[4, 5, 6], [1, 2, 3]] = 1.0
        engine = SparseBackend()
        # 17 live amplitudes <= 0.25 * 27 * 4: the batch stays sparse.
        assert np.array_equal(engine.apply_table(data.copy(), table), dense_columns(data, table))
        assert engine.cache_stats()["dense_fallbacks"] == 0
        data[:, 1] = 1.0  # 43 > 27: now the batch itself is past the threshold
        engine.reset_stats()
        assert np.array_equal(engine.apply_table(data.copy(), table), dense_columns(data, table))
        assert engine.cache_stats()["dense_fallbacks"] == 1

    def test_one_dimensional_input_is_a_batch_of_one(self):
        table = mixed_circuit(8, num_wires=3, num_ops=15).to_table()
        data = low_occupancy_batch(3, 3, 1, seed=4)
        engine = SparseBackend()
        flat = engine.apply_table(data[:, 0].copy(), table)
        assert flat.shape == (27,)
        assert np.array_equal(flat, engine.apply_table(data.copy(), table)[:, 0])

    def test_sparse_state_entry_point_is_unchanged(self):
        table = mixed_circuit(6, num_wires=4, num_ops=20).to_table()
        indices, amplitudes = sparse_input(3, 4, 5, seed=6)
        state = SparseState(4, 3, indices, amplitudes)
        engine = SparseBackend()
        assert isinstance(engine.apply_table(state, table), SparseState)
        out = engine.apply_table_sparse(state, table)
        assert isinstance(out, SparseState)
        assert out.num_wires == 4 and out.dim == 3
        assert bool((np.diff(out.indices) > 0).all())
        assert np.array_equal(state.indices, indices)  # the input is not mutated
        expected = get_backend("dense").apply_table(dense_of(indices, amplitudes, 81), table)
        assert np.allclose(out.to_dense(), expected, atol=1e-12)

    def test_densify_to_is_validated_at_construction(self):
        with pytest.raises(GateError, match="usable") as info:
            SparseBackend(densify_to="sparse")
        assert "dense" in str(info.value) and "streaming" in str(info.value)
        with pytest.raises(GateError, match="'nope'"):
            SparseBackend(densify_to="nope")
        assert SparseBackend(densify_to="streaming").densify_to == "streaming"


# ----------------------------------------------------------------------
# Huge registers: beyond any statevector, still exact and still verified
# ----------------------------------------------------------------------
class TestHugeRegister:
    def test_basis_state_propagates_through_a_19_qutrit_register(self):
        result = synthesize("mct", 3, 18)
        macro = result.circuit
        assert macro.dim**macro.num_wires >= 10**9
        table = macro.to_table()
        engine = get_backend("sparse")
        # All-zero controls fire: the target swaps 0 <-> 1.
        fired = engine.apply_table_sparse(
            SparseState.from_basis_state([0] * macro.num_wires, 3), table
        )
        assert fired.nnz == 1
        expected = [0] * macro.num_wires
        expected[result.target] = 1
        assert fired.digit_rows().tolist() == [expected]
        # A non-zero control digit must leave the state untouched.
        digits = [0] * macro.num_wires
        digits[result.controls[0]] = 2
        idle = engine.apply_table_sparse(SparseState.from_basis_state(digits, 3), table)
        assert idle.digit_rows().tolist() == [digits]

    def test_huge_register_is_verified_against_the_spec(self):
        result = synthesize("mct", 3, 18)
        # The sampled branch pushes every sample through ONE batched
        # apply_to_indices pass — milliseconds where a dense statevector
        # would need ~18.6 GB.
        assert_mct_spec(
            result.circuit,
            result.controls,
            result.target,
            budget=VerificationBudget(max_basis_states=1000, samples=128),
        )


# ----------------------------------------------------------------------
# GateTable.apply_to_indices: buffers, chunking, error naming
# ----------------------------------------------------------------------
class TestApplyToIndices:
    def test_out_buffer_is_filled_and_returned(self):
        table = mixed_circuit(1, num_ops=9, unitary=False).to_table()
        indices = np.arange(27, dtype=np.int64)
        expected = table.apply_to_indices(indices)
        out = np.empty(27, dtype=np.int64)
        returned = table.apply_to_indices(indices, out=out)
        assert returned is out
        assert np.array_equal(out, expected)

    def test_chunking_matches_one_shot(self):
        table = mixed_circuit(4, num_ops=11, unitary=False).to_table()
        indices = np.arange(27, dtype=np.int64)
        assert np.array_equal(
            table.apply_to_indices(indices, chunk_size=5),
            table.apply_to_indices(indices),
        )

    def test_empty_batch(self):
        table = mixed_circuit(1, num_ops=3, unitary=False).to_table()
        assert table.apply_to_indices(np.array([], dtype=np.int64)).shape == (0,)

    def test_unitary_rows_are_named_in_the_error(self):
        circuit = QuditCircuit(1, 2, name="u")
        circuit.add_gate(SingleQuditUnitary(HADAMARD, label="had"), 0)
        with pytest.raises(GateError, match="had"):
            circuit.to_table().apply_to_indices(np.array([0], dtype=np.int64))

    def test_out_of_range_indices_rejected(self):
        table = mixed_circuit(1, num_ops=3, unitary=False).to_table()
        with pytest.raises(WireError):
            table.apply_to_indices(np.array([27], dtype=np.int64))
        with pytest.raises(WireError):
            table.apply_to_indices(np.array([-1], dtype=np.int64))

    def test_bad_out_buffer_rejected(self):
        table = mixed_circuit(1, num_ops=3, unitary=False).to_table()
        indices = np.arange(5, dtype=np.int64)
        with pytest.raises(GateError):
            table.apply_to_indices(indices, out=np.empty(4, dtype=np.int64))
        with pytest.raises(GateError):
            table.apply_to_indices(indices, out=np.empty(5, dtype=np.float64))

    def test_register_past_int64_is_refused_before_the_batch(self):
        # 3^41 basis states: the largest flat index does not fit int64, so
        # stride arithmetic would raise a raw OverflowError mid-propagation.
        circuit = QuditCircuit(41, 3, name="wide")
        circuit.add_gate(XPlus(3, 1), 40, [(0, Value(0))])
        with pytest.raises(WireError, match="int64 flat-index range"):
            circuit.to_table().apply_to_indices([0])


# ----------------------------------------------------------------------
# GateTable.apply_to_indices: the window plan against the reference walk
# ----------------------------------------------------------------------
def chain_circuit(dim, wire_rows, num_wires):
    """One ``|0⟩``-controlled ``X+1`` row per (control, target) pair."""
    circuit = QuditCircuit(num_wires, dim, name="chain")
    for control, target in wire_rows:
        circuit.add_gate(XPlus(dim, 1), target, [(control, Value(0))])
    return circuit


def every_index(table):
    return np.arange(table.dim**table.num_wires, dtype=np.int64)


class TestIndexPlan:
    @pytest.mark.parametrize("dim, cap_wires", [(3, 5), (4, 4), (2, 8)])
    def test_windows_cut_exactly_at_the_cap(self, dim, cap_wires):
        # Rows (w, w+1) for w = 0.. grow one window until its wires reach
        # d^|wires| <= LOCAL_STATES_MAX exactly; the next wire starts anew.
        assert dim**cap_wires <= LOCAL_STATES_MAX < dim ** (cap_wires + 1)
        num_wires = cap_wires + 3
        rows = [(w, w + 1) for w in range(num_wires - 1)]
        table = chain_circuit(dim, rows, num_wires).to_table()
        plan = table.index_plan()
        first = cap_wires - 1  # rows covering wires 0..cap_wires-1
        assert plan.windows[0] == (0, first, tuple(range(cap_wires)))
        assert plan.windows[1][0] == first
        assert np.array_equal(
            table.apply_to_indices(every_index(table)),
            reference_apply_to_indices(table, every_index(table)),
        )

    def test_star_rows_and_overflow_controls_inside_a_window(self):
        circuit = QuditCircuit(5, 3, name="window")
        circuit.append(StarShiftOp(0, 1, +1, [(2, Value(0))]))
        circuit.add_gate(XPerm((2, 0, 1)), 3, [(0, Value(1)), (1, Odd()), (2, Value(0))])
        circuit.append(StarShiftOp(4, 2, -1, [(3, Value(2)), (0, Odd())]))
        circuit.add_gate(XPlus(3, 2), 4, [(1, Value(1))])
        circuit.append(StarShiftOp(3, 0, -1))
        table = circuit.to_table()
        assert (table.extra >= 0).sum() == 2  # overflow control lists in play
        plan = table.index_plan()
        assert plan.windows == ((0, 5, (0, 1, 2, 3, 4)),)
        assert plan.composed == 1
        assert np.array_equal(
            table.apply_to_indices(every_index(table)),
            reference_apply_to_indices(table, every_index(table)),
        )

    def test_row_wider_than_the_cap_runs_as_a_direct_step(self):
        # d = 7: a window holds at most 2 wires (49 local states); the macro
        # mct rows carry up to 4 wires, which no window can hold.
        table = synthesize("mct", 7, 4).circuit.to_table()
        assert table.max_span() > 2
        plan = table.index_plan()
        covered = sum(stop - start for start, stop, _ in plan.windows)
        assert covered == int((table.spans() <= 2).sum()) < len(table)
        indices = np.random.default_rng(3).integers(0, 7**table.num_wires, size=4000)
        assert np.array_equal(
            table.apply_to_indices(indices), reference_apply_to_indices(table, indices)
        )

    def test_wide_rows_with_adjacent_and_overflow_controls(self):
        # Direct row steps read runs of adjacent control wires as one digit
        # block; every control of these 4-5 wire rows must still count.
        circuit = QuditCircuit(6, 7, name="wide")
        circuit.add_gate(XPlus(7, 3), 5, [(0, Value(0)), (1, Odd()), (2, Value(4))])
        circuit.append(StarShiftOp(4, 0, -1, [(1, Value(2)), (2, Odd()), (3, Value(0))]))
        circuit.add_gate(XPerm((6, 0, 1, 2, 3, 4, 5)), 2, [(5, Odd()), (0, Value(1)), (3, Odd())])
        table = circuit.to_table()
        plan = table.index_plan()
        assert plan.windows == () and len(plan.steps) == 3
        indices = every_index(table)
        assert np.array_equal(
            table.apply_to_indices(indices), reference_apply_to_indices(table, indices)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_chunk_sizes_agree(self, seed):
        table = mixed_circuit(seed, num_wires=6, num_ops=40, unitary=False).to_table()
        indices = np.random.default_rng(seed).integers(0, 3**6, size=301)
        expected = reference_apply_to_indices(table, indices)
        for chunk_size in (1, 5, DEFAULT_INDEX_CHUNK):
            assert np.array_equal(table.apply_to_indices(indices, chunk_size=chunk_size), expected)

    def test_plan_is_cached_and_twins_build_their_own(self, monkeypatch):
        from repro.ir import index_plan

        table = synthesize("mct", 3, 4).circuit.to_table()
        builds = []
        real = index_plan.build_index_plan
        monkeypatch.setattr(
            index_plan, "build_index_plan", lambda *a: builds.append(a[0]) or real(*a)
        )
        indices = np.arange(50, dtype=np.int64)
        first = table.apply_to_indices(indices)
        assert np.array_equal(table.apply_to_indices(indices), first)
        assert builds == [table]
        twin = table.select(slice(None))
        assert np.array_equal(twin.apply_to_indices(indices), first)
        inverse = table.inverse()
        assert np.array_equal(inverse.apply_to_indices(first), indices)
        assert builds == [table, twin, inverse]

    def test_large_batch_on_a_lowered_table(self):
        # 200k random indices through the 25k-row lowered mct d=3 k=12.  The
        # per-row reference walk costs O(rows · B), so it checks a fixed
        # 1-in-1000 slice of the batch; that slice run on its own through
        # the plan must match too (batch size never changes an image).
        from repro import lower_to_g_gates

        lowered = lower_to_g_gates(synthesize("mct", 3, 12).circuit).to_table()
        indices = np.random.default_rng(12).integers(0, 3**lowered.num_wires, size=200_000)
        images = lowered.apply_to_indices(indices)
        probe = indices[::1000]
        expected = reference_apply_to_indices(lowered, probe)
        assert np.array_equal(images[::1000], expected)
        assert np.array_equal(lowered.apply_to_indices(probe, chunk_size=7), expected)

    def test_sparse_engine_runs_the_segment_plans(self):
        circuit = mixed_circuit(5, num_wires=4, num_ops=30, unitary=True)
        table = circuit.to_table()
        indices, amplitudes = sparse_input(3, 4, 5, seed=2)
        state = SparseState(4, 3, indices, amplitudes)
        SparseBackend().apply_table_sparse(state, table)
        planned = [key for key in table._cache if key.startswith("index_plan:")]
        segments = [s for s in table._cache["segments"] if s.kind == "perm"]
        assert sorted(planned) == sorted(f"index_plan:{s.start}:{s.stop}" for s in segments)


# ----------------------------------------------------------------------
# Batched sampled verification: recipes, rows, column sampling
# ----------------------------------------------------------------------
def check_columns(circuit, expected_column, *, samples, **kwargs):
    """The sampled-columns tier alone: ``samples`` seeded columns, any basis."""
    budget = VerificationBudget(
        sampled_columns=samples, seed=13, max_column_basis=UNBOUNDED, allow_dense=False
    )
    return (
        TieredVerifier(budget)
        .verify_unitary(circuit, expected_column=expected_column, **kwargs)
        .raise_if_failed()
    )


class TestSampledVerification:
    def test_sampled_permutation_failure_names_row_and_recipe(self):
        circuit = QuditCircuit(3, 3, name="idc")  # identity

        def expect_flip(state):
            out = list(state)
            out[2] = (out[2] + 1) % 3
            return tuple(out)

        with pytest.raises(VerificationError) as excinfo:
            assert_implements_permutation(
                circuit,
                expect_flip,
                budget=VerificationBudget(max_basis_states=1, samples=20, seed=7),
            )
        message = str(excinfo.value)
        assert "failing row 0" in message
        assert "sample_basis_states(3, 3, 20, 7)[0]" in message
        # The recipe replays the exact failing state.
        assert str(sample_basis_states(3, 3, 20, 7)[0]) in message

    def test_sampled_wires_preserved_failure_names_row(self):
        circuit = QuditCircuit(2, 3, name="mover")
        circuit.add_gate(XPlus(3, 1), 0)
        with pytest.raises(VerificationError, match="failing row"):
            assert_wires_preserved(
                circuit, [0], budget=VerificationBudget(max_basis_states=1, samples=16, seed=11)
            )

    def test_sampled_branch_agrees_with_exhaustive(self):
        circuit = mixed_circuit(6, num_ops=10, unitary=False)
        spec_table = circuit.to_table().permutation_index_table()

        def spec(state):
            flat = 0
            for digit in state:
                flat = flat * 3 + digit
            image = int(spec_table[flat])
            return tuple((image // 3 ** (2 - w)) % 3 for w in range(3))

        assert_implements_permutation(circuit, spec)  # exhaustive
        sampled = VerificationBudget(max_basis_states=1, samples=64)
        assert_implements_permutation(circuit, spec, budget=sampled)

    def test_column_sampled_unitary_check_accepts_the_truth(self):
        circuit = QuditCircuit(2, 2, name="h0")
        circuit.add_gate(SingleQuditUnitary(HADAMARD, label="H"), 0)

        def expected_column(col):
            vector = np.zeros(4, dtype=complex)
            high, low = divmod(col, 2)
            vector[low] = HADAMARD[0, high]
            vector[2 + low] = HADAMARD[1, high]
            return vector

        check_columns(circuit, expected_column, samples=4)

    def test_column_sampled_unitary_check_rejects_a_corrupted_circuit(self):
        circuit = QuditCircuit(2, 2, name="h0-broken")
        circuit.add_gate(SingleQuditUnitary(HADAMARD, label="H"), 0)
        circuit.add_gate(XPlus(2, 1), 1)  # corruption

        def expected_column(col):
            vector = np.zeros(4, dtype=complex)
            high, low = divmod(col, 2)
            vector[low] = HADAMARD[0, high]
            vector[2 + low] = HADAMARD[1, high]
            return vector

        with pytest.raises(VerificationError, match="sampled-column"):
            check_columns(circuit, expected_column, samples=4)

    def test_column_sampled_check_rejects_non_global_phase(self):
        # diag(1, i) deviates per column: with up_to_global_phase=True the
        # phase aligned on one column must NOT be allowed to drift on the
        # next, else any diagonal would pass as "the identity up to phase".
        circuit = QuditCircuit(1, 2, name="diag")
        circuit.add_gate(
            SingleQuditUnitary(np.diag([1.0, 1.0j]), label="S"), 0
        )

        def expected_column(col):
            vector = np.zeros(2, dtype=complex)
            vector[col] = 1.0
            return vector

        with pytest.raises(VerificationError, match="not a global phase"):
            check_columns(
                circuit,
                expected_column,
                samples=1,
                required_columns=(0, 1),
                up_to_global_phase=True,
            )

    def test_mcu_exponential_verifies_past_the_dense_matrix_cap(self):
        # Basis 3^8 = 6561 >> the 1024-cap of the dense matrix compare:
        # before PR-8 this instance was skipped, now it is column-verified.
        from repro.synth.registry import get as get_strategy

        strategy = get_strategy("mcu-exponential")
        result = synthesize("mcu-exponential", 3, 7)
        assert result.circuit.dim**result.circuit.num_wires > 1024
        budget = VerificationBudget(sampled_columns=4, allow_dense=False)
        report = strategy.verify(result, 3, 7, budget=budget)
        assert report.decided_by == "sampled-columns" and report.states_checked == 7


# ----------------------------------------------------------------------
# Fuzz integration
# ----------------------------------------------------------------------
class TestFuzzIntegration:
    def test_low_occupancy_generator_profile(self):
        from repro.fuzz import random_low_occupancy_case

        rng = random.Random(5)
        circuit, states = random_low_occupancy_case(rng)
        assert 1 <= len(states) <= 4
        assert all(len(state) == circuit.num_wires for state in states)

    def test_check_backends_sparse_is_clean_on_a_real_case(self):
        from repro.fuzz import check_backends_sparse, random_low_occupancy_case

        rng = random.Random(23)
        circuit, states = random_low_occupancy_case(rng)
        assert check_backends_sparse(circuit, states) is None

    def test_check_backends_sparse_flags_a_divergent_engine(self):
        from repro.fuzz import check_backends_sparse
        from repro.sim import register_backend, unregister_backend

        class LyingBackend(SparseBackend):
            def apply_table(self, data, table):
                out = np.asarray(super().apply_table(data, table))
                if out.ndim == 1 and out.size:
                    out = out.copy()
                    out[0] += 0.5
                return out

        real = get_backend("sparse")
        register_backend(LyingBackend(), name="sparse")
        try:
            circuit = mixed_circuit(2, num_ops=6, unitary=False)
            message = check_backends_sparse(circuit, [(0, 0, 0)])
            assert message is not None and "bit-for-bit" in message
        finally:
            unregister_backend("sparse")
            register_backend(real, name="sparse")


    def test_check_backends_sparse_flags_a_divergent_batch_column(self):
        from repro.fuzz import check_backends_sparse
        from repro.sim import register_backend, unregister_backend

        class LyingBatchBackend(SparseBackend):
            def apply_table(self, data, table):
                out = np.asarray(super().apply_table(data, table))
                if out.ndim == 2:
                    out = out.copy()
                    out[:, 2] = out[::-1, 2]  # the wide column comes back reversed
                return out

        real = get_backend("sparse")
        register_backend(LyingBatchBackend(), name="sparse")
        try:
            circuit = mixed_circuit(2, num_ops=6, unitary=False)
            message = check_backends_sparse(circuit, [(0, 0, 0)])
            assert message is not None and "column 2 of a 3-column batch" in message
        finally:
            unregister_backend("sparse")
            register_backend(real, name="sparse")

# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_list_prints_the_sparse_occupancy_threshold(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sparse" in out
        assert "occupancy" in out

    def test_list_json_reports_sparse_config(self, capsys):
        from repro.__main__ import main

        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "sparse" in payload["backends"]
        assert payload["sparse"]["max_occupancy"] == pytest.approx(0.25)
        assert payload["sparse"]["densify_to"] == "dense"

    def test_simulate_accepts_the_sparse_backend(self, capsys):
        from repro.__main__ import main

        assert main(
            ["simulate", "mct", "3", "3", "--state", "0,0,0,1", "--backend", "sparse"]
        ) == 0
