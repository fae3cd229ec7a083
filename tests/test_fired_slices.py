"""Fired-slice kernels: segment composition and unitary rows touch only the
states each row moves, and agree with the naive references.

* ``compose_gather`` (forward and inverse) equals the object-level per-op
  gather walk exactly (``np.array_equal``);
* the fused ``apply_table`` agrees with the per-op ``apply_op`` walk
  (``allclose``: the reference is a masked whole-cube einsum);
* a batch column equals its solo run, and ``streaming`` equals ``dense``,
  bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fuzz import random_circuit
from repro.fuzz.oracles import check_backends
from repro.ir import compose_gather
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import EvenNonZero, InSet, Odd, Value
from repro.qudit.gates import SingleQuditUnitary, XPerm, XPlus
from repro.qudit.operations import Operation, StarShiftOp, value_slices
from repro.sim import DenseBackend, StreamingBackend, get_backend
from repro.synth import synthesize
from repro.verify import checks

PERMUTATION_OPS = {"transposition": 4.0, "perm": 2.0, "xplus": 2.0, "star": 2.0}
PREDICATES = {"value": 2.0, "odd": 1.0, "even": 1.0, "inset": 1.0}


def reference_walk(circuit: QuditCircuit, start: int = 0, stop=None) -> np.ndarray:
    """The object-level per-op gather walk over ops ``[start, stop)``."""
    dim, num_wires = circuit.dim, circuit.num_wires
    walked = np.arange(dim**num_wires)
    for op in circuit.ops[start:stop]:
        walked = op.permutation_table(dim, num_wires)[walked]
    return walked


def inverse_of(forward: np.ndarray) -> np.ndarray:
    inverse = np.empty_like(forward)
    inverse[forward] = np.arange(forward.size)
    return inverse


def permutation_circuit(seed, num_wires=4, dim=3, num_ops=24, max_controls=3):
    return random_circuit(
        seed,
        num_wires=num_wires,
        dim=dim,
        num_ops=num_ops,
        op_weights=PERMUTATION_OPS,
        predicate_weights=PREDICATES,
        max_controls=max_controls,
    )


def random_batch(dim, num_wires, batch, seed):
    rng = np.random.default_rng(seed)
    shape = (dim**num_wires, batch)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# ----------------------------------------------------------------------
# Fired slices of one operation
# ----------------------------------------------------------------------
class TestFiredSlices:
    def test_value_slices_cover_runs(self):
        assert value_slices([2]) == [2]
        assert value_slices([1, 3, 5]) == [slice(1, 6, 2)]
        assert value_slices([0, 1, 3]) == [slice(0, 2, 1), 3]
        assert value_slices([]) == []

    @pytest.mark.parametrize(
        "predicate", [Value(1), Odd(), EvenNonZero(), InSet({0, 1, 4}), InSet({2})]
    )
    def test_slices_cover_exactly_the_control_mask(self, predicate):
        dim, num_wires = 5, 3
        op = Operation(XPlus(dim, 1), 0, [(2, predicate), (1, Odd())])
        covered = np.zeros((dim,) * num_wires, dtype=int)
        for index in op.fired_slices(dim, num_wires):
            covered[index] += 1
        mask = np.broadcast_to(op.control_mask(dim, num_wires), covered.shape)
        assert np.array_equal(covered, mask.astype(int))  # disjoint and exact

    def test_never_firing_control_leaves_no_slice(self):
        op = Operation(XPerm((1, 0)), 0, [(1, EvenNonZero())])  # no even nonzero in d=2
        assert op.fired_slices(2, 2) == ()
        assert op.slice_cycles(2, 2) == ()

    def test_star_cycles_skip_the_zero_star_value(self):
        op = StarShiftOp(0, 1, +1, [(2, Value(0))])
        cycles = op.slice_cycles(3, 3)
        # Star values 1 and 2 each shift the target by a 3-cycle; 0 is fixed.
        assert len(cycles) == 2 and all(len(cycle) == 3 for cycle in cycles)
        assert {cycle[0][0] for cycle in cycles} == {1, 2}


# ----------------------------------------------------------------------
# compose_gather vs the per-op walk
# ----------------------------------------------------------------------
class TestComposeGather:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_mixed_tables(self, seed):
        dim = (3, 4, 5, 2)[seed % 4]
        circuit = permutation_circuit(seed, num_wires=2 + seed % 3, dim=dim)
        table = circuit.to_table()
        forward = compose_gather(table, 0, len(table))
        expected = reference_walk(circuit)
        assert np.array_equal(forward, expected)
        inverse = compose_gather(table, 0, len(table), inverse=True)
        assert np.array_equal(inverse, inverse_of(expected))

    def test_star_odd_and_extras_rows(self):
        circuit = QuditCircuit(5, 3)
        circuit.append(StarShiftOp(0, 1, +1, [(2, Odd())]))
        circuit.append(StarShiftOp(3, 4, -1))
        controls = [(0, Odd()), (1, Value(2)), (3, Value(0)), (4, InSet({0, 2}))]
        circuit.add_gate(XPerm((2, 0, 1)), 2, controls)
        circuit.add_gate(XPlus(3, 2), 4, [(0, Value(1)), (1, EvenNonZero()), (2, Value(0))])
        table = circuit.to_table()
        assert (table.extra >= 0).sum() == 2  # >2 controls live in the extras pool
        assert np.array_equal(compose_gather(table, 0, len(table)), reference_walk(circuit))

    def test_raw_k_control_macro(self):
        # The |0^k>-X01 macro itself, then a synthesised mct-odd around it.
        circuit = QuditCircuit(8, 3)
        circuit.add_gate(XPerm.transposition(3, 0, 1), 7, [(w, Value(0)) for w in range(7)])
        circuit.add_gate(XPlus(3, 1), 0, [(w, Odd()) for w in range(1, 6)])
        circuit.extend(synthesize("mct-odd", 3, 6).circuit.ops)
        table = circuit.to_table()
        assert table.max_span() == 8
        assert np.array_equal(compose_gather(table, 0, len(table)), reference_walk(circuit))

    def test_one_row_and_empty_ranges(self):
        circuit = permutation_circuit(7, num_wires=3, dim=3, num_ops=6)
        table = circuit.to_table()
        for row in range(len(table)):
            assert np.array_equal(
                compose_gather(table, row, row + 1), reference_walk(circuit, row, row + 1)
            )
        empty = compose_gather(table, 2, 2)
        assert np.array_equal(empty, np.arange(27))
        assert np.array_equal(compose_gather(table, 2, 2, inverse=True), np.arange(27))

    def test_sub_ranges(self):
        circuit = permutation_circuit(3, num_wires=4, dim=3, num_ops=20)
        table = circuit.to_table()
        for start, stop in ((0, 7), (5, 13), (11, 20)):
            assert np.array_equal(
                compose_gather(table, start, stop), reference_walk(circuit, start, stop)
            )


# ----------------------------------------------------------------------
# Unitary rows: fused apply_table vs the per-op reference
# ----------------------------------------------------------------------
def unitary_circuit(seed, num_wires=4, dim=3, num_ops=16):
    return random_circuit(
        seed,
        num_wires=num_wires,
        dim=dim,
        num_ops=num_ops,
        op_weights={"unitary": 3.0, "transposition": 1.0, "star": 1.0},
        predicate_weights=PREDICATES,
        max_controls=3,
    )


class TestUnitaryRows:
    @pytest.mark.parametrize("seed", range(8))
    def test_fused_matches_per_op_reference(self, seed):
        dim = (3, 4, 2, 5)[seed % 4]
        circuit = unitary_circuit(seed, num_wires=2 + seed % 3, dim=dim)
        data = random_batch(dim, circuit.num_wires, 3, seed)
        dense = get_backend("dense")
        reference = data.copy()
        for op in circuit.ops:
            reference = dense.apply_op(reference, op, dim, circuit.num_wires)
        for name in ("dense", "streaming", "sparse"):
            fused = get_backend(name).apply_table(data.copy(), circuit.to_table())
            assert np.allclose(np.asarray(fused), reference, atol=1e-12), name

    def test_input_is_not_mutated_and_real_input_is_promoted(self):
        circuit = QuditCircuit(2, 3)
        circuit.add_gate(SingleQuditUnitary(np.diag([1, 1j, -1])), 0, [(1, Value(2))])
        data = np.arange(9, dtype=float)
        out = get_backend("dense").apply_table(data, circuit.to_table())
        assert np.array_equal(data, np.arange(9, dtype=float))
        assert out.dtype == complex
        assert np.allclose(out.reshape(3, 3)[1, 2], 5j)

    @pytest.mark.parametrize("batch", [1, 6, 128])
    def test_batch_column_equals_solo_run(self, batch):
        result = synthesize("mcu-exponential", 3, 3)
        table = result.circuit.to_table()
        data = random_batch(3, result.circuit.num_wires, batch, batch)
        for name in ("dense", "streaming"):
            engine = get_backend(name)
            batched = np.asarray(engine.apply_table_batch(data.copy(), table))
            for b in range(batch):
                solo = np.asarray(engine.apply_table(np.ascontiguousarray(data[:, b]), table))
                assert np.array_equal(batched[:, b], solo), (name, b)

    @pytest.mark.parametrize("budget", [1, 200, 2000, 10**9])
    def test_streaming_tiles_a_no_control_row_bit_for_bit(self, monkeypatch, budget):
        from repro.sim import streaming

        rng = np.random.default_rng(5)
        matrix, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        circuit = QuditCircuit(4, 3)
        circuit.add_gate(SingleQuditUnitary(matrix), 2)  # no control: the whole cube fires
        circuit.add_gate(XPlus(3, 1), 0, [(3, Value(1))])
        circuit.add_gate(SingleQuditUnitary(matrix.conj()), 1, [(0, Odd()), (3, Value(2))])
        data = random_batch(3, 4, 4, 9)
        expected = get_backend("dense").apply_table(data.copy(), circuit.to_table())
        tiles = []

        def counted(matrix, cube, index, target):
            tiles.append(index)
            return streaming_einsum(matrix, cube, index, target)

        streaming_einsum = streaming.fired_einsum
        monkeypatch.setattr(streaming, "fired_einsum", counted)
        actual = StreamingBackend(budget).apply_table(data.copy(), circuit.to_table())
        assert np.array_equal(np.asarray(actual), expected)
        # Two fired slices in all (one per unitary row) unless the budget cuts them.
        assert (len(tiles) > 2) == (budget <= 2000)


# ----------------------------------------------------------------------
# The fuzz oracle's reference is the per-op walk, not the fused kernel
# ----------------------------------------------------------------------
def test_backends_oracle_reference_is_apply_op(monkeypatch):
    circuit = unitary_circuit(2, num_wires=3, dim=3)
    assert check_backends(circuit, 0) is None
    original = DenseBackend._apply_unitary_row

    def skewed(self, data, op, dim, num_wires, *, owned=False):
        return original(self, data, op, dim, num_wires, owned=owned) * 1.5

    monkeypatch.setattr(DenseBackend, "_apply_unitary_row", skewed)
    message = check_backends(circuit, 0)
    assert message is not None and "deviates from dense per-op" in message


# ----------------------------------------------------------------------
# The exhaustive kernel's source digits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk", [1, 7, 100, checks.EXHAUSTIVE_CHUNK])
@pytest.mark.parametrize("dim,num_wires", [(3, 5), (2, 7), (5, 3)])
def test_exhaustive_sources_match_flat_decode(monkeypatch, chunk, dim, num_wires):
    from repro.utils.indexing import indices_to_digits

    monkeypatch.setattr(checks, "EXHAUSTIVE_CHUNK", chunk)
    circuit = permutation_circuit(1, num_wires=num_wires, dim=dim, num_ops=5)
    seen = []

    def mismatch(states, images):
        seen.append((states.copy(), images.copy()))
        return np.zeros(len(states), dtype=bool)

    checked = checks.exhaustive_kernel(circuit, mismatch, lambda s, i: "")
    size = dim**num_wires
    assert checked == size
    sources = np.concatenate([s for s, _ in seen])
    images = np.concatenate([i for _, i in seen])
    assert sources.dtype == np.int64
    assert np.array_equal(sources, indices_to_digits(np.arange(size), dim, num_wires))
    assert np.array_equal(images, indices_to_digits(reference_walk(circuit), dim, num_wires))
