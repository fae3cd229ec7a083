#!/usr/bin/env python3
"""Old-vs-new simulation engine wall-clock comparison.

Verifies a lowered multi-controlled Toffoli and times each path:

* ``legacy`` — the seed simulator reproduced verbatim below: every gate is
  applied to every one of the ``d^n`` basis states in a pure-Python loop;
* ``vectorized table`` — the whole-basis gather table of the lowered circuit;
* ``statevector[...]`` — a uniform statevector swept through the lowered
  circuit on every registered engine (``dense``, ``sparse``, ``streaming``);
* ``unitary rows`` — a ``(d^n, 64)`` batch through the multi-controlled-unitary
  synthesis (``mcu-exponential``, d=3, k=5; k=4 with ``--quick``) on the
  dense engine: the fused fired-slice ``apply_table`` against the per-op
  ``apply_op`` walk (one masked whole-cube einsum per row).  Their ratio is
  ``unitary_row_speedup``, guarded by ``floors.json``.

The vectorized table must equal the legacy one bit for bit, every engine
must produce the same amplitudes and pass the same ``repro.sim.assert_*``
checks; the
legacy-vs-vectorized speedup for the default case (``synthesize_mct(dim=3,
num_controls=6)`` lowered to G-gates) is required to be at least 10x.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_backends.py          # full case
    PYTHONPATH=src python benchmarks/bench_sim_backends.py --quick  # CI smoke

Results are printed as a table and persisted to
``benchmarks/results/sim_backends.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from _harness import RESULTS_DIR, emit_json, emit_table

from repro import lower_to_g_gates, synthesize_mct
from repro.bench import render_table
from repro.sim import (
    Statevector,
    assert_mct_spec,
    assert_unitary_equiv_with_clean_ancillas,
    available_backends,
    circuit_unitary,
    multi_controlled_unitary_matrix,
    get_backend,
    permutation_index_table,
)
from repro.core.multi_controlled_unitary import random_unitary_gate, synthesize_mcu
from repro.synth import synthesize
from repro.utils.indexing import digits_to_index, iterate_basis

#: Required legacy-vs-vectorized speedup for the full (non --quick) case.
SPEEDUP_FLOOR = 10.0

#: States evolved at once in the unitary-row case.
UNITARY_BATCH = 64


def legacy_permutation_table(circuit):
    """The seed verifier's inner loop: push every basis state through every
    gate one Python call at a time (kept verbatim for the comparison)."""
    table = []
    for state in iterate_basis(circuit.dim, circuit.num_wires):
        working = list(state)
        for op in circuit:
            op.apply_to_basis(working, circuit.dim)
        table.append(digits_to_index(working, circuit.dim))
    return table


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def best_of(fn, repeats=5):
    """``(result, fastest seconds)`` over ``repeats`` calls."""
    runs = [timed(fn) for _ in range(repeats)]
    return runs[0][0], min(seconds for _, seconds in runs)


def unitary_rows_case(num_controls):
    """Fused fired-slice ``apply_table`` vs the per-op ``apply_op`` walk."""
    circuit = synthesize("mcu-exponential", 3, num_controls).circuit
    table = circuit.to_table()
    dense = get_backend("dense")
    rng = np.random.default_rng(3)
    shape = (3**circuit.num_wires, UNITARY_BATCH)
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def per_op():
        data = batch
        for op in circuit.ops:
            data = dense.apply_op(data, op, circuit.dim, circuit.num_wires)
        return data

    fused, fused_seconds = best_of(lambda: dense.apply_table_batch(batch, table))
    walked, walk_seconds = best_of(per_op)
    if not np.allclose(fused, walked, atol=1e-10):
        raise SystemExit("FAIL: fused unitary rows diverge from the per-op walk")
    return {
        "num_controls": num_controls,
        "rows": len(table),
        "basis_states": shape[0],
        "batch": UNITARY_BATCH,
        "fused_seconds": fused_seconds,
        "per_op_seconds": walk_seconds,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small case for CI smoke runs (no speedup floor enforced)",
    )
    args = parser.parse_args()

    dim, num_controls = (3, 4) if args.quick else (3, 6)
    result = synthesize_mct(dim, num_controls)
    lowered = lower_to_g_gates(result.circuit)
    size = dim**lowered.num_wires
    print(
        f"case: synthesize_mct(dim={dim}, num_controls={num_controls}) -> "
        f"{lowered.num_ops()} G-gates on {lowered.num_wires} wires ({size} basis states)"
    )

    # ------------------------------------------------------------------
    # Whole-basis verification: legacy python loop vs vectorized tables.
    # ------------------------------------------------------------------
    legacy_table, legacy_seconds = timed(lambda: legacy_permutation_table(lowered))
    new_table, cold_seconds = timed(lambda: permutation_index_table(lowered))
    _, warm_seconds = timed(lambda: permutation_index_table(lowered))
    if legacy_table != new_table.tolist():
        print("FAIL: vectorized permutation table differs from the legacy simulator")
        return 1
    speedup = legacy_seconds / cold_seconds

    # ------------------------------------------------------------------
    # Statevector sweep through the lowered circuit on every backend.
    # ------------------------------------------------------------------
    amplitudes = {}
    backend_rows = []
    for backend in available_backends():
        state = Statevector.uniform(lowered.num_wires, dim, backend=backend)
        _, seconds = timed(lambda: state.apply_circuit(lowered))
        amplitudes[backend] = state.data
        backend_rows.append({"engine": f"statevector[{backend}]", "seconds": round(seconds, 4)})
    reference = amplitudes[available_backends()[0]]
    for backend, data in amplitudes.items():
        if not np.allclose(data, reference, atol=1e-10):
            print(f"FAIL: backend {backend!r} amplitudes diverge")
            return 1

    # ------------------------------------------------------------------
    # The assert_* checks must pass identically on every backend.
    # ------------------------------------------------------------------
    assert_mct_spec(lowered, result.controls, result.target)
    gate = random_unitary_gate(3, seed=5)
    mcu = synthesize_mcu(dim=3, num_controls=2, gate=gate)
    expected = multi_controlled_unitary_matrix(3, 2, gate.matrix())
    unitaries = {}
    for backend in available_backends():
        assert_unitary_equiv_with_clean_ancillas(
            mcu.circuit,
            expected,
            list(range(3)),
            mcu.clean_wires(),
            atol=1e-7,
            backend=backend,
        )
        unitaries[backend] = circuit_unitary(mcu.circuit, backend=backend)
    names = list(unitaries)
    for backend in names[1:]:
        if not np.allclose(unitaries[backend], unitaries[names[0]], atol=1e-10):
            print(f"FAIL: circuit_unitary differs between {names[0]!r} and {backend!r}")
            return 1
    print(f"verify checks passed identically on backends: {', '.join(names)}")

    unitary = unitary_rows_case(4 if args.quick else 5)
    unitary_row_speedup = unitary["per_op_seconds"] / unitary["fused_seconds"]
    print(
        f"unitary rows: mcu-exponential d=3 k={unitary['num_controls']}, "
        f"{unitary['rows']} rows, B={UNITARY_BATCH}: fused/per-op speedup "
        f"{unitary_row_speedup:.1f}x"
    )

    rows = [
        {"engine": "legacy (seed per-index loop)", "seconds": round(legacy_seconds, 4)},
        {"engine": "vectorized table (cold cache)", "seconds": round(cold_seconds, 4)},
        {"engine": "vectorized table (warm cache)", "seconds": round(warm_seconds, 6)},
        *backend_rows,
        {"engine": "unitary rows (per-op apply_op)", "seconds": round(unitary["per_op_seconds"], 4)},
        {"engine": "unitary rows (fused apply_table)", "seconds": round(unitary["fused_seconds"], 4)},
    ]
    table = render_table(
        rows,
        title=(
            f"Simulation engines: verify lowered MCT d={dim} k={num_controls} "
            f"(legacy/vectorized speedup: {speedup:.1f}x)"
        ),
    )
    # Quick smoke runs persist to their own files so the committed full-case
    # numbers are never overwritten by a CI-sized case.
    stem = "sim_backends_quick" if args.quick else "sim_backends"
    emit_table(stem, table)

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "case": {"dim": dim, "num_controls": num_controls, "quick": args.quick},
        "g_gates": lowered.num_ops(),
        "basis_states": size,
        "legacy_seconds": legacy_seconds,
        "vectorized_cold_seconds": cold_seconds,
        "vectorized_warm_seconds": warm_seconds,
        "statevector_seconds": {
            row["engine"].split("[")[1].rstrip("]"): row["seconds"] for row in backend_rows
        },
        "speedup": speedup,
        "speedup_floor": None if args.quick else SPEEDUP_FLOOR,
        "unitary_rows": unitary,
        "unitary_row_speedup": unitary_row_speedup,
    }
    emit_json(stem, payload)

    if not args.quick and speedup < SPEEDUP_FLOOR:
        print(f"FAIL: speedup {speedup:.1f}x is below the {SPEEDUP_FLOOR:.0f}x floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
