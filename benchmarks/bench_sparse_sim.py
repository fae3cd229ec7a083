#!/usr/bin/env python3
"""Sparse amplitude-map engine and batched-verification benchmark (PR-8).

Three guarded measurements on a lowered multi-controlled Toffoli embedded
in a register of ``>= 10^7`` basis states with at most a handful of live
amplitudes:

* **sparse_wall_speedup** — evolving the state through the ``sparse``
  engine (O(rows * nnz) stride arithmetic on live indices only) vs the
  ``dense`` engine's composed-gather ``apply_table``.  The dense side is
  timed *warm* — the segment gather is composed and interned before the
  timed pass — so the ratio understates the cold-start gap.  Floor: 10x.
* **dense_over_sparse_rss** — peak resident-set growth of the same
  evolution, one fresh subprocess per engine (``ru_maxrss`` is a
  process-lifetime high-water mark).  The dense engine must materialise
  the full statevector plus an output array; the sparse engine touches
  O(nnz) bytes.  The sparse denominator is clamped to 1 MiB to keep the
  ratio conservative.  Floor: 10x.
* **verify_sampled_speedup** — the sampled verification fast path: one
  batched ``GateTable.apply_to_indices`` call over all sampled basis
  states vs the pre-PR-8 per-state scalar ``apply_to_basis`` walk.
  Floor: 10x.
* **sparse_batch_speedup** — a mixed circuit (``unitary`` d=4 k=2: dense
  payload rows between permutation segments) evolved on 128 basis-state
  columns by ONE batched sparse ``apply_table`` call vs 128 single-column
  calls.  The batch is one sparse state of ``(column, index, amplitude)``
  triples, so every segment costs one kernel call for all columns (and one
  densification for the whole batch).  Floor: 10x.
* **verify_exhaustive_speedup** — the exhaustive tier on ``mct-odd`` d=3
  k=9 (59,049 basis states) with the array-valued ``mct_spec`` vs an
  equivalent plain-lambda spec, which the verifier evaluates row by row.
  Both sides are timed warm (the composed gather is interned first), so
  the ratio isolates the spec comparison.  Floor: 2x.
* **index_propagation_speedup** / **index_first_call_speedup** — index
  propagation of B=64 indices through a lowered mct (d=3, k=6 quick; k=12
  full): ``GateTable.apply_to_indices`` (the cached window plan) vs the
  per-row ``BaseOp.map_indices`` reference walk.  Timed warm (plan cached,
  floor 20x) and cold on a fresh ``select()`` twin, where the plan is built
  inside the timed call and the reference walk decodes its ops (floor 1.5x).

The sparse and dense results are additionally checked **bit-for-bit**:
on a permutation circuit both paths move amplitudes without arithmetic,
so the sparse engine's (index, amplitude) pairs must equal the dense
output's nonzero entries exactly, not merely to tolerance.

Usage::

    PYTHONPATH=src python benchmarks/bench_sparse_sim.py          # full case
    PYTHONPATH=src python benchmarks/bench_sparse_sim.py --quick  # CI smoke

Results are printed as a table and persisted to
``benchmarks/results/sparse_sim[_quick].json`` with the committed floors
in ``benchmarks/results/floors.json`` enforced by ``check_floors.py``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from _harness import emit_json, emit_table, peak_rss_bytes

from repro import lower_to_g_gates, synthesize_mct
from repro.bench import render_table
from repro.exec import compile_lowered
from repro.ir.index_plan import reference_apply_to_indices
from repro.qudit.circuit import QuditCircuit
from repro.sim import SparseState, get_backend
from repro.sim.permutation import apply_to_basis
from repro.sim.verify import assert_implements_permutation, mct_spec, sample_basis_states
from repro.synth import synthesize
from repro.utils.indexing import indices_to_digits

SPARSE_WALL_FLOOR = 10.0
RSS_RATIO_FLOOR = 10.0
VERIFY_FLOOR = 10.0
BATCH_FLOOR = 10.0
EXHAUSTIVE_FLOOR = 2.0
INDEX_WARM_FLOOR = 20.0
INDEX_COLD_FLOOR = 1.5

# The sparse engine's measured growth is allocator noise (a few KB of live
# indices); clamping the denominator keeps the RSS ratio conservative.
RSS_DENOMINATOR_CLAMP = 1 << 20


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


# ----------------------------------------------------------------------
# Case construction: a lowered mct embedded in a wide register
# ----------------------------------------------------------------------
def sparse_case(quick: bool) -> dict:
    # 3^13 = 1,594,323 (quick) / 3^15 = 14,348,907 basis states; the
    # circuit acts on the low wires, the embedding only widens the basis.
    return {
        "dim": 3,
        "num_controls": 2,
        "num_wires": 13 if quick else 15,
        "nnz": 8,
        "seed": 11,
    }


def build_case(case: dict):
    """Return (embedded circuit, table, initial indices, initial amplitudes)."""
    lowered = lower_to_g_gates(synthesize_mct(case["dim"], case["num_controls"]).circuit)
    circuit = QuditCircuit(case["num_wires"], case["dim"], name="sparse-probe")
    circuit.extend(lowered.ops)
    table = circuit.to_table()
    size = case["dim"] ** case["num_wires"]
    rng = np.random.default_rng(case["seed"])
    indices = np.sort(rng.choice(size, size=case["nnz"], replace=False)).astype(np.int64)
    amplitudes = rng.normal(size=case["nnz"]) + 1j * rng.normal(size=case["nnz"])
    amplitudes /= np.linalg.norm(amplitudes)
    return circuit, table, indices, amplitudes


def measure_wall(case: dict) -> dict:
    _, table, indices, amplitudes = build_case(case)
    size = case["dim"] ** case["num_wires"]
    dense = get_backend("dense")
    sparse = get_backend("sparse")

    data = np.zeros(size, dtype=complex)
    data[indices] = amplitudes
    # Cold dense pass composes (and interns) the segment gather; the warm
    # pass is what every later request pays, and is still the baseline the
    # floor is enforced against.
    _, dense_cold = timed(lambda: dense.apply_table(data.copy(), table))
    dense_out, dense_warm = timed(lambda: dense.apply_table(data.copy(), table))

    state = SparseState(case["num_wires"], case["dim"], indices, amplitudes)
    sparse.apply_table_sparse(state, table)  # warm the segment window plans
    evolved, sparse_seconds = timed(lambda: sparse.apply_table_sparse(state, table))

    # Bit-for-bit: a permutation circuit moves amplitudes without touching
    # their values, so sparse (index, amplitude) pairs must equal the dense
    # output's nonzero entries exactly.
    dense_live = np.nonzero(dense_out)[0]
    if not np.array_equal(dense_live, evolved.indices):
        raise SystemExit("FAIL: sparse and dense engines disagree on live indices")
    if not np.array_equal(dense_out[dense_live], evolved.amplitudes):
        raise SystemExit("FAIL: sparse amplitudes are not bit-for-bit equal to dense")

    return {
        **case,
        "basis_states": size,
        "g_gates": len(table),
        "dense_cold_seconds": dense_cold,
        "dense_warm_seconds": dense_warm,
        "sparse_seconds": sparse_seconds,
        "sparse_wall_speedup": dense_warm / sparse_seconds,
        "sparse_cold_speedup": dense_cold / sparse_seconds,
    }


# ----------------------------------------------------------------------
# Memory: dense vs sparse peak RSS growth, one subprocess per engine
# ----------------------------------------------------------------------
def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS watermark (Linux ``clear_refs``).

    ``ru_maxrss`` survives fork+exec, so a worker forked from a large
    parent starts with the *parent's* high-water mark and small workloads
    measure as zero growth.  Resetting ``VmHWM`` at the baseline point
    attributes only the worker's own allocations.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def vm_hwm_bytes() -> int:
    """Peak RSS from ``/proc/self/status`` (respects ``clear_refs`` resets)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return peak_rss_bytes()
    return peak_rss_bytes()


def run_worker(engine_name: str, case: dict) -> int:
    """Evolve the case state; print the engine's peak RSS growth (bytes).

    The table, the composed segment gathers (dense side), and the segment
    window plans (sparse side) are all built *before* the baseline
    watermark, so the reported growth is the engine's own working set: the
    full statevector plus output array for dense, the O(nnz) index/amplitude
    pairs for sparse.  The dense input state is allocated inside the
    measured region on purpose — never materialising it is exactly the
    sparse engine's claim.
    """
    from repro.ir.segment import segment_table

    _, table, indices, amplitudes = build_case(case)
    size = case["dim"] ** case["num_wires"]
    if engine_name == "dense":
        engine = get_backend("dense")
        for segment in segment_table(table):  # compose + intern before baseline
            if segment.kind == "perm":
                segment.index_table()
        reset_peak_rss()
        rss0 = vm_hwm_bytes()
        data = np.zeros(size, dtype=complex)
        data[indices] = amplitudes
        result = engine.apply_table(data, table)
        live = np.nonzero(result)[0]
        checksum = complex(result[live].sum())
    else:
        engine = get_backend("sparse")
        for segment in segment_table(table):  # build the window plans before baseline
            if segment.kind == "perm":
                table.index_plan(segment.start, segment.stop)
        reset_peak_rss()
        rss0 = vm_hwm_bytes()
        state = SparseState(case["num_wires"], case["dim"], indices, amplitudes)
        evolved = engine.apply_table_sparse(state, table)
        checksum = complex(evolved.amplitudes.sum())
    growth = vm_hwm_bytes() - rss0
    print(json.dumps({"rss_growth_bytes": growth, "checksum": [checksum.real, checksum.imag]}))
    return 0


def measure_memory(case: dict) -> dict:
    growth = {}
    checksums = {}
    for engine_name in ("dense", "sparse"):
        process = subprocess.run(
            [
                sys.executable,
                str(pathlib.Path(__file__).resolve()),
                "--worker",
                engine_name,
                "--case",
                json.dumps(case),
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        payload = json.loads(process.stdout.strip().splitlines()[-1])
        growth[engine_name] = payload["rss_growth_bytes"]
        checksums[engine_name] = payload["checksum"]
    if not np.allclose(checksums["dense"], checksums["sparse"], atol=1e-12):
        raise SystemExit("FAIL: dense and sparse workers disagree on the state")
    return {
        **case,
        "state_bytes": (case["dim"] ** case["num_wires"]) * 16,
        "dense_rss_growth_bytes": growth["dense"],
        "sparse_rss_growth_bytes": growth["sparse"],
        "dense_over_sparse_rss": growth["dense"]
        / max(growth["sparse"], RSS_DENOMINATOR_CLAMP),
    }


# ----------------------------------------------------------------------
# Verification: batched index propagation vs the per-state scalar walk
# ----------------------------------------------------------------------
def verify_case(quick: bool) -> dict:
    # A deeper lowering (mct with more controls) so the per-row cost
    # dominates; the sampled verifier pays it once per *batch*, the old
    # path once per *state*.
    return {
        "dim": 3,
        "num_controls": 4 if quick else 6,
        "num_wires": 13 if quick else 15,
        "samples": 400 if quick else 500,
        "seed": 7,
    }


def measure_verify(case: dict) -> dict:
    lowered = lower_to_g_gates(synthesize_mct(case["dim"], case["num_controls"]).circuit)
    circuit = QuditCircuit(case["num_wires"], case["dim"], name="verify-probe")
    circuit.extend(lowered.ops)
    table = circuit.to_table()
    states = sample_basis_states(case["dim"], case["num_wires"], case["samples"], case["seed"])
    strides = np.array(
        [case["dim"] ** e for e in range(case["num_wires"] - 1, -1, -1)], dtype=np.int64
    )
    indices = np.asarray(states, dtype=np.int64) @ strides
    table.apply_to_indices(indices[:1])  # warm the window plan

    scalar_rows, scalar_seconds = timed(
        lambda: [apply_to_basis(circuit, state) for state in states]
    )
    batched, batched_seconds = timed(lambda: table.apply_to_indices(indices))
    decoded = indices_to_digits(batched, case["dim"], case["num_wires"])
    if [tuple(row) for row in decoded.tolist()] != [tuple(row) for row in scalar_rows]:
        raise SystemExit("FAIL: batched index propagation differs from the scalar walk")

    return {
        **case,
        "g_gates": len(table),
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "verify_sampled_speedup": scalar_seconds / batched_seconds,
    }


# ----------------------------------------------------------------------
# Batched sparse evolution: one B-column call vs B single-column calls
# ----------------------------------------------------------------------
def batch_case() -> dict:
    return {"strategy": "unitary", "dim": 4, "k": 2, "batch": 128, "repeats": 3, "seed": 3}


def measure_sparse_batch(case: dict) -> dict:
    circuit = compile_lowered(case["strategy"], case["dim"], case["k"]).circuit
    table = circuit.to_table()
    size = case["dim"] ** circuit.num_wires
    rng = np.random.default_rng(case["seed"])
    data = np.zeros((size, case["batch"]), dtype=complex)
    data[rng.integers(0, size, size=case["batch"]), np.arange(case["batch"])] = 1.0
    engine = get_backend("sparse")

    def batched():
        return engine.apply_table(data.copy(), table)

    def looped():
        return np.stack(
            [engine.apply_table(data[:, b].copy(), table) for b in range(case["batch"])],
            axis=1,
        )

    def best(fn):
        return min(timed(fn)[1] for _ in range(case["repeats"]))

    reference = get_backend("dense").apply_table(data.copy(), table)
    batched_out, looped_out = batched(), looped()  # warm the plans and gathers
    if not (np.allclose(batched_out, reference) and np.allclose(looped_out, reference)):
        raise SystemExit("FAIL: sparse batch results disagree with the dense engine")
    batched_seconds, looped_seconds = best(batched), best(looped)
    return {
        **case,
        "num_wires": circuit.num_wires,
        "rows": len(table),
        "batched_seconds": batched_seconds,
        "looped_seconds": looped_seconds,
        "sparse_batch_speedup": looped_seconds / batched_seconds,
    }


# ----------------------------------------------------------------------
# Exhaustive verify: array-valued spec vs an equivalent scalar lambda
# ----------------------------------------------------------------------
def exhaustive_case() -> dict:
    return {"strategy": "mct-odd", "dim": 3, "k": 9, "repeats": 3}


def measure_verify_exhaustive(case: dict) -> dict:
    result = synthesize(case["strategy"], case["dim"], case["k"])
    circuit, controls, target = result.circuit, result.controls, result.target
    array_spec = mct_spec(controls, target, case["dim"])

    def scalar_spec(state):
        out = list(state)
        if all(state[c] == 0 for c in controls):
            out[target] = {0: 1, 1: 0}.get(out[target], out[target])
        return tuple(out)

    def best(spec):
        return min(
            timed(lambda: assert_implements_permutation(circuit, spec))[1]
            for _ in range(case["repeats"])
        )

    reports = [assert_implements_permutation(circuit, s) for s in (array_spec, scalar_spec)]
    if any(r.decided_by != "dense" or r.states_checked != case["dim"] ** circuit.num_wires
           for r in reports):
        raise SystemExit("FAIL: the exhaustive tier did not decide every basis state")
    array_seconds, scalar_seconds = best(array_spec), best(scalar_spec)
    return {
        **case,
        "basis_states": case["dim"] ** circuit.num_wires,
        "array_seconds": array_seconds,
        "scalar_seconds": scalar_seconds,
        "verify_exhaustive_speedup": scalar_seconds / array_seconds,
    }


# ----------------------------------------------------------------------
# Index propagation: window plan vs the per-row reference walk
# ----------------------------------------------------------------------
def index_case(quick: bool) -> dict:
    return {"dim": 3, "num_controls": 6 if quick else 12, "batch": 64, "repeats": 5, "seed": 5}


def measure_index(case: dict) -> dict:
    table = lower_to_g_gates(synthesize_mct(case["dim"], case["num_controls"]).circuit).to_table()
    rng = np.random.default_rng(case["seed"])
    indices = rng.integers(0, case["dim"] ** table.num_wires, size=case["batch"])

    def best(fn):
        return min(timed(fn)[1] for _ in range(case["repeats"]))

    # Cold: every repeat on a fresh select() twin, so the plan (new kernel)
    # or the decoded op list (reference walk) is built inside the timed call.
    cold_seconds = best(lambda: table.select(slice(None)).apply_to_indices(indices))
    reference_cold = best(
        lambda: reference_apply_to_indices(table.select(slice(None)), indices)
    )
    expected = reference_apply_to_indices(table, indices)
    images = table.apply_to_indices(indices)
    if not np.array_equal(images, expected):
        raise SystemExit("FAIL: window-plan index propagation differs from the reference walk")
    warm_seconds = best(lambda: table.apply_to_indices(indices))
    reference_warm = best(lambda: reference_apply_to_indices(table, indices))
    plan = table.index_plan()
    return {
        **case,
        "rows": len(table),
        "windows": len(plan.windows),
        "composed_windows": plan.composed,
        "reference_warm_seconds": reference_warm,
        "warm_seconds": warm_seconds,
        "reference_cold_seconds": reference_cold,
        "cold_seconds": cold_seconds,
        "index_propagation_speedup": reference_warm / warm_seconds,
        "index_first_call_speedup": reference_cold / cold_seconds,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small case for CI smoke runs")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--case", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        return run_worker(args.worker, json.loads(args.case))

    wall = measure_wall(sparse_case(args.quick))
    memory = measure_memory(sparse_case(args.quick))
    verify = measure_verify(verify_case(args.quick))
    index = measure_index(index_case(args.quick))
    batch = measure_sparse_batch(batch_case())
    exhaustive = measure_verify_exhaustive(exhaustive_case())

    rows = [
        {
            "measurement": f"dense apply_table (warm, {wall['basis_states']:,} basis)",
            "seconds": round(wall["dense_warm_seconds"], 4),
        },
        {
            "measurement": f"sparse apply_table_sparse (nnz {wall['nnz']})",
            "seconds": round(wall["sparse_seconds"], 6),
        },
        {
            "measurement": "dense RSS growth",
            "bytes": memory["dense_rss_growth_bytes"],
        },
        {
            "measurement": "sparse RSS growth",
            "bytes": memory["sparse_rss_growth_bytes"],
        },
        {
            "measurement": f"scalar verify walk ({verify['samples']} samples)",
            "seconds": round(verify["scalar_seconds"], 4),
        },
        {
            "measurement": "batched apply_to_indices",
            "seconds": round(verify["batched_seconds"], 6),
        },
        {
            "measurement": (
                f"index propagation vs per-row reference walk "
                f"(B={index['batch']}, {index['rows']:,} rows, warm)"
            ),
            "seconds": round(index["warm_seconds"], 6),
            "reference_seconds": round(index["reference_warm_seconds"], 6),
        },
        {
            "measurement": "index propagation vs per-row reference walk (cold twin)",
            "seconds": round(index["cold_seconds"], 6),
            "reference_seconds": round(index["reference_cold_seconds"], 6),
        },
        {
            "measurement": (
                f"sparse {batch['strategy']} d={batch['dim']} k={batch['k']}: one "
                f"{batch['batch']}-column call vs {batch['batch']} single-column calls"
            ),
            "seconds": round(batch["batched_seconds"], 6),
            "reference_seconds": round(batch["looped_seconds"], 6),
        },
        {
            "measurement": (
                f"exhaustive verify {exhaustive['strategy']} d={exhaustive['dim']} "
                f"k={exhaustive['k']}: mct_spec vs plain lambda"
            ),
            "seconds": round(exhaustive["array_seconds"], 6),
            "reference_seconds": round(exhaustive["scalar_seconds"], 6),
        },
    ]
    title = (
        f"Sparse simulation: wall {wall['sparse_wall_speedup']:.0f}x, "
        f"dense/sparse RSS {memory['dense_over_sparse_rss']:.0f}x, "
        f"verify batch {verify['verify_sampled_speedup']:.1f}x, "
        f"index propagation {index['index_propagation_speedup']:.0f}x warm / "
        f"{index['index_first_call_speedup']:.1f}x cold, "
        f"sparse batch {batch['sparse_batch_speedup']:.0f}x, "
        f"exhaustive verify {exhaustive['verify_exhaustive_speedup']:.1f}x"
    )
    stem = "sparse_sim_quick" if args.quick else "sparse_sim"
    emit_table(stem, render_table(rows, title=title))
    emit_json(
        stem,
        {
            "wall": wall,
            "memory": memory,
            "verify": verify,
            "index": index,
            "batch": batch,
            "exhaustive": exhaustive,
            "sparse_wall_speedup": wall["sparse_wall_speedup"],
            "dense_over_sparse_rss": memory["dense_over_sparse_rss"],
            "verify_sampled_speedup": verify["verify_sampled_speedup"],
            "index_propagation_speedup": index["index_propagation_speedup"],
            "index_first_call_speedup": index["index_first_call_speedup"],
            "sparse_batch_speedup": batch["sparse_batch_speedup"],
            "verify_exhaustive_speedup": exhaustive["verify_exhaustive_speedup"],
            "floors": {
                "sparse_wall_speedup": SPARSE_WALL_FLOOR,
                "dense_over_sparse_rss": RSS_RATIO_FLOOR,
                "verify_sampled_speedup": VERIFY_FLOOR,
                "index_propagation_speedup": INDEX_WARM_FLOOR,
                "index_first_call_speedup": INDEX_COLD_FLOOR,
                "sparse_batch_speedup": BATCH_FLOOR,
                "verify_exhaustive_speedup": EXHAUSTIVE_FLOOR,
            },
        },
    )

    failures = []
    if wall["sparse_wall_speedup"] < SPARSE_WALL_FLOOR:
        failures.append(
            f"sparse wall speedup {wall['sparse_wall_speedup']:.1f}x < {SPARSE_WALL_FLOOR}x"
        )
    if memory["dense_over_sparse_rss"] < RSS_RATIO_FLOOR:
        failures.append(
            f"dense/sparse RSS {memory['dense_over_sparse_rss']:.1f}x < {RSS_RATIO_FLOOR}x"
        )
    if verify["verify_sampled_speedup"] < VERIFY_FLOOR:
        failures.append(
            f"verify sampled speedup {verify['verify_sampled_speedup']:.1f}x < {VERIFY_FLOOR}x"
        )
    for result, metric, floor in (
        (index, "index_propagation_speedup", INDEX_WARM_FLOOR),
        (index, "index_first_call_speedup", INDEX_COLD_FLOOR),
        (batch, "sparse_batch_speedup", BATCH_FLOOR),
        (exhaustive, "verify_exhaustive_speedup", EXHAUSTIVE_FLOOR),
    ):
        if result[metric] < floor:
            failures.append(f"{metric} {result[metric]:.1f}x < {floor}x")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
