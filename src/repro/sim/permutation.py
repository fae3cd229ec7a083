"""Classical basis-state simulation of permutation circuits.

Every synthesis in the paper (k-Toffoli, P_k, reversible functions) produces
a *classical reversible* circuit: each operation maps computational basis
states to computational basis states without introducing phases.  This
module keeps the object-level reference forms of that action:

* :func:`apply_to_basis` walks one basis state through the op list;
* :func:`permutation_index_table` composes the per-operation gather tables
  of :meth:`repro.qudit.operations.BaseOp.permutation_table` (cached per
  ``(op, n, d)``) into the whole-basis action — ``m`` numpy gathers for
  ``m`` gates;
* :func:`permutation_parity` gives the sign of that permutation, the
  paper's even-``d`` parity argument.

The verifier checks circuits with its own chunked kernels
(:mod:`repro.verify.checks`); the fuzz oracles use these functions as the
reference those kernels are compared against.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import GateError
from repro.qudit.circuit import QuditCircuit

BasisState = Tuple[int, ...]


def apply_to_basis(circuit: QuditCircuit, state: Sequence[int]) -> BasisState:
    """Apply ``circuit`` to one computational basis state and return the result."""
    if len(state) != circuit.num_wires:
        raise GateError(
            f"basis state has {len(state)} digits, circuit has {circuit.num_wires} wires"
        )
    if not circuit.is_permutation:
        raise GateError("circuit contains non-permutation gates; use the statevector simulator")
    working: List[int] = list(state)
    for digit in working:
        if not 0 <= digit < circuit.dim:
            raise GateError(f"basis digit {digit} out of range for dimension {circuit.dim}")
    for op in circuit:
        op.apply_to_basis(working, circuit.dim)
    return tuple(working)


def permutation_index_table(circuit: QuditCircuit) -> np.ndarray:
    """The circuit's action on the full flat basis as one numpy index array.

    Entry ``i`` is the flat index of the image of basis state ``i``.  Built by
    composing the cached per-operation gather tables — fully vectorized.
    Only feasible for small systems (``dim ** num_wires`` entries).
    """
    cached = getattr(circuit, "cached_table", None)
    if cached is not None:
        # Columnar fast path: compose one gather per *distinct* row without
        # materialising op objects.
        return cached.permutation_index_table()
    if not circuit.is_permutation:
        raise GateError("circuit contains non-permutation gates; use the statevector simulator")
    table = np.arange(circuit.dim**circuit.num_wires)
    for op in circuit:
        table = op.permutation_table(circuit.dim, circuit.num_wires)[table]
    return table


def permutation_parity(circuit: QuditCircuit) -> int:
    """Return the sign parity (0 even / 1 odd) of the permutation the circuit
    implements on the full computational basis.

    Used to reproduce the paper's argument that for even ``d`` the k-Toffoli
    (an odd permutation) cannot be built from G-gates (even permutations)
    without an extra wire.
    """
    table = permutation_index_table(circuit).tolist()
    visited = [False] * len(table)
    transposition_count = 0
    for start in range(len(table)):
        if visited[start]:
            continue
        length = 0
        current = start
        while not visited[current]:
            visited[current] = True
            current = table[current]
            length += 1
        transposition_count += length - 1
    return transposition_count % 2

