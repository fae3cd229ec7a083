"""Classical basis-state simulation of permutation circuits.

Every synthesis in the paper (k-Toffoli, P_k, reversible functions) produces
a *classical reversible* circuit: each operation maps computational basis
states to computational basis states without introducing phases.  Such
circuits are verified exhaustively by running every basis state through the
circuit, which is dramatically cheaper than dense unitary simulation
(``O(d^n * size)`` instead of ``O(d^{2n} * size)``) and is exact.

The whole-basis queries are vectorized: :func:`permutation_index_table`
composes the per-operation gather tables exposed by
:meth:`repro.qudit.operations.BaseOp.permutation_table` (cached per
``(op, n, d)``), so a circuit of ``m`` gates costs ``m`` numpy gathers
instead of ``m * d^n`` Python-level gate applications.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.exceptions import GateError
from repro.qudit.circuit import QuditCircuit
from repro.utils.indexing import digit_matrix, indices_to_digits

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


def permutation_table(circuit: QuditCircuit) -> List[int]:
    """Return the full permutation of flat basis indices implemented by ``circuit``.

    Plain-list version of :func:`permutation_index_table`, kept for callers
    that expect Python integers.
    """
    return permutation_index_table(circuit).tolist()


def function_table(circuit: QuditCircuit) -> Dict[BasisState, BasisState]:
    """Return the circuit's action as a mapping of digit tuples."""
    table = permutation_index_table(circuit)
    sources = digit_matrix(circuit.dim, circuit.num_wires).tolist()
    images = indices_to_digits(table, circuit.dim, circuit.num_wires).tolist()
    return {tuple(source): tuple(image) for source, image in zip(sources, images)}


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


def states_differing_on(
    circuit: QuditCircuit, wires: Iterable[int]
) -> List[Tuple[BasisState, BasisState]]:
    """Return (input, output) pairs where the circuit changed any of ``wires``.

    Handy when debugging control-preservation or borrowed-ancilla violations.
    """
    wires = list(wires)
    table = permutation_index_table(circuit)
    sources = digit_matrix(circuit.dim, circuit.num_wires)
    images = indices_to_digits(table, circuit.dim, circuit.num_wires)
    changed = (sources[:, wires] != images[:, wires]).any(axis=1)
    return [
        (tuple(sources[i].tolist()), tuple(images[i].tolist()))
        for i in np.nonzero(changed)[0]
    ]
