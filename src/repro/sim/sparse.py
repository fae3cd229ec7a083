"""Sparse amplitude-map simulation: O(nnz) work for low-occupancy states.

The circuits this repo synthesises are overwhelmingly *permutation*
circuits, and their hot inputs (basis states, truth-table probes, oracle
queries) touch a handful of amplitudes — yet every statevector engine pays
O(d^n) time and memory per application.  The ``sparse`` engine stores a
state as the pair (sorted-unique ``int64`` flat indices, complex
amplitudes) and evolves it with the O(batch) index kernel of
:meth:`repro.ir.table.GateTable.apply_to_indices`:

* each maximal permutation segment
  (:func:`repro.ir.segment.segment_table`) runs its cached window plan
  (:meth:`repro.ir.table.GateTable.index_plan` over the segment's rows) on
  the *live indices only* — never a composed ``d^n`` gather table — so a
  basis-state input costs O(windows · nnz) once the plan is built,
  regardless of register size (``d^n >= 10^9`` works);
* a controlled-unitary row expands only the matched indices (predicate
  evaluated on decoded digits) into ``<= d`` successors each, then merges
  duplicates (one sort + ``np.add.reduceat``) and prunes amplitudes below
  ``eps``;
* a configurable occupancy threshold (``SparseBackend(max_occupancy=,
  densify_to='dense')``) densifies transparently — on entry for dense
  inputs that are already too full, or mid-run when unitary expansion
  crosses the threshold — so the engine is *total*: it accepts every
  circuit the dense engine does and merely stops being asymptotically
  cheaper when the state stops being sparse.

A ``(d^n, B)`` batch is one sparse state keyed by ``column · d^n + index``,
so every segment is one kernel call for all ``B`` columns, and the
threshold, the densification and the counters apply to the whole batch.
Application counters (segments gathered, rows expanded, densify crossovers,
whole-run dense fallbacks, pruned amplitudes) are exposed
``cache_stats()``-style for tests and benchmarks.

On the permutation path the engine is **bit-for-bit** equal to ``dense``:
index propagation is exact integer arithmetic and amplitudes are only
permuted, never recomputed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import GateError, WireError
from repro.ir.table import GateTable
from repro.qudit.circuit import QuditCircuit
from repro.sim.backend import (
    SimulationBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.utils.indexing import digits_to_index, indices_to_digits

#: Largest dense register ``to_dense`` / transparent densification will
#: materialise (amplitude count; 2 GiB of complex128).  Beyond this the
#: sparse representation is the only one that exists, so crossing the
#: occupancy threshold raises instead of thrashing the machine.
MATERIALIZE_LIMIT = 1 << 27


def _require_materializable(dim: int, num_wires: int) -> int:
    """``d^n``, or raise when the register is past :data:`MATERIALIZE_LIMIT`."""
    size = dim**num_wires
    if size > MATERIALIZE_LIMIT:
        raise GateError(
            f"register of {size} basis states ({num_wires} wires of "
            f"dimension {dim}) is too large to materialise densely "
            f"(limit {MATERIALIZE_LIMIT} amplitudes); keep it sparse"
        )
    return size


class SparseState:
    """A statevector stored as (sorted-unique flat indices, amplitudes).

    ``indices`` is strictly increasing ``int64``, ``amplitudes`` the matching
    complex coefficients; every basis state not listed has amplitude zero.
    ``num_wires`` / ``dim`` fix the register, whose size ``dim ** num_wires``
    may vastly exceed what any dense array could hold — only ``nnz``
    amplitudes are ever materialised.
    """

    __slots__ = ("num_wires", "dim", "indices", "amplitudes")

    def __init__(
        self,
        num_wires: int,
        dim: int,
        indices,
        amplitudes,
        *,
        copy: bool = True,
        validate: bool = True,
    ):
        self.num_wires = int(num_wires)
        self.dim = int(dim)
        if copy:
            indices = np.array(indices, dtype=np.int64).reshape(-1)
            amplitudes = np.array(amplitudes, dtype=complex).reshape(-1)
        else:
            indices = np.asarray(indices, dtype=np.int64).reshape(-1)
            amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if validate:
            if self.dim < 2:
                raise GateError(f"qudit dimension must be >= 2, got {self.dim}")
            if self.num_wires < 1:
                raise WireError(f"need at least one wire, got {self.num_wires}")
            if indices.shape != amplitudes.shape:
                raise GateError(
                    f"indices and amplitudes must match: {indices.shape} vs {amplitudes.shape}"
                )
            if indices.size:
                if indices.min() < 0 or indices.max() >= self.size:
                    raise WireError(
                        f"basis index out of range for {self.num_wires} wires of "
                        f"dimension {self.dim}"
                    )
                if indices.size > 1 and not bool((np.diff(indices) > 0).all()):
                    raise GateError("sparse indices must be strictly increasing and unique")
        self.indices = indices
        self.amplitudes = amplitudes

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_basis_state(cls, digits: Sequence[int], dim: int) -> "SparseState":
        """The computational basis state ``|digits>`` — nnz is exactly 1."""
        digits = [int(v) for v in digits]
        if not digits:
            raise WireError("need at least one wire")
        if any(not 0 <= v < dim for v in digits):
            raise GateError(f"digits {digits} out of range for dimension {dim}")
        index = digits_to_index(digits, dim)
        return cls(len(digits), dim, [index], [1.0 + 0.0j], copy=False, validate=False)

    @classmethod
    def from_dense(
        cls, data, dim: int, num_wires: int, *, eps: float = 0.0
    ) -> "SparseState":
        """Compress a flat dense statevector, dropping |amp| <= ``eps``."""
        data = np.asarray(data, dtype=complex).reshape(-1)
        if data.size != dim**num_wires:
            raise GateError(
                f"dense state of length {data.size} does not match "
                f"{num_wires} wires of dimension {dim}"
            )
        live = np.nonzero(np.abs(data) > eps)[0]
        return cls(
            num_wires, dim, live.astype(np.int64), data[live], copy=False, validate=False
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Full basis size ``dim ** num_wires`` (a Python int — never overflows)."""
        return self.dim**self.num_wires

    @property
    def nnz(self) -> int:
        """Number of stored (nonzero) amplitudes."""
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        """Bytes held by the index and amplitude arrays."""
        return int(self.indices.nbytes + self.amplitudes.nbytes)

    @property
    def occupancy(self) -> float:
        """Fraction of the basis carrying amplitude, ``nnz / d^n``."""
        return self.nnz / self.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def to_dense(self) -> np.ndarray:
        """Materialise the full ``(d^n,)`` complex statevector."""
        data = np.zeros(_require_materializable(self.dim, self.num_wires), dtype=complex)
        data[self.indices] = self.amplitudes
        return data

    def digit_rows(self) -> np.ndarray:
        """The stored indices decoded to a ``(nnz, num_wires)`` digit matrix."""
        return indices_to_digits(self.indices, self.dim, self.num_wires)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SparseState(wires={self.num_wires}, dim={self.dim}, "
            f"nnz={self.nnz}, occupancy={self.occupancy:.3g})"
        )


class SparseBackend(SimulationBackend):
    """Amplitude-map engine: O(nnz) per row, dense only past ``max_occupancy``.

    Dense ndarray inputs are accepted everywhere the other engines accept
    them (compressed on entry, expanded on exit) so the registry treats the
    engine as a drop-in; :class:`SparseState` inputs go through
    :meth:`apply_table_sparse` / :meth:`apply_circuit_sparse` and stay
    sparse end-to-end, which is the only way to touch registers beyond the
    dense limit.

    A ``(basis, B)`` input evolves as ONE sparse state: sorted-unique
    ``int64`` keys ``column · d^n + index`` (the flat position of each
    amplitude in the column-major batch) with their amplitudes, so each
    segment costs one kernel call for the whole batch, about 24 bytes per
    nonzero.  A 1-D input or a :class:`SparseState` is a batch of one, whose
    keys are the indices themselves.  The occupancy threshold, the
    densification and every counter apply to the whole batch.
    """

    name = "sparse"

    def __init__(
        self,
        max_occupancy: float = 0.25,
        densify_to: str = "dense",
        eps: float = 1e-12,
    ):
        max_occupancy = float(max_occupancy)
        if not 0.0 < max_occupancy <= 1.0:
            raise GateError(
                f"max_occupancy must be in (0, 1], got {max_occupancy}"
            )
        usable = _densify_engines()
        if densify_to not in usable:
            raise GateError(
                f"densify_to={densify_to!r} is not a dense simulation engine; "
                f"usable: {usable}"
            )
        self.max_occupancy = max_occupancy
        self.densify_to = densify_to
        self.eps = float(eps)
        self._stats = {
            "sparse_applies": 0,
            "perm_segments": 0,
            "unitary_expands": 0,
            "densifies": 0,
            "dense_fallbacks": 0,
            "pruned": 0,
        }

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        """Application counters: segment gathers, expansions, densifications."""
        return dict(self._stats)

    def reset_stats(self) -> None:
        for key in self._stats:
            self._stats[key] = 0

    # ------------------------------------------------------------------
    # Sparse-native entry points
    # ------------------------------------------------------------------
    def apply_table_sparse(self, state: SparseState, table) -> SparseState:
        """Evolve a :class:`SparseState` through a columnar table.

        Stays sparse unless unitary expansion pushes occupancy past
        ``max_occupancy``, in which case the state densifies mid-run (the
        register must then fit :data:`MATERIALIZE_LIMIT`) and the result is
        re-compressed on exit so the return type is stable.
        """
        result = self._run(state.indices, state.amplitudes, 1, table)
        if isinstance(result, np.ndarray):
            return SparseState.from_dense(
                result[:, 0], table.dim, table.num_wires, eps=self.eps
            )
        indices, amplitudes = result
        return SparseState(
            table.num_wires, table.dim, indices, amplitudes, copy=False, validate=False
        )

    def apply_circuit_sparse(self, state: SparseState, circuit: QuditCircuit) -> SparseState:
        return self.apply_table_sparse(state, self._table_of(circuit))

    # ------------------------------------------------------------------
    # Registry interface (dense ndarray in, dense ndarray out)
    # ------------------------------------------------------------------
    def apply_table(self, data, table):
        if isinstance(data, SparseState):
            return self.apply_table_sparse(data, table)
        data = np.asarray(data, dtype=complex)
        flat = data.reshape(data.shape[0], -1)
        size, batch = flat.shape
        # Keys of the transposed batch come out sorted: column · d^n + index.
        keys = np.flatnonzero(np.abs(flat.T) > self.eps)
        if keys.size > self.max_occupancy * size * batch:
            self._stats["dense_fallbacks"] += 1
            return get_backend(self.densify_to).apply_table(data, table)
        result = self._run(keys, flat[keys % size, keys // size], batch, table)
        if isinstance(result, tuple):
            result = _scatter(*result, table, batch)
        return result.reshape(data.shape)

    def apply_circuit(self, data, circuit: QuditCircuit):
        return self.apply_table(data, self._table_of(circuit))

    def apply_op(self, data, op, dim, num_wires):
        """Single-op path (``Statevector.apply_op``): a one-row table."""
        return self.apply_table(data, GateTable.from_ops([op], num_wires, dim, name="op"))

    # ------------------------------------------------------------------
    # Core sparse evolution
    # ------------------------------------------------------------------
    def _table_of(self, circuit: QuditCircuit):
        table = getattr(circuit, "cached_table", None)
        return table if table is not None else circuit.to_table()

    def _run(self, keys, amplitudes, batch: int, table):
        """Evolve a batch segment by segment.

        The batch is the pair ``(keys, amplitudes)``: sorted-unique keys
        ``column · span + index``, where ``span`` is ``d^n`` for a batch of
        several columns (which came from a dense array, so every key fits
        ``int64``) and 0 for a batch of one (keys are the indices, whatever
        the register size).  Returns the evolved pair, or a dense
        ``(d^n, batch)`` array once the whole batch crossed the occupancy
        threshold — the remaining segments then run on the ``densify_to``
        engine's kernels (the engine is total, it just stops being sparse).
        """
        from repro.ir.segment import segment_table

        self._stats["sparse_applies"] += 1
        dim, num_wires = table.dim, table.num_wires
        size = dim**num_wires
        span = size if batch > 1 else 0
        threshold = self.max_occupancy * size * batch
        engine = get_backend(self.densify_to)
        data = (keys, amplitudes)
        for segment in segment_table(table):
            if isinstance(data, tuple):
                if segment.kind == "perm":
                    plan = table.index_plan(segment.start, segment.stop)
                    data = _map_permutation_rows(*data, plan, span)
                    self._stats["perm_segments"] += 1
                else:
                    data = self._expand_unitary_row(*data, segment.op(), table, span)
                    if data[0].size > threshold:
                        self._stats["densifies"] += 1
                        data = _scatter(*data, table, batch)
            elif segment.kind == "perm":
                gather = segment.index_table()
                out = np.empty_like(data)
                out[gather] = data
                data = out
            else:
                data = engine._apply_unitary_row(
                    data, segment.op(), dim, num_wires, owned=True
                )
        return data

    def _expand_unitary_row(self, keys, amplitudes, op, table, span):
        """One controlled-unitary row: matched keys expand into ``d`` successors.

        A successor differs from its source in the target digit only, so it
        stays in the source's column.  Duplicates are merged by one stable
        sort and one ``np.add.reduceat`` (each sum runs in the order the
        terms were produced), then amplitudes at or below ``eps`` are pruned.
        """
        dim, num_wires = table.dim, table.num_wires
        indices = keys % span if span else keys
        if op.controls:
            fired = op.controls_fire_flat(indices, dim, num_wires)
        else:
            fired = np.ones(indices.shape, dtype=bool)
        stride = dim ** (num_wires - 1 - op.target)
        tdig = (indices[fired] // stride) % dim
        base = keys[fired] - tdig * stride
        matrix = np.asarray(op.gate.matrix(), dtype=complex)
        successors = base[:, None] + np.arange(dim, dtype=np.int64) * stride
        successor_amps = matrix[:, tdig].T * amplitudes[fired][:, None]
        keep = ~fired
        keys = np.concatenate([keys[keep], successors.reshape(-1)])
        amplitudes = np.concatenate([amplitudes[keep], successor_amps.reshape(-1)])
        self._stats["unitary_expands"] += 1
        if not keys.size:
            return keys, amplitudes
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        merged = np.add.reduceat(amplitudes[order], np.flatnonzero(first))
        live = np.abs(merged) > self.eps
        self._stats["pruned"] += int(merged.size - np.count_nonzero(live))
        return keys[first][live], merged[live]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SparseBackend max_occupancy={self.max_occupancy} "
            f"densify_to={self.densify_to!r}>"
        )


def _densify_engines():
    """Registered engines with a dense unitary kernel to densify onto."""
    return tuple(
        name
        for name in available_backends()
        if type(get_backend(name))._apply_unitary is not SimulationBackend._apply_unitary
    )


def _map_permutation_rows(keys, amplitudes, plan, span):
    """One permutation segment: its window plan on every live index at once.

    Amplitudes are carried, never recomputed — the permutation path is
    bit-for-bit identical to the dense engine.  One sort at segment end
    restores the key order (a permutation cannot create duplicates within a
    column).
    """
    indices = keys % span if span else keys
    moved = indices.copy()
    plan.apply(moved)
    keys = keys + (moved - indices)
    order = np.argsort(keys)
    return keys[order], amplitudes[order]


def _scatter(keys, amplitudes, table, batch: int) -> np.ndarray:
    """The batch as a dense ``(d^n, batch)`` array."""
    size = _require_materializable(table.dim, table.num_wires)
    data = np.zeros((batch, size), dtype=complex)
    data.reshape(-1)[keys] = amplitudes
    return np.ascontiguousarray(data.T)


register_backend(SparseBackend())

__all__ = ["MATERIALIZE_LIMIT", "SparseBackend", "SparseState"]
