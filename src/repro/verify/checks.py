"""Tier check kernels of the tiered verifier.

Each function here is one *check kernel*: it runs a single verification
strategy to completion and raises :class:`~repro.exceptions.VerificationError`
on divergence, returning how many states it examined (and, for sampled
kernels, a replay recipe).  The :class:`~repro.verify.verifier.TieredVerifier`
sequences kernels by cost.

The classical checks share two kernels: :func:`exhaustive_kernel` walks the
whole basis in :data:`EXHAUSTIVE_CHUNK` blocks of the composed gather table,
and :func:`sampled_kernel` pushes seeded samples through one
:func:`propagate_samples` pass.  Both hand each ``(states, images)`` batch to
a mismatch mask; :func:`spec_exhaustive`/:func:`spec_sampled` compare the
images with :func:`spec_images`, and :func:`wires_preserved_exhaustive`/
:func:`wires_preserved_sampled` compare the watched columns.

All imports from :mod:`repro.sim` are deferred to call time: ``repro.sim``
imports :mod:`repro.verify` while building its public API, so a module-level
import here would be circular.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import VerificationError
from repro.utils import indexing
from repro.utils.indexing import INT64_MAX  # noqa: F401 - re-exported for callers
from repro.utils.indexing import indices_to_digits

BasisState = Tuple[int, ...]
Spec = Callable[[BasisState], Sequence[int]]

#: Basis states per block of the exhaustive check: its digit matrices stay a
#: few MB whatever the basis size the budget admits.
EXHAUSTIVE_CHUNK = 1 << 16


def basis_size(dim: int, num_wires: int) -> int:
    """``d^n`` as an exact Python integer (never overflows)."""
    return int(dim) ** int(num_wires)


def require_int64_basis(dim: int, num_wires: int, context: str) -> int:
    """Return ``d^n`` or raise when flat indices would overflow ``int64``.

    The verifier's face of :func:`repro.utils.indexing.require_int64_basis`
    (shared with :meth:`~repro.ir.table.GateTable.apply_to_indices`): the
    batched index paths (:func:`propagate_samples`, the sampled-column
    kernel) refuse such registers with a :class:`VerificationError`.
    """
    return indexing.require_int64_basis(dim, num_wires, context, VerificationError)


def sample_basis_matrix(
    dim: int,
    num_wires: int,
    samples: int,
    seed: int,
    *,
    clean_wires: Sequence[int] = (),
) -> np.ndarray:
    """Deterministic ``(samples, num_wires)`` digit matrix of basis states.

    One seeded :class:`numpy.random.Generator` drives the sampled tier, the
    test-suite samplers in ``conftest`` and the fuzz generators, so a
    failure reported with its seed reproduces the exact state sequence
    anywhere.  Wires listed in ``clean_wires`` are pinned to ``0`` (the
    clean-ancilla contract).  States are drawn one digit per wire, so the
    sampler works on registers far beyond ``int64`` flat indices.
    """
    rng = np.random.default_rng(seed)
    states = rng.integers(0, dim, size=(samples, num_wires))
    clean = list(clean_wires)
    if clean:
        states[:, clean] = 0
    return states


def sample_basis_states(
    dim: int,
    num_wires: int,
    samples: int,
    seed: int,
    *,
    clean_wires: Sequence[int] = (),
) -> List[BasisState]:
    """The rows of :func:`sample_basis_matrix` as digit tuples."""
    states = sample_basis_matrix(dim, num_wires, samples, seed, clean_wires=clean_wires)
    return [tuple(row) for row in states.tolist()]


def propagate_samples(circuit, states) -> np.ndarray:
    """Images of sampled basis states, all propagated in ONE batched pass.

    ``states`` is an ``(N, n)`` digit matrix (or a sequence of digit
    tuples); the rows are encoded to flat indices, pushed through
    :meth:`repro.ir.table.GateTable.apply_to_indices` (the table's window
    plan on just the batch — no ``d^n`` table), and decoded back into an
    ``(N, n)`` matrix.  Row order is preserved, so callers can recover the
    failing sample index.
    """
    states = np.asarray(states, dtype=np.int64).reshape(-1, circuit.num_wires)
    if not len(states):
        return states.copy()
    require_int64_basis(circuit.dim, circuit.num_wires, "sampled index propagation")
    strides = np.array(
        [circuit.dim**e for e in range(circuit.num_wires - 1, -1, -1)], dtype=np.int64
    )
    images = circuit.to_table().apply_to_indices(states @ strides)
    return indices_to_digits(images, circuit.dim, circuit.num_wires)


def sample_recipe(
    dim: int, num_wires: int, samples: int, seed: int, clean_wires: Sequence[int] = ()
) -> str:
    """The copy-pasteable recipe regenerating a sampled state sequence."""
    recipe = f"sample_basis_states({dim}, {num_wires}, {samples}, {seed}"
    clean = tuple(clean_wires)
    return recipe + (f", clean_wires={clean})" if clean else ")")


# ----------------------------------------------------------------------
# Tier 1 — structural checks on the GateTable columns
# ----------------------------------------------------------------------


def structural_check(circuit) -> Dict[str, int]:
    """Cheap ``O(rows)`` sanity scan of the circuit's columnar form.

    Validates opcodes, wire ranges and distinctness, predicate/payload pool
    ids, and that every referenced control predicate is *valid* for the
    circuit dimension (a control value ``>= d`` can never fire, which turns
    the row into a silent identity).  Returns summary stats; raises
    :class:`VerificationError` naming the first offending rows otherwise.
    """
    from repro.ir.table import OP_PERM, OP_STAR, OP_UNITARY

    table = circuit.to_table()
    num_wires = table.num_wires
    dim = table.dim
    pools = table.pools
    problems: List[str] = []

    def note(mask: np.ndarray, describe: Callable[[int], str]) -> None:
        rows = np.nonzero(mask)[0]
        for row in rows[:3]:
            problems.append(describe(int(row)))

    opcode = table.opcode
    note(
        (opcode < OP_PERM) | (opcode > OP_STAR),
        lambda r: f"row {r}: unknown opcode {int(opcode[r])}",
    )
    target = table.target
    note(
        (target < 0) | (target >= num_wires),
        lambda r: f"row {r}: target wire {int(target[r])} out of range for "
        f"{num_wires} wires",
    )
    star = opcode == OP_STAR
    for label, wires in (("wire_a", table.wire_a), ("wire_b", table.wire_b)):
        note(
            (wires < -1) | (wires >= num_wires),
            lambda r, label=label, wires=wires: f"row {r}: {label} "
            f"{int(wires[r])} out of range for {num_wires} wires",
        )
    note(star & (table.wire_a < 0), lambda r: f"row {r}: star row has no star wire")
    for wires in (table.wire_a, table.wire_b):
        note(
            (wires >= 0) & (wires == target),
            lambda r, wires=wires: f"row {r}: control wire {int(wires[r])} duplicates the target",
        )
    note(
        (table.wire_a >= 0) & (table.wire_a == table.wire_b),
        lambda r: f"row {r}: duplicate control wire {int(table.wire_a[r])}",
    )

    num_preds = len(pools.preds)
    for label, wires, preds in (
        ("pred_a", table.wire_a, table.pred_a),
        ("pred_b", table.wire_b, table.pred_b),
    ):
        ordinary = ~star if label == "pred_a" else np.ones(len(table), dtype=bool)
        note(
            ordinary & (wires >= 0) & ((preds < 0) | (preds >= num_preds)),
            lambda r, label=label, preds=preds: f"row {r}: {label} id "
            f"{int(preds[r])} outside the predicate pool (size {num_preds})",
        )
    payload = table.payload
    note(
        (opcode == OP_PERM) & ((payload < 0) | (payload >= max(len(pools.perms), 1))),
        lambda r: f"row {r}: permutation payload id {int(payload[r])} outside "
        f"the pool (size {len(pools.perms)})",
    )
    note(
        (opcode == OP_UNITARY)
        & ((payload < 0) | (payload >= max(len(pools.unitaries), 1))),
        lambda r: f"row {r}: unitary payload id {int(payload[r])} outside "
        f"the pool (size {len(pools.unitaries)})",
    )
    note(
        star & (payload != 1) & (payload != -1),
        lambda r: f"row {r}: star shift sign must be ±1, got {int(payload[r])}",
    )
    num_extras = len(pools.extras)
    extra = table.extra
    note(
        (extra < -1) | (extra >= num_extras),
        lambda r: f"row {r}: extra-controls id {int(extra[r])} outside the "
        f"pool (size {num_extras})",
    )

    # Predicate validity for this dimension: a referenced predicate whose
    # control value is >= d can never fire, so the row silently degenerates
    # to the identity — exactly the vacuous-verification trap.
    used: List[int] = []
    for slot, wires, preds in (
        ("a", table.wire_a, table.pred_a),
        ("b", table.wire_b, table.pred_b),
    ):
        mask = ~star if slot == "a" else np.ones(len(table), bool)
        ids = preds[mask & (wires >= 0) & (preds >= 0) & (preds < num_preds)]
        used.extend(int(p) for p in ids)
    for eid in np.unique(extra[(extra >= 0) & (extra < num_extras)]):
        for wire, pid in pools.extras.entry(int(eid)):
            if not 0 <= wire < num_wires:
                problems.append(
                    f"extra-controls entry {int(eid)}: control wire {wire} out of "
                    f"range for {num_wires} wires"
                )
            if 0 <= pid < num_preds:
                used.append(int(pid))
            else:
                problems.append(
                    f"extra-controls entry {int(eid)}: predicate id {pid} outside "
                    f"the pool (size {num_preds})"
                )
    never_fire = 0
    if used:
        used_ids = np.unique(np.asarray(used, dtype=np.int64))
        invalid = pools.preds.invalid_for(dim)
        for pid in used_ids[invalid[used_ids]]:
            problems.append(
                f"control predicate {pools.preds.labels()[int(pid)]!r} is invalid "
                f"for dimension d={dim} (it can never fire)"
            )
        never_fire = int(pools.preds.never_fires(dim)[used_ids].sum())

    if problems:
        shown = "; ".join(problems[:5])
        more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise VerificationError(
            f"circuit {circuit.name!r} failed the structural check: {shown}{more}"
        )
    return {
        "rows": len(table),
        "never_fire_controls": never_fire,
    }


def require_permutation_rows(circuit) -> None:
    """Raise naming the first dense-unitary row: the classical checks map
    basis states, which only a permutation circuit does."""
    from repro.ir.table import OP_UNITARY

    table = circuit.to_table()
    rows = np.flatnonzero(table.opcode == OP_UNITARY)
    if rows.size:
        row = int(rows[0])
        label = table.pools.unitaries.gate(int(table.payload[row])).label
        raise VerificationError(
            f"circuit {circuit.name!r} row {row} applies the dense unitary gate "
            f"{label!r}; a basis-state check needs a permutation circuit"
        )


# ----------------------------------------------------------------------
# Tiers 2 & 4 — classical basis-map kernels
# ----------------------------------------------------------------------

#: ``(states, images) -> bool mask`` of the rows that break a check.
Mismatch = Callable[[np.ndarray, np.ndarray], np.ndarray]
#: ``(state, image) -> message`` for the first offending row.
Describe = Callable[[np.ndarray, np.ndarray], str]


def check_wires(label: str, wires: Sequence[int], num_wires: int) -> None:
    """Reject wire labels outside ``0..num_wires-1`` before any kernel runs.

    A wire past the register would make numpy raise a bare ``IndexError``;
    a negative one would silently alias a wire counted from the end, so the
    check would watch a different wire than the caller named.
    """
    bad = [int(w) for w in wires if not 0 <= int(w) < num_wires]
    if bad:
        raise VerificationError(
            f"{label} {bad} out of range for {num_wires} wires "
            f"(wires must be in 0..{num_wires - 1})"
        )


def _first_row(mask: np.ndarray) -> Optional[int]:
    rows = np.flatnonzero(mask)
    return int(rows[0]) if rows.size else None


def exhaustive_kernel(
    circuit, mismatch: Mismatch, describe: Describe, clean_wires: Sequence[int] = ()
) -> int:
    """Whole-basis check of ``circuit``'s image of every basis state.

    The basis is walked in blocks of :data:`EXHAUSTIVE_CHUNK` states of the
    composed gather table: each block's source and image digit matrices go
    through ``mismatch`` in one array call, so working memory stays bounded
    whatever the basis size.  States with a nonzero digit on a clean wire
    are outside the circuit's contract and are left out.  Raises on the
    first offending state in flat-index order; returns the states checked.
    """
    clean = list(clean_wires)
    dim, num_wires = circuit.dim, circuit.num_wires
    table = circuit.to_table().permutation_index_table()
    # Blocks are whole multiples of the largest d^low <= EXHAUSTIVE_CHUNK
    # states, so a block's source digits are its few high-digit prefixes
    # over one shared low-digit grid of the reshaped basis.
    low = 0
    while low < num_wires and dim ** (low + 1) <= EXHAUSTIVE_CHUNK:
        low += 1
    span = dim**low
    grid = np.indices((dim,) * low).reshape(low, span).T
    high = num_wires - low
    step = span * max(1, EXHAUSTIVE_CHUNK // span)
    checked = 0
    for start in range(0, table.size, step):
        stop = min(start + step, table.size)
        sources = np.empty((stop - start, num_wires), dtype=np.int64)
        blocks = sources.reshape(-1, span, num_wires)
        blocks[:, :, high:] = grid
        blocks[:, :, :high] = indices_to_digits(
            np.arange(start // span, stop // span), dim, high
        )[:, None, :]
        images = indices_to_digits(table[start:stop], dim, num_wires)
        if clean:
            contract = ~sources[:, clean].any(axis=1)
            sources, images = sources[contract], images[contract]
        if not len(sources):
            continue
        checked += len(sources)
        row = _first_row(mismatch(sources, images))
        if row is not None:
            raise VerificationError(describe(sources[row], images[row]))
    return checked


def sampled_kernel(
    circuit,
    mismatch: Mismatch,
    describe: Describe,
    samples: int,
    seed: int,
    clean_wires: Sequence[int] = (),
) -> Tuple[int, str]:
    """Seeded sampled check: ONE batched :func:`propagate_samples` pass.

    O(rows · samples) stride arithmetic, no ``d^n`` table, so it works on
    registers far beyond any statevector.  A failure names the seed, the
    failing row and the recipe replaying it.  Returns
    ``(states_checked, replay)``.
    """
    clean = tuple(clean_wires)
    dim, num_wires = circuit.dim, circuit.num_wires
    states = sample_basis_matrix(dim, num_wires, samples, seed, clean_wires=clean)
    images = propagate_samples(circuit, states)
    recipe = sample_recipe(dim, num_wires, samples, seed, clean)
    row = _first_row(mismatch(states, images)) if len(states) else None
    if row is not None:
        raise VerificationError(
            describe(states[row], images[row])
            + f" (sampled check, seed={seed}, failing row {row}; rerun with {recipe}[{row}])"
        )
    return len(states), recipe


def _spec_check(circuit, spec: Spec) -> Tuple[Mismatch, Describe]:
    def mismatch(states, images):
        return (spec_images(spec, states) != images).any(axis=1)

    def describe(state, image):
        # The expected image comes from the scalar call.
        state = tuple(state.tolist())
        return (
            f"circuit {circuit.name!r} maps {state} to {tuple(image.tolist())}, "
            f"expected {tuple(spec(state))}"
        )

    return mismatch, describe


def _wires_check(circuit, wires: Sequence[int]) -> Tuple[Mismatch, Describe]:
    wires = tuple(wires)
    watched = list(wires)

    def mismatch(states, images):
        return (states[:, watched] != images[:, watched]).any(axis=1)

    def describe(state, image):
        state, image = tuple(state.tolist()), tuple(image.tolist())
        changed = [w for w in wires if image[w] != state[w]]
        return f"circuit {circuit.name!r} modified wires {changed} on input {state}: {image}"

    return mismatch, describe


def spec_exhaustive(circuit, spec: Spec, clean_wires: Sequence[int] = ()) -> int:
    """Whole-basis check that ``circuit`` maps basis states as ``spec`` does."""
    return exhaustive_kernel(circuit, *_spec_check(circuit, spec), clean_wires)


def spec_sampled(
    circuit, spec: Spec, samples: int, seed: int, clean_wires: Sequence[int] = ()
) -> Tuple[int, str]:
    """Sampled check that ``circuit`` maps basis states as ``spec`` does."""
    return sampled_kernel(circuit, *_spec_check(circuit, spec), samples, seed, clean_wires)


def wires_preserved_exhaustive(circuit, wires: Sequence[int]) -> int:
    """Whole-basis check that ``circuit`` restores the watched wires."""
    return exhaustive_kernel(circuit, *_wires_check(circuit, wires))


def wires_preserved_sampled(
    circuit, wires: Sequence[int], samples: int, seed: int
) -> Tuple[int, str]:
    """Sampled check that ``circuit`` restores the watched wires."""
    return sampled_kernel(circuit, *_wires_check(circuit, wires), samples, seed)


# ----------------------------------------------------------------------
# Tiers 3 & 4 — unitary kernels
# ----------------------------------------------------------------------


def _alignment_phase(expected_value: complex, actual_value: complex, atol: float, where: str):
    """The unit-modulus alignment factor, or raise if none exists.

    A *global phase* has unit modulus by definition; accepting any complex
    ratio here would let ``actual = 0.5 * expected`` pass as "equal up to a
    phase".
    """
    phase = expected_value / actual_value
    modulus = abs(phase)
    if abs(modulus - 1.0) > max(atol, 1e-12):
        raise VerificationError(
            f"cannot align global phase{where}: alignment factor has modulus "
            f"{modulus:.6g}, not a unit phase (is the circuit a scaled copy "
            f"of the expected unitary?)"
        )
    return phase


def unitary_dense(
    circuit,
    expected: np.ndarray,
    *,
    atol: float = 1e-8,
    up_to_global_phase: bool = False,
    backend=None,
) -> int:
    """Dense matrix compare of the circuit's unitary against ``expected``."""
    from repro.sim.unitary import circuit_unitary

    actual = circuit_unitary(circuit, backend=backend)
    if actual.shape != expected.shape:
        raise VerificationError(
            f"unitary shape mismatch: circuit {actual.shape}, expected {expected.shape}"
        )
    if up_to_global_phase:
        # Align phases using the largest-magnitude entry of the expected matrix.
        index = np.unravel_index(np.argmax(np.abs(expected)), expected.shape)
        if abs(actual[index]) < atol:
            raise VerificationError("cannot align global phase: mismatched support")
        actual = actual * _alignment_phase(expected[index], actual[index], atol, "")
    if not np.allclose(actual, expected, atol=atol):
        deviation = float(np.max(np.abs(actual - expected)))
        raise VerificationError(
            f"circuit {circuit.name!r} deviates from the expected unitary by {deviation:.3e}"
        )
    return expected.shape[1] if expected.ndim == 2 else 1


def unitary_columns(
    circuit,
    expected_column: Callable[[int], np.ndarray],
    *,
    samples: int = 8,
    required_columns: Sequence[int] = (),
    seed: int = 13,
    atol: float = 1e-8,
    up_to_global_phase: bool = False,
    backend=None,
) -> Tuple[int, str]:
    """Sampled-column unitary check for bases too large to build a matrix.

    The dense compare materialises two ``basis²`` matrices, which caps it
    near basis 1024.  This kernel evolves ``samples`` distinct basis columns
    as ONE ``(d^n, s)`` batch through the simulation engine — about the cost
    of a few statevector evolutions, no matrix anywhere — and compares each
    against ``expected_column(flat_index)``, which callers can usually
    compute in closed form (e.g. a multi-controlled unitary is the identity
    column everywhere outside the fired block).  Columns are drawn one digit
    per wire (never through a flat ``rng.integers(0, d^n)``, which breaks
    past ``int64``).  ``required_columns`` pins columns that must always be
    checked (the fired block), since a uniform draw over a huge basis would
    almost never hit them.  With ``up_to_global_phase`` one phase is aligned
    on the first column and must fit every other column — per-column phases
    would accept circuits that differ by a non-global diagonal.
    """
    from repro.sim.backend import get_backend

    size = require_int64_basis(circuit.dim, circuit.num_wires, "sampled-column check")
    rng = np.random.default_rng(seed)
    digits = rng.integers(
        0, circuit.dim, size=(max(int(samples), 1), circuit.num_wires)
    )
    strides = np.array(
        [circuit.dim**e for e in range(circuit.num_wires - 1, -1, -1)], dtype=np.int64
    )
    drawn = digits.astype(np.int64) @ strides
    pinned = np.asarray(list(required_columns), dtype=np.int64)
    columns = np.unique(np.concatenate([pinned, drawn]))
    if columns.size and (columns.min() < 0 or columns.max() >= size):
        raise VerificationError(f"required column out of range for basis {size}")
    data = np.zeros((size, columns.size), dtype=complex)
    data[columns, np.arange(columns.size)] = 1.0
    evolved = np.asarray(get_backend(backend).apply_circuit_batch(data, circuit))
    recipe = (
        f"unitary_columns(circuit, expected_column, samples={samples}, "
        f"required_columns={tuple(int(c) for c in pinned.tolist())}, seed={seed})"
    )
    phase = None
    for b, col in enumerate(columns.tolist()):
        expected = np.asarray(expected_column(int(col)), dtype=complex).reshape(-1)
        if expected.shape != (size,):
            raise VerificationError(
                f"expected_column({col}) returned shape {expected.shape}, want ({size},)"
            )
        actual = evolved[:, b]
        if up_to_global_phase:
            index = int(np.argmax(np.abs(expected)))
            if abs(actual[index]) < atol:
                raise VerificationError(
                    f"cannot align global phase on column {col}: mismatched support"
                )
            column_phase = _alignment_phase(
                expected[index], actual[index], atol, f" on column {col}"
            )
            if phase is None:
                phase = column_phase
            elif abs(column_phase - phase) > 10 * atol:
                raise VerificationError(
                    f"circuit {circuit.name!r} phase on column {col} disagrees with "
                    f"column {int(columns[0])} — not a global phase "
                    f"(sampled-column check, seed={seed})"
                )
            actual = actual * phase
        if not np.allclose(actual, expected, atol=atol):
            deviation = float(np.max(np.abs(actual - expected)))
            raise VerificationError(
                f"circuit {circuit.name!r} column {col} deviates from the expected "
                f"unitary column by {deviation:.3e} (sampled-column check, "
                f"seed={seed}, {columns.size} columns)"
            )
    return int(columns.size), recipe


def unitary_clean_subspace(
    circuit,
    expected: np.ndarray,
    data_wires: Sequence[int],
    clean_wires: Sequence[int],
    *,
    atol: float = 1e-8,
    backend=None,
) -> int:
    """Check a circuit that uses clean ancillas against a data-wire unitary.

    The circuit is only required to implement ``expected`` on the subspace
    where every clean ancilla starts in ``|0⟩`` and to return the ancillas to
    ``|0⟩`` (i.e. not leak amplitude outside that subspace).  ``expected``
    acts on the data wires only.
    """
    from repro.sim.unitary import circuit_unitary

    data_wires = list(data_wires)
    clean_wires = list(clean_wires)
    full = circuit_unitary(circuit, backend=backend)
    dim, num_wires = circuit.dim, circuit.num_wires
    size_data = dim ** len(data_wires)
    if expected.shape != (size_data, size_data):
        raise VerificationError("expected matrix shape does not match the data wires")

    # Column ``c`` of the block is the basis state with the digits of ``c``
    # on the data wires and 0 everywhere else.
    strides = dim ** np.arange(num_wires - 1, -1, -1, dtype=np.int64)
    inputs = np.zeros((size_data, num_wires), dtype=np.int64)
    inputs[:, data_wires] = indices_to_digits(np.arange(size_data), dim, len(data_wires))
    inputs[:, clean_wires] = 0
    columns = full[:, inputs @ strides].T  # (data column, basis row)

    rows = indices_to_digits(np.arange(full.shape[0]), dim, num_wires)
    leaks = rows[:, clean_wires].any(axis=1)
    data_strides = dim ** np.arange(len(data_wires) - 1, -1, -1, dtype=np.int64)
    row_data = rows[:, data_wires] @ data_strides
    significant = np.abs(columns) >= 1e-14
    leaked = np.abs(columns[significant & leaks])
    leakage = float(leaked.max()) if leaked.size else 0.0
    # Amplitudes on the clean subspace add into the block in (column, row)
    # order, the same order as a per-amplitude loop.
    col, row = np.nonzero(significant & ~leaks)
    block = np.zeros((size_data, size_data), dtype=complex)
    np.add.at(block, (row_data[row], col), columns[col, row])
    if leakage > atol:
        raise VerificationError(
            f"circuit {circuit.name!r} leaks amplitude {leakage:.3e} into non-zero ancilla states"
        )
    if not np.allclose(block, expected, atol=atol):
        deviation = float(np.max(np.abs(block - expected)))
        raise VerificationError(
            f"circuit {circuit.name!r} deviates from the expected unitary by {deviation:.3e} "
            "on the clean-ancilla subspace"
        )
    return size_data


# ----------------------------------------------------------------------
# Spec builders
# ----------------------------------------------------------------------


def _check_digit_range(label: str, digits: Sequence[int], dim: int) -> None:
    """Reject spec digits outside ``0..dim-1``.

    An out-of-range control value or swap digit can never match any basis
    digit, so the spec silently degenerates toward the identity and the
    verification passes vacuously.
    """
    bad = sorted({int(v) for v in digits if not 0 <= int(v) < dim})
    if bad:
        raise VerificationError(
            f"{label} {bad} out of range for dimension d={dim} "
            f"(digits must be in 0..{dim - 1})"
        )


class PermutationSpec:
    """A classical basis map, in array form.

    ``images`` maps an ``(N, n)`` ``int64`` digit matrix of basis states to
    the ``(N, n)`` matrix of their expected images.  It is the spec's one
    implementation: calling the spec on a single digit tuple runs it on a
    one-row matrix, so scalar callers keep working.  ``wires`` lists the
    wires the spec reads or writes; the verifier range-checks them against
    the circuit before any kernel runs.
    """

    __slots__ = ("images", "wires")

    def __init__(
        self, images: Callable[[np.ndarray], np.ndarray], wires: Sequence[int] = ()
    ):
        self.images = images
        self.wires = tuple(int(w) for w in wires)

    def __call__(self, state: BasisState) -> BasisState:
        row = np.asarray(state, dtype=np.int64).reshape(1, -1)
        return tuple(self.images(row)[0].tolist())


def spec_images(spec: Spec, states: np.ndarray) -> np.ndarray:
    """Expected images of the digit matrix ``states`` under ``spec``.

    A :class:`PermutationSpec` runs its array form; any other callable (a
    test lambda, say) goes through this row-by-row adapter.  A row of the
    wrong length becomes ``-1`` digits, which match no image, so the
    comparison reports that state and the message shows what the spec said.
    """
    if isinstance(spec, PermutationSpec):
        return spec.images(states)
    width = states.shape[1]
    rows = [tuple(spec(state)) for state in map(tuple, states.tolist())]
    return np.array([row if len(row) == width else (-1,) * width for row in rows])


def function_spec(
    function: Callable[[BasisState], Sequence[int]], wires: Sequence[int]
) -> PermutationSpec:
    """Spec applying ``function`` to the digits of ``wires``, identity elsewhere.

    ``function`` receives and returns digit tuples of length ``len(wires)``;
    it runs once per distinct data-wire tuple in the batch.
    """
    wires = list(wires)

    def images(states: np.ndarray) -> np.ndarray:
        out = states.copy()
        if not len(states):
            return out
        data = states[:, wires]
        order = np.lexsort(data.T[::-1])
        ranked = data[order]
        first = np.ones(len(ranked), dtype=bool)
        first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        mapped = []
        for digits in ranked[first].tolist():
            image = tuple(function(tuple(digits)))
            if len(image) != len(wires):
                raise VerificationError("reference function returned wrong arity")
            mapped.append(image)
        group = np.empty(len(states), dtype=np.int64)
        group[order] = np.cumsum(first) - 1
        out[:, wires] = np.asarray(mapped, dtype=np.int64).reshape(-1, len(wires))[group]
        return out

    return PermutationSpec(images, wires)


def _fires(states: np.ndarray, controls: Sequence[int], values: Sequence[int]) -> np.ndarray:
    """Rows of ``states`` whose control digits all equal their values."""
    controls = np.asarray(controls, dtype=np.intp)
    values = np.asarray(values, dtype=np.int64)
    return (states[:, controls] == values).all(axis=1)


def mct_spec(
    controls: Sequence[int],
    target: int,
    dim: int,
    *,
    control_values: Optional[Sequence[int]] = None,
    swap: Tuple[int, int] = (0, 1),
) -> PermutationSpec:
    """Return the specification of a multi-controlled ``X_{ij}`` gate.

    The returned spec maps a basis state to the state with the target digit
    swapped between ``swap[0]`` and ``swap[1]`` exactly when every control
    digit matches its control value (default all zeros, the paper's
    ``|0^k⟩-Xij``); every other wire, and in particular any ancilla wire, is
    left untouched.  Control values and swap digits are validated against
    ``dim`` — out-of-range digits would make the spec vacuous.
    """
    values = tuple(control_values) if control_values is not None else (0,) * len(controls)
    if len(values) != len(controls):
        raise VerificationError("control_values length must match the number of controls")
    _check_digit_range("control values", values, dim)
    i, j = swap
    _check_digit_range("swap digits", (i, j), dim)
    if i == j:
        raise VerificationError(f"swap digits must be distinct, got {tuple(swap)}")
    controls = tuple(controls)

    def images(states: np.ndarray) -> np.ndarray:
        out = states.copy()
        digit = states[:, target]
        fires = _fires(states, controls, values)
        out[fires & (digit == i), target] = j
        out[fires & (digit == j), target] = i
        return out

    return PermutationSpec(images, controls + (target,))


def mc_shift_spec(
    controls: Sequence[int],
    target: int,
    dim: int,
    shift: int = 1,
    *,
    control_values: Optional[Sequence[int]] = None,
) -> PermutationSpec:
    """Specification of the multi-controlled ``X+shift`` gate (``|0^k⟩-X+y``)."""
    values = tuple(control_values) if control_values is not None else (0,) * len(controls)
    if len(values) != len(controls):
        raise VerificationError("control_values length must match the number of controls")
    _check_digit_range("control values", values, dim)
    controls = tuple(controls)

    def images(states: np.ndarray) -> np.ndarray:
        out = states.copy()
        fires = _fires(states, controls, values)
        out[fires, target] = (states[fires, target] + shift) % dim
        return out

    return PermutationSpec(images, controls + (target,))
