"""Verification helpers (thin wrappers over :mod:`repro.verify`).

Every synthesis routine in the library is checked against a *semantic
specification* rather than against a reference circuit:

* :func:`assert_implements_permutation` — exhaustive basis-state check that
  the circuit realises a given classical map (used for k-Toffoli, P_k,
  reversible functions, two-controlled gadgets);
* :func:`assert_mct_spec` — convenience wrapper building the multi-controlled
  ``Xij`` specification used throughout Section III;
* :func:`assert_wires_preserved` — checks that designated wires (controls,
  borrowed ancillas) are returned unchanged for every basis input, which is
  part of the paper's correctness statements;
* :func:`assert_unitary_equiv` — dense matrix comparison (optionally up to a
  global phase) for the unitary-level constructions;
* sampled variants of the above for systems too large to enumerate.

Since the tiered-verifier refactor each helper routes through
:class:`repro.verify.TieredVerifier`: the legacy keyword arguments
(``max_states`` / ``samples`` / ``seed``) are folded into a
:class:`repro.verify.VerificationBudget` reproducing the historical
behavior exactly, and each helper *returns* the
:class:`repro.verify.VerificationReport` (tier decided, states checked,
replay recipe) after raising on failure.  Pass ``budget=`` — a budget or a
preset name (``"smoke"``/``"standard"``/``"audit"``) — to override the cost
dial instead; an explicit budget takes precedence over the legacy keywords.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.qudit.circuit import QuditCircuit
from repro.sim.backend import BackendLike
from repro.verify import (
    UNBOUNDED,
    TieredVerifier,
    VerificationBudget,
    VerificationReport,
    resolve_budget,
)
from repro.verify.checks import (
    BasisState,
    Spec,
    function_spec,
    mc_shift_spec,
    mct_spec,
    sample_basis_states,
)

#: Systems with at most this many basis states are verified exhaustively.
EXHAUSTIVE_LIMIT = 200_000

BudgetLike = Optional[object]  # VerificationBudget | preset name | None


def assert_implements_permutation(
    circuit: QuditCircuit,
    spec: Spec,
    *,
    max_states: int = EXHAUSTIVE_LIMIT,
    samples: int = 2000,
    seed: int = 7,
    clean_wires: Sequence[int] = (),
    budget: BudgetLike = None,
) -> VerificationReport:
    """Check that ``circuit`` maps every basis state exactly as ``spec`` does.

    If the basis is larger than ``max_states`` the check falls back to
    ``samples`` random basis states (still exact per state).

    ``clean_wires`` lists wires that the circuit assumes start in ``|0⟩``
    (clean or burnable ancillas); basis states with other values on those
    wires are outside the circuit's contract and are skipped.
    """
    if budget is None:
        budget = VerificationBudget(max_basis_states=max_states, samples=samples, seed=seed)
    report = TieredVerifier(resolve_budget(budget)).verify_permutation(
        circuit, spec, clean_wires=clean_wires
    )
    return report.raise_if_failed()


def assert_wires_preserved(
    circuit: QuditCircuit,
    wires: Sequence[int],
    *,
    max_states: int = EXHAUSTIVE_LIMIT,
    samples: int = 2000,
    seed: int = 11,
    budget: BudgetLike = None,
) -> VerificationReport:
    """Check that the circuit restores ``wires`` for every basis input.

    This is the borrowed-ancilla / control-preservation invariant.
    """
    if budget is None:
        budget = VerificationBudget(max_basis_states=max_states, samples=samples, seed=seed)
    report = TieredVerifier(resolve_budget(budget)).verify_wires_preserved(circuit, wires)
    return report.raise_if_failed()


def assert_mct_spec(
    circuit: QuditCircuit,
    controls: Sequence[int],
    target: int,
    *,
    control_values: Optional[Sequence[int]] = None,
    swap: Tuple[int, int] = (0, 1),
    max_states: int = EXHAUSTIVE_LIMIT,
    samples: int = 2000,
    clean_wires: Sequence[int] = (),
    budget: BudgetLike = None,
) -> VerificationReport:
    """Exhaustively check that ``circuit`` is the multi-controlled ``Xij``
    on the given wires and acts as the identity on every other wire.

    ``clean_wires`` restricts the check to inputs where those wires are
    ``|0⟩`` (the contract of clean ancillas)."""
    spec = mct_spec(controls, target, circuit.dim, control_values=control_values, swap=swap)
    return assert_implements_permutation(
        circuit,
        spec,
        max_states=max_states,
        samples=samples,
        clean_wires=clean_wires,
        budget=budget,
    )


def assert_unitary_equiv(
    circuit: QuditCircuit,
    expected: np.ndarray,
    *,
    atol: float = 1e-8,
    up_to_global_phase: bool = False,
    backend: BackendLike = None,
    budget: BudgetLike = None,
) -> VerificationReport:
    """Check that the circuit's unitary equals ``expected`` (dense compare).

    ``backend`` selects the simulation engine used to build the circuit's
    unitary (``None`` uses the process default).
    """
    if budget is None:
        budget = VerificationBudget(max_dense_dim=UNBOUNDED)
    report = TieredVerifier(resolve_budget(budget)).verify_unitary(
        circuit,
        expected=np.asarray(expected),
        up_to_global_phase=up_to_global_phase,
        atol=atol,
        backend=backend,
    )
    return report.raise_if_failed()


def assert_unitary_columns_equiv(
    circuit: QuditCircuit,
    expected_column: Callable[[int], np.ndarray],
    *,
    samples: int = 8,
    required_columns: Sequence[int] = (),
    seed: int = 13,
    atol: float = 1e-8,
    up_to_global_phase: bool = False,
    backend: BackendLike = None,
    budget: BudgetLike = None,
) -> VerificationReport:
    """Sampled-column unitary check for bases too large to build a matrix.

    See :func:`repro.verify.checks.unitary_columns` for the cost model and
    sampling strategy (columns are drawn one digit per wire, so the check
    scales past ``int64`` register sizes up to the memory wall of one
    statevector batch).
    """
    if budget is None:
        budget = VerificationBudget(
            sampled_columns=max(int(samples), 1),
            seed=seed,
            max_column_basis=UNBOUNDED,
            allow_dense=False,
        )
    report = TieredVerifier(resolve_budget(budget)).verify_unitary(
        circuit,
        expected_column=expected_column,
        required_columns=required_columns,
        up_to_global_phase=up_to_global_phase,
        atol=atol,
        backend=backend,
    )
    return report.raise_if_failed()


def assert_unitary_equiv_with_clean_ancillas(
    circuit: QuditCircuit,
    expected: np.ndarray,
    data_wires: Sequence[int],
    clean_wires: Sequence[int],
    *,
    atol: float = 1e-8,
    backend: BackendLike = None,
    budget: BudgetLike = None,
) -> VerificationReport:
    """Check a circuit that uses clean ancillas against a data-wire unitary.

    The circuit is only required to implement ``expected`` on the subspace
    where every clean ancilla starts in ``|0⟩`` and to return the ancillas to
    ``|0⟩`` (i.e. not leak amplitude outside that subspace).  ``expected``
    acts on the data wires only.
    """
    if budget is None:
        budget = VerificationBudget(max_dense_dim=UNBOUNDED)
    report = TieredVerifier(resolve_budget(budget)).verify_unitary_clean_ancillas(
        circuit,
        np.asarray(expected),
        data_wires,
        clean_wires,
        atol=atol,
        backend=backend,
    )
    return report.raise_if_failed()


def assert_permutation_equals_function(
    circuit: QuditCircuit,
    function: Callable[[BasisState], Sequence[int]],
    wires: Sequence[int],
    *,
    max_states: int = EXHAUSTIVE_LIMIT,
    samples: int = 2000,
    clean_wires: Sequence[int] = (),
    budget: BudgetLike = None,
) -> VerificationReport:
    """Check that the circuit implements ``function`` on a subset of wires and
    the identity elsewhere.

    ``function`` receives and returns digit tuples of length ``len(wires)``.
    Used for reversible-function synthesis (Theorem IV.2), where the function
    acts on the ``n`` data wires and any extra wire is a borrowed ancilla.
    """
    spec = function_spec(function, wires)
    return assert_implements_permutation(
        circuit,
        spec,
        max_states=max_states,
        samples=samples,
        clean_wires=clean_wires,
        budget=budget,
    )
