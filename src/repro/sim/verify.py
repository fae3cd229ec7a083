"""Verification helpers: one :class:`repro.verify.TieredVerifier` call each.

Every synthesis routine in the library is checked against a *semantic
specification* rather than against a reference circuit:

* :func:`assert_implements_permutation` — the circuit realises a given
  classical basis map (k-Toffoli, P_k, reversible functions, two-controlled
  gadgets);
* :func:`assert_mct_spec` — the multi-controlled ``Xij`` specification
  used throughout Section III;
* :func:`assert_permutation_equals_function` — a function on a subset of
  wires, the identity elsewhere (Theorem IV.2);
* :func:`assert_wires_preserved` — designated wires (controls, borrowed
  ancillas) are returned unchanged for every basis input, which is part of
  the paper's correctness statements;
* :func:`assert_unitary_equiv` / :func:`assert_unitary_equiv_with_clean_ancillas`
  — dense matrix comparison (optionally up to a global phase, or on the
  clean-ancilla subspace) for the unitary-level constructions.

Each helper takes one cost dial, ``budget=`` — a
:class:`repro.verify.VerificationBudget` or a preset name
(``"smoke"``/``"standard"``/``"audit"``) — runs the matching
``TieredVerifier.verify_*`` method, raises
:class:`~repro.exceptions.VerificationError` on failure and otherwise
returns the :class:`repro.verify.VerificationReport` (tier decided, states
checked, replay recipe).  ``budget=None`` means the ``standard`` preset for
the classical checks (exhaustive up to 200,000 basis states, else 2,000
seeded samples) and :data:`UNITARY_BUDGET` (dense compare at any size) for
the unitary ones.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.qudit.circuit import QuditCircuit
from repro.sim.backend import BackendLike
from repro.verify import UNBOUNDED, TieredVerifier, VerificationBudget, VerificationReport
from repro.verify.verifier import BudgetLike
from repro.verify.checks import (
    BasisState,
    Spec,
    function_spec,
    mc_shift_spec,
    mct_spec,
    sample_basis_states,
)

#: Default budget of the unitary helpers: the dense compare at any basis size.
UNITARY_BUDGET = VerificationBudget(max_dense_dim=UNBOUNDED)


def assert_implements_permutation(
    circuit: QuditCircuit,
    spec: Spec,
    *,
    clean_wires: Sequence[int] = (),
    budget: BudgetLike = None,
) -> VerificationReport:
    """Check that ``circuit`` maps every basis state exactly as ``spec`` does.

    ``clean_wires`` lists wires that the circuit assumes start in ``|0⟩``
    (clean or burnable ancillas); basis states with other values on those
    wires are outside the circuit's contract and are skipped.
    """
    report = TieredVerifier(budget).verify_permutation(circuit, spec, clean_wires=clean_wires)
    return report.raise_if_failed()


def assert_wires_preserved(
    circuit: QuditCircuit, wires: Sequence[int], *, budget: BudgetLike = None
) -> VerificationReport:
    """Check that the circuit restores ``wires`` for every basis input.

    This is the borrowed-ancilla / control-preservation invariant.
    """
    return TieredVerifier(budget).verify_wires_preserved(circuit, wires).raise_if_failed()


def assert_mct_spec(
    circuit: QuditCircuit,
    controls: Sequence[int],
    target: int,
    *,
    control_values: Optional[Sequence[int]] = None,
    swap: Tuple[int, int] = (0, 1),
    clean_wires: Sequence[int] = (),
    budget: BudgetLike = None,
) -> VerificationReport:
    """Check that ``circuit`` is the multi-controlled ``Xij`` on the given
    wires and acts as the identity on every other wire.

    ``clean_wires`` restricts the check to inputs where those wires are
    ``|0⟩`` (the contract of clean ancillas)."""
    spec = mct_spec(controls, target, circuit.dim, control_values=control_values, swap=swap)
    return assert_implements_permutation(circuit, spec, clean_wires=clean_wires, budget=budget)


def assert_permutation_equals_function(
    circuit: QuditCircuit,
    function: Callable[[BasisState], Sequence[int]],
    wires: Sequence[int],
    *,
    clean_wires: Sequence[int] = (),
    budget: BudgetLike = None,
) -> VerificationReport:
    """Check that the circuit implements ``function`` on a subset of wires and
    the identity elsewhere.

    ``function`` receives and returns digit tuples of length ``len(wires)``.
    Used for reversible-function synthesis (Theorem IV.2), where the function
    acts on the ``n`` data wires and any extra wire is a borrowed ancilla.
    """
    return assert_implements_permutation(
        circuit, function_spec(function, wires), clean_wires=clean_wires, budget=budget
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
    report = TieredVerifier(UNITARY_BUDGET if budget is None else budget).verify_unitary(
        circuit,
        expected=np.asarray(expected),
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
    verifier = TieredVerifier(UNITARY_BUDGET if budget is None else budget)
    report = verifier.verify_unitary_clean_ancillas(
        circuit, np.asarray(expected), data_wires, clean_wires, atol=atol, backend=backend
    )
    return report.raise_if_failed()

