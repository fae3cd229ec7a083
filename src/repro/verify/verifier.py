"""The tiered verifier: escalate cheap → expensive until a tier decides.

:class:`TieredVerifier` is the one verifier every verification entry point
routes through.  Its methods return a
:class:`~repro.verify.report.VerificationReport` and never raise on
divergence themselves (callers that want exceptions use
:meth:`~repro.verify.report.VerificationReport.raise_if_failed`); a bad
argument — a wire outside the register, no expected unitary at all — raises
:class:`~repro.exceptions.VerificationError` before any tier runs.  For
each check it runs the structural tier first (always affordable), then picks
the cheapest *deciding* tier the :class:`~repro.verify.budget.
VerificationBudget` allows:

* permutation / wire-preservation checks share one tier selection: they
  decide at the **dense** tier (chunked exhaustive gather-table
  enumeration) when the basis fits ``max_basis_states``, else at the
  **index-propagation** tier (one batched
  :meth:`~repro.ir.table.GateTable.apply_to_indices` pass over seeded
  samples);
* unitary checks decide at the **dense** tier (matrix compare) when the
  basis fits ``max_dense_dim``, else at the **sampled-columns** tier when a
  column oracle is available and the basis fits ``max_column_basis``.

When the budget rules out every deciding tier the report comes back
``undecided`` — never a silent pass.  Every run returns a
:class:`~repro.verify.report.VerificationReport` recording which tier
decided and why, the states checked, the seeds, and a replay recipe.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.verify import checks
from repro.verify.budget import (
    TIER_COLUMNS,
    TIER_DENSE,
    TIER_INDEX,
    TIER_NAMES,
    TIER_STRUCTURAL,
    VerificationBudget,
)
from repro.verify.report import (
    STATUS_DECIDED,
    STATUS_FAILED,
    STATUS_PASSED,
    STATUS_SKIPPED,
    STATUS_UNDECIDED,
    STATUS_VERIFIED,
    TierRecord,
    VerificationReport,
)
from repro.exceptions import VerificationError

#: Default seeds of the sampled checks when the budget names none (fixed so
#: failure messages and replay recipes stay byte-stable across releases).
DEFAULT_SPEC_SEED = 7
DEFAULT_WIRES_SEED = 11
DEFAULT_COLUMNS_SEED = 13

BudgetLike = Union[VerificationBudget, str, None]


def resolve_budget(budget: BudgetLike) -> VerificationBudget:
    """Coerce ``None`` / preset-name / budget into a :class:`VerificationBudget`."""
    if budget is None:
        return VerificationBudget.preset("standard")
    if isinstance(budget, str):
        return VerificationBudget.preset(budget)
    return budget


class TieredVerifier:
    """Budget-driven verifier escalating structural → sampled → exhaustive."""

    def __init__(self, budget: BudgetLike = None):
        self.budget = resolve_budget(budget)

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _structural(
        self, circuit, report: VerificationReport, *, permutation: bool = False
    ) -> bool:
        """Run tier 1; on failure finalize ``report`` and return ``False``.

        ``permutation`` also fails a circuit holding a dense-unitary row,
        which the classical (basis-state) checks cannot map.
        """
        report.tier_reached = TIER_STRUCTURAL
        try:
            stats = checks.structural_check(circuit)
            if permutation:
                checks.require_permutation_rows(circuit)
        except VerificationError as exc:
            self._fail(report, TIER_STRUCTURAL, exc)
            return False
        detail = f"{stats['rows']} rows scanned"
        if stats["never_fire_controls"]:
            detail += f", {stats['never_fire_controls']} never-firing control(s)"
        report.records.append(
            TierRecord(
                TIER_STRUCTURAL, TIER_NAMES[TIER_STRUCTURAL], STATUS_PASSED, detail=detail
            )
        )
        return True

    def _decide(
        self,
        report: VerificationReport,
        tier: int,
        detail: str,
        kernel,
        *,
        seed: Optional[int] = None,
    ) -> VerificationReport:
        """Run the deciding ``kernel`` and finalize ``report`` from it.

        ``kernel`` returns either ``states_checked`` or ``(states_checked,
        replay_recipe)`` and raises :class:`VerificationError` on divergence.
        """
        name = TIER_NAMES[tier]
        report.tier_reached = tier
        try:
            outcome = kernel()
        except VerificationError as exc:
            self._fail(report, tier, exc, seed)
            return report
        report.decided_by = name
        if isinstance(outcome, tuple):
            checked, replay = outcome
            report.replay = replay
        else:
            checked = int(outcome)
        report.records.append(
            TierRecord(
                tier, name, STATUS_DECIDED, detail=detail, states_checked=checked, seed=seed
            )
        )
        report.status = STATUS_VERIFIED
        report.states_checked = checked
        return report

    @staticmethod
    def _fail(
        report: VerificationReport, tier: int, exc: Exception, seed: Optional[int] = None
    ) -> None:
        """Finalize ``report`` as failed by ``tier`` with ``exc``'s message."""
        name = TIER_NAMES[tier]
        report.records.append(TierRecord(tier, name, STATUS_FAILED, detail=str(exc), seed=seed))
        report.status = STATUS_FAILED
        report.decided_by = name
        report.error = str(exc)

    @staticmethod
    def _skip(report: VerificationReport, tier: int, reason: str) -> None:
        report.records.append(
            TierRecord(tier, TIER_NAMES[tier], STATUS_SKIPPED, detail=reason)
        )

    # ------------------------------------------------------------------
    # Permutation-level checks
    # ------------------------------------------------------------------

    def verify_permutation(
        self,
        circuit,
        spec: checks.Spec,
        *,
        clean_wires: Sequence[int] = (),
    ) -> VerificationReport:
        """Check that ``circuit`` maps basis states exactly as ``spec`` does.

        ``clean_wires`` lists wires the circuit assumes start in ``|0⟩``;
        basis states with other values there are outside its contract.
        """
        clean = tuple(clean_wires)
        checks.check_wires("clean wires", clean, circuit.num_wires)
        checks.check_wires("spec wires", getattr(spec, "wires", ()), circuit.num_wires)
        return self._classical(
            "permutation",
            circuit,
            lambda: checks.spec_exhaustive(circuit, spec, clean),
            lambda samples, seed: checks.spec_sampled(circuit, spec, samples, seed, clean),
            DEFAULT_SPEC_SEED,
        )

    def verify_wires_preserved(
        self, circuit, wires: Sequence[int]
    ) -> VerificationReport:
        """Check that ``circuit`` restores ``wires`` on every basis input."""
        wires = tuple(wires)
        checks.check_wires("watched wires", wires, circuit.num_wires)
        return self._classical(
            "wires-preserved",
            circuit,
            lambda: checks.wires_preserved_exhaustive(circuit, wires),
            lambda samples, seed: checks.wires_preserved_sampled(circuit, wires, samples, seed),
            DEFAULT_WIRES_SEED,
        )

    def _classical(
        self, kind: str, circuit, exhaustive, sampled, default_seed: int
    ) -> VerificationReport:
        """Tier selection of the classical checks: exhaustive when the basis
        fits ``max_basis_states``, else seeded samples, else undecided."""
        budget = self.budget
        report = VerificationReport(kind=kind, circuit=circuit.name, status=STATUS_UNDECIDED)
        if not self._structural(circuit, report, permutation=True):
            return report
        size = checks.basis_size(circuit.dim, circuit.num_wires)
        if size <= budget.max_basis_states:
            self._skip(report, TIER_INDEX, "subsumed by exhaustive enumeration")
            return self._decide(
                report,
                TIER_DENSE,
                f"exhaustive gather-table enumeration of {size} basis states",
                exhaustive,
            )
        dense_reason = f"basis {size} exceeds max_basis_states={budget.max_basis_states}"
        if budget.samples <= 0:
            # Zero samples would "decide" without checking anything — a
            # vacuous pass.  Report undecided instead.
            self._skip(report, TIER_INDEX, "budget draws no samples")
            self._skip(report, TIER_DENSE, dense_reason)
            return report
        seed = budget.seed if budget.seed is not None else default_seed
        decided = self._decide(
            report,
            TIER_INDEX,
            f"batched index propagation of {budget.samples} sampled states",
            lambda: sampled(budget.samples, seed),
            seed=seed,
        )
        self._skip(report, TIER_DENSE, dense_reason)
        return decided

    # ------------------------------------------------------------------
    # Unitary-level checks
    # ------------------------------------------------------------------

    def verify_unitary(
        self,
        circuit,
        expected: Optional[np.ndarray] = None,
        *,
        expected_factory: Optional[Callable[[], np.ndarray]] = None,
        expected_column: Optional[Callable[[int], np.ndarray]] = None,
        required_columns: Sequence[int] = (),
        up_to_global_phase: bool = False,
        atol: float = 1e-8,
        backend=None,
    ) -> VerificationReport:
        """Check the circuit's unitary against a matrix and/or column oracle."""
        if expected is None and expected_factory is None and expected_column is None:
            raise VerificationError(
                "verify_unitary needs an expected matrix, matrix factory, "
                "or column oracle"
            )
        budget = self.budget
        report = VerificationReport(
            kind="unitary", circuit=circuit.name, status=STATUS_UNDECIDED
        )
        if not self._structural(circuit, report):
            return report
        size = checks.basis_size(circuit.dim, circuit.num_wires)
        tolerance = budget.atol if budget.atol is not None else atol

        column_fn = expected_column
        pinned = tuple(required_columns)
        if column_fn is None and expected is not None:
            matrix = np.asarray(expected)

            def column_fn(col: int, _matrix=matrix) -> np.ndarray:
                return _matrix[:, col]

        if column_fn is None:
            columns_reason = "no column oracle available"
        elif budget.sampled_columns <= 0:
            columns_reason = "budget draws no sampled columns"
        elif size > budget.max_column_basis:
            columns_reason = f"basis {size} exceeds max_column_basis={budget.max_column_basis}"
        else:
            columns_reason = None
        has_matrix = expected is not None or expected_factory is not None
        dense_reason = _dense_skip_reason(budget, size, has_matrix)

        if columns_reason is None and (budget.prefer_columns or dense_reason):
            seed = budget.seed if budget.seed is not None else DEFAULT_COLUMNS_SEED
            decided = self._decide(
                report,
                TIER_COLUMNS,
                f"{budget.sampled_columns} sampled + {len(pinned)} pinned columns",
                lambda: checks.unitary_columns(
                    circuit,
                    column_fn,
                    samples=budget.sampled_columns,
                    required_columns=pinned,
                    seed=seed,
                    atol=tolerance,
                    up_to_global_phase=up_to_global_phase,
                    backend=backend,
                ),
                seed=seed,
            )
            self._skip(
                report,
                TIER_DENSE,
                dense_reason or "sampled columns decided first (prefer_columns)",
            )
            return decided

        if dense_reason is None:
            self._skip(
                report,
                TIER_COLUMNS,
                "no column oracle available" if column_fn is None
                else "dense compare within budget",
            )

            def dense_kernel():
                matrix = expected if expected is not None else expected_factory()
                return checks.unitary_dense(
                    circuit,
                    np.asarray(matrix),
                    atol=tolerance,
                    up_to_global_phase=up_to_global_phase,
                    backend=backend,
                )

            return self._decide(
                report,
                TIER_DENSE,
                f"dense compare of two {size}×{size} matrices",
                dense_kernel,
            )

        # Budget rules out every deciding tier: report undecided, never pass.
        self._skip(report, TIER_COLUMNS, columns_reason)
        self._skip(report, TIER_DENSE, dense_reason)
        return report

    def verify_unitary_clean_ancillas(
        self,
        circuit,
        expected: np.ndarray,
        data_wires: Sequence[int],
        clean_wires: Sequence[int],
        *,
        atol: float = 1e-8,
        backend=None,
    ) -> VerificationReport:
        """Check ``expected`` on the clean-ancilla ``|0…0⟩`` subspace."""
        checks.check_wires("data wires", data_wires, circuit.num_wires)
        checks.check_wires("clean wires", clean_wires, circuit.num_wires)
        budget = self.budget
        report = VerificationReport(
            kind="unitary-clean-ancillas", circuit=circuit.name, status=STATUS_UNDECIDED
        )
        if not self._structural(circuit, report):
            return report
        size = checks.basis_size(circuit.dim, circuit.num_wires)
        tolerance = budget.atol if budget.atol is not None else atol
        dense_reason = _dense_skip_reason(budget, size, has_matrix=True)
        if dense_reason:
            # The subspace check needs the full matrix; no cheaper tier can
            # decide it, so an insufficient budget means undecided.
            self._skip(report, TIER_DENSE, dense_reason)
            return report
        return self._decide(
            report,
            TIER_DENSE,
            f"clean-ancilla subspace compare on a {size}×{size} unitary",
            lambda: checks.unitary_clean_subspace(
                circuit,
                expected,
                data_wires,
                clean_wires,
                atol=tolerance,
                backend=backend,
            ),
        )


def _dense_skip_reason(budget: VerificationBudget, size: int, has_matrix: bool) -> Optional[str]:
    """Why the dense tier cannot run, or ``None`` when it can."""
    if not budget.allow_dense:
        return "dense tier disabled by budget"
    if not has_matrix:
        return "no expected matrix available"
    if size > budget.max_dense_dim:
        return f"basis {size} exceeds max_dense_dim={budget.max_dense_dim}"
    return None
