"""Tiered verification: one budgeted verifier behind every entry point.

Every verification entry point — the ``assert_*`` helpers in
:mod:`repro.sim.verify`, the per-strategy
:meth:`~repro.synth.strategy.Synthesizer.verify` implementations, the fuzz
``synth-spec`` oracle, the CLI and the workload runner — is one call of a
:class:`TieredVerifier` method, which escalates cheap → expensive under a
:class:`VerificationBudget`:

>>> from repro.verify import TieredVerifier, VerificationBudget
>>> verifier = TieredVerifier(VerificationBudget.preset("smoke"))
>>> report = verifier.verify_permutation(circuit, spec)   # doctest: +SKIP
>>> report.decided_by, report.states_checked              # doctest: +SKIP
('index-propagation', 128)

The simulators and the ``assert_*`` helpers live in :mod:`repro.sim`.
"""

from __future__ import annotations

from repro.verify.budget import (
    PRESET_NAMES,
    PRESETS,
    TIER_COLUMNS,
    TIER_DENSE,
    TIER_INDEX,
    TIER_NAMES,
    TIER_STRUCTURAL,
    UNBOUNDED,
    VerificationBudget,
)
from repro.verify.report import TierRecord, VerificationReport
from repro.verify.verifier import TieredVerifier, resolve_budget
from repro.verify import checks

__all__ = [
    "PRESET_NAMES",
    "PRESETS",
    "TIER_COLUMNS",
    "TIER_DENSE",
    "TIER_INDEX",
    "TIER_NAMES",
    "TIER_STRUCTURAL",
    "UNBOUNDED",
    "VerificationBudget",
    "TierRecord",
    "VerificationReport",
    "TieredVerifier",
    "resolve_budget",
    "checks",
]
