"""Lowering facade: expand macro operations down to the G-gate set.

Historically this module housed a monolithic fixed-point rewriter; the
machinery now lives in the columnar IR under :mod:`repro.ir`.
:func:`lower_to_g_gates` expands each distinct macro form once into a
template, instantiates it straight into a struct-of-arrays
:class:`~repro.ir.table.GateTable` and runs the columnar cancel/drop
kernels; it returns a table-backed circuit whose counting queries run as
column kernels and whose op objects materialise only if something iterates
them.  The optimization kernels only remove or merge operations, so
lowered G-gate counts can shrink relative to plain expansion but never
grow.

The pass pipeline over per-op Python objects,
``repro.passes.default_lowering_pipeline().run(circuit)``, is the plain
reference: the test suite and the ``lowering`` fuzz oracle check that this
facade is gate-for-gate identical to it.

This facade takes no options and does not touch the compile cache; the
one cache-aware lowering is :func:`repro.exec.service.compile_lowered`.
"""

from __future__ import annotations

from repro.exceptions import SynthesisError
from repro.qudit.circuit import QuditCircuit


def lower_to_g_gates(circuit: QuditCircuit) -> QuditCircuit:
    """Return an equivalent circuit consisting solely of G-gates."""
    # Imported lazily: repro.ir.lowering reaches into repro.passes, which
    # pulls in repro.core synthesis modules; a module-level import here
    # would close that cycle during package initialisation.
    from repro.ir.lowering import lower_circuit_to_table

    table = lower_circuit_to_table(circuit)
    if not table.is_g_circuit():  # pragma: no cover - defensive
        raise SynthesisError("lowering did not converge to G-gates")
    return QuditCircuit.from_table(table, name=f"{circuit.name} [G]")
