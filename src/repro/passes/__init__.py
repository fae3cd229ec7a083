"""Composable circuit-transform passes.

Lowering used to be one monolithic fixed-point rewriter in
``repro.core.lowering``; it is now a pipeline of small passes that can be
recombined freely:

>>> from repro.passes import PassPipeline, ExpandMacros, CancelAdjacentInverses
>>> pipeline = PassPipeline([ExpandMacros(), CancelAdjacentInverses()])
>>> lowered = pipeline.run(circuit)                       # doctest: +SKIP
>>> [(r.pass_name, r.removed) for r in pipeline.history]  # doctest: +SKIP

:func:`default_lowering_pipeline` is the plain object-level reference that
the columnar :func:`repro.core.lowering.lower_to_g_gates` is checked
against, gate for gate.
"""

from repro.passes.base import Pass, PassPipeline, PassRecord
from repro.passes.expand_macros import ExpandMacros
from repro.passes.optimize import (
    CancelAdjacentInverses,
    DropIdentities,
    FuseSingleQuditGates,
)


def default_lowering_pipeline() -> PassPipeline:
    """The reference pipeline ``lower_to_g_gates`` reproduces.

    Identity removal and single-qudit fusion happen at the macro level
    (fusing *before* expansion keeps the result a G-circuit), then the fixed
    point expansion to G-gates (bounded by ``MAX_EXPANSION_DEPTH``), then
    peephole cleanup.  Every optimization pass only removes or merges
    operations, so the final G-gate count is never larger than what plain
    expansion would produce.
    """
    return PassPipeline(
        [
            DropIdentities(),
            FuseSingleQuditGates(),
            ExpandMacros(),
            CancelAdjacentInverses(),
            DropIdentities(),
        ],
        name="lower-to-g",
    )


__all__ = [
    "Pass",
    "PassPipeline",
    "PassRecord",
    "ExpandMacros",
    "CancelAdjacentInverses",
    "DropIdentities",
    "FuseSingleQuditGates",
    "default_lowering_pipeline",
]
