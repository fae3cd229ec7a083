"""The circuit-transform pass protocol and pipeline.

A *pass* is a semantics-preserving circuit rewrite: it consumes a
:class:`~repro.qudit.circuit.QuditCircuit` and returns a new, equivalent one
(inputs are never mutated).  A :class:`PassPipeline` chains passes in order
and records how each one changed the operation count, which is how the
reference lowering pipeline and the benchmarks report where gates were
saved.

Each pass has exactly one method, :meth:`Pass.run`, over circuit objects.
The columnar production lowering (:mod:`repro.ir.lowering`) runs its own
table kernels and is checked gate for gate against these passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.qudit.circuit import QuditCircuit


class Pass:
    """Base class for circuit transforms.

    Subclasses override :meth:`run` to return a new equivalent circuit; they
    must never mutate the input.
    """

    #: Human-readable name used in pipeline records.
    name: str = "pass"

    def run(self, circuit: QuditCircuit) -> QuditCircuit:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass(frozen=True)
class PassRecord:
    """How one pass changed the circuit during a pipeline run."""

    pass_name: str
    ops_before: int
    ops_after: int

    @property
    def removed(self) -> int:
        return self.ops_before - self.ops_after


class PassPipeline:
    """An ordered sequence of passes applied as one transform.

    After :meth:`run`, :attr:`history` holds one :class:`PassRecord` per pass
    of the most recent invocation.
    """

    def __init__(self, passes: Sequence[Pass], name: str = "pipeline"):
        self.passes: List[Pass] = list(passes)
        self.name = name
        self.history: List[PassRecord] = []

    def run(self, circuit: QuditCircuit) -> QuditCircuit:
        """Apply every pass in order and return the final circuit."""
        self.history = []
        current = circuit
        for step in self.passes:
            before = current.num_ops()
            current = step.run(current)
            self.history.append(PassRecord(step.name, before, current.num_ops()))
        return current

    def __iter__(self) -> Iterator[Pass]:
        return iter(self.passes)

    def __len__(self) -> int:
        return len(self.passes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(step.name for step in self.passes)
        return f"PassPipeline({self.name!r}: [{names}])"
