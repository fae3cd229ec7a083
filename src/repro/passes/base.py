"""The circuit-transform pass protocol and pipeline.

A *pass* is a semantics-preserving circuit rewrite: it consumes a
:class:`~repro.qudit.circuit.QuditCircuit` and returns a new, equivalent one
(inputs are never mutated).  A :class:`PassPipeline` chains passes in order
and records how each one changed the operation count, which is how the
reference lowering pipeline and the benchmarks report where gates were
saved.
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

    def run_table(self, table):
        """Run the pass on a columnar :class:`~repro.ir.table.GateTable`.

        Passes with a table-native rewrite override this; the default
        bridges through the object form (materialise, rewrite, re-encode),
        so a mixed pipeline still works end to end.
        """
        return self.run(table.to_circuit()).to_table()

    def spec(self) -> dict:
        """Canonical JSON-able description of this pass and its parameters.

        The compile cache (:mod:`repro.exec`) hashes pipeline specs into
        cache keys, so the spec must be stable across processes and must
        change whenever a parameter that affects the output changes.
        Parameterised passes override this to include their knobs.
        """
        return {"pass": self.name}

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

    def run_table(self, table):
        """Apply every pass in order on the columnar IR, staying columnar.

        Table-native passes rewrite the columns directly; passes without a
        table kernel bridge through the object form for their step only.
        """
        self.history = []
        current = table
        for step in self.passes:
            before = current.num_ops()
            current = step.run_table(current)
            self.history.append(PassRecord(step.name, before, current.num_ops()))
        return current

    def spec(self) -> dict:
        """Canonical JSON-able description of the whole pipeline.

        The concatenation of every pass spec in order; hashed by the compile
        cache to distinguish pipelines that would produce different output.
        """
        return {"pipeline": self.name, "passes": [step.spec() for step in self.passes]}

    def __iter__(self) -> Iterator[Pass]:
        return iter(self.passes)

    def __len__(self) -> int:
        return len(self.passes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(step.name for step in self.passes)
        return f"PassPipeline({self.name!r}: [{names}])"
