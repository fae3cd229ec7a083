"""Span recorder for the traced benchmark run.

:func:`instrument` wraps public functions of each layer *at the attribute
their callers look up*: ``repro.ir.lowering`` imports
``cancel_adjacent_inverses`` and ``drop_identities`` by name, so those are
patched on ``repro.ir.lowering``; methods are patched on their class.
Nothing under ``src/`` changes.

Spans are recorded only inside a root span (one request).  Each span keeps
its name, start, end and parent index in memory; when the root closes, the
request's spans are folded into per-layer *self* time (a span's duration
minus the part of it its child spans cover) and the list is cleared.
``unattributed`` is the root's own self time: request time no layer span
covers.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = "request"
#: Snapshot fields that add up across processes and over time.
SUMMED = ("self_s", "incl_s", "calls", "counters")


class Tracer:
    """Per-process span store and per-layer totals."""

    def __init__(self):
        self._local = threading.local()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.roots = 0
        self.root_s = 0.0
        #: Called after each root closes (the daemon dumps its totals there).
        self.on_root_end: Optional[Callable[["Tracer"], None]] = None

    # ------------------------------------------------------------------
    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []  # indices into state.spans of the open spans
            state.spans = []  # [name, start, end, parent, child_s]
        return state

    def active(self) -> bool:
        return bool(self._state().stack)

    def count(self, name: str, value: float = 1.0) -> None:
        if self.active():
            self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        if self.active():
            self.maxima[name] = max(self.maxima[name], value)

    @contextmanager
    def span(self, name: str):
        state = self._state()
        is_root = not state.stack
        if is_root and name != ROOT:  # layer call outside any request: not traced
            yield
            return
        parent = state.stack[-1] if state.stack else -1
        index = len(state.spans)
        state.spans.append([name, time.perf_counter(), None, parent, 0.0])
        state.stack.append(index)
        try:
            yield
        finally:
            record = state.spans[index]
            record[2] = time.perf_counter()
            state.stack.pop()
            if parent >= 0:
                state.spans[parent][4] += record[2] - record[1]
            if is_root:
                self._fold(state.spans)
                state.spans = []

    def _fold(self, spans: List[list]) -> None:
        for name, start, end, parent, child_s in spans:
            self.self_s[name] += (end - start) - child_s
            self.calls[name] += 1
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:  # outermost span of its name: inclusive time
                self.incl_s[name] += end - start
        root = spans[0]
        self.roots += 1
        self.root_s += root[2] - root[1]
        if self.on_root_end is not None:
            self.on_root_end(self)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "roots": self.roots,
            "root_s": self.root_s,
        }


def merge_snapshots(snapshots) -> Dict[str, object]:
    out = {"self_s": defaultdict(float), "incl_s": defaultdict(float), "calls": defaultdict(int),
           "counters": defaultdict(float), "maxima": defaultdict(float),
           "roots": 0, "root_s": 0.0}
    for snap in snapshots:
        for field in SUMMED:
            for name, value in snap.get(field, {}).items():
                out[field][name] += value
        for name, value in snap.get("maxima", {}).items():
            out["maxima"][name] = max(out["maxima"][name], value)
        out["roots"] += snap.get("roots", 0)
        out["root_s"] += snap.get("root_s", 0.0)
    return {k: dict(v) if isinstance(v, defaultdict) else v for k, v in out.items()}


def diff_snapshots(after, before) -> Dict[str, object]:
    """``after - before`` for sums (maxima keep ``after``)."""
    out = {}
    for field in SUMMED:
        prior = before.get(field, {})
        out[field] = {n: v - prior.get(n, 0) for n, v in after.get(field, {}).items()}
    out["maxima"] = dict(after.get("maxima", {}))
    out["roots"] = after.get("roots", 0) - before.get("roots", 0)
    out["root_s"] = after.get("root_s", 0.0) - before.get("root_s", 0.0)
    return out


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def _wrap(tracer: Tracer, name: str, fn, after=None, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            if before is not None and tracer.active():
                before(tracer, args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None and tracer.active():
                after(tracer, result, args, kwargs)
            return result

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


def _patch(owner, attr: str, tracer: Tracer, name: str, **hooks) -> None:
    current = getattr(owner, attr)
    if getattr(current, "__wrapped_by_perfbench__", False):
        return
    setattr(owner, attr, _wrap(tracer, name, current, **hooks))


def _patch_classmethod(cls, attr: str, tracer: Tracer, name: str) -> None:
    function = cls.__dict__[attr].__func__
    if getattr(function, "__wrapped_by_perfbench__", False):
        return
    setattr(cls, attr, classmethod(_wrap(tracer, name, function)))


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.exec import workload
    from repro.exec.cache import CompileCache
    from repro.ir import lowering, segment
    from repro.ir.table import DEFAULT_INDEX_CHUNK, GateTable
    from repro.passes.optimize import DropIdentities, FuseSingleQuditGates
    from repro.qudit.circuit import QuditCircuit
    from repro.resources import estimator
    from repro.sim.batch import BatchedStatevector
    from repro.synth import registry
    from repro.verify import checks
    from repro.verify.verifier import TieredVerifier

    # synth: every registered strategy class that defines synthesize itself.
    for cls in {type(strategy) for strategy in registry.all_strategies()}:
        if "synthesize" in cls.__dict__:
            _patch(cls, "synthesize", tracer, "synth")

    # passes: the macro-level object passes of the table lowering pipeline.
    for cls in (DropIdentities, FuseSingleQuditGates):
        _patch(cls, "run", tracer, "passes")

    # ir: lowering stages, looked up on repro.ir.lowering by its caller.
    _patch(lowering, "lower_circuit_to_table", tracer, "ir.lower")
    _patch(lowering, "expand_to_table", tracer, "ir.expand",
           after=lambda t, out, a, k: t.count("ir.expand.rows", len(out)))

    def cancel_after(t, out, args, kwargs):
        t.count("ir.cancel.rows_in", len(args[0]))
        t.count("ir.cancel.rows_out", len(out))

    _patch(lowering, "cancel_adjacent_inverses", tracer, "ir.cancel", after=cancel_after)
    _patch(lowering, "drop_identities", tracer, "ir.drop")

    def apply_before(t, args, kwargs):
        table, indices = args[0], args[1]
        size = int(getattr(indices, "size", None) or len(indices))
        chunk = int(kwargs.get("chunk_size", DEFAULT_INDEX_CHUNK))
        t.count("ir.apply_indices.row_visits", len(table) * max(1, math.ceil(size / chunk)))

    _patch(GateTable, "apply_to_indices", tracer, "ir.apply_indices", before=apply_before)
    _patch(segment, "compose_gather", tracer, "ir.compose")

    # exec: cache I/O and rehydration.
    def get_after(t, entry, args, kwargs):
        t.count("exec.cache.lookups")
        if entry is not None:
            t.count(f"exec.cache.{entry.source}_hits")

    _patch(CompileCache, "get", tracer, "exec.cache.get", after=get_after)
    _patch(CompileCache, "put", tracer, "exec.cache.put")
    _patch_classmethod(QuditCircuit, "from_table", tracer, "exec.rehydrate")

    # sim: batched backends.
    _patch(BatchedStatevector, "apply_circuit", tracer, "sim.apply",
           after=lambda t, out, a, k: t.peak("sim.state_bytes", a[0].nbytes))

    # verify: the tiered verifier and its kernels.
    def verdict(t, report, args, kwargs):
        if report.status == "undecided":
            t.count("verify.undecided")
        else:
            t.count(f"verify.decided.{report.decided_by}")

    for method in ("verify_permutation", "verify_wires_preserved", "verify_unitary",
                   "verify_unitary_clean_ancillas"):
        _patch(TieredVerifier, method, tracer, "verify", after=verdict)
    _patch(checks, "propagate_samples", tracer, "verify.propagate")
    _patch(checks, "spec_exhaustive", tracer, "verify.exhaustive")
    _patch(checks, "wires_preserved_exhaustive", tracer, "verify.exhaustive")
    _patch(checks, "unitary_columns", tracer, "verify.columns")

    # resources and dse.
    _patch(registry, "estimate", tracer, "resources.estimate")
    _patch(estimator, "count_gates", tracer, "resources.materialise",
           after=lambda t, out, a, k: t.count("resources.materialisations"))
    _patch(registry, "auto_select", tracer, "dse.auto_select")

    # the request root, for callers that do not open it themselves (daemon).
    _patch(workload, "execute_request", tracer, ROOT)


# ----------------------------------------------------------------------
# Daemon side: dump each worker's totals after every request
# ----------------------------------------------------------------------
def install_dumper(tracer: Tracer, directory: Path) -> None:
    """After each root, write this process's totals to ``spans-<pid>.json``."""
    directory.mkdir(parents=True, exist_ok=True)

    def dump(t: Tracer) -> None:
        path = directory / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(t.snapshot()), encoding="utf-8")
        os.replace(tmp, path)

    tracer.on_root_end = dump


def read_dumps(directory: Path) -> Dict[str, Dict[str, object]]:
    out = {}
    for path in sorted(Path(directory).glob("spans-*.json")):
        try:
            out[path.name] = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
    return out
