"""Circuit operations: gates placed on wires with (possibly several) controls.

Two operation kinds exist:

* :class:`Operation` — a single-qudit gate applied to a target wire,
  optionally controlled by any number of ``(wire, predicate)`` pairs.  The
  paper's gate set ``G = {Xij} ∪ {|0⟩-X01}`` corresponds to operations with
  zero controls and a transposition gate, or one ``Value(0)`` control and an
  ``X01`` gate (see :meth:`Operation.is_g_gate`).
* :class:`StarShiftOp` — the paper's ``|⋆⟩|0...0⟩-X±⋆`` gate (Fig. 6): when
  every ordinary control fires, the target is shifted by ``± value`` where
  ``value`` is the current state of the designated star wire.  It is a
  synthesis-internal macro that the lowering pass expands into ordinary
  controlled gates.

Both kinds know how to apply themselves to a classical basis state (what the
scalar permutation simulator needs) and additionally expose four vectorized
hooks consumed by the simulation backends in :mod:`repro.sim.backend`:

* :meth:`BaseOp.permutation_table` — the operation's action on the whole
  ``d^n`` basis as a flat numpy gather table, cached per ``(dim, num_wires)``;
* :meth:`BaseOp.control_mask` — the control predicate evaluated over the whole
  basis as a boolean array broadcastable against the state reshaped to
  ``(d,) * n``;
* :meth:`BaseOp.map_indices` / :meth:`BaseOp.controls_fire_flat` — the same
  action and predicate evaluated on an *arbitrary batch* of flat basis
  indices with O(batch) stride arithmetic, never materialising a ``d^n``
  table.  The per-row walk over ``map_indices`` is the plain reference
  (:func:`repro.ir.index_plan.reference_apply_to_indices`) that the
  production index kernel, the window plans behind
  :meth:`repro.ir.table.GateTable.apply_to_indices` and the sparse engine,
  is checked against;
* :meth:`BaseOp.fired_slices` / :meth:`BaseOp.slice_cycles` — the fired
  block of the ``(d,) * n`` basis view as basic-index tuples (each control
  axis fixed to its firing value(s)), and the permutation's moves on it as
  cycles of such tuples.  The fused segment kernels
  (:func:`repro.ir.segment.compose_gather`, the backends' unitary rows)
  touch only those states.
"""

from __future__ import annotations

from itertools import product
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import GateError, WireError
from repro.qudit.controls import ControlPredicate, Value
from repro.qudit.gates import Gate, XPerm

Control = Tuple[int, ControlPredicate]

#: Gather tables shared across *structurally equal* operations.  Lowered
#: circuits repeat the same few dozen G-gate forms thousands of times as
#: distinct instances; keying on (kind, dim, num_wires, wires, payload,
#: controls) lets them all share one table.  Bounded FIFO so a long-running
#: process sweeping many distinct op forms cannot grow without limit (live
#: ops keep their table alive through the per-instance cache regardless).
_SHARED_TABLE_CACHE: dict = {}
_SHARED_TABLE_CACHE_MAX = 4096


def _shared_table_cache_put(key, table) -> None:
    while len(_SHARED_TABLE_CACHE) >= _SHARED_TABLE_CACHE_MAX:
        _SHARED_TABLE_CACHE.pop(next(iter(_SHARED_TABLE_CACHE)))
    _SHARED_TABLE_CACHE[key] = table


#: ``(predicate, dim) -> bool[dim]`` firing vectors for vectorized control
#: evaluation on decoded digits.  Predicates are immutable and hashable, and
#: only a handful of (predicate, dim) forms ever exist, so a small bounded
#: FIFO is plenty.
_FIRES_VECTOR_CACHE: dict = {}
_FIRES_VECTOR_CACHE_MAX = 1024


def predicate_fires_vector(predicate: ControlPredicate, dim: int) -> np.ndarray:
    """``bool[dim]`` vector with True at every digit that fires ``predicate``.

    Indexing it with a decoded-digit array evaluates the predicate over an
    arbitrary batch of basis states in one vectorized step.  Returned
    read-only and cached per ``(predicate, dim)``.
    """
    key = (predicate, dim)
    fires = _FIRES_VECTOR_CACHE.get(key)
    if fires is None:
        fires = np.zeros(dim, dtype=bool)
        for value in predicate.values(dim):
            fires[value] = True
        fires.setflags(write=False)
        while len(_FIRES_VECTOR_CACHE) >= _FIRES_VECTOR_CACHE_MAX:
            _FIRES_VECTOR_CACHE.pop(next(iter(_FIRES_VECTOR_CACHE)))
        _FIRES_VECTOR_CACHE[key] = fires
    return fires


def value_slices(values: Sequence[int]) -> List[Union[int, slice]]:
    """Cover sorted digit ``values`` with basic indices along one axis.

    A single value is an ``int`` (the axis drops out of the view); each
    maximal run with a constant step (``Odd`` and ``EvenNonZero`` are one
    such run each) is one ``slice``.
    """
    covers: List[Union[int, slice]] = []
    i = 0
    while i < len(values):
        j = i + 1
        if j < len(values):
            step = values[j] - values[i]
            while j + 1 < len(values) and values[j + 1] - values[j] == step:
                j += 1
            covers.append(slice(values[i], values[j] + 1, step))
            i = j + 1
        else:
            covers.append(values[i])
            i = j
    return covers


def _normalize_controls(controls: Sequence[Control]) -> Tuple[Control, ...]:
    normalized: List[Control] = []
    for wire, predicate in controls:
        if not isinstance(predicate, ControlPredicate):
            raise GateError(f"control predicate {predicate!r} is not a ControlPredicate")
        normalized.append((int(wire), predicate))
    return tuple(normalized)


class BaseOp:
    """Common interface shared by :class:`Operation` and :class:`StarShiftOp`."""

    controls: Tuple[Control, ...]
    target: int

    def wires(self) -> Tuple[int, ...]:
        raise NotImplementedError

    def span(self) -> int:
        """Number of distinct wires the operation touches."""
        return len(self.wires())

    def inverse(self) -> "BaseOp":
        raise NotImplementedError

    def controls_fire(self, state: Sequence[int], dim: int) -> bool:
        """Return True if every control predicate is satisfied by ``state``."""
        return all(pred.satisfied_by(state[wire], dim) for wire, pred in self.controls)

    def apply_to_basis(self, state: List[int], dim: int) -> None:
        """Apply the operation in place to a classical basis state."""
        raise NotImplementedError

    @property
    def is_permutation(self) -> bool:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Vectorized hooks for the simulation backends
    # ------------------------------------------------------------------
    def control_mask(self, dim: int, num_wires: int, *, flat: bool = False) -> np.ndarray:
        """Boolean array marking the basis states on which every control fires.

        The default shape has ``dim`` on every control axis and ``1``
        elsewhere, so it broadcasts against a statevector reshaped to
        ``(dim,) * num_wires``; with ``flat=True`` the mask is materialised
        over the full ``dim ** num_wires`` flat basis.  Results are cached per
        ``(dim, num_wires, flat)`` and returned read-only.
        """
        cache = self.__dict__.setdefault("_control_mask_cache", {})
        key = (dim, num_wires, flat)
        mask = cache.get(key)
        if mask is None:
            if flat:
                shaped = self.control_mask(dim, num_wires)
                mask = np.broadcast_to(shaped, (dim,) * num_wires).reshape(-1)
            else:
                mask = np.ones((1,) * num_wires, dtype=bool)
                for wire, predicate in self.controls:
                    if not 0 <= wire < num_wires:
                        raise WireError(
                            f"control wire {wire} out of range for {num_wires} wires"
                        )
                    fires = np.zeros(dim, dtype=bool)
                    for value in predicate.values(dim):
                        fires[value] = True
                    shape = [1] * num_wires
                    shape[wire] = dim
                    mask = mask & fires.reshape(shape)
            mask.setflags(write=False)
            cache[key] = mask
        return mask

    def permutation_table(self, dim: int, num_wires: int) -> np.ndarray:
        """The operation's action on the full basis as a flat gather table.

        Entry ``i`` is the flat index of the image of basis state ``i``, so a
        statevector evolves as ``new[table] = old`` (a single scatter).  Only
        defined for permutation operations; the table is built with vectorized
        numpy arithmetic (no per-index Python loop), cached per
        ``(dim, num_wires)`` and returned read-only.
        """
        if not self.is_permutation:
            raise GateError(f"{self!r} is not a permutation operation")
        cache = self.__dict__.setdefault("_permutation_table_cache", {})
        key = (dim, num_wires)
        table = cache.get(key)
        if table is None:
            shared_key = self._table_key(dim, num_wires)
            table = _SHARED_TABLE_CACHE.get(shared_key)
            if table is None:
                for wire in self.wires():
                    if not 0 <= wire < num_wires:
                        raise WireError(f"wire {wire} out of range for {num_wires} wires")
                table = self._build_permutation_table(dim, num_wires)
                table.setflags(write=False)
                _shared_table_cache_put(shared_key, table)
            cache[key] = table
        return table

    def controls_fire_flat(self, indices: np.ndarray, dim: int, num_wires: int) -> np.ndarray:
        """Vectorized :meth:`controls_fire` over a batch of flat basis indices.

        Decodes only the control digits of each index (stride arithmetic,
        O(len(indices)) per control) — never the full basis — so it works on
        registers of any size.
        """
        mask = np.ones(np.shape(indices), dtype=bool)
        for wire, predicate in self.controls:
            if not 0 <= wire < num_wires:
                raise WireError(f"control wire {wire} out of range for {num_wires} wires")
            stride = dim ** (num_wires - 1 - wire)
            fires = predicate_fires_vector(predicate, dim)
            mask &= fires[(indices // stride) % dim]
        return mask

    def fired_slices(self, dim: int, num_wires: int) -> Tuple[tuple, ...]:
        """Basic-index tuples covering exactly the states where every control fires.

        Each tuple has one entry per wire of the ``(dim,) * num_wires`` view:
        a control wire holds an ``int`` or a ``slice`` over its firing values
        (:func:`value_slices`), every other wire ``slice(None)``.  One tuple
        per combination of control covers, so the tuples are disjoint; a
        control that never fires leaves none.  Cached per ``(dim,
        num_wires)``.
        """
        cache = self.__dict__.setdefault("_fired_slices_cache", {})
        key = (dim, num_wires)
        slices = cache.get(key)
        if slices is None:
            choices: List[list] = [[slice(None)] for _ in range(num_wires)]
            for wire, predicate in self.controls:
                if not 0 <= wire < num_wires:
                    raise WireError(f"control wire {wire} out of range for {num_wires} wires")
                choices[wire] = value_slices(predicate.values(dim))
            slices = tuple(product(*choices))
            cache[key] = slices
        return slices

    def slice_cycles(self, dim: int, num_wires: int) -> Tuple[Tuple[tuple, ...], ...]:
        """The permutation's moves on its fired block, as cycles of index tuples.

        A cycle ``(x0, x1, ..., xm)`` of basic-index tuples over the
        ``(dim,) * num_wires`` view lists states in the order the row moves
        them: the states at ``x_i`` map to ``x_(i+1)``, and ``xm`` back to
        ``x0``.  Composing an index table ``h`` with the row on the index
        side, ``h_new[i] = h[p(i)]``, is then ``h[x_i] <- h[x_(i+1)]`` around
        the cycle.  Only the local states of the non-control wires that the
        row actually moves appear (at most ``d^2`` for a star shift), once
        per fired slice.  Cached per ``(dim, num_wires)``.
        """
        if not self.is_permutation:
            raise GateError(f"{self!r} is not a permutation operation")
        cache = self.__dict__.setdefault("_slice_cycles_cache", {})
        key = (dim, num_wires)
        cycles = cache.get(key)
        if cycles is None:
            for wire in self.wires():
                if not 0 <= wire < num_wires:
                    raise WireError(f"wire {wire} out of range for {num_wires} wires")
            free, image = self._local_permutation(dim)
            local_cycles, seen = [], set()
            for start in image:
                if start in seen or image[start] == start:
                    continue
                cycle = [start]
                while image[cycle[-1]] != start:
                    cycle.append(image[cycle[-1]])
                seen.update(cycle)
                local_cycles.append([dict(zip(free, state)) for state in cycle])
            cycles = tuple(
                tuple(
                    tuple(pinned.get(wire, entry) for wire, entry in enumerate(fired))
                    for pinned in cycle
                )
                for fired in self.fired_slices(dim, num_wires)
                for cycle in local_cycles
            )
            cache[key] = cycles
        return cycles

    def _local_permutation(self, dim: int) -> Tuple[Tuple[int, ...], dict]:
        """``(wires, image)``: the action on the non-control wires' local states."""
        raise NotImplementedError

    def map_indices(self, indices: np.ndarray, dim: int, num_wires: int) -> np.ndarray:
        """Images of a batch of flat basis indices under this operation.

        The O(batch)-time, O(batch)-memory counterpart of
        :meth:`permutation_table`: the same stride arithmetic is applied
        directly to the requested ``int64`` indices instead of to
        ``arange(d^n)``, so no ``d^n`` array is ever built and the method
        works on basis sizes far beyond any statevector (``d^n >= 10^9``).
        Only defined for permutation operations; indices are not range
        checked (callers validate the batch once).
        """
        raise NotImplementedError

    def _table_key(self, dim: int, num_wires: int) -> tuple:
        raise NotImplementedError

    def _build_permutation_table(self, dim: int, num_wires: int) -> np.ndarray:
        raise NotImplementedError

    def _check_distinct_wires(self) -> None:
        wires = self.wires()
        if len(set(wires)) != len(wires):
            raise WireError(f"operation uses a wire more than once: {wires}")


class Operation(BaseOp):
    """A (multi-)controlled single-qudit gate."""

    def __init__(self, gate: Gate, target: int, controls: Sequence[Control] = ()):
        self.gate = gate
        self.target = int(target)
        self.controls = _normalize_controls(controls)
        self._check_distinct_wires()

    def wires(self) -> Tuple[int, ...]:
        return tuple(wire for wire, _ in self.controls) + (self.target,)

    @property
    def is_permutation(self) -> bool:
        return self.gate.is_permutation

    @property
    def num_controls(self) -> int:
        return len(self.controls)

    def inverse(self) -> "Operation":
        return Operation(self.gate.inverse(), self.target, self.controls)

    def apply_to_basis(self, state: List[int], dim: int) -> None:
        if not self.gate.is_permutation:
            raise GateError("cannot apply a non-permutation gate to a classical basis state")
        if self.controls_fire(state, dim):
            state[self.target] = self.gate.permutation()[state[self.target]]

    def _table_key(self, dim: int, num_wires: int) -> tuple:
        return ("op", dim, num_wires, self.target, self.gate.permutation(), self.controls)

    def _build_permutation_table(self, dim: int, num_wires: int) -> np.ndarray:
        indices = np.arange(dim**num_wires)
        stride = dim ** (num_wires - 1 - self.target)
        digits = (indices // stride) % dim
        perm = np.asarray(self.gate.permutation(), dtype=np.int64)
        delta = (perm[digits] - digits) * stride
        mask = self.control_mask(dim, num_wires, flat=True)
        return indices + np.where(mask, delta, 0)

    def map_indices(self, indices: np.ndarray, dim: int, num_wires: int) -> np.ndarray:
        if not self.is_permutation:
            raise GateError(f"{self!r} is not a permutation operation")
        if not 0 <= self.target < num_wires:
            raise WireError(f"wire {self.target} out of range for {num_wires} wires")
        indices = np.asarray(indices, dtype=np.int64)
        stride = dim ** (num_wires - 1 - self.target)
        digits = (indices // stride) % dim
        perm = np.asarray(self.gate.permutation(), dtype=np.int64)
        delta = (perm[digits] - digits) * stride
        if self.controls:
            delta = np.where(self.controls_fire_flat(indices, dim, num_wires), delta, 0)
        return indices + delta

    def _local_permutation(self, dim: int) -> Tuple[Tuple[int, ...], dict]:
        perm = self.gate.permutation()
        return (self.target,), {(v,): (perm[v],) for v in range(dim)}

    def is_g_gate(self, dim: int) -> bool:
        """Return True if the operation belongs to the paper's gate set G.

        ``G = {Xij : i != j} ∪ {|0⟩-X01}``: either an uncontrolled
        transposition, or an ``X01`` transposition with exactly one
        ``Value(0)`` control.
        """
        if not isinstance(self.gate, XPerm) or not self.gate.is_transposition():
            return False
        if self.num_controls == 0:
            return True
        if self.num_controls == 1:
            wire_pred = self.controls[0][1]
            return (
                isinstance(wire_pred, Value)
                and wire_pred.value == 0
                and self.gate.transposition_points() == (0, 1)
            )
        return False

    def is_two_qudit(self) -> bool:
        """Return True if the operation touches exactly two wires."""
        return self.span() == 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ctrl = ", ".join(f"{p.label}@{w}" for w, p in self.controls)
        return f"Operation({self.gate.label} -> w{self.target}" + (f" | {ctrl})" if ctrl else ")")


class StarShiftOp(BaseOp):
    """The ``|⋆⟩|0...⟩-X±⋆`` gate of Fig. 6 (and its multi-controlled variants).

    Semantics on a basis state: if every entry of ``controls`` fires, the
    target becomes ``(target + sign * state[star_wire]) mod d``.  The star
    wire itself is never modified.
    """

    def __init__(self, star_wire: int, target: int, sign: int, controls: Sequence[Control] = ()):
        if sign not in (+1, -1):
            raise GateError(f"star-shift sign must be +1 or -1, got {sign}")
        self.star_wire = int(star_wire)
        self.target = int(target)
        self.sign = sign
        self.controls = _normalize_controls(controls)
        self._check_distinct_wires()

    def wires(self) -> Tuple[int, ...]:
        return (self.star_wire,) + tuple(wire for wire, _ in self.controls) + (self.target,)

    @property
    def is_permutation(self) -> bool:
        return True

    @property
    def num_controls(self) -> int:
        return len(self.controls) + 1  # the star wire also acts as a control

    def inverse(self) -> "StarShiftOp":
        return StarShiftOp(self.star_wire, self.target, -self.sign, self.controls)

    def apply_to_basis(self, state: List[int], dim: int) -> None:
        if self.controls_fire(state, dim):
            state[self.target] = (state[self.target] + self.sign * state[self.star_wire]) % dim

    def _table_key(self, dim: int, num_wires: int) -> tuple:
        return ("star", dim, num_wires, self.star_wire, self.target, self.sign, self.controls)

    def _build_permutation_table(self, dim: int, num_wires: int) -> np.ndarray:
        indices = np.arange(dim**num_wires)
        stride_target = dim ** (num_wires - 1 - self.target)
        stride_star = dim ** (num_wires - 1 - self.star_wire)
        target = (indices // stride_target) % dim
        star = (indices // stride_star) % dim
        shifted = (target + self.sign * star) % dim
        delta = (shifted - target) * stride_target
        mask = self.control_mask(dim, num_wires, flat=True)
        return indices + np.where(mask, delta, 0)

    def map_indices(self, indices: np.ndarray, dim: int, num_wires: int) -> np.ndarray:
        for wire in (self.star_wire, self.target):
            if not 0 <= wire < num_wires:
                raise WireError(f"wire {wire} out of range for {num_wires} wires")
        indices = np.asarray(indices, dtype=np.int64)
        stride_target = dim ** (num_wires - 1 - self.target)
        stride_star = dim ** (num_wires - 1 - self.star_wire)
        target = (indices // stride_target) % dim
        star = (indices // stride_star) % dim
        shifted = (target + self.sign * star) % dim
        delta = (shifted - target) * stride_target
        if self.controls:
            delta = np.where(self.controls_fire_flat(indices, dim, num_wires), delta, 0)
        return indices + delta

    def _local_permutation(self, dim: int) -> Tuple[Tuple[int, ...], dict]:
        image = {
            (star, v): (star, (v + self.sign * star) % dim)
            for star in range(dim)
            for v in range(dim)
        }
        return (self.star_wire, self.target), image

    def is_g_gate(self, dim: int) -> bool:
        return False

    def is_two_qudit(self) -> bool:
        return self.span() == 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = "X+⋆" if self.sign > 0 else "X-⋆"
        ctrl = ", ".join(f"{p.label}@{w}" for w, p in self.controls)
        return f"StarShiftOp({name}: ⋆@w{self.star_wire} -> w{self.target}" + (f" | {ctrl})" if ctrl else ")")
