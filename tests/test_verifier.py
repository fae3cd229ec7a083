"""Tests for the tiered verification subsystem (:mod:`repro.verify`).

Covers the tier-escalation order and budget gating of
:class:`~repro.verify.TieredVerifier`, the :class:`~repro.verify.
VerificationReport` replay round-trip, and — as failing-before /
passing-after regressions — the three verification soundness fixes that
shipped with the subsystem:

1. global-phase alignment must reject non-unit scalings
   (``actual = 0.5 * expected`` used to pass ``up_to_global_phase=True``);
2. ``mct_spec`` / ``mc_shift_spec`` must reject out-of-range control
   values and swap digits (the spec silently degenerated to the identity,
   so any circuit passed vacuously);
3. the batched int64 index paths must refuse registers with ``d^n > 2^63``
   instead of silently wrapping their stride arithmetic.
"""

import json

import numpy as np
import pytest

from repro.exceptions import VerificationError, WorkloadError
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import Value
from repro.qudit.gates import SingleQuditUnitary, XPerm
from repro.sim import (
    assert_implements_permutation,
    assert_mct_spec,
    assert_unitary_equiv,
    assert_wires_preserved,
    mc_shift_spec,
    mct_spec,
)
from repro.verify import (
    PRESET_NAMES,
    TIER_DENSE,
    TIER_INDEX,
    TIER_STRUCTURAL,
    UNBOUNDED,
    TieredVerifier,
    VerificationBudget,
    VerificationReport,
    checks,
    resolve_budget,
)


def cx01_circuit(dim=3, num_wires=2, name="cx01"):
    """X01 on the last wire, controlled on wire 0 being |0>."""
    circuit = QuditCircuit(num_wires, dim, name=name)
    circuit.add_gate(XPerm.transposition(dim, 0, 1), num_wires - 1, [(0, Value(0))])
    return circuit


def cx01_spec(dim, num_wires):
    return mct_spec([0], num_wires - 1, dim)


def check_columns(circuit, expected_column, *, samples=8, **kwargs):
    """The sampled-columns tier alone: ``samples`` seeded columns, any basis."""
    budget = VerificationBudget(
        sampled_columns=samples, seed=13, max_column_basis=UNBOUNDED, allow_dense=False
    )
    return (
        TieredVerifier(budget)
        .verify_unitary(circuit, expected_column=expected_column, **kwargs)
        .raise_if_failed()
    )


# ----------------------------------------------------------------------
# Regression 1 — global-phase alignment rejects non-unit scalings
# ----------------------------------------------------------------------
class TestGlobalPhaseScaling:
    def fourier_circuit(self, dim=3):
        circuit = QuditCircuit(1, dim, name="fourier")
        matrix = np.fft.fft(np.eye(dim)) / np.sqrt(dim)
        circuit.add_gate(SingleQuditUnitary(matrix), 0)
        return circuit, matrix

    def test_scaled_copy_rejected_dense(self):
        circuit, matrix = self.fourier_circuit()
        with pytest.raises(VerificationError, match="not a unit phase"):
            assert_unitary_equiv(circuit, 0.5 * matrix, up_to_global_phase=True)

    def test_scaled_copy_rejected_sampled_columns(self):
        circuit, matrix = self.fourier_circuit()
        scaled = 2.0 * matrix
        with pytest.raises(VerificationError, match="not a unit phase"):
            check_columns(
                circuit,
                lambda col: scaled[:, col],
                required_columns=(0,),
                up_to_global_phase=True,
            )

    def test_true_global_phase_still_accepted(self):
        circuit, matrix = self.fourier_circuit()
        rotated = np.exp(0.7j) * matrix
        assert assert_unitary_equiv(circuit, rotated, up_to_global_phase=True).ok
        assert check_columns(
            circuit,
            lambda col: rotated[:, col],
            required_columns=(0, 1, 2),
            up_to_global_phase=True,
        ).ok


# ----------------------------------------------------------------------
# Regression 2 — spec builders reject out-of-range digits
# ----------------------------------------------------------------------
class TestSpecDigitValidation:
    def test_mct_control_value_out_of_range(self):
        with pytest.raises(VerificationError, match="out of range for dimension d=3"):
            mct_spec([0], 1, 3, control_values=[3])

    def test_mct_swap_digit_out_of_range(self):
        with pytest.raises(VerificationError, match="swap digits"):
            mct_spec([0], 1, 3, swap=(0, 3))

    def test_mct_swap_digits_must_differ(self):
        with pytest.raises(VerificationError, match="must be distinct"):
            mct_spec([0], 1, 3, swap=(1, 1))

    def test_mc_shift_control_value_out_of_range(self):
        with pytest.raises(VerificationError, match="out of range for dimension d=3"):
            mc_shift_spec([0], 1, 3, control_values=[5])

    def test_mc_shift_control_values_length(self):
        with pytest.raises(VerificationError, match="length must match"):
            mc_shift_spec([0, 1], 2, 3, control_values=[0])

    def test_vacuous_pass_now_bites(self):
        # Before the fix, control_values=[d] made the spec the identity, so
        # the *identity circuit* sailed through assert_mct_spec unchecked.
        identity = QuditCircuit(2, 3, name="noop")
        with pytest.raises(VerificationError, match="out of range"):
            assert_mct_spec(identity, [0], 1, control_values=[3])


# ----------------------------------------------------------------------
# Regression 3 — int64 overflow guard on huge registers
# ----------------------------------------------------------------------
class TestInt64Guard:
    def huge_circuit(self):
        # 5^28 > 2^63 - 1 > 5^27: the smallest power-of-5 register whose
        # flat indices overflow int64.
        circuit = QuditCircuit(28, 5, name="huge")
        circuit.add_gate(XPerm.transposition(5, 0, 1), 27, [(0, Value(0))])
        return circuit

    def test_boundary(self):
        assert checks.basis_size(5, 27) <= checks.INT64_MAX
        assert checks.basis_size(5, 28) > checks.INT64_MAX
        assert checks.require_int64_basis(5, 27, "t") == 5**27
        with pytest.raises(VerificationError, match="int64"):
            checks.require_int64_basis(5, 28, "t")

    def test_propagate_samples_refuses_overflow(self):
        circuit = self.huge_circuit()
        states = checks.sample_basis_states(5, 28, 4, 7)
        with pytest.raises(VerificationError, match="int64"):
            checks.propagate_samples(circuit, states)

    def test_sampler_itself_scales_past_int64(self):
        # The state sampler draws one digit per wire, so it works fine on
        # registers whose flat indices do not fit int64.
        states = checks.sample_basis_states(5, 40, 6, 7)
        assert len(states) == 6
        assert all(len(s) == 40 and all(0 <= x < 5 for x in s) for s in states)

    def test_permutation_check_surfaces_guard(self):
        circuit = self.huge_circuit()
        with pytest.raises(VerificationError, match="int64"):
            assert_implements_permutation(
                circuit, lambda s: s, budget=VerificationBudget(samples=4)
            )

    def test_sampled_columns_surface_guard(self):
        circuit = self.huge_circuit()
        with pytest.raises(VerificationError, match="int64"):
            check_columns(circuit, lambda col: None, samples=1)


# ----------------------------------------------------------------------
# Tier escalation and budget gating
# ----------------------------------------------------------------------
class TestTierEscalation:
    def test_small_basis_decides_dense(self):
        circuit = cx01_circuit()
        report = TieredVerifier("standard").verify_permutation(circuit, cx01_spec(3, 2))
        assert report.ok and report.decided_by == "dense"
        assert report.states_checked == 9
        assert [(r.tier, r.status) for r in report.records] == [
            (TIER_STRUCTURAL, "passed"),
            (TIER_INDEX, "skipped"),
            (TIER_DENSE, "decided"),
        ]

    def test_smoke_budget_decides_by_index_propagation(self):
        circuit = cx01_circuit()
        report = TieredVerifier("smoke").verify_permutation(circuit, cx01_spec(3, 2))
        assert report.ok and report.decided_by == "index-propagation"
        assert report.states_checked == 128
        assert report.replay == "sample_basis_states(3, 2, 128, 7)"
        statuses = {r.tier: r.status for r in report.records}
        assert statuses[TIER_DENSE] == "skipped"
        # records stay in escalation order
        assert [r.tier for r in report.records] == sorted(r.tier for r in report.records)

    def test_budget_seed_overrides_default(self):
        circuit = cx01_circuit()
        budget = VerificationBudget.preset("smoke").replace(seed=99)
        report = TieredVerifier(budget).verify_permutation(circuit, cx01_spec(3, 2))
        assert report.ok and report.replay == "sample_basis_states(3, 2, 128, 99)"

    def test_structural_tier_catches_invalid_predicate(self):
        circuit = QuditCircuit(2, 3, name="badctl")
        circuit.add_gate(XPerm.transposition(3, 0, 1), 1, [(0, Value(3))])
        report = TieredVerifier("smoke").verify_permutation(circuit, lambda s: s)
        assert report.status == "failed"
        assert report.decided_by == "structural"
        assert "can never fire" in report.error
        with pytest.raises(VerificationError, match="can never fire"):
            report.raise_if_failed()

    def test_failure_records_deciding_tier_and_replay(self):
        circuit = cx01_circuit()  # NOT the identity

        report = TieredVerifier("smoke").verify_permutation(circuit, lambda s: tuple(s))
        assert report.status == "failed" and not report.ok
        assert report.decided_by == "index-propagation"
        assert "rerun with sample_basis_states(3, 2, 128, 7)" in report.error

    def test_unitary_undecided_when_budget_rules_out_tiers(self):
        circuit, matrix = TestGlobalPhaseScaling().fourier_circuit()
        budget = VerificationBudget(allow_dense=False, sampled_columns=0)
        report = TieredVerifier(budget).verify_unitary(circuit, matrix)
        assert report.undecided and not report.ok
        reasons = {r.tier: r.detail for r in report.records if r.status == "skipped"}
        assert "budget draws no sampled columns" in reasons[3]
        assert "dense tier disabled" in reasons[TIER_DENSE]

    def test_zero_samples_is_undecided_not_a_pass(self):
        # samples=0 must not let the index tier "decide" on zero states.
        circuit = cx01_circuit()
        budget = VerificationBudget(max_basis_states=0, samples=0)
        report = TieredVerifier(budget).verify_permutation(circuit, cx01_spec(3, 2))
        assert report.undecided and not report.ok
        assert report.states_checked == 0
        skipped = {r.tier: r.detail for r in report.records if r.status == "skipped"}
        assert skipped[TIER_INDEX] == "budget draws no samples"
        wires = TieredVerifier(budget).verify_wires_preserved(circuit, [0])
        assert wires.undecided and not wires.ok

    def test_unitary_needs_some_oracle(self):
        circuit = cx01_circuit()
        with pytest.raises(VerificationError, match="needs an expected matrix"):
            TieredVerifier("standard").verify_unitary(circuit)

    def test_budget_replace_rejects_unknown_fields(self):
        with pytest.raises(VerificationError, match="unknown budget field"):
            VerificationBudget().replace(max_dense=5)

    def test_unknown_preset_rejected(self):
        with pytest.raises(VerificationError, match="unknown verification preset"):
            VerificationBudget.preset("bogus")

    def test_resolve_budget_coercions(self):
        assert resolve_budget(None) == VerificationBudget.preset("standard")
        assert resolve_budget("smoke") == VerificationBudget.preset("smoke")
        custom = VerificationBudget(samples=3)
        assert resolve_budget(custom) is custom
        assert PRESET_NAMES == ("audit", "smoke", "standard")


# ----------------------------------------------------------------------
# Report replay round-trip
# ----------------------------------------------------------------------
class TestReportRoundTrip:
    def test_json_round_trip_preserves_replay(self):
        circuit = cx01_circuit()
        report = TieredVerifier("smoke").verify_permutation(circuit, cx01_spec(3, 2))
        payload = json.loads(json.dumps(report.to_json()))
        clone = VerificationReport.from_json(payload)
        assert clone == report
        assert clone.replay == report.replay
        assert [r.to_json() for r in clone.records] == [
            r.to_json() for r in report.records
        ]

    def test_replay_recipe_regenerates_the_sampled_states(self):
        circuit = cx01_circuit()
        report = TieredVerifier("smoke").verify_permutation(circuit, cx01_spec(3, 2))
        states = eval(  # the recipe is a copy-pasteable expression by design
            report.replay, {"sample_basis_states": checks.sample_basis_states}
        )
        assert len(states) == 128
        assert states == checks.sample_basis_states(3, 2, 128, 7)

    def test_summary_lines(self):
        circuit = cx01_circuit()
        ok = TieredVerifier("smoke").verify_permutation(circuit, cx01_spec(3, 2))
        assert "verified by index-propagation tier" in ok.summary()
        bad = TieredVerifier("smoke").verify_permutation(circuit, lambda s: tuple(s))
        assert bad.summary().startswith("permutation: FAILED")


# ----------------------------------------------------------------------
# Entry points route through the verifier
# ----------------------------------------------------------------------
class TestEntryPointRouting:
    def test_assert_helpers_return_reports(self):
        circuit = cx01_circuit()
        report = assert_mct_spec(circuit, [0], 1)
        assert isinstance(report, VerificationReport) and report.ok
        assert report.decided_by == "dense"
        smoke = assert_mct_spec(circuit, [0], 1, budget="smoke")
        assert smoke.decided_by == "index-propagation"

    def test_strategy_verify_accepts_budget(self):
        from repro.synth import registry

        strategy = registry.get("mct")
        result = strategy.synthesize(3, 4)
        report = strategy.verify(result, 3, 4, budget="smoke")
        assert report.ok and report.decided_by == "index-propagation"
        full = strategy.verify(result, 3, 4)
        assert full.ok and full.decided_by == "dense"

    def test_workload_verify_field(self):
        from repro.exec.workload import WorkloadSpec, run_workload

        spec = WorkloadSpec.from_dict(
            {
                "requests": [
                    {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 3,
                     "verify": "smoke"}
                ]
            }
        )
        row = run_workload(spec).rows[0]
        assert row["ok"] and row["verify"] == "smoke"
        assert row["verify_result"]["status"] == "verified"
        assert row["verify_result"]["tier"] == "index-propagation"

    def test_workload_rejects_bad_verify(self):
        from repro.exec.workload import WorkloadSpec

        with pytest.raises(WorkloadError, match="does not apply to estimate"):
            WorkloadSpec.from_dict(
                {"requests": [{"kind": "estimate", "strategy": "mct", "d": 3,
                               "k": 2, "verify": "smoke"}]}
            )
        with pytest.raises(WorkloadError, match="unknown verify level"):
            WorkloadSpec.from_dict(
                {"requests": [{"kind": "synthesize", "strategy": "mct", "d": 3,
                               "k": 2, "verify": "huge"}]}
            )


# ----------------------------------------------------------------------
# Acceptance: the smoke budget decides nearly everything below dense
# ----------------------------------------------------------------------
class TestSmokeBudgetSweep:
    def test_smoke_decides_at_least_90_percent_below_dense(self):
        from repro.fuzz.generators import supported_instances
        from repro.fuzz.oracles import check_synthesis_semantics

        instances = supported_instances()[::13]  # deterministic subsample
        assert len(instances) >= 20
        tier_hits = {}
        budget = VerificationBudget.preset("smoke")
        for instance in instances:
            error = check_synthesis_semantics(
                instance, budget=budget, tier_hits=tier_hits
            )
            assert error is None, error
        assert tier_hits.get("dense", 0) == 0
        decided = sum(n for name, n in tier_hits.items() if name != "undecided")
        total = sum(tier_hits.values())
        assert total > 0 and decided / total >= 0.9


# ----------------------------------------------------------------------
# Array-valued specs: one implementation, scalar calls derived from it
# ----------------------------------------------------------------------
def reference_mct(state, controls, target, values, swap):
    """Hand-written scalar k-controlled X_ij, the spec the array form must match."""
    out = list(state)
    if all(state[c] == v for c, v in zip(controls, values)):
        if out[target] == swap[0]:
            out[target] = swap[1]
        elif out[target] == swap[1]:
            out[target] = swap[0]
    return tuple(out)


def reference_shift(state, controls, target, dim, shift, values):
    out = list(state)
    if all(state[c] == v for c, v in zip(controls, values)):
        out[target] = (out[target] + shift) % dim
    return tuple(out)


def reference_function(state, function, wires):
    out = list(state)
    for wire, digit in zip(wires, function(tuple(state[w] for w in wires))):
        out[wire] = digit
    return tuple(out)


def random_spec_case(rng):
    dim = int(rng.integers(2, 6))
    num_wires = int(rng.integers(2, 8))
    wires = [int(w) for w in rng.permutation(num_wires)]
    target, controls = wires[0], wires[1 : int(rng.integers(1, num_wires + 1))]
    values = [int(v) for v in rng.integers(0, dim, size=len(controls))]
    states = rng.integers(0, dim, size=(200, num_wires))
    return dim, num_wires, target, controls, values, states


class TestArraySpecs:
    def test_mct_array_form_matches_scalar_reference(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            dim, _, target, controls, values, states = random_spec_case(rng)
            swap = tuple(int(v) for v in rng.choice(dim, size=2, replace=False))
            spec = mct_spec(controls, target, dim, control_values=values, swap=swap)
            expected = [reference_mct(s, controls, target, values, swap) for s in states.tolist()]
            assert spec.images(states).tolist() == [list(row) for row in expected]
            assert spec(tuple(states[0].tolist())) == expected[0]

    def test_mc_shift_array_form_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            dim, _, target, controls, values, states = random_spec_case(rng)
            shift = int(rng.integers(-2 * dim, 2 * dim))
            spec = mc_shift_spec(controls, target, dim, shift, control_values=values)
            expected = [
                reference_shift(s, controls, target, dim, shift, values)
                for s in states.tolist()
            ]
            assert spec.images(states).tolist() == [list(row) for row in expected]
            assert spec(tuple(states[-1].tolist())) == expected[-1]

    def test_default_control_values_are_zero(self):
        states = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1]])
        swapped = mct_spec([0, 1], 2, 3).images(states)
        shifted = mc_shift_spec([0], 2, 3).images(states)
        assert swapped.tolist() == [[0, 0, 1], [0, 1, 1], [1, 0, 1]]
        assert shifted.tolist() == [[0, 0, 1], [0, 1, 2], [1, 0, 1]]

    def test_function_spec_on_wire_subsets_calls_once_per_data_tuple(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            num_wires = int(rng.integers(2, 7))
            width = int(rng.integers(1, num_wires + 1))
            wires = [int(w) for w in rng.permutation(num_wires)[:width]]
            table = rng.permutation(dim ** len(wires))
            calls = []

            def function(digits, table=table, dim=dim, width=len(wires)):
                calls.append(digits)
                index = 0
                for digit in digits:
                    index = index * dim + digit
                image = int(table[index])
                return tuple((image // dim**e) % dim for e in range(width - 1, -1, -1))

            states = rng.integers(0, dim, size=(150, num_wires))
            spec = checks.function_spec(function, wires)
            images = spec.images(states)
            distinct = {tuple(row) for row in states[:, wires].tolist()}
            assert len(calls) == len(distinct) == len(set(calls))
            expected = [reference_function(s, function, wires) for s in states.tolist()]
            assert images.tolist() == [list(row) for row in expected]

    def test_function_spec_rejects_wrong_arity(self):
        spec = checks.function_spec(lambda digits: digits + (0,), [0, 1])
        with pytest.raises(VerificationError, match="wrong arity"):
            spec.images(np.zeros((3, 3), dtype=np.int64))

    def test_scalar_callables_use_the_row_adapter(self):
        states = np.array([[0, 1], [1, 1]])
        flip = lambda s: (s[0], 1 - s[1])  # noqa: E731
        assert checks.spec_images(flip, states).tolist() == [[0, 0], [1, 0]]
        # A wrong-length image can never match: the adapter marks the row.
        short = lambda s: s[:1]  # noqa: E731
        assert (checks.spec_images(short, states) != states).any(axis=1).tolist() == [
            True,
            True,
        ]

    def test_clean_wires_restrict_the_exhaustive_basis(self):
        circuit = cx01_circuit(dim=3, num_wires=3)
        spec = mct_spec([0], 2, 3)
        assert checks.spec_exhaustive(circuit, spec, clean_wires=(1,)) == 9
        assert checks.spec_exhaustive(circuit, spec) == 27


def broken_mct():
    """mct d=3 k=3, broken on the basis states |2,1,0,1> and |2,1,0,2>."""
    from repro.synth import synthesize

    result = synthesize("mct", 3, 3)
    result.circuit.add_gate(
        XPerm.transposition(3, 1, 2),
        result.target,
        [(0, Value(2)), (1, Value(1)), (2, Value(0))],
    )
    return result


def scalar_mct(result):
    def spec(state):
        out = list(state)
        if all(state[c] == 0 for c in result.controls):
            out[result.target] = {0: 1, 1: 0}.get(out[result.target], out[result.target])
        return tuple(out)

    return spec


#: Sampled tier only: 300 seeded states (the sampled-message tests below).
SAMPLED_300 = VerificationBudget(max_basis_states=1, samples=300)


class TestFirstFailingState:
    """Both kernels report the first failing state with the historical message."""

    EXHAUSTIVE = (
        "circuit 'MCT_odd(k=3, d=3)' maps (2, 1, 0, 1) to (2, 1, 0, 2), "
        "expected (2, 1, 0, 1)"
    )
    SAMPLED = (
        "circuit 'MCT_odd(k=3, d=3)' maps (2, 1, 0, 2) to (2, 1, 0, 1), "
        "expected (2, 1, 0, 2) (sampled check, seed=7, failing row 22; rerun with "
        "sample_basis_states(3, 4, 300, 7)[22])"
    )

    @pytest.mark.parametrize("array_spec", [True, False])
    def test_exhaustive_message(self, array_spec):
        result = broken_mct()
        spec = mct_spec(result.controls, result.target, 3) if array_spec else scalar_mct(result)
        with pytest.raises(VerificationError) as info:
            assert_implements_permutation(result.circuit, spec)
        assert str(info.value) == self.EXHAUSTIVE

    @pytest.mark.parametrize("array_spec", [True, False])
    def test_sampled_message(self, array_spec):
        result = broken_mct()
        spec = mct_spec(result.controls, result.target, 3) if array_spec else scalar_mct(result)
        with pytest.raises(VerificationError) as info:
            assert_implements_permutation(result.circuit, spec, budget=SAMPLED_300)
        assert str(info.value) == self.SAMPLED

    def test_chunk_boundaries_keep_the_first_failure(self, monkeypatch):
        monkeypatch.setattr(checks, "EXHAUSTIVE_CHUNK", 7)
        result = broken_mct()
        with pytest.raises(VerificationError) as info:
            checks.spec_exhaustive(result.circuit, mct_spec(result.controls, result.target, 3))
        assert str(info.value) == self.EXHAUSTIVE

    def test_function_wrapper_messages(self):
        from repro.applications.arithmetic import increment_reference
        from repro.sim import assert_permutation_equals_function
        from repro.synth import synthesize

        result = synthesize("increment", 3, 3)
        result.circuit.add_gate(XPerm.transposition(3, 0, 2), 1, [(0, Value(1)), (2, Value(2))])
        kwargs = dict(wires=[0, 1, 2], clean_wires=result.clean_wires())
        function = lambda digits: increment_reference(3, 3, digits)  # noqa: E731
        with pytest.raises(VerificationError) as info:
            assert_permutation_equals_function(result.circuit, function, **kwargs)
        assert str(info.value) == (
            "circuit 'increment(d=3, n=3)' maps (1, 0, 1, 0) to (1, 2, 2, 0), "
            "expected (1, 0, 2, 0)"
        )
        with pytest.raises(VerificationError) as info:
            assert_permutation_equals_function(
                result.circuit, function, budget=SAMPLED_300, **kwargs
            )
        assert str(info.value) == (
            "circuit 'increment(d=3, n=3)' maps (1, 2, 1, 0) to (1, 0, 2, 0), "
            "expected (1, 2, 2, 0) (sampled check, seed=7, failing row 19; rerun with "
            "sample_basis_states(3, 4, 300, 7, clean_wires=(3,))[19])"
        )

    WIRES_EXHAUSTIVE = (
        "circuit 'MCT_odd(k=3, d=3)' modified wires [1] on input (2, 1, 0, 0): (2, 2, 0, 0)"
    )
    WIRES_SAMPLED = (
        "circuit 'MCT_odd(k=3, d=3)' modified wires [1] on input (2, 1, 0, 1): "
        "(2, 2, 0, 1) (sampled check, seed=11, failing row 5; rerun with "
        "sample_basis_states(3, 4, 300, 11)[5])"
    )

    @staticmethod
    def moves_wire_one():
        """mct d=3 k=3 plus a gate that moves control wire 1 on |2,1,0,·>."""
        from repro.synth import synthesize

        result = synthesize("mct", 3, 3)
        result.circuit.add_gate(
            XPerm.transposition(3, 1, 2), 1, [(0, Value(2)), (2, Value(0))]
        )
        return result

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_wires_preserved_messages(self, monkeypatch, chunk):
        if chunk is not None:
            # The first offender, flat index 63, then starts the 10th block.
            monkeypatch.setattr(checks, "EXHAUSTIVE_CHUNK", chunk)
        circuit = self.moves_wire_one().circuit
        exhaustive = TieredVerifier("standard").verify_wires_preserved(circuit, [0, 1, 2])
        assert exhaustive.decided_by == "dense"
        assert exhaustive.error == self.WIRES_EXHAUSTIVE
        sampled = TieredVerifier(SAMPLED_300.replace(seed=11)).verify_wires_preserved(
            circuit, [0, 1, 2]
        )
        assert sampled.decided_by == "index-propagation"
        assert sampled.error == self.WIRES_SAMPLED
        kept = TieredVerifier("standard").verify_wires_preserved(circuit, [0, 2])
        assert kept.ok and kept.states_checked == 81

    def test_exhaustive_wires_check_memory_is_chunked(self):
        import tracemalloc

        from repro.synth import synthesize

        result = synthesize("mct", 3, 11)  # 12 wires, 531,441 basis states
        circuit = result.circuit
        circuit.to_table().permutation_index_table()  # warm gather table
        tracemalloc.start()
        try:
            checked = checks.wires_preserved_exhaustive(circuit, result.controls)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert checked == 3**12
        assert peak < 64 * 2**20


# ----------------------------------------------------------------------
# Wire arguments are range-checked before any kernel runs
# ----------------------------------------------------------------------
class TestWireRanges:
    @staticmethod
    def mct():
        from repro.synth import synthesize

        return synthesize("mct", 3, 3)  # 4 wires

    @pytest.mark.parametrize("budget", ["standard", "smoke"])
    def test_watched_wire_past_the_register(self, budget):
        with pytest.raises(VerificationError, match=r"watched wires \[99\] out of range for 4"):
            assert_wires_preserved(self.mct().circuit, [99], budget=budget)

    def test_negative_watched_wire_is_not_aliased(self):
        with pytest.raises(VerificationError, match=r"watched wires \[-1\]"):
            assert_wires_preserved(self.mct().circuit, [-1])

    def test_spec_target_past_the_register(self):
        result = self.mct()
        with pytest.raises(VerificationError, match=r"spec wires \[99\]"):
            assert_mct_spec(result.circuit, result.controls, 99)

    def test_negative_spec_control_is_not_aliased(self):
        result = self.mct()
        spec = mct_spec([-1], result.target, 3)
        with pytest.raises(VerificationError, match=r"spec wires \[-1\]"):
            assert_implements_permutation(result.circuit, spec)

    def test_clean_wire_past_the_register(self):
        result = self.mct()
        with pytest.raises(VerificationError, match=r"clean wires \[99\]"):
            assert_mct_spec(result.circuit, result.controls, result.target, clean_wires=[99])

    def test_function_wire_past_the_register(self):
        from repro.sim import assert_permutation_equals_function

        with pytest.raises(VerificationError, match=r"spec wires \[99\]"):
            assert_permutation_equals_function(self.mct().circuit, lambda d: d, [99])

    def test_clean_ancilla_unitary_wires(self):
        from repro.sim import assert_unitary_equiv_with_clean_ancillas

        circuit = QuditCircuit(2, 2, name="pair")
        with pytest.raises(VerificationError, match=r"data wires \[2\]"):
            assert_unitary_equiv_with_clean_ancillas(circuit, np.eye(2), [2], [1])


# ----------------------------------------------------------------------
# The clean-ancilla subspace kernel
# ----------------------------------------------------------------------
def loop_clean_subspace(full, dim, num_wires, data_wires, clean_wires):
    """Per-amplitude reference: the data-wire block and the largest leak."""
    size_data = dim ** len(data_wires)
    block = np.zeros((size_data, size_data), dtype=complex)
    leakage = 0.0
    for col_data in range(size_data):
        digits = [0] * num_wires
        rest = col_data
        for wire in reversed(data_wires):
            digits[wire], rest = rest % dim, rest // dim
        col = int(np.dot(digits, [dim ** (num_wires - 1 - w) for w in range(num_wires)]))
        for row, amplitude in enumerate(full[:, col]):
            if abs(amplitude) < 1e-14:
                continue
            row_digits = [(row // dim ** (num_wires - 1 - w)) % dim for w in range(num_wires)]
            if any(row_digits[w] for w in clean_wires):
                leakage = max(leakage, abs(amplitude))
                continue
            row_data = 0
            for wire in data_wires:
                row_data = row_data * dim + row_digits[wire]
            block[row_data, col_data] += amplitude
    return block, leakage


class TestCleanSubspace:
    @staticmethod
    def circuit(dim=3):
        """A Fourier gate on wire 2, then X01 on wire 0 controlled by wire 2."""
        circuit = QuditCircuit(3, dim, name="sub")
        fourier = np.fft.fft(np.eye(dim)) / np.sqrt(dim)
        circuit.add_gate(SingleQuditUnitary(fourier), 2)
        circuit.add_gate(XPerm.transposition(dim, 0, 1), 0, [(2, Value(1))])
        return circuit

    def test_block_matches_the_per_amplitude_reference(self):
        from repro.sim import circuit_unitary

        circuit = self.circuit()
        for data, clean in (([0, 2], [1]), ([2, 0], [1]), ([2], [1])):
            block, leakage = loop_clean_subspace(circuit_unitary(circuit), 3, 3, data, clean)
            assert leakage == 0.0
            assert checks.unitary_clean_subspace(circuit, block, data, clean, atol=0) == len(block)

    def test_leak_into_a_nonzero_ancilla_state(self):
        circuit = self.circuit()
        circuit.add_gate(XPerm.transposition(3, 0, 1), 1)  # writes the clean wire
        leak = "leaks amplitude 5.774e-01 into non-zero ancilla states"
        with pytest.raises(VerificationError, match=leak):
            checks.unitary_clean_subspace(circuit, np.eye(9), [0, 2], [1])

    def test_wrong_data_unitary(self):
        circuit = self.circuit()
        with pytest.raises(
            VerificationError, match="deviates .* on the clean-ancilla subspace"
        ):
            checks.unitary_clean_subspace(circuit, np.eye(9), [0, 2], [1])


# ----------------------------------------------------------------------
# Classical checks on a circuit with a dense-unitary row fail, not raise
# ----------------------------------------------------------------------
class TestClassicalChecksOnUnitaryRows:
    @staticmethod
    def circuit():
        circuit = QuditCircuit(2, 3, name="eye")
        circuit.add_gate(XPerm.transposition(3, 0, 1), 0)
        circuit.add_gate(SingleQuditUnitary(np.eye(3), label="I3"), 1)
        return circuit

    EXPECTED = (
        "circuit 'eye' row 1 applies the dense unitary gate 'I3'; "
        "a basis-state check needs a permutation circuit"
    )

    @pytest.mark.parametrize("budget", ["standard", "smoke"])
    @pytest.mark.parametrize("method", ["permutation", "wires"])
    def test_failed_report_names_the_first_unitary_row(self, budget, method):
        verifier = TieredVerifier(budget)
        circuit = self.circuit()
        if method == "permutation":
            report = verifier.verify_permutation(circuit, mct_spec([0], 1, 3))
        else:
            report = verifier.verify_wires_preserved(circuit, [0])
        assert report.status == "failed"
        assert report.decided_by == "structural"
        assert report.error == self.EXPECTED
        assert not report.ok
