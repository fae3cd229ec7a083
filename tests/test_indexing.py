"""Tests for digit/index conversions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionError, WireError
from repro.utils.indexing import digits_to_index, index_to_digits, iterate_basis


class TestConversions:
    def test_big_endian_convention(self):
        # wire 0 is the most significant digit
        assert digits_to_index((1, 0, 2), 3) == 11
        assert index_to_digits(11, 3, 3) == (1, 0, 2)

    def test_zero(self):
        assert digits_to_index((0, 0), 5) == 0

    def test_digit_out_of_range(self):
        with pytest.raises(WireError):
            digits_to_index((3,), 3)

    def test_index_out_of_range(self):
        with pytest.raises(WireError):
            index_to_digits(9, 3, 2)

    def test_bad_dimension(self):
        with pytest.raises(DimensionError):
            digits_to_index((0,), 1)
        with pytest.raises(DimensionError):
            index_to_digits(0, 1, 1)

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, dim, wires, raw):
        index = raw % dim**wires
        assert digits_to_index(index_to_digits(index, dim, wires), dim) == index

    def test_iterate_basis_covers_everything(self):
        states = list(iterate_basis(3, 2))
        assert len(states) == 9
        assert states[0] == (0, 0)
        assert states[-1] == (2, 2)
        assert len(set(states)) == 9


def test_int64_basis_boundary_is_the_largest_flat_index():
    from repro.utils.indexing import require_int64_basis

    # 2^63 states: the largest flat index 2^63 - 1 still fits an int64.
    assert require_int64_basis(2, 63, "t") == 2**63
    with pytest.raises(WireError, match="int64 flat-index range"):
        require_int64_basis(2, 64, "t")
