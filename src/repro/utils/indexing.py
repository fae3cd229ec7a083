"""Conversions between computational-basis labels and flat indices.

A basis state of ``n`` qudits of dimension ``d`` is written as a tuple of
digits ``(x_0, ..., x_{n-1})`` with wire 0 as the most significant digit, so
that the flat index of ``|x_0 ... x_{n-1}⟩`` is the base-``d`` number
``x_0 x_1 ... x_{n-1}``.  This matches the usual tensor-product ordering
``wire0 ⊗ wire1 ⊗ ...`` used by the dense simulators.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple, Type

import numpy as np

from repro.exceptions import DimensionError, ReproError, WireError

#: Largest flat basis index representable by the batched int64 index paths.
INT64_MAX = int(np.iinfo(np.int64).max)


def require_int64_basis(
    dim: int, num_wires: int, context: str, error: Type[ReproError] = WireError
) -> int:
    """Return ``d^n``, or raise ``error`` when flat indices overflow ``int64``.

    The batched index paths encode basis states as flat ``int64`` indices;
    once the largest one, ``d^n - 1``, passes ``2^63 - 1`` the stride
    arithmetic cannot represent the register, so refuse it up front with an
    error that names the range.
    """
    size = int(dim) ** int(num_wires)
    if size - 1 > INT64_MAX:
        raise error(
            f"{context}: basis of {dim}^{num_wires} states exceeds the int64 "
            f"flat-index range (largest index 2^63 - 1); this register is too "
            f"large for the batched index paths"
        )
    return size


def digits_to_index(digits: Sequence[int], dim: int) -> int:
    """Convert a digit tuple (wire 0 most significant) to a flat index."""
    if dim < 2:
        raise DimensionError(f"dimension must be at least 2, got {dim}")
    index = 0
    for digit in digits:
        if not 0 <= digit < dim:
            raise WireError(f"digit {digit} out of range for dimension {dim}")
        index = index * dim + digit
    return index


def index_to_digits(index: int, dim: int, num_wires: int) -> Tuple[int, ...]:
    """Convert a flat index back to a digit tuple of length ``num_wires``."""
    if dim < 2:
        raise DimensionError(f"dimension must be at least 2, got {dim}")
    if not 0 <= index < dim**num_wires:
        raise WireError(f"index {index} out of range for {num_wires} wires of dimension {dim}")
    digits = [0] * num_wires
    for position in range(num_wires - 1, -1, -1):
        digits[position] = index % dim
        index //= dim
    return tuple(digits)


def iterate_basis(dim: int, num_wires: int) -> Iterator[Tuple[int, ...]]:
    """Iterate over every computational-basis digit tuple in index order."""
    for index in range(dim**num_wires):
        yield index_to_digits(index, dim, num_wires)


def indices_to_digits(indices, dim: int, num_wires: int) -> np.ndarray:
    """Vectorized :func:`index_to_digits`: digits of many flat indices at once.

    Returns an integer array of shape ``indices.shape + (num_wires,)`` whose
    last axis holds the digit tuple (wire 0 most significant).  Digits are
    peeled from the least significant wire up, each one a remainder and an
    in-place floor division by the scalar ``dim`` (numpy's fast path for a
    scalar integer divisor).
    """
    if dim < 2:
        raise DimensionError(f"dimension must be at least 2, got {dim}")
    quotient = np.array(indices, dtype=np.int64)
    digits = np.empty(quotient.shape + (num_wires,), dtype=np.int64)
    for wire in range(num_wires - 1, -1, -1):
        np.remainder(quotient, dim, out=digits[..., wire])
        quotient //= dim
    return digits
