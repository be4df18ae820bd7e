"""Reference computations and sizes that tests read and the program does not.

The norm and SVD paths of scale_operator are tested against the dense
weighted matrix and the Gram eigensolve reference, and op_norm's
matrix-free certificate is read alone; min_grid_points is the smallest
grid the 3/2-rule admits, which the grid bridge must handle.
"""

from __future__ import annotations

import numpy as np

from floerlab.scale_operator import (
    LevelOperator,
    _flat_weights,
    _gram_top,
    _matrix_free_top,
    _real_form,
    _symbol_screen,
    adjoint,
)
from floerlab.scale_space import check_level


def min_grid_points(N: int) -> int:
    """3/2-rule minimum 2M with M = ceil(3N/2)."""
    return 2 * ((3 * N + 1) // 2)


def weighted_matrix(T: LevelOperator, a: float, b: float) -> np.ndarray:
    """The dense complex W_b^{1/2} T W_a^{-1/2}, the reference every path is tested against."""
    a, b = check_level(a), check_level(b)
    wa = _flat_weights(T.N, T.n, a)
    wb = _flat_weights(T.N, T.n, b)
    return np.sqrt(wb)[:, None] * T.matrix / np.sqrt(wa)[None, :]


def _gram_norm(T: LevelOperator, a: float, b: float) -> float:
    """sigma_max from the top eigenvalue of the dense Gram matrix R^T R of the real form.

    The reference for the Gram fallback of op_norms, which gives its bits.
    """
    return _gram_top(_real_form(T, a, b))


def _matrix_free_alone(T: LevelOperator, a: float, b: float) -> float | None:
    """The sigma_max^2 a one-pair op_norm certifies matrix-free, or None.

    T is a pure multiplication operator.  None where its symbol screen
    does not admit the pair or the iteration stalls; otherwise op_norm(T,
    a, b) is the square root of the value, bit for bit.
    """
    screen = _symbol_screen(T, a, b)
    return None if screen is None else _matrix_free_top(T, adjoint(T), a, b, *screen)
