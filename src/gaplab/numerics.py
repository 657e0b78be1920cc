"""Dense float64 building blocks shared by every other module.

Everything here is a pure function of its inputs: matrix validation, row
normalization and a deterministic 2-D PCA projection. The losses and
recall_at_k build their similarity products with BLAS; the einsum similarity
and row cross-entropy oracles they are checked against live in the tests.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "l2_normalize_rows",
    "pca_project_2d",
]

_NORM_FLOOR = 1e-12  # rows with a smaller norm count as degenerate


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array with >= 1 row and column and finite entries."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} needs at least one row and one column, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def _paired_inputs(v, t) -> tuple[np.ndarray, np.ndarray]:
    """(V, T) as validated matrices of one shape: the losses' and recall's input check."""
    v = as_matrix(v, "V")
    t = as_matrix(t, "T")
    if v.shape != t.shape:
        raise ValueError(f"V and T must share a shape, got {v.shape} vs {t.shape}")
    return v, t


def _max_abs(m: np.ndarray) -> float:
    """Largest |entry| of a finite matrix, with no m-sized temporary."""
    return max(float(m.max()), -float(m.min()))


def _check_product_sums(terms: int, a_max: float, b_max: float, what: str) -> None:
    """Raise ValueError when a float64 sum of ``terms`` products of two entries
    no larger than a_max and b_max could overflow.

    terms * a_max * b_max (a Python float, which goes to inf without a
    warning) must stay within half the float64 maximum: every partial sum,
    rounding included, is then finite.
    """
    if terms * a_max * b_max > np.finfo(np.float64).max / 2:
        raise ValueError(f"{what} have entries up to {max(a_max, b_max):.3g}, "
                         "so their float64 sums of products can overflow")


def l2_normalize_rows(m) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row to unit Euclidean norm.

    Rows whose norm is below 1e-12 are returned unchanged and flagged in the
    boolean mask (second return value) instead of raising; callers decide what
    a degenerate row means for them.
    """
    unit, _, degenerate = _normalize_rows(as_matrix(m))
    return unit, degenerate


def _normalize_rows(m: np.ndarray, out=None):
    """l2_normalize_rows of a validated matrix, plus the row norms it divided by.

    ``out`` receives the unit rows (it may be m itself); the norms still take
    an m-sized temporary, so callers with large m pass it in row blocks.
    """
    norms = np.linalg.norm(m, axis=1)
    degenerate = norms < _NORM_FLOOR
    safe = np.where(degenerate, 1.0, norms)
    return np.divide(m, safe[:, None], out=out), norms, degenerate


def pca_project_2d(m) -> np.ndarray:
    """Project rows onto the top-2 principal components of the centered data.

    Sign convention: each component's largest-magnitude loading is made
    positive, so the projection is deterministic across runs.
    """
    m = as_matrix(m)
    if m.shape[0] < 2:
        raise ValueError(f"need at least 2 rows, got {m.shape[0]}")
    if m.shape[1] < 2:
        raise ValueError(f"need at least 2 columns, got {m.shape[1]}")

    centered = m - m.mean(axis=0)
    scatter = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(scatter)
    components = eigvecs[:, ::-1][:, :2].copy()  # eigh is ascending
    for j in range(2):
        lead = np.argmax(np.abs(components[:, j]))
        if components[lead, j] < 0:
            components[:, j] = -components[:, j]
    return centered @ components
