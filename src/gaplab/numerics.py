"""Dense float64 building blocks shared by every other module.

Everything here is a pure function of its inputs: input validation (also the
scalar rule, type and bounds, of every argument and config field), the
float64 range rule and row normalization.
The losses and recall_at_k build their similarity products with BLAS; the
einsum similarity and row cross-entropy oracles live in the tests.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys

import numpy as np

__all__ = [
    "as_matrix",
    "l2_normalize_rows",
]

_NORM_FLOOR = 1e-12  # rows with a smaller norm count as degenerate
# Rows per block of every _row_blocks loop whose per-row steps would otherwise
# make an n x d (or n x n) temporary.
_BLOCK_ROWS = 256


def _row_blocks(n: int, rows: int = 0):
    """The slices lo:min(lo + rows, n) that cover range(n) in order; rows
    defaults to _BLOCK_ROWS, read at each call."""
    rows = rows or _BLOCK_ROWS
    return (slice(lo, min(lo + rows, n)) for lo in range(0, n, rows))


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array with >= 1 row and column and finite entries."""
    return _checked_matrix(values, name)[0]


def _checked_matrix(values, name: str) -> tuple[np.ndarray, float]:
    """as_matrix's array and its largest |entry|, the one check of every input
    matrix. One max and one min reduction, with no temporary, are also the
    finiteness scan: NaN reaches both and an infinity is an extreme."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} needs at least one row and one column, got {m.shape}")
    hi, lo = float(m.max()), float(m.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m, max(hi, -lo)


def _paired_inputs(v, t) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(V, T, max |V|, max |T|) for an image and a text matrix of one shape:
    the pair check of gap_report, mean_center, recall and the losses."""
    (v, v_top), (t, t_top) = _checked_matrix(v, "images"), _checked_matrix(t, "texts")
    if v.shape[0] != t.shape[0]:
        raise ValueError(f"pair count mismatch: {v.shape[0]} images vs {t.shape[0]} texts")
    if v.shape[1] != t.shape[1]:
        raise ValueError(f"embedding dim mismatch: {v.shape[1]} vs {t.shape[1]}")
    return v, t, v_top, t_top


def _checked_labels(labels, n: int) -> np.ndarray | None:
    """Optional class labels as an int64 vector of length n, or None."""
    if labels is None:
        return None
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != n:
        raise ValueError(f"labels must have length {n}, got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    return labels.astype(np.int64)


def _scalar(value, name: str, integer: bool = False, low=None, high=None, above=None, below=None):
    """value as an int (integer: any integer but a bool, NumPy's too) or a float
    (any real number but a bool) within the float64 range, the closed bounds
    low and high and the open bounds above and below where given, or a
    ValueError that names it: the one rule, type and range, of every scalar
    argument and config field. The value is checked against a bound after the
    cast; a refusal prints the bounds as passed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    number = value.item() if isinstance(value, np.generic) else value  # a NumPy scalar as Python's
    if not abs(number) <= sys.float_info.max:  # exact for integers and fractions of any size
        raise ValueError(f"{name} must be finite, got {value!r}")
    number = int(number) if integer else float(number)
    if (low is not None and number < low or above is not None and number <= above
            or high is not None and number > high or below is not None and number >= below):
        lower = (">=", "[", low) if above is None else (">", "(", above)
        upper = ("<=", "]", high) if below is None else ("<", ")", below)
        if lower[2] is None or upper[2] is None:  # one end: ">= low", "> above", "<= high" or "< below"
            op, _, end = upper if lower[2] is None else lower
            bound = f"{op} {end}"
        else:
            bound = f"in {lower[1]}{lower[2]}, {upper[2]}{upper[1]}"
        raise ValueError(f"{name} must be {bound}, got {number!r}")
    return number


def _check_fields(config) -> None:
    """The type and range rule that each config dataclass's __post_init__ runs
    first: an int or float field holds what _scalar returns for it, within the
    bounds its metadata declares ({"low": ..., "high": ...} closed, {"above":
    ..., "below": ...} open); a field whose default factory is a config class
    holds an instance of that class."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type in (int, "int", float, "float"):
            object.__setattr__(config, f.name, _scalar(value, f.name, f.type in (int, "int"), **f.metadata))
        elif dataclasses.is_dataclass(f.default_factory) and not isinstance(value, f.default_factory):
            raise ValueError(f"{f.name} must be a {f.default_factory.__name__}, got {value!r}")


# Unit roundoffs, and the smallest normal numbers, of float32 and float64.
_U32, _U64 = 2.0**-24, 2.0**-53
_TINY32, _TINY64 = 2.0**-126, 2.0**-1022


def _check_products(terms: int, a_max: float, b_max: float, what: str) -> None:
    """Raise ValueError when float64 products of entries no larger than a_max
    and b_max could overflow, summed ``terms`` at a time, or underflow: the
    one float64 range rule of every input check, made before any work.

    terms * a_max * b_max (a Python float, which goes to inf without a
    warning) must stay within half the float64 maximum: every partial sum,
    rounding included, is then finite. a_max b_max >= 2^-969 (tiny64 / u64)
    keeps the 2^-1075 an underflow can cost each product or sum below u64^2
    of the largest product.
    """
    if terms * a_max * b_max > np.finfo(np.float64).max / 2:
        raise ValueError(f"{what} have entries up to {max(a_max, b_max):.3g}, "
                         "so their float64 sums of products can overflow")
    if a_max * b_max < _TINY64 / _U64:
        raise ValueError(f"{what} have entries only up to {min(a_max, b_max):.3g}: float64 underflows")


def l2_normalize_rows(m) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row to unit Euclidean norm.

    Rows whose norm is below 1e-12 are returned unchanged and flagged in the
    boolean mask (second return value) instead of raising; callers decide what
    a degenerate row means for them. Each row's norm is taken after the exact
    scaling by the power of two that takes its largest |entry| into [1/2, 1),
    so it neither overflows nor underflows.
    """
    m = as_matrix(m)
    exps = -np.frexp(np.maximum(m.max(axis=1), -m.min(axis=1)))[1]
    unit = np.ldexp(m, exps[:, None])
    norms = np.linalg.norm(unit, axis=1)
    with np.errstate(over="ignore"):  # an unscaled norm beyond float64 is not degenerate
        degenerate = np.ldexp(norms, -exps) < _NORM_FLOOR
    np.divide(unit, norms[:, None], out=unit, where=~degenerate[:, None])
    unit[degenerate] = m[degenerate]
    return unit, degenerate


def _normalize_rows(m: np.ndarray, out=None):
    """l2_normalize_rows of a validated matrix, unscaled, plus the row norms it divided by.

    ``out`` receives the unit rows (it may be m itself); the norms still take
    an m-sized temporary, so callers with large m pass it in row blocks.
    """
    norms = np.linalg.norm(m, axis=1)
    degenerate = norms < _NORM_FLOOR
    safe = np.where(degenerate, 1.0, norms)
    return np.divide(m, safe[:, None], out=out), norms, degenerate
