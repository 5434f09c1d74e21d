"""Sum-form uncertainty lower bounds for collections of observables.

The object here is a nonnegative m x n matrix whose rows are the sampled
coordinate vectors of m observables under one state; the quantity being
bounded from below is the Frobenius total sum_i |X^i|^2 = sum_i I(A^i).

Two families:

  B2   drops a single squared gap (x_ab - x_cd)^2 between two cells; the
       sharpest member picks the closest pair of cells.
  LMa  averages pairwise sums and differences of the rows,
       [sum_{i<j} |X^i + X^j|^2 + (2/(m(m-1))) (sum_{i<j} |X^i - X^j|)^2]
       / (2(m-1)), which collapses to the exact total at m = 2 by the
       parallelogram law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from .bounds_product import BoundResult
from .metric import GammaFactorization, Observable, sampled_coords

SUM_CHAIN_TOL = 1e-9

Cell = tuple[int, int]


def _as_sample_matrix(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"sample matrix must be 2-d and nonempty, got shape {a.shape}")
    if np.min(a) < 0.0:
        raise ValueError("sampled coordinates must be nonnegative")
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SampledMatrix:
    """Rows of sampled coordinates, one per observable."""

    values: np.ndarray
    labels: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_sample_matrix(self.values))
        if self.labels and len(self.labels) != self.values.shape[0]:
            raise ValueError("one label per row required")

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def total(self) -> float:
        return float(np.sum(self.values * self.values))


def sampled_matrix(gf: GammaFactorization, observables: Sequence[Observable]) -> SampledMatrix:
    if len(observables) < 1:
        raise ValueError("at least one observable required")
    rows = np.stack([sampled_coords(gf, obs) for obs in observables])
    return SampledMatrix(values=rows, labels=tuple(obs.name for obs in observables))


def _check_cell(x: SampledMatrix, cell: Cell) -> Cell:
    r, c = int(cell[0]), int(cell[1])
    if not (1 <= r <= x.m and 1 <= c <= x.n):
        raise ValueError(f"cell {cell} outside 1..{x.m} x 1..{x.n}")
    return (r, c)


def bound_b2_cell(x: SampledMatrix, cell1: Cell, cell2: Cell) -> BoundResult:
    """Total minus the squared gap between two distinct cells (1-based)."""
    c1 = _check_cell(x, cell1)
    c2 = _check_cell(x, cell2)
    if c1 == c2:
        raise ValueError(f"cells must be distinct, both are {c1}")
    v1 = x.values[c1[0] - 1, c1[1] - 1]
    v2 = x.values[c2[0] - 1, c2[1] - 1]
    value = x.total - (v1 - v2) ** 2
    return BoundResult(family="B2", value=float(value), params={"cells": (c1, c2)})


# Cap on the cell pairs scored in one block of bound_b2_max; the block's
# arrays then take a few hundred KB, and no (mn) x (mn) array is formed.
_B2_BLOCK_PAIRS = 2**14


def bound_b2_max(x: SampledMatrix) -> BoundResult:
    """Sharpest two-cell bound: exhaustive over unordered cell pairs.

    Cells are numbered row-major, and pairs (i, j), i < j, are scored in
    lexicographic order, in blocks of whole rows i.  The first minimum within
    a block and a strict < across blocks let the lexicographically smallest
    cell pair win ties, as scoring the pairs one at a time would.
    """
    if x.m * x.n < 2:
        raise ValueError("need at least two cells")
    flat = x.values.reshape(-1)
    cells = flat.size
    step = max(1, _B2_BLOCK_PAIRS // cells)
    best_gap = best_pair = None
    for lo in range(0, cells - 1, step):
        # every pair (i, j) with lo <= i < lo + step and i < j, in lexicographic order
        i, j = np.nonzero(np.arange(cells) > np.arange(lo, min(lo + step, cells - 1))[:, None])
        i += lo
        gaps = (flat[i] - flat[j]) ** 2
        t = int(np.argmin(gaps))
        if best_gap is None or gaps[t] < best_gap:  # strict: an earlier block keeps a tie
            best_gap, best_pair = gaps[t], (int(i[t]), int(j[t]))
    best_cells = tuple((c // x.n + 1, c % x.n + 1) for c in best_pair)
    value = x.total - best_gap
    return BoundResult(family="B2", value=float(value), params={"cells": best_cells})


def bound_b2_q(x: SampledMatrix, q: float) -> BoundResult:
    """Interpolation q * B2 + (1 - q) * total; q = 0 is the bare total."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    b2 = bound_b2_max(x)
    value = q * b2.value + (1.0 - q) * x.total
    return BoundResult(family="B2q", value=float(value), params={"q": float(q), "cells": b2.params["cells"]})


def bound_lma(x: SampledMatrix) -> BoundResult:
    """Pairwise sum-and-difference bound over all rows (needs m >= 2)."""
    m = x.m
    if m < 2:
        raise ValueError(f"need at least two observables, got {m}")
    rows = x.values
    sum_sq = 0.0
    diff_norms = []
    for i, j in combinations(range(m), 2):
        sum_sq += float(np.sum((rows[i] + rows[j]) ** 2))
        diff_norms.append(float(np.linalg.norm(rows[i] - rows[j])))
    diffs = np.array(diff_norms)
    n_pairs = len(diff_norms)
    # guard: n_pairs * sum a^2 >= (sum a)^2, so the bound cannot exceed total
    gap = n_pairs * float(np.sum(diffs * diffs)) - float(np.sum(diffs)) ** 2
    if gap < -SUM_CHAIN_TOL * (1.0 + x.total):
        raise ValueError(f"pairwise norm inequality violated by {gap:.3e}")
    value = (sum_sq + (2.0 / (m * (m - 1))) * float(np.sum(diffs)) ** 2) / (2.0 * (m - 1))
    return BoundResult(family="LMa", value=float(value), params={"m": m})


def parallelogram_residual(x: SampledMatrix) -> float:
    """|total - mean over pairs of (|X^i+X^j|^2 + |X^i-X^j|^2) / 2| scaled by (m-1)."""
    m = x.m
    if m < 2:
        raise ValueError(f"need at least two observables, got {m}")
    acc = 0.0
    for i, j in combinations(range(m), 2):
        acc += float(np.sum((x.values[i] + x.values[j]) ** 2))
        acc += float(np.sum((x.values[i] - x.values[j]) ** 2))
    return abs(x.total - acc / (2.0 * (m - 1)))
