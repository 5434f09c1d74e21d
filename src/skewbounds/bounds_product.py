"""Product-form uncertainty lower bounds.

Given nonnegative coordinate vectors x, y sampled from two observables, the
product (sum x^2)(sum y^2) is whittled down toward (sum x_i y_i)^2 by
subtracting Lagrange-identity cross terms (x_i y_j - x_j y_i)^2.  Three
families arise from which terms are subtracted:

  I_k     subtracts every cross term inside the leading k coordinates;
  S_(p,q) walks the cross terms one at a time in lexicographic pair order;
  K over a subset splits the index set in two and applies Cauchy-Schwarz
          to each block separately.

All chains interpolate between the full product and the squared diagonal
overlap (sum x_i y_i)^2, which itself upper-bounds the squared correlation.
Coordinate labels (k, subset members, pair indices) are 1-based to match the
bound names; permutations are 0-based index tuples acting by reindexing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ChainViolationError
from .metric import GammaFactorization, Observable, correlation_quadratic, sampled_coords

PAIR_CONSISTENCY_TOL = 1e-9
CHAIN_TOL = 1e-12
LAGRANGE_TOL = 1e-10


def _as_coord_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ValueError(f"coordinate vector must be 1-d and nonempty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("sampled coordinates must be finite")
    if np.min(a) < 0.0:
        raise ValueError("sampled coordinates must be nonnegative")
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class BoundInputPair:
    """Sampled coordinates of two observables plus their scalar invariants.

    product = (sum x^2)(sum y^2); corr_abs_sq = (sum x_i y_i)^2 is the chain
    terminus and always sits between corr_sq and product.  corr_sq defaults
    to corr_abs_sq.
    """

    x: np.ndarray
    y: np.ndarray
    corr_sq: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _as_coord_vector(self.x))
        object.__setattr__(self, "y", _as_coord_vector(self.y))
        if self.x.shape != self.y.shape:
            raise ValueError(f"length mismatch: x has {self.x.shape[0]}, y has {self.y.shape[0]}")
        if self.corr_sq is None:
            object.__setattr__(self, "corr_sq", self.corr_abs_sq)
        product = self.product
        if not math.isfinite(product):
            raise ValueError("product (sum x^2)(sum y^2) overflows")
        if not math.isfinite(self.corr_sq):
            raise ValueError(f"corr_sq must be finite, got {self.corr_sq!r}")
        slack = PAIR_CONSISTENCY_TOL * (1.0 + product)
        if self.corr_abs_sq > product + slack:
            raise ValueError(
                f"corr_abs_sq {self.corr_abs_sq:.12g} exceeds product {product:.12g}"
            )
        if self.corr_sq > self.corr_abs_sq + slack:
            raise ValueError(
                f"corr_sq {self.corr_sq:.12g} exceeds corr_abs_sq {self.corr_abs_sq:.12g}"
            )

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def product(self) -> float:
        return float(self.x @ self.x) * float(self.y @ self.y)

    @property
    def corr_abs_sq(self) -> float:
        return float(self.x @ self.y) ** 2

    @classmethod
    def from_vectors(cls, x, y, corr_sq: float | None = None) -> "BoundInputPair":
        return cls(x=x, y=y, corr_sq=None if corr_sq is None else float(corr_sq))

    @classmethod
    def from_observables(
        cls, gf: GammaFactorization, a: Observable, b: Observable
    ) -> "BoundInputPair":
        x = sampled_coords(gf, a)
        y = sampled_coords(gf, b)
        corr_sq = abs(correlation_quadratic(gf, a, b)) ** 2
        return cls(x=x, y=y, corr_sq=corr_sq)


@dataclass(frozen=True)
class BoundResult:
    """A single evaluated lower bound: family label, value, parameters."""

    family: str
    value: float
    params: dict = field(default_factory=dict)


def f_cs(x, y, subset: Iterable[int]) -> float:
    """Squared diagonal overlap (sum over the subset of x_i y_i)^2, 1-based."""
    xv = _as_coord_vector(x)
    yv = _as_coord_vector(y)
    if xv.shape != yv.shape:
        raise ValueError("f_cs requires vectors of equal length")
    idx = _subset_indices(subset, xv.shape[0])
    return float(np.sum(xv[idx] * yv[idx])) ** 2


def _subset_indices(subset: Iterable[int], n: int) -> np.ndarray:
    members = list(subset)
    if len(set(members)) != len(members):
        raise ValueError(f"subset has repeated members: {members}")
    for m in members:
        if not 1 <= int(m) <= n:
            raise ValueError(f"subset member {m} outside 1..{n}")
    return np.array(sorted(int(m) - 1 for m in members), dtype=np.intp)


def _check_permutation(perm: Sequence[int], n: int) -> tuple[int, ...]:
    t = tuple(int(i) for i in perm)
    if sorted(t) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {t}")
    return t


def _prefix_correction(x: np.ndarray, y: np.ndarray, k: int) -> float:
    if k < 2:
        return 0.0
    cross = np.outer(x[:k], y[:k])
    return 0.5 * float(np.sum((cross - cross.T) ** 2))


def chain_pairs(n: int) -> list[tuple[int, int]]:
    """Lexicographic walk (2,1), (3,1), (3,2), (4,1), ... over index pairs."""
    return [(p, q) for p in range(2, n + 1) for q in range(1, p)]


def bound_ik(pair: BoundInputPair, k: int) -> BoundResult:
    """Leading-block bound: product minus all cross terms among coords 1..k."""
    if not 1 <= k <= pair.n:
        raise ValueError(f"k must lie in 1..{pair.n}, got {k}")
    value = pair.product - _prefix_correction(pair.x, pair.y, k)
    return BoundResult(family="I", value=value, params={"k": k})


def bound_ik_perm(pair: BoundInputPair, k: int, sigma: Sequence[int], tau: Sequence[int]) -> BoundResult:
    """I_k after reindexing x by sigma and y by tau (0-based tuples)."""
    if not 1 <= k <= pair.n:
        raise ValueError(f"k must lie in 1..{pair.n}, got {k}")
    s = _check_permutation(sigma, pair.n)
    t = _check_permutation(tau, pair.n)
    xs = pair.x[np.array(s)]
    yt = pair.y[np.array(t)]
    value = pair.product - _prefix_correction(xs, yt, k)
    return BoundResult(family="I", value=value, params={"k": k, "sigma": s, "tau": t})


def _spq_rank(p_idx: int, q_idx: int, n: int) -> int:
    # number of chain pairs up to and including (p_idx, q_idx)
    if (p_idx, q_idx) == (1, 0):
        return 0
    if not 1 <= q_idx < p_idx <= n:
        raise ValueError(f"pair indices must satisfy 1 <= q < p <= {n}, got ({p_idx}, {q_idx})")
    return (p_idx - 1) * (p_idx - 2) // 2 + q_idx


def _s_chain(x: np.ndarray, y: np.ndarray, product: float) -> np.ndarray:
    # the whole S chain as one left fold: entry r is the member of rank r;
    # the row-major strict lower triangle is exactly the chain_pairs order
    p, q = np.tril_indices(x.shape[0], -1)
    terms = (x[p] * y[q] - x[q] * y[p]) ** 2
    return np.subtract.accumulate(np.concatenate(([product], terms)))


def bound_spq(pair: BoundInputPair, p_idx: int, q_idx: int) -> BoundResult:
    """Stepwise bound along the pair chain; (1, 0) is the bare product."""
    rank = _spq_rank(p_idx, q_idx, pair.n)
    value = float(_s_chain(pair.x, pair.y, pair.product)[rank])
    return BoundResult(family="S", value=value, params={"p": p_idx, "q": q_idx})


def bound_spq_perm(
    pair: BoundInputPair, p_idx: int, q_idx: int, sigma: Sequence[int], tau: Sequence[int]
) -> BoundResult:
    s = _check_permutation(sigma, pair.n)
    t = _check_permutation(tau, pair.n)
    rank = _spq_rank(p_idx, q_idx, pair.n)
    value = float(_s_chain(pair.x[np.array(s)], pair.y[np.array(t)], pair.product)[rank])
    return BoundResult(family="S", value=value, params={"p": p_idx, "q": q_idx, "sigma": s, "tau": t})


def bound_k_subset(pair: BoundInputPair, subset: Iterable[int]) -> BoundResult:
    """Two-block Cauchy-Schwarz bound for a subset and its complement.

    Symmetric under complementation bit for bit: both block sums are formed
    by direct masked summation, never by subtracting from the total.
    """
    idx = _subset_indices(subset, pair.n)
    mask = np.zeros(pair.n, dtype=bool)
    mask[idx] = True
    x2 = pair.x * pair.x
    y2 = pair.y * pair.y
    inner = float(np.sum(x2[mask])) * float(np.sum(y2[mask]))
    outer = float(np.sum(x2[~mask])) * float(np.sum(y2[~mask]))
    value = (np.sqrt(inner) + np.sqrt(outer)) ** 2
    return BoundResult(family="K", value=float(value), params={"subset": tuple(int(i) + 1 for i in idx)})


def bound_k_prefix(pair: BoundInputPair, k: int) -> BoundResult:
    """K over the leading k coordinates {1..k}."""
    if not 0 <= k <= pair.n:
        raise ValueError(f"prefix size must lie in 0..{pair.n}, got {k}")
    result = bound_k_subset(pair, range(1, k + 1))
    return BoundResult(family="K", value=result.value, params={"k": k, "subset": result.params["subset"]})


def convex_combo(results: Sequence[BoundResult], weights: Sequence[float]) -> BoundResult:
    """Convex combination of already-evaluated bounds.

    Linear in the weights, so maxima over weight simplices sit at vertices.
    The weighted values are added left to right.
    """
    w = np.asarray(weights, dtype=np.float64)
    if len(results) != w.shape[0]:
        raise ValueError(f"{len(results)} bounds but {w.shape[0]} weights")
    if w.ndim != 1 or not np.all(w >= 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1")
    value = float(sum(wk * r.value for wk, r in zip(w, results)))
    return BoundResult(
        family="convex",
        value=value,
        params={"weights": tuple(float(v) for v in w), "members": tuple(r.family for r in results)},
    )


def chain_report(pair: BoundInputPair) -> list[BoundResult]:
    """Evaluate every identity-parameter bound and verify the orderings.

    Returns product, I_1..I_n, the full S chain, prefix K_1..K_n, then
    corr_abs_sq and corr_sq.  Raises ChainViolationError if any monotonicity
    or sandwich constraint fails beyond numerical tolerance.

    Cost O(n^2): the S chain is one left fold and each I_k, K_k one vectorised
    call (the I_k block sums keep bound_ik's order: O(n^3) numpy additions).
    """
    n = pair.n
    tol = CHAIN_TOL * (1.0 + abs(pair.product))
    results: list[BoundResult] = [BoundResult("product", pair.product, {})]

    i_values = [bound_ik(pair, k) for k in range(1, n + 1)]
    for prev, cur in zip(i_values, i_values[1:]):
        if cur.value > prev.value + tol:
            raise ChainViolationError(
                f"I_{cur.params['k']} = {cur.value:.12g} exceeds I_{prev.params['k']} = {prev.value:.12g}"
            )
    if abs(i_values[0].value - pair.product) > tol:
        raise ChainViolationError("I_1 must equal the bare product")

    s_chain = _s_chain(pair.x, pair.y, pair.product)[1:].tolist()
    s_values = [BoundResult("S", v, {"p": p, "q": q}) for (p, q), v in zip(chain_pairs(n), s_chain)]
    prev_value = pair.product
    for cur in s_values:
        if cur.value > prev_value + tol:
            raise ChainViolationError(
                f"S_({cur.params['p']},{cur.params['q']}) = {cur.value:.12g} "
                f"rises above its predecessor {prev_value:.12g}"
            )
        prev_value = cur.value
    terminus = s_values[-1].value if s_values else pair.product
    if abs(terminus - pair.corr_abs_sq) > LAGRANGE_TOL * (1.0 + abs(pair.product)):
        raise ChainViolationError(
            f"chain terminus {terminus:.12g} differs from corr_abs_sq {pair.corr_abs_sq:.12g}"
        )

    k_values = [bound_k_prefix(pair, k) for k in range(1, n + 1)]
    for cur in k_values:
        if cur.value > pair.product + tol or cur.value < pair.corr_abs_sq - tol:
            raise ChainViolationError(
                f"K_{cur.params['k']} = {cur.value:.12g} leaves "
                f"[{pair.corr_abs_sq:.12g}, {pair.product:.12g}]"
            )

    results.extend(i_values)
    results.extend(s_values)
    results.extend(k_values)
    results.append(BoundResult("corr_abs_sq", pair.corr_abs_sq, {}))
    results.append(BoundResult("corr_sq", pair.corr_sq, {}))
    return results
