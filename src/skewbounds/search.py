"""Search over permuted and subset-indexed bound variants.

The permutation action only enters a bound through the induced pairing of
coordinate indices, so exhaustive search enumerates ordered k-tuples of
distinct indices for each side rather than whole permutation groups.  When
that reduced space exceeds the enumeration guard, seeded sampling plus
greedy adjacent-transposition hill climbing takes over.  Every search seeds
its candidate list with the identity, so the returned best is never worse
than the unpermuted bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb, perm
from typing import Sequence

import numpy as np

from .bounds_product import BoundInputPair, BoundResult, chain_pairs
from .errors import SpaceTooLargeError

EXHAUSTIVE_GUARD = 10**6

_STRATEGY_KINDS = ("exhaustive", "random_sample", "greedy_swap", "hybrid")


@dataclass(frozen=True)
class SearchStrategy:
    kind: str = "hybrid"
    seed: int = 0
    sample_count: int = 2000
    swap_rounds: int = 50

    def __post_init__(self) -> None:
        if self.kind not in _STRATEGY_KINDS:
            raise ValueError(f"strategy kind must be one of {_STRATEGY_KINDS}, got {self.kind!r}")
        if self.sample_count < 1 or self.swap_rounds < 0:
            raise ValueError("sample_count must be >= 1 and swap_rounds >= 0")


@dataclass(frozen=True)
class SearchOutcome:
    best: BoundResult
    evaluations: int
    certified_exact: bool


def _full_perm(prefix: Sequence[int], n: int) -> tuple[int, ...]:
    rest = [i for i in range(n) if i not in set(prefix)]
    return tuple(prefix) + tuple(rest)


def _prefix_value(x: np.ndarray, y: np.ndarray, product: float, a, b, pair_mask: np.ndarray) -> float:
    xa = x[np.array(a, dtype=np.intp)]
    yb = y[np.array(b, dtype=np.intp)]
    cross = np.outer(xa, yb)
    terms = (cross - cross.T) ** 2
    return product - float(np.sum(terms[pair_mask]))


def _ik_mask(k: int) -> np.ndarray:
    # strict upper triangle: every unordered pair inside the leading block
    return np.triu(np.ones((k, k), dtype=bool), 1)


def _spq_mask(p_idx: int, q_idx: int) -> np.ndarray:
    rank = (p_idx - 1) * (p_idx - 2) // 2 + q_idx
    mask = np.zeros((p_idx, p_idx), dtype=bool)
    for a, b in chain_pairs(p_idx)[:rank]:
        mask[b - 1, a - 1] = True  # upper-triangle slot for the unordered pair
    return mask


def _search_prefix(
    pair: BoundInputPair,
    depth: int,
    pair_mask: np.ndarray,
    strategy: SearchStrategy,
    family: str,
    base_params: dict,
) -> SearchOutcome:
    """Shared engine for I_k and S_(p,q) permutation search.

    depth is how many leading positions of each permutation the objective
    reads; pair_mask selects which cross terms are subtracted.
    """
    n = pair.n
    x, y, product = pair.x, pair.y, pair.product
    space = perm(n, depth) ** 2

    def evaluate(a, b) -> float:
        return _prefix_value(x, y, product, a, b, pair_mask)

    def outcome(a, b, value, evals, certified) -> SearchOutcome:
        params = dict(base_params)
        params["sigma"] = _full_perm(a, n)
        params["tau"] = _full_perm(b, n)
        return SearchOutcome(
            best=BoundResult(family=family, value=value, params=params),
            evaluations=evals,
            certified_exact=certified,
        )

    identity = tuple(range(depth))

    if strategy.kind == "exhaustive" and space > EXHAUSTIVE_GUARD:
        raise SpaceTooLargeError(
            f"exhaustive search over {space} candidates exceeds the {EXHAUSTIVE_GUARD} guard"
        )

    enumerable = space <= (
        EXHAUSTIVE_GUARD if strategy.kind in ("exhaustive", "hybrid") else strategy.sample_count
    )
    if strategy.kind != "greedy_swap" and enumerable:
        best_val = None
        best_ab = None
        evals = 0
        for a in permutations(range(n), depth):
            for b in permutations(range(n), depth):
                v = evaluate(a, b)
                evals += 1
                if best_val is None or v > best_val:  # first max wins: lexicographic tie-break
                    best_val = v
                    best_ab = (a, b)
        return outcome(best_ab[0], best_ab[1], best_val, evals, True)

    rng = np.random.default_rng(strategy.seed)
    candidates: list[tuple[tuple[int, ...], tuple[int, ...]]] = [(identity, identity)]
    if strategy.kind != "greedy_swap":
        for _ in range(strategy.sample_count):
            sigma = tuple(int(i) for i in rng.permutation(n))
            tau = tuple(int(i) for i in rng.permutation(n))
            candidates.append((sigma[:depth], tau[:depth]))

    evals = 0
    best_val = None
    full_best = None
    for a, b in candidates:
        v = evaluate(a, b)
        evals += 1
        if best_val is None or v > best_val:
            best_val = v
            full_best = (_full_perm(a, n), _full_perm(b, n))
    if strategy.kind == "random_sample":
        return outcome(full_best[0][:depth], full_best[1][:depth], best_val, evals, False)

    # steepest-ascent hill climbing over adjacent transpositions
    sigma, tau = full_best
    for _ in range(strategy.swap_rounds):
        step_val = best_val
        step_state = None
        for which in (0, 1):
            base = sigma if which == 0 else tau
            for i in range(n - 1):
                trial = list(base)
                trial[i], trial[i + 1] = trial[i + 1], trial[i]
                trial_t = tuple(trial)
                a = (trial_t if which == 0 else sigma)[:depth]
                b = (tau if which == 0 else trial_t)[:depth]
                v = evaluate(a, b)
                evals += 1
                if v > step_val:
                    step_val = v
                    step_state = (trial_t, tau) if which == 0 else (sigma, trial_t)
        if step_state is None:
            break
        best_val = step_val
        sigma, tau = step_state
    return outcome(sigma[:depth], tau[:depth], best_val, evals, False)


def best_ik(pair: BoundInputPair, k: int, strategy: SearchStrategy = SearchStrategy()) -> SearchOutcome:
    """Maximize the permuted leading-block bound over index pairings."""
    if not 1 <= k <= pair.n:
        raise ValueError(f"k must lie in 1..{pair.n}, got {k}")
    if k == 1:
        best = BoundResult(family="I", value=pair.product, params={"k": 1, "sigma": tuple(range(pair.n)), "tau": tuple(range(pair.n))})
        return SearchOutcome(best=best, evaluations=1, certified_exact=True)
    return _search_prefix(pair, k, _ik_mask(k), strategy, "I", {"k": k})


def best_spq(
    pair: BoundInputPair, p_idx: int, q_idx: int, strategy: SearchStrategy = SearchStrategy()
) -> SearchOutcome:
    """Maximize the permuted chain bound at pair position (p_idx, q_idx)."""
    if (p_idx, q_idx) == (1, 0):
        best = BoundResult(family="S", value=pair.product, params={"p": 1, "q": 0, "sigma": tuple(range(pair.n)), "tau": tuple(range(pair.n))})
        return SearchOutcome(best=best, evaluations=1, certified_exact=True)
    if not 1 <= q_idx < p_idx <= pair.n:
        raise ValueError(f"pair indices must satisfy 1 <= q < p <= {pair.n}, got ({p_idx}, {q_idx})")
    return _search_prefix(pair, p_idx, _spq_mask(p_idx, q_idx), strategy, "S", {"p": p_idx, "q": q_idx})


def best_k(pair: BoundInputPair, k: int, strategy: SearchStrategy = SearchStrategy()) -> SearchOutcome:
    """Maximize the two-block bound over all k-element subsets (always exact).

    The strategy is ignored: every C(n, k) subsets are enumerated, and a
    count over the guard raises SpaceTooLargeError whatever the strategy.
    That happens from d = 5 on (C(25, 12) is about 5.2 million).  Block
    sums for a subset and its complement are formed by masked sums of the
    same addends, making the size-k and size-(n-k) maxima bit-identical.
    """
    n = pair.n
    if not 0 <= k <= n:
        raise ValueError(f"subset size must lie in 0..{n}, got {k}")
    count = comb(n, k)
    if count > EXHAUSTIVE_GUARD:
        raise SpaceTooLargeError(f"{count} subsets of size {k} exceed the enumeration guard")
    subsets = np.zeros((count, n), dtype=np.float64)
    members = list(combinations(range(n), k))
    for row, chosen in enumerate(members):
        subsets[row, list(chosen)] = 1.0
    x2 = pair.x * pair.x
    y2 = pair.y * pair.y
    # row-wise reductions, not gemv: BLAS accumulation order varies with row
    # position, which would break the bit-level complement symmetry
    sx = (subsets * x2).sum(axis=1)
    sy = (subsets * y2).sum(axis=1)
    sxc = ((1.0 - subsets) * x2).sum(axis=1)
    syc = ((1.0 - subsets) * y2).sum(axis=1)
    values = (np.sqrt(sx * sy) + np.sqrt(sxc * syc)) ** 2
    idx = int(np.argmax(values))  # first max: lexicographically smallest subset
    best = BoundResult(
        family="K",
        value=float(values[idx]),
        params={"k": k, "subset": tuple(i + 1 for i in members[idx])},
    )
    return SearchOutcome(best=best, evaluations=count, certified_exact=True)


def best_over_family(
    pair: BoundInputPair, family: str, strategy: SearchStrategy = SearchStrategy()
) -> SearchOutcome:
    """Best value across a whole family: all k, all chain pairs, or all sizes."""
    if family == "I":
        outcomes = [best_ik(pair, k, strategy) for k in range(1, pair.n + 1)]
    elif family == "S":
        outcomes = [best_spq(pair, 1, 0, strategy)]
        outcomes += [best_spq(pair, p, q, strategy) for p, q in chain_pairs(pair.n)]
    elif family == "K":
        outcomes = [best_k(pair, k, strategy) for k in range(1, pair.n + 1)]
    else:
        raise ValueError(f"unknown bound family {family!r}; expected I, S or K")
    best = outcomes[0]
    for cand in outcomes[1:]:
        if cand.best.value > best.best.value:
            best = cand
    return SearchOutcome(
        best=best.best,
        evaluations=sum(o.evaluations for o in outcomes),
        certified_exact=all(o.certified_exact for o in outcomes),
    )
