"""Search over permuted and subset-indexed bound variants.

The permutation action only enters a bound through the induced pairing of
coordinate indices, so exhaustive search enumerates ordered k-tuples of
distinct indices for each side rather than whole permutation groups.  When
that reduced space exceeds the enumeration guard, seeded sampling plus
greedy adjacent-transposition hill climbing takes over.  Every search seeds
its candidate list with the identity, so the returned best is never worse
than the unpermuted bound.  Candidates are scored in numpy batches of
bounded size, with the same bits and tie-breaks as one at a time.

Before any of that, an O(n) certificate looks for prefixes made of exact
zero coordinates.  Every candidate's value is the product minus a sum of
squares, so a pair of prefixes that zeroes every term attains the product,
the maximum.  Coordinates sampled from Gamma have such zeros: the kernel of
Gamma holds every matrix diagonal in rho's eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb, perm
from typing import Callable, Iterator, NamedTuple, Sequence

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
    chosen = set(prefix)
    rest = [i for i in range(n) if i not in chosen]
    return tuple(prefix) + tuple(rest)


# Cap on the candidate x term elements scored in one batch.  At 2**12 the
# arrays of a batch take a few hundred KB; 2**14 searched no faster at
# d = 3..4 and raised peak RSS by over 1 MB.
_BATCH_ELEMENTS = 2**12


def _batches(count: int, term_count: int) -> Iterator[tuple[int, int]]:
    """Ranges [lo, hi) of candidates 0..count-1, one scored batch each.

    A batch holds at most _BATCH_ELEMENTS candidate x term elements, or one
    candidate when a single one has more terms than that.
    """
    step = max(1, _BATCH_ELEMENTS // max(1, term_count))
    for lo in range(0, count, step):
        yield lo, min(lo + step, count)


def _ik_mask(k: int) -> np.ndarray:
    # strict upper triangle: every unordered pair inside the leading block
    return np.triu(np.ones((k, k), dtype=bool), 1)


def _spq_mask(p_idx: int, q_idx: int) -> np.ndarray:
    rank = (p_idx - 1) * (p_idx - 2) // 2 + q_idx
    mask = np.zeros((p_idx, p_idx), dtype=bool)
    for a, b in chain_pairs(p_idx)[:rank]:
        mask[b - 1, a - 1] = True  # upper-triangle slot for the unordered pair
    return mask


_Rows = Callable[[int, int], tuple[np.ndarray, np.ndarray]]


class _PrefixObjective:
    """product - sum of the masked terms (x_a[i] y_b[j] - x_a[j] y_b[i])^2.

    A candidate is a pair of index prefixes, a for x and b for y.  Its terms
    are taken in the row-major order of the mask and summed by a contiguous
    row reduction, exactly as np.sum sums one candidate's term vector, so
    batched values, and the tie-breaks they decide, are bit-identical to
    scoring the candidates one at a time.
    """

    def __init__(self, pair: BoundInputPair, pair_mask: np.ndarray) -> None:
        self.x, self.y, self.product = pair.x, pair.y, pair.product
        self.ti, self.tj = np.nonzero(pair_mask)

    def values(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        xa, yb = self.x[a], self.y[b]
        cross = xa[:, self.ti] * yb[:, self.tj] - xa[:, self.tj] * yb[:, self.ti]
        # fancy indexing leaves the terms strided; a strided row sum differs
        # from np.sum in the last bit once a row has 9 or more terms
        terms = np.ascontiguousarray(cross**2)
        return self.product - terms.sum(axis=-1)

    def first_max(self, rows: _Rows, count: int) -> tuple[int, float]:
        """Index and value of the first maximum over candidates 0..count-1.

        rows(lo, hi) returns the prefix arrays (a, b) of candidates lo..hi-1.
        """
        best_i, best_v = 0, None
        for lo, hi in _batches(count, self.ti.size):
            v = self.values(*rows(lo, hi))
            i = int(np.argmax(v))  # first max within the batch
            if best_v is None or v[i] > best_v:  # strict: an earlier batch keeps a tie
                best_i, best_v = lo + i, float(v[i])
        return best_i, best_v


def _stacked(a: np.ndarray, b: np.ndarray) -> _Rows:
    return lambda lo, hi: (a[lo:hi], b[lo:hi])


def _swapped(order: np.ndarray, count: int) -> np.ndarray:
    """Row t is order with positions t and t + 1 exchanged, t = 0..count-1."""
    t = np.arange(count)
    trials = np.tile(order, (count, 1))
    trials[t, t] = order[1 : count + 1]
    trials[t, t + 1] = order[:count]
    return trials


class _Found(NamedTuple):
    """Best prefixes a (for x) and b (for y), their value, and the search cost."""

    a: list[int]
    b: list[int]
    value: float
    evaluations: int
    certified_exact: bool


def _zero_prefix_witness(x: np.ndarray, y: np.ndarray, depth: int) -> tuple[list[int], list[int]] | None:
    """Prefixes of length depth whose every cross term is exactly zero, or None.

    A term x_a[i] y_b[j] - x_a[j] y_b[i] of the leading depth x depth block
    vanishes when both x factors are zero, when both y factors are zero, or
    when x_a and y_b are zero at both of its positions but the last one.
    With z_x and z_y exact zeros in x and y, that gives three witnesses:

      z_x >= depth        sigma starts with the first depth zeros of x,
                          tau is the identity;
      z_y >= depth        the mirror case;
      both >= depth - 1   sigma and tau start with the first depth - 1
                          zeros of x and of y.

    Each prefix is completed in index order, as _full_perm completes it.
    """
    zx, zy = np.flatnonzero(x == 0.0), np.flatnonzero(y == 0.0)
    identity = list(range(depth))
    if zx.size >= depth:
        return zx[:depth].tolist(), identity
    if zy.size >= depth:
        return identity, zy[:depth].tolist()
    if min(zx.size, zy.size) >= depth - 1:
        n = x.size
        return (
            list(_full_perm(zx[: depth - 1].tolist(), n)[:depth]),
            list(_full_perm(zy[: depth - 1].tolist(), n)[:depth]),
        )
    return None


def _search_prefix(
    pair: BoundInputPair,
    depth: int,
    pair_mask: np.ndarray,
    strategy: SearchStrategy,
    family: str,
    base_params: dict,
) -> SearchOutcome:
    """Shared I_k and S_(p,q) permutation search: guard, certificate, engine.

    depth is how many leading positions of each permutation the objective
    reads; pair_mask selects which cross terms are subtracted.  Every
    candidate's value is product minus a sum of squares, so a witness whose
    value is exactly the product is a certified maximum after one
    evaluation.  Without one, _search_engine runs.
    """
    n = pair.n
    space = perm(n, depth) ** 2
    if strategy.kind == "exhaustive" and space > EXHAUSTIVE_GUARD:
        raise SpaceTooLargeError(
            f"exhaustive search over {space} candidates exceeds the {EXHAUSTIVE_GUARD} guard"
        )
    objective = _PrefixObjective(pair, pair_mask)
    found = None
    witness = _zero_prefix_witness(pair.x, pair.y, depth)
    if witness is not None:
        a, b = witness
        value = float(objective.values(np.array([a]), np.array([b]))[0])
        if value == pair.product:  # checked bit for bit, not assumed
            found = _Found(a, b, value, 1, True)
    if found is None:
        found = _search_engine(objective, depth, strategy)
    params = dict(base_params)
    params["sigma"] = _full_perm(found.a, n)
    params["tau"] = _full_perm(found.b, n)
    return SearchOutcome(
        best=BoundResult(family=family, value=found.value, params=params),
        evaluations=found.evaluations,
        certified_exact=found.certified_exact,
    )


def _search_engine(objective: _PrefixObjective, depth: int, strategy: SearchStrategy) -> _Found:
    """Enumeration, or sampling and hill climbing, over prefix pairs.

    The caller has applied the exhaustive guard.  Candidates are scored in
    bounded batches, and each path keeps the first maximum in the order it
    lists its candidates.
    """
    n = objective.x.size
    space = perm(n, depth) ** 2

    enumerable = space <= (
        EXHAUSTIVE_GUARD if strategy.kind in ("exhaustive", "hybrid") else strategy.sample_count
    )
    if strategy.kind != "greedy_swap" and enumerable:
        # candidate c pairs prefix c // P for x with prefix c % P for y: the
        # lexicographic order of (a, b) over permutations(range(n), depth)
        prefixes = np.array(list(permutations(range(n), depth)), dtype=np.intp)

        def rows(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
            a, b = np.divmod(np.arange(lo, hi), len(prefixes))
            return prefixes[a], prefixes[b]

        best, value = objective.first_max(rows, space)
        a, b = divmod(best, len(prefixes))
        return _Found(prefixes[a].tolist(), prefixes[b].tolist(), value, space, True)

    # the identity first, then one sigma and one tau draw per sample
    rng = np.random.default_rng(strategy.seed)
    evals = 1 if strategy.kind == "greedy_swap" else strategy.sample_count + 1
    a = np.empty((evals, depth), dtype=np.intp)
    b = np.empty_like(a)
    a[0] = b[0] = np.arange(depth)
    for i in range(1, evals):
        a[i] = rng.permutation(n)[:depth]
        b[i] = rng.permutation(n)[:depth]
    best, best_val = objective.first_max(_stacked(a, b), evals)
    if strategy.kind == "random_sample":
        return _Found(a[best].tolist(), b[best].tolist(), best_val, evals, False)

    # steepest-ascent hill climbing over adjacent transpositions, from the
    # best candidate completed in index order.  A swap at t >= depth leaves
    # both prefixes as they are, so only t < m = min(depth, n - 1) is scored:
    # trials 0..m-1 swap within sigma, trials m..2m-1 within tau
    m = min(depth, n - 1)
    sigma = np.array(_full_perm(a[best].tolist(), n))
    tau = np.array(_full_perm(b[best].tolist(), n))
    for _ in range(strategy.swap_rounds):
        sigma_trials, tau_trials = _swapped(sigma, m), _swapped(tau, m)
        a = np.concatenate([sigma_trials[:, :depth], np.tile(sigma[:depth], (m, 1))])
        b = np.concatenate([np.tile(tau[:depth], (m, 1)), tau_trials[:, :depth]])
        step, step_val = objective.first_max(_stacked(a, b), 2 * m)
        evals += 2 * m
        if not step_val > best_val:
            break
        best_val = step_val
        if step < m:
            sigma = sigma_trials[step]
        else:
            tau = tau_trials[step - m]
    return _Found(sigma[:depth].tolist(), tau[:depth].tolist(), best_val, evals, False)


def best_ik(pair: BoundInputPair, k: int, strategy: SearchStrategy = SearchStrategy()) -> SearchOutcome:
    """Maximize the permuted leading-block bound over index pairings.

    With z_x and z_y exact zeros in x and y, the maximum is the product
    whenever max(z_x, z_y) >= k or min(z_x, z_y) >= k - 1.  Such a result is
    returned after one evaluation (evaluations=1, certified_exact=True),
    with the witness of _zero_prefix_witness as sigma and tau: the first k
    zeros of x and the identity, the mirror case, or the first k - 1 zeros
    of each.  Otherwise the strategy's search runs.
    """
    if not 1 <= k <= pair.n:
        raise ValueError(f"k must lie in 1..{pair.n}, got {k}")
    if k == 1:
        best = BoundResult(family="I", value=pair.product, params={"k": 1, "sigma": tuple(range(pair.n)), "tau": tuple(range(pair.n))})
        return SearchOutcome(best=best, evaluations=1, certified_exact=True)
    return _search_prefix(pair, k, _ik_mask(k), strategy, "I", {"k": k})


def best_spq(
    pair: BoundInputPair, p_idx: int, q_idx: int, strategy: SearchStrategy = SearchStrategy()
) -> SearchOutcome:
    """Maximize the permuted chain bound at pair position (p_idx, q_idx).

    Its terms are a subset of the I_p block, so the zero-prefix certificate
    of best_ik with k = p_idx applies unchanged.
    """
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
