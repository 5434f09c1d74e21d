from itertools import permutations
from math import perm

import numpy as np
import pytest

from conftest import random_bound_pair
from skewbounds import search
from skewbounds import (
    BoundInputPair,
    SearchStrategy,
    SpaceTooLargeError,
    best_ik,
    best_k,
    best_over_family,
    best_spq,
    bound_ik,
    bound_k_prefix,
    bound_spq,
)
from skewbounds.bounds_product import BoundResult


def small_pair():
    return BoundInputPair.from_vectors([1.0, 2.0], [3.0, 1.0])


def test_strategy_validation():
    with pytest.raises(ValueError):
        SearchStrategy(kind="annealing")
    with pytest.raises(ValueError):
        SearchStrategy(sample_count=0)


def test_best_ik_exhaustive_oracle():
    out = best_ik(small_pair(), 2, SearchStrategy(kind="exhaustive"))
    assert out.best.value == 49.0
    assert out.certified_exact
    assert out.evaluations == 4  # 2! x 2! orderings
    # ties resolve to the first candidate in enumeration order
    assert out.best.params["sigma"] == (0, 1)
    assert out.best.params["tau"] == (1, 0)


def test_best_ik_k1_trivial():
    pair = small_pair()
    out = best_ik(pair, 1, SearchStrategy(kind="exhaustive"))
    assert out.best.value == pair.product
    assert out.certified_exact


def test_best_spq_beats_identity():
    for seed in (0, 1, 2):
        pair = random_bound_pair(seed, 2)
        out = best_spq(pair, 3, 1, SearchStrategy(kind="hybrid", seed=seed))
        assert out.best.value >= bound_spq(pair, 3, 1).value - 1e-12


def test_best_ik_identity_always_seeded():
    # sampling with a tiny budget still starts from the identity ordering
    for seed in (5, 6):
        pair = random_bound_pair(seed, 3)
        strat = SearchStrategy(kind="random_sample", seed=seed, sample_count=3)
        out = _engine_ik(pair, 4, strat)
        assert out.best.value >= bound_ik(pair, 4).value - 1e-12


def test_exhaustive_guard_trips():
    pair = random_bound_pair(9, 3)  # n = 9, P(9,4)^2 is over the enumeration guard
    with pytest.raises(SpaceTooLargeError):
        best_ik(pair, 4, SearchStrategy(kind="exhaustive"))


def test_random_sample_enumerates_small_spaces():
    pair = small_pair()
    out = best_ik(pair, 2, SearchStrategy(kind="random_sample", seed=0, sample_count=2000))
    assert out.certified_exact
    assert out.best.value == 49.0


def test_greedy_swap_deterministic():
    pair = random_bound_pair(31, 3)
    strat = SearchStrategy(kind="greedy_swap", seed=4, sample_count=50, swap_rounds=20)
    a = _engine_ik(pair, 3, strat)
    b = _engine_ik(pair, 3, strat)
    assert a.best.value == b.best.value
    assert a.best.params == b.best.params
    assert a.best.value >= bound_ik(pair, 3).value - 1e-12


def test_best_k_exact_oracle():
    pair = small_pair()
    out = best_k(pair, 1)
    assert out.best.value == 25.0
    assert out.certified_exact
    assert out.best.params["subset"] == (1,)


def test_best_k_complement_sizes_agree_bitwise():
    for seed in (2, 3):
        for dim in (2, 3):
            pair = random_bound_pair(seed, dim)
            for k in range(pair.n + 1):
                a = best_k(pair, k).best.value
                b = best_k(pair, pair.n - k).best.value
                assert a == b


def test_best_k_dominates_prefix():
    for seed in (7, 8):
        pair = random_bound_pair(seed, 2)
        for k in range(pair.n + 1):
            assert best_k(pair, k).best.value >= bound_k_prefix(pair, k).value - 1e-12


def test_best_over_family():
    pair = small_pair()
    strat = SearchStrategy(kind="exhaustive")
    out_i = best_over_family(pair, "I", strat)
    assert out_i.best.value >= 49.0
    out_k = best_over_family(pair, "K", strat)
    assert out_k.certified_exact
    assert out_k.best.value >= best_k(pair, 1).best.value
    with pytest.raises(ValueError):
        best_over_family(pair, "Z", strat)


# --- the scalar search the batched engine must match bit for bit ----------
#
# Pairs built from Gamma have exact zeros, so best_ik and best_spq certify
# most of them before any search; these tests call the engine itself.


def _engine(pair, depth, pair_mask, strategy, family, base_params):
    found = search._search_engine(search._PrefixObjective(pair, pair_mask), depth, strategy)
    params = dict(base_params, sigma=search._full_perm(found.a, pair.n), tau=search._full_perm(found.b, pair.n))
    return search.SearchOutcome(BoundResult(family, found.value, params), found.evaluations, found.certified_exact)


def _engine_ik(pair, k, strategy):
    return _engine(pair, k, search._ik_mask(k), strategy, "I", {"k": k})


def _engine_spq(pair, p, q, strategy):
    return _engine(pair, p, search._spq_mask(p, q), strategy, "S", {"p": p, "q": q})


def _reference_value(pair, a, b, pair_mask):
    xa = pair.x[np.array(a, dtype=np.intp)]
    yb = pair.y[np.array(b, dtype=np.intp)]
    cross = np.outer(xa, yb)
    terms = (cross - cross.T) ** 2
    return pair.product - float(np.sum(terms[pair_mask]))


def _reference_search(pair, depth, pair_mask, strategy, family, base_params):
    """One Python call per candidate, in the order the search lists them.

    The climb scores every adjacent swap, but counts as evaluations only the
    swaps at t < min(depth, n - 1): the others leave both prefixes unchanged,
    and the engine does not score them.
    """
    n = pair.n
    space = perm(n, depth) ** 2

    def full(prefix, n):
        return tuple(prefix) + tuple(i for i in range(n) if i not in prefix)

    def evaluate(a, b):
        return _reference_value(pair, a, b, pair_mask)

    def outcome(a, b, value, evals, certified):
        params = dict(base_params, sigma=full(a, n), tau=full(b, n))
        return search.SearchOutcome(BoundResult(family, value, params), evals, certified)

    if strategy.kind == "exhaustive" and space > search.EXHAUSTIVE_GUARD:
        raise SpaceTooLargeError("over the guard")
    enumerable = space <= (
        search.EXHAUSTIVE_GUARD if strategy.kind in ("exhaustive", "hybrid") else strategy.sample_count
    )
    if strategy.kind != "greedy_swap" and enumerable:
        best_val = best_ab = None
        evals = 0
        for a in permutations(range(n), depth):
            for b in permutations(range(n), depth):
                v = evaluate(a, b)
                evals += 1
                if best_val is None or v > best_val:
                    best_val, best_ab = v, (a, b)
        return outcome(best_ab[0], best_ab[1], best_val, evals, True)

    rng = np.random.default_rng(strategy.seed)
    identity = tuple(range(depth))
    candidates = [(identity, identity)]
    if strategy.kind != "greedy_swap":
        for _ in range(strategy.sample_count):
            sigma = tuple(int(i) for i in rng.permutation(n))
            tau = tuple(int(i) for i in rng.permutation(n))
            candidates.append((sigma[:depth], tau[:depth]))
    evals = 0
    best_val = full_best = None
    for a, b in candidates:
        v = evaluate(a, b)
        evals += 1
        if best_val is None or v > best_val:
            best_val, full_best = v, (full(a, n), full(b, n))
    if strategy.kind == "random_sample":
        return outcome(full_best[0][:depth], full_best[1][:depth], best_val, evals, False)

    sigma, tau = full_best
    for _ in range(strategy.swap_rounds):
        step_val, step_state = best_val, None
        for which in (0, 1):
            base = sigma if which == 0 else tau
            for i in range(n - 1):
                trial = list(base)
                trial[i], trial[i + 1] = trial[i + 1], trial[i]
                trial = tuple(trial)
                a = (trial if which == 0 else sigma)[:depth]
                b = (tau if which == 0 else trial)[:depth]
                v = evaluate(a, b)
                evals += i < min(depth, n - 1)
                if v > step_val:
                    step_val = v
                    step_state = (trial, tau) if which == 0 else (sigma, trial)
        if step_state is None:
            break
        best_val = step_val
        sigma, tau = step_state
    return outcome(sigma[:depth], tau[:depth], best_val, evals, False)


def _reference_ik(pair, k, strategy):
    return _reference_search(pair, k, search._ik_mask(k), strategy, "I", {"k": k})


def _reference_spq(pair, p, q, strategy):
    return _reference_search(pair, p, search._spq_mask(p, q), strategy, "S", {"p": p, "q": q})


def _tie_pair():
    # repeated coordinates: many candidates share the maximum
    return BoundInputPair.from_vectors([1.0, 1.0, 2.0, 2.0], [1.0, 2.0, 1.0, 2.0])


def _random_vectors_pair(seed, n):
    rng = np.random.default_rng(seed)
    return BoundInputPair.from_vectors(rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n))


def _outcome_fields(out):
    return (out.best.family, out.best.value, out.best.params, out.evaluations, out.certified_exact)


def _assert_same_outcome(got, want):
    assert _outcome_fields(got) == _outcome_fields(want)
    assert np.float64(got.best.value).tobytes() == np.float64(want.best.value).tobytes()
    for key in ("sigma", "tau"):
        assert all(type(i) is int for i in got.best.params[key])


# S (p, q) positions by mask size: (p-1)(p-2)/2 + q terms, from 1 to 21
_SPQ_CASES = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (6, 1), (6, 5), (7, 6)]

_SAMPLED = [
    SearchStrategy(kind="random_sample", seed=3, sample_count=25),
    SearchStrategy(kind="greedy_swap", seed=4, swap_rounds=6),
    SearchStrategy(kind="hybrid", seed=5, sample_count=20, swap_rounds=4),
]


def _search_cases():
    """(pair, strategies) groups: exhaustive only where the scalar loop is quick."""
    exhaustive = SearchStrategy(kind="exhaustive")
    enumerating = SearchStrategy(kind="random_sample", seed=1, sample_count=1000)
    for pair in (small_pair(), _tie_pair(), random_bound_pair(11, 2)):
        yield pair, [exhaustive, enumerating, *_SAMPLED]
    yield _random_vectors_pair(12, 5), [exhaustive]  # I_5, S_(5,q): 9 and 10 terms
    for pair in (random_bound_pair(13, 3), random_bound_pair(14, 4), _random_vectors_pair(15, 12)):
        yield pair, _SAMPLED


def _slow_for_reference(pair, depth, strategy):
    # the scalar loop takes about 14 us per candidate
    space = perm(pair.n, depth) ** 2
    limit = search.EXHAUSTIVE_GUARD if strategy.kind in ("exhaustive", "hybrid") else strategy.sample_count
    return strategy.kind != "greedy_swap" and 20_000 < space <= limit


def test_batched_search_matches_scalar_reference_bitwise():
    checked = set()
    for pair, strategies in _search_cases():
        for strategy in strategies:
            for k in range(2, min(pair.n, 6) + 1):
                if _slow_for_reference(pair, k, strategy):
                    continue
                try:
                    want = _reference_ik(pair, k, strategy)
                except SpaceTooLargeError:
                    continue
                _assert_same_outcome(_engine_ik(pair, k, strategy), want)
                checked.add((strategy.kind, "I", want.certified_exact))
            for p, q in _SPQ_CASES:
                if p > pair.n or _slow_for_reference(pair, p, strategy):
                    continue
                try:
                    want = _reference_spq(pair, p, q, strategy)
                except SpaceTooLargeError:
                    continue
                _assert_same_outcome(_engine_spq(pair, p, q, strategy), want)
                checked.add((strategy.kind, "S", want.certified_exact))
    for kind in ("exhaustive", "random_sample", "hybrid"):
        assert (kind, "I", True) in checked and (kind, "S", True) in checked
    for kind in ("random_sample", "greedy_swap", "hybrid"):
        assert (kind, "I", False) in checked and (kind, "S", False) in checked


def _outcomes_for_batch_test():
    exhaustive = SearchStrategy(kind="exhaustive")
    hybrid = SearchStrategy(kind="hybrid", seed=2, sample_count=30, swap_rounds=5)
    outs = [_engine_ik(small_pair(), 2, exhaustive)]
    for pair in (_tie_pair(), random_bound_pair(21, 2)):
        outs += [_engine_ik(pair, k, exhaustive) for k in (2, 3)]
        outs += [_engine_spq(pair, p, q, exhaustive) for p, q in ((2, 1), (4, 2))]
    pair = random_bound_pair(22, 3)
    outs += [_engine_ik(pair, 5, hybrid), _engine_spq(pair, 6, 5, hybrid)]
    outs += [_engine_ik(pair, 4, SearchStrategy(kind="greedy_swap", swap_rounds=5))]
    return [_outcome_fields(o) for o in outs]


@pytest.mark.parametrize("cap", [1, 7])
def test_batch_boundaries_keep_outcomes(monkeypatch, cap):
    unpatched = _outcomes_for_batch_test()
    # the small_pair tie: (sigma, tau) = ((0, 1), (1, 0)) and ((1, 0), (0, 1)) both reach 49
    assert unpatched[0][2]["sigma"] == (0, 1) and unpatched[0][2]["tau"] == (1, 0)
    monkeypatch.setattr(search, "_BATCH_ELEMENTS", cap)
    assert _outcomes_for_batch_test() == unpatched


def test_exhaustive_batches_stay_within_cap():
    # every (n, depth) the guard lets through, with every mask size at that depth;
    # sizes are computed, nothing of that size is allocated
    cap = search._BATCH_ELEMENTS
    checked = 0
    for n in range(2, 40):
        for depth in range(2, n + 1):
            space = perm(n, depth) ** 2
            if space > search.EXHAUSTIVE_GUARD:
                break
            for terms in range((depth - 1) * (depth - 2) // 2 + 1, depth * (depth - 1) // 2 + 1):
                batches = list(search._batches(space, terms))
                assert batches[0][0] == 0 and batches[-1][1] == space
                assert all(hi == next_lo for (_, hi), (next_lo, _) in zip(batches, batches[1:]))
                largest = max(hi - lo for lo, hi in batches)
                assert largest * terms <= cap
                assert largest * depth <= 2 * cap  # the gathered index rows
                checked += 1
    assert checked == 74


def test_exhaustive_path_scores_the_planned_batches(monkeypatch):
    seen = []
    values = search._PrefixObjective.values

    def spy(self, a, b):
        seen.append((a.shape, b.shape))
        return values(self, a, b)

    monkeypatch.setattr(search._PrefixObjective, "values", spy)
    monkeypatch.setattr(search, "_BATCH_ELEMENTS", 1000)
    pair = random_bound_pair(23, 3)  # n = 9: 72^2 candidates for I_2
    _engine_ik(pair, 2, SearchStrategy(kind="exhaustive"))
    planned = [(hi - lo, 2) for lo, hi in search._batches(72**2, 1)]
    assert seen == [(shape, shape) for shape in planned]


# --- the zero-prefix certificate ---------------------------------------------

_ALL_STRATEGIES = [SearchStrategy(kind="exhaustive"), *_SAMPLED]

# planted zeros at n = 6, one pair per witness branch: (x, y, sigma, tau) for depth 3
_WITNESS_CASES = [
    # z_x = 3 >= 3: the first three zeros of x, tau the identity
    ([0.0, 1.0, 0.0, 2.0, 0.0, 3.0], [1.0, 2.0, 0.0, 4.0, 5.0, 6.0], (0, 2, 4, 1, 3, 5), (0, 1, 2, 3, 4, 5)),
    # z_x = 1, z_y = 4 >= 3: the mirror case
    ([1.0, 2.0, 3.0, 0.0, 5.0, 6.0], [2.0, 0.0, 0.0, 1.0, 0.0, 0.0], (0, 1, 2, 3, 4, 5), (1, 2, 4, 0, 3, 5)),
    # z_x = z_y = 2 = depth - 1: two zeros of each, then the smallest unused index
    ([1.0, 0.0, 2.0, 0.0, 3.0, 4.0], [0.0, 1.0, 0.0, 2.0, 3.0, 5.0], (1, 3, 0, 2, 4, 5), (0, 2, 1, 3, 4, 5)),
]


@pytest.mark.parametrize("x, y, sigma, tau", _WITNESS_CASES)
def test_zero_prefix_certificate_witness_branches(x, y, sigma, tau):
    pair = BoundInputPair.from_vectors(x, y)
    for strategy in _ALL_STRATEGIES:
        for out in (best_ik(pair, 3, strategy), best_spq(pair, 3, 1, strategy), best_spq(pair, 3, 2, strategy)):
            assert out.certified_exact
            assert out.evaluations == 1
            assert np.float64(out.best.value).tobytes() == np.float64(pair.product).tobytes()
            assert out.best.params["sigma"] == sigma and out.best.params["tau"] == tau
            assert all(type(i) is int for i in sigma + tau)


def test_certificate_value_equals_exhaustive_maximum_bitwise():
    # Gamma-derived pairs at d = 2 carry two exact zeros in x and in y
    checked = 0
    for seed in (41, 42, 43):
        pair = random_bound_pair(seed, 2)
        exhaustive = SearchStrategy(kind="exhaustive")
        for k in (2, 3):
            got = best_ik(pair, k, exhaustive)
            want = _reference_ik(pair, k, exhaustive)
            assert got.evaluations == 1 and got.certified_exact and want.certified_exact
            assert np.float64(got.best.value).tobytes() == np.float64(want.best.value).tobytes()
            checked += 1
        for p, q in ((2, 1), (3, 1), (3, 2)):
            got = best_spq(pair, p, q, exhaustive)
            want = _reference_spq(pair, p, q, exhaustive)
            assert got.evaluations == 1 and got.certified_exact
            assert np.float64(got.best.value).tobytes() == np.float64(want.best.value).tobytes()
            checked += 1
    assert checked == 15


def test_near_miss_goes_to_the_engine_unchanged():
    # depth 4 with z_x = 2 = depth - 2 and z_y = 3 < depth: no witness
    pair = BoundInputPair.from_vectors([0.0, 1.0, 0.0, 2.0, 3.0, 4.0], [5.0, 0.0, 1.0, 0.0, 2.0, 0.0])
    assert search._zero_prefix_witness(pair.x, pair.y, 4) is None
    for strategy in _ALL_STRATEGIES:
        _assert_same_outcome(best_ik(pair, 4, strategy), _engine_ik(pair, 4, strategy))
        _assert_same_outcome(best_spq(pair, 4, 2, strategy), _engine_spq(pair, 4, 2, strategy))
    # one depth lower the same pair is certified
    assert best_ik(pair, 3, _SAMPLED[1]).evaluations == 1


def test_witness_below_product_falls_through_to_the_engine(monkeypatch):
    # a witness is scored, not trusted: one whose value is below the product is ignored
    pair = _random_vectors_pair(17, 6)
    monkeypatch.setattr(search, "_zero_prefix_witness", lambda x, y, depth: (list(range(depth)), list(range(depth))))
    for strategy in _ALL_STRATEGIES:
        out = best_ik(pair, 3, strategy)
        assert out.best.value < pair.product
        _assert_same_outcome(out, _engine_ik(pair, 3, strategy))


def test_exhaustive_guard_checked_before_certificate():
    # n = 9 with five zeros in each vector: I_4 is certifiable, but P(9, 4)^2 is over the guard
    x = [0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]
    pair = BoundInputPair.from_vectors(x, x[::-1])
    assert search._zero_prefix_witness(pair.x, pair.y, 4) is not None
    with pytest.raises(SpaceTooLargeError):
        best_ik(pair, 4, SearchStrategy(kind="exhaustive"))
    with pytest.raises(SpaceTooLargeError):
        best_spq(pair, 4, 1, SearchStrategy(kind="exhaustive"))
    assert best_ik(pair, 4, SearchStrategy(kind="hybrid")).evaluations == 1


def test_climb_scores_only_swaps_that_move_a_prefix(monkeypatch):
    seen = []
    values = search._PrefixObjective.values

    def spy(self, a, b):
        seen.append(len(a))
        return values(self, a, b)

    monkeypatch.setattr(search._PrefixObjective, "values", spy)
    pair = _random_vectors_pair(16, 9)
    out = _engine_ik(pair, 2, SearchStrategy(kind="greedy_swap", swap_rounds=3))
    rounds = len(seen) - 1  # the identity, then one batch per round
    assert rounds >= 1 and seen[1:] == [4] * rounds  # 2 * min(depth, n - 1) trials
    assert out.evaluations == 1 + 4 * rounds
