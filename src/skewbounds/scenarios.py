"""Benchmark scenarios and parameter sweeps.

A scenario bundles a (possibly angle-dependent) state, a metric parameter
and a list of observables.  Four built-in scenarios ship with the package:

  1  qubit on a horizontal Bloch circle of radius sqrt(3)/3, p = 1/4,
     two observables; the bound chains collapse to two values here.
  2  pure qutrit cos(t)|0> - sin(t)|2>, p = 1/3, two observables, plus a
     convex mixture of two-block bounds as an extra reported column.
  3  qubit on a vertical Bloch circle of radius 3/4, p = 1/3, four
     observables feeding the sum-form bounds.
  4  the pure qutrit of scenario 2 with four observables, sum-form bounds.

Sweeps evaluate requested bounds on a uniform angle grid and check every
chain ordering inline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import cos, pi, sin
from typing import Callable, Sequence

import numpy as np

from .bounds_product import (
    BoundInputPair,
    BoundResult,
    bound_ik,
    bound_k_prefix,
    bound_spq,
    chain_report,
    convex_combo,
)
from .bounds_sum import SampledMatrix, bound_b2_max, bound_b2_q, bound_lma, sampled_matrix
from .errors import UnknownExampleError
from .metric import (
    DensityMatrix,
    MetricParam,
    Observable,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_metric_param,
    bloch_state,
    gamma_matrix,
    pure_state,
    validate_density,
    validate_observable,
)
from .search import SearchStrategy, best_ik, best_k, best_spq

DEFAULT_STEPS = 200


@dataclass(frozen=True, eq=False)
class Scenario:
    """A state family, observables and default sweep window."""

    label: str
    dim: int
    p: MetricParam
    observables: tuple[Observable, ...]
    state_builder: Callable[[float], DensityMatrix]
    theta_range: tuple[float, float] = (0.0, 2.0 * pi)
    kmix_weights: tuple[float, ...] | None = None

    def state_at(self, theta: float) -> DensityMatrix:
        return self.state_builder(theta)


def _obs(matrix, name: str) -> Observable:
    return validate_observable(np.array(matrix, dtype=np.complex128), name)


_EX2_A = [[1, 1 - 1j, 0], [1 + 1j, -1, 1j], [0, -1j, 0]]
_EX2_B = [[0, 1j, 1 - 1j], [-1j, 0, 1], [1 + 1j, 1, 0]]


def builtin_example(number: int) -> Scenario:
    """One of the four built-in benchmark scenarios."""
    if number == 1:
        radius = 3.0**0.5 / 3.0
        return Scenario(
            label="example1",
            dim=2,
            p=MetricParam(0.25),
            observables=(
                _obs(PAULI_X - 0.5 * PAULI_Z, "A"),
                _obs(PAULI_X + PAULI_Y + PAULI_Z, "B"),
            ),
            state_builder=lambda t: bloch_state((radius * cos(t), radius * sin(t), 0.0)),
            theta_range=(0.0, 2.0 * pi),
        )
    if number == 2:
        return Scenario(
            label="example2",
            dim=3,
            p=MetricParam(1.0 / 3.0),
            observables=(_obs(_EX2_A, "A"), _obs(_EX2_B, "B")),
            state_builder=lambda t: pure_state((cos(t), 0.0, -sin(t))),
            theta_range=(0.0, pi),
            kmix_weights=(0.0, 0.1, 0.0, 0.9),
        )
    if number == 3:
        return Scenario(
            label="example3",
            dim=2,
            p=MetricParam(1.0 / 3.0),
            observables=(
                _obs([[1, 2 + 1j], [2 - 1j, -1]], "A1"),
                _obs([[1, 1j], [-1j, -1]], "A2"),
                _obs([[0, 1 + 0.5j], [1 - 0.5j, 0]], "A3"),
                _obs([[0, 1j], [-1j, 0]], "A4"),
            ),
            state_builder=lambda t: bloch_state((0.75 * sin(t), 0.0, 0.75 * cos(t))),
            theta_range=(0.0, 2.0 * pi),
        )
    if number == 4:
        return Scenario(
            label="example4",
            dim=3,
            p=MetricParam(1.0 / 3.0),
            observables=(
                _obs(_EX2_A, "A1"),
                _obs(_EX2_B, "A2"),
                _obs([[0, 0, 1 - 1j], [0, 0, 1], [1 + 1j, 1, 0]], "A3"),
                _obs([[2, 1 - 1j, 0], [1 + 1j, -2, 0], [0, 0, 0]], "A4"),
            ),
            state_builder=lambda t: pure_state((cos(t), 0.0, -sin(t))),
            theta_range=(0.0, pi),
        )
    raise UnknownExampleError(f"no built-in scenario number {number}; choose 1..4")


def fixed_scenario(
    label: str,
    state: DensityMatrix,
    p,
    observables: Sequence[Observable],
    theta_range: tuple[float, float] = (0.0, 2.0 * pi),
) -> Scenario:
    """Scenario with an angle-independent state (file-based inputs)."""
    return Scenario(
        label=label,
        dim=state.dim,
        p=as_metric_param(p),
        observables=tuple(observables),
        state_builder=lambda _t: state,
        theta_range=theta_range,
    )


def random_instance(dim: int, m_observables: int = 2, seed: int = 0, p: float = 0.5) -> Scenario:
    """Seeded random scenario: normalized Wishart state, Hermitized Gaussians."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if m_observables < 1:
        raise ValueError(f"need at least one observable, got {m_observables}")
    rng = np.random.default_rng(seed)

    def cgauss() -> np.ndarray:
        return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)

    g = cgauss()
    w = g @ g.conj().T
    state = validate_density(w / np.trace(w).real)
    observables = []
    for i in range(m_observables):
        h = cgauss()
        observables.append(validate_observable(0.5 * (h + h.conj().T), f"A{i + 1}"))
    return fixed_scenario(f"random-d{dim}-s{seed}", state, p, observables)


_IK_RE = re.compile(r"^I_(\d+)$")
_SPQ_RE = re.compile(r"^S_(\d+)_(\d+)$")
_KK_RE = re.compile(r"^K_(\d+)$")

ALWAYS_COLUMNS = ("product", "corr_sq")
_REPORT_SCALARS = {"product": 0, "corr_abs_sq": -2, "corr_sq": -1}  # positions in chain_report


def default_bounds(scenario: Scenario) -> list[str]:
    if len(scenario.observables) >= 3:
        return ["total", "B2", "LMa"]
    return ["I_2", "S_3_1", "K_2"]


def kmix_label(weights: Sequence[float]) -> str:
    inner = ",".join(f"{w:g}" for w in weights)
    return f"K_({inner})"


@dataclass(frozen=True, eq=False)
class PointEvaluation:
    """All quantities computed at a single angle."""

    theta: float
    pair: BoundInputPair
    samples: SampledMatrix
    values: dict[str, float]


@dataclass(frozen=True, eq=False)
class SweepResult:
    scenario_label: str
    thetas: np.ndarray
    columns: dict[str, np.ndarray]
    samples: tuple[SampledMatrix, ...]


def _bound_value(
    name: str,
    pair: BoundInputPair,
    report: Sequence[BoundResult],
    samples: SampledMatrix,
    q: float,
    strategy: SearchStrategy | None,
) -> float:
    # identity-parameter chain members are read off the point's chain_report
    # (product, I_1..I_n, S chain, K_1..K_n, corr_abs_sq, corr_sq); indices
    # outside it go to the bound functions, which reject what is out of range
    n = pair.n
    m = _IK_RE.match(name)
    if m:
        k = int(m.group(1))
        if strategy is not None:
            return best_ik(pair, k, strategy).best.value
        return report[k].value if 1 <= k <= n else bound_ik(pair, k).value
    m = _SPQ_RE.match(name)
    if m:
        p_idx, q_idx = int(m.group(1)), int(m.group(2))
        if strategy is not None:
            return best_spq(pair, p_idx, q_idx, strategy).best.value
        if 1 <= q_idx < p_idx <= n:
            return report[n + (p_idx - 1) * (p_idx - 2) // 2 + q_idx].value
        return bound_spq(pair, p_idx, q_idx).value
    m = _KK_RE.match(name)
    if m:
        k = int(m.group(1))
        if strategy is not None:
            return best_k(pair, k, strategy).best.value
        return report[k - n - 3].value if 1 <= k <= n else bound_k_prefix(pair, k).value
    if name in _REPORT_SCALARS:
        return report[_REPORT_SCALARS[name]].value
    if name == "total":
        return samples.total
    if name == "B2":
        return bound_b2_max(samples).value
    if name == "B2q":
        return bound_b2_q(samples, q).value
    if name == "LMa":
        return bound_lma(samples).value
    raise ValueError(f"unknown bound name {name!r}")


def evaluate_point(
    scenario: Scenario,
    theta: float,
    bounds: Sequence[str],
    q: float = 0.0,
    strategy: SearchStrategy | None = None,
    kmix: Sequence[float] | None = None,
    cross_check: bool = True,
) -> PointEvaluation:
    """Evaluate the requested bounds at one angle, with inline chain checks.

    The chain is evaluated once, by chain_report at O(n^2) for n = d^2; the
    identity-parameter columns and the K mixture are read off its result.
    """
    rho = scenario.state_at(theta)
    gf = gamma_matrix(rho, scenario.p, cross_check=cross_check)
    obs = scenario.observables
    a, b = (obs[0], obs[1]) if len(obs) >= 2 else (obs[0], obs[0])
    pair = BoundInputPair.from_observables(gf, a, b)
    report = chain_report(pair)  # ordering invariants checked on every evaluation
    samples = sampled_matrix(gf, obs)
    values: dict[str, float] = {"theta": theta}
    for name in ALWAYS_COLUMNS:
        values[name] = _bound_value(name, pair, report, samples, q, None)
    for name in bounds:
        if name in values:
            continue
        values[name] = _bound_value(name, pair, report, samples, q, strategy)
    weights = kmix if kmix is not None else scenario.kmix_weights
    if weights is not None:
        if not 1 <= len(weights) <= pair.n:
            raise ValueError(f"mixture needs 1..{pair.n} weights, got {len(weights)}")
        k_prefix = report[-pair.n - 2 : -pair.n - 2 + len(weights)]
        values[kmix_label(weights)] = convex_combo(k_prefix, weights).value
    return PointEvaluation(theta=theta, pair=pair, samples=samples, values=values)


def run_sweep(
    scenario: Scenario,
    theta_start: float | None = None,
    theta_end: float | None = None,
    steps: int = DEFAULT_STEPS,
    bounds: Sequence[str] | None = None,
    q: float = 0.0,
    strategy: SearchStrategy | None = None,
    kmix: Sequence[float] | None = None,
    cross_check: bool = True,
) -> SweepResult:
    """Uniform angle sweep; a single step degenerates to one record."""
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    lo = scenario.theta_range[0] if theta_start is None else float(theta_start)
    hi = scenario.theta_range[1] if theta_end is None else float(theta_end)
    grid = np.linspace(lo, hi, steps)
    wanted = list(bounds) if bounds is not None else default_bounds(scenario)
    rows = [
        evaluate_point(scenario, float(t), wanted, q=q, strategy=strategy, kmix=kmix, cross_check=cross_check)
        for t in grid
    ]
    names = list(rows[0].values)
    columns = {name: np.array([r.values[name] for r in rows]) for name in names}
    return SweepResult(scenario.label, grid, columns, tuple(r.samples for r in rows))
