"""The benchmark's workloads: which skewbounds calls an operation makes, on
which seeded inputs, and how each result is checked.

A batch is a fixed list of operations.  Every batch has the same mix of
operation kinds; its inputs are drawn afresh from (seed, batch index), so a
cache keyed on inputs cannot turn repeated batches into hits.  Checks test
invariants of the output, never its bytes, and run after the timed phase.

Failures an operation may raise by design are REFUSALS: they count as failed
operations but do not make the run incorrect.  Any other exception, and any
failed check, does.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

import skewbounds as sb
from layers import oracle_rel_err
from skewbounds import cli

REFUSALS = (sb.SpaceTooLargeError,)

# Reproduction grid size; fewer points than the CLI default of 100 so that a
# run holds enough operations for a tail percentile.
REPRODUCE_STEPS = 50
ORACLE_TOL = 1e-8
ORDER_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output broke an invariant."""


@dataclass(frozen=True)
class Op:
    """One timed call.  `points` is how many (state, angle) points it evaluates."""

    kind: str
    points: int
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _seed(*parts: int) -> int:
    """A 32-bit seed derived from the run seed and the position of an input."""
    return int(np.random.SeedSequence([int(p) % 2**64 for p in parts]).generate_state(1)[0])


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_sandwich(values: dict, names, label: str) -> None:
    """product >= each named bound >= corr_sq - tol."""
    product, corr_sq = values["product"], values["corr_sq"]
    tol = ORDER_TOL * (1.0 + abs(product))
    for name in names:
        v = values[name]
        _require(v <= product + tol, f"{label}: {name}={v!r} exceeds product {product!r}")
        _require(v >= corr_sq - tol, f"{label}: {name}={v!r} below corr_sq {corr_sq!r}")


def _check_oracle(rho, obs, p, x, label: str) -> None:
    """Sum of squared sampled coordinates equals skew_info_direct."""
    err = oracle_rel_err(float(np.sum(np.asarray(x) ** 2)), sb.skew_info_direct(rho, obs, p), obs.matrix)
    _require(err <= ORACLE_TOL, f"{label}: sum x^2 off skew_info_direct by relative {err:.3e}")


def _point_checks(scenario, theta: float, point, bounds, label: str) -> None:
    _check_sandwich(point.values, bounds, label)
    rho = scenario.state_at(theta)
    a, b = scenario.observables[0], scenario.observables[1]
    _check_oracle(rho, a, scenario.p, point.pair.x, label)
    _check_oracle(rho, b, scenario.p, point.pair.y, label)


def _read_csv(path: str) -> dict[str, list[float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    _require(len(text) > 0, f"{path} is empty")
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    _require(len(body) > 0, f"{path} has no data rows")
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def _quiet(fn: Callable[[], int]) -> Callable[[], int]:
    """Run a CLI call with its stdout captured; the status line is not the output."""

    def run() -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return fn()

    return run


class Workload:
    """A named batch generator with a warm-up.  Why each workload was chosen
    is recorded in BENCHMARK.json and bench/README.md."""

    name = ""

    def __init__(self, tmp_root: str) -> None:
        self.tmp_root = tmp_root
        self._dirs = 0

    def _new_dir(self) -> str:
        self._dirs += 1
        return os.path.join(self.tmp_root, f"{self.name}-{self._dirs}")

    def batch(self, seed: int, index: int) -> list[Op]:
        raise NotImplementedError

    def warm_up_ops(self, seed: int) -> list[Op]:
        """One operation of each kind on small inputs, run untimed and unchecked."""
        raise NotImplementedError


class PaperReproduce(Workload):
    name = "paper_reproduce"

    def _op(self, number: int, steps: int) -> Op:
        out = self._new_dir()
        argv = ["reproduce", "--example", str(number), "--out", out, "--steps", str(steps)]

        def check(rc: int) -> None:
            _require(rc == cli.EXIT_OK, f"reproduce {number} exited {rc}")
            svg = os.path.join(out, f"example{number}.svg")
            _require(os.path.getsize(svg) > 0, f"{svg} is empty")
            cols = _read_csv(os.path.join(out, f"example{number}.csv"))
            _require(len(cols["theta"]) == steps, f"reproduce {number}: {len(cols['theta'])} rows, not {steps}")
            rows = [{k: v[i] for k, v in cols.items()} for i in range(steps)]
            if number in (1, 2):
                names = [c for c in cols if c not in ("theta", "product", "corr_sq")]
                for row in rows:
                    _check_sandwich(row, names, f"example {number}")
            else:
                names = [c for c in cols if c == "B2" or c == "LMa" or c.startswith("B2_")]
                for row in rows:
                    tol = ORDER_TOL * (1.0 + abs(row["product"]))
                    _require(row["corr_sq"] <= row["product"] + tol, f"example {number}: corr_sq exceeds product")
                    tol = ORDER_TOL * (1.0 + abs(row["total"]))
                    for c in names:
                        _require(row[c] <= row["total"] + tol, f"example {number}: {c} exceeds total")

        return Op(f"example{number}", steps, _quiet(lambda: cli.main(argv)), check)

    def batch(self, seed: int, index: int) -> list[Op]:
        # the built-in scenarios are fixed by the paper; the seed does not enter
        return [self._op(n, REPRODUCE_STEPS) for n in (1, 2, 3, 4)]

    def warm_up_ops(self, seed: int) -> list[Op]:
        return [self._op(n, 3) for n in (1, 2, 3, 4)]


def rotating_scenario(dim: int, seed: int):
    """random_instance(dim, 2, seed) with its state turned by exp(-i theta H).

    H is a seeded random Hermitian generator, so the sweep moves through
    states whose spectrum stays fixed while the eigenbasis rotates.
    """
    base = sb.random_instance(dim, 2, seed=seed)
    rho0 = base.state_at(0.0).matrix
    rng = np.random.default_rng(_seed(seed, dim, 1))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w, v = np.linalg.eigh(0.5 * (g + g.conj().T))

    def state(theta: float):
        u = (v * np.exp(-1j * theta * w)) @ v.conj().T
        m = u @ rho0 @ u.conj().T
        return sb.validate_density(0.5 * (m + m.conj().T))

    return replace(base, label=f"rotating-d{dim}-s{seed}", state_builder=state)


class ChainSweep(Workload):
    name = "chain_sweep"

    # grid points per batch for each dimension; d=5 points are the majority,
    # so the per-batch median op is a d=5 point and the tail a d=6 point
    GRID = {5: 8, 6: 4}
    KMIX = (0.25, 0.25, 0.5)

    @staticmethod
    def bounds(dim: int) -> list[str]:
        n = dim * dim
        return ["I_2", f"I_{n}", "S_3_1", f"S_{n}_{n - 1}", "K_2"]

    def _ops(self, dim: int, steps: int, seed: int) -> list[Op]:
        scenario = rotating_scenario(dim, seed)
        bounds = self.bounds(dim)
        checked = bounds + [sb.kmix_label(self.KMIX)]
        ops = []
        for theta in np.linspace(*scenario.theta_range, steps):
            theta = float(theta)

            def run(theta=theta):
                return sb.evaluate_point(scenario, theta, bounds, kmix=self.KMIX)

            def check(point, theta=theta):
                _point_checks(scenario, theta, point, checked, f"{scenario.label} theta={theta:.6g}")

            ops.append(Op(f"d{dim}", 1, run, check))
        return ops

    def batch(self, seed: int, index: int) -> list[Op]:
        return [op for dim, steps in self.GRID.items() for op in self._ops(dim, steps, _seed(seed, index, dim))]

    def warm_up_ops(self, seed: int) -> list[Op]:
        return [self._ops(dim, 1, _seed(seed, 2**31, dim))[0] for dim in self.GRID]


class GammaLargeD(Workload):
    name = "gamma_large_d"

    DIMS = (8, 10, 12)
    M = 4

    def _op(self, dim: int, seed: int) -> Op:
        scenario = sb.random_instance(dim, self.M, seed=seed)
        rho = scenario.state_at(0.0)
        p = scenario.p
        obs = scenario.observables
        pairs = [(i, j) for i in range(self.M) for j in range(i + 1, self.M)]

        def run():
            gf = sb.gamma_matrix(rho, p, cross_check=True)
            xs = [sb.sampled_coords(gf, o) for o in obs]
            infos = [sb.skew_info_quadratic(gf, o) for o in obs]
            corrs = [(sb.correlation_quadratic(gf, obs[i], obs[j]), sb.correlation(rho, obs[i], obs[j], p)) for i, j in pairs]
            variances = [sb.variance(rho, o) for o in obs]
            return xs, infos, corrs, variances

        def check(result) -> None:
            xs, infos, corrs, variances = result
            label = scenario.label
            for o, x, info, var in zip(obs, xs, infos, variances):
                _check_oracle(rho, o, p, x, f"{label} {o.name}")
                _require(info <= var + ORDER_TOL * (1.0 + abs(var)), f"{label} {o.name}: skew info {info!r} exceeds variance {var!r}")
            for (i, j), (quad, direct) in zip(pairs, corrs):
                gap = abs(quad - direct)
                _require(gap <= ORACLE_TOL * (1.0 + abs(direct)), f"{label} corr({i},{j}): quadratic form off by {gap:.3e}")

        return Op(f"d{dim}", 1, run, check)

    def batch(self, seed: int, index: int) -> list[Op]:
        return [self._op(dim, _seed(seed, index, dim)) for dim in self.DIMS]

    def warm_up_ops(self, seed: int) -> list[Op]:
        return [self._op(dim, _seed(seed, 2**31, dim)) for dim in self.DIMS]


def _identity_bound(name: str, pair) -> float:
    """The unpermuted bound a searched column I_k, S_p_q or K_k must reach."""
    family, *idx = name.split("_")
    if family == "I":
        return sb.bound_ik(pair, int(idx[0])).value
    if family == "S":
        return sb.bound_spq(pair, int(idx[0]), int(idx[1])).value
    return sb.bound_k_prefix(pair, int(idx[0])).value


class PermSearch(Workload):
    name = "perm_search"

    SEARCHED = ["I_2", "S_3_1", "K_2"]
    BENCH_COUNT = 10

    def _searched(self, dim: int, seed: int, bounds: list[str], kind: str) -> Op:
        scenario = sb.random_instance(dim, 2, seed=seed)
        strategy = sb.SearchStrategy(kind="hybrid", seed=seed)
        label = f"{scenario.label} {','.join(bounds)}"

        def run():
            return sb.evaluate_point(scenario, 0.0, bounds, strategy=strategy)

        def check(point) -> None:
            _point_checks(scenario, 0.0, point, bounds, label)
            tol = ORDER_TOL * (1.0 + abs(point.values["product"]))
            for name in bounds:
                ident = _identity_bound(name, point.pair)
                _require(point.values[name] >= ident - tol, f"{label}: search best {name} below identity {ident!r}")

        return Op(kind, 1, run, check)

    def _benchmark(self, dim: int, count: int, seed: int) -> Op:
        out = self._new_dir() + ".csv"
        argv = ["benchmark", "--dim", str(dim), "--count", str(count), "--seed", str(seed), "--out", out]

        def check(rc: int) -> None:
            _require(rc == cli.EXIT_OK, f"benchmark exited {rc}")
            cols = _read_csv(out)
            _require(len(cols["instance"]) == count, f"benchmark wrote {len(cols['instance'])} rows, not {count}")
            for i in range(count):
                row = {k: v[i] for k, v in cols.items()}
                _check_sandwich(row, ["I_2", "K_best", "I_2_perm"], f"benchmark instance {i}")
                tol = ORDER_TOL * (1.0 + abs(row["product"]))
                _require(row["I_2_perm"] >= row["I_2"] - tol, f"benchmark instance {i}: I_2_perm below I_2")

        return Op(f"benchmark-d{dim}", count, _quiet(lambda: cli.main(argv)), check)

    def batch(self, seed: int, index: int) -> list[Op]:
        # Five successful ops: the benchmark call below the three d=4 points
        # and the d=3 point above them, so that the batch's median op is its
        # middle d=4 point and the run's pooled median that of the d=4 points.
        return [
            self._searched(3, _seed(seed, index, 3), self.SEARCHED, "searched-d3"),
            *(self._searched(4, _seed(seed, index, 4, j), self.SEARCHED, "searched-d4") for j in range(3)),
            self._benchmark(3, self.BENCH_COUNT, _seed(seed, index, 30) % 2**31),
            # exact K over C(25, 12) subsets: refused today (SpaceTooLargeError), kept and counted
            self._searched(5, _seed(seed, index, 5), ["K_12"], "k12-d5"),
        ]

    def warm_up_ops(self, seed: int) -> list[Op]:
        ws = _seed(seed, 2**31)
        return [
            self._searched(2, ws, self.SEARCHED, "searched-d2"),
            self._benchmark(2, 2, ws % 2**31),
            self._searched(5, ws, ["K_12"], "k12-d5"),
        ]


WORKLOADS = {w.name: w for w in (PaperReproduce, ChainSweep, GammaLargeD, PermSearch)}
