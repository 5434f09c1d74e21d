"""Command line interface.

Subcommands:

  compute    scalar skew informations, correlations and diagnostics at one angle
  bounds     one CSV row of requested bounds at one angle
  sweep      CSV (and optional SVG) over a uniform angle grid
  benchmark  random-instance comparison of bound families with a win-rate footer
  reproduce  run a built-in scenario end to end and assert its known structure

Exit codes: 0 success, 1 usage error, 2 validation or parse error,
3 assertion failure (reproduction or internal ordering check).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Sequence

import numpy as np

from .bounds_product import BoundInputPair, bound_ik
from .bounds_sum import bound_b2_cell, bound_b2_max
from .errors import (
    ChainViolationError,
    CrossCheckError,
    ExampleAssertionError,
    SkewboundsError,
)
from .metric import (
    as_metric_param,
    correlation,
    gamma_matrix,
    skew_info_quadratic,
    variance,
)
from .reports import emit_csv, format_value
from .scenario_io import dump_scenario, load_scenario
from .scenarios import (
    Scenario,
    builtin_example,
    default_bounds,
    evaluate_point,
    kmix_label,
    random_instance,
    run_sweep,
)
from .search import SearchStrategy, best_ik, best_k
from .svgchart import render_line_chart

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_ASSERTION = 3

REPRODUCE_STEPS = 100


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the contract here is 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", metavar="PATH", help="scenario JSON file")
    p.add_argument("--example", type=int, metavar="N", help="built-in scenario 1..4")
    p.add_argument("--p", type=float, default=None, help="override the metric parameter")
    p.add_argument("--theta-start", type=float, default=None, metavar="T")
    p.add_argument("--theta-end", type=float, default=None, metavar="T")
    p.add_argument("--steps", type=int, default=None, metavar="N")
    p.add_argument(
        "--dump-scenario",
        metavar="PATH",
        help="write the resolved scenario JSON (state fixed at --theta-start) and exit",
    )
    p.add_argument(
        "--no-cross-check",
        action="store_true",
        help="skip the redundant second construction of the Gram matrix",
    )


def _add_bound_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bounds", metavar="LIST", help="comma-separated bound names")
    p.add_argument(
        "--perm",
        choices=("exhaustive", "random_sample", "greedy_swap", "hybrid"),
        default=None,
        help="search permuted/subset variants instead of identity bounds",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q", type=float, default=0.0, help="interpolation weight, default 0")
    p.add_argument("--kmix", metavar="W1,W2,...", help="weights for a convex mixture of K bounds")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="skewbounds", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="scalar quantities at one angle")
    _add_scenario_flags(p_compute)
    p_compute.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")

    p_bounds = sub.add_parser("bounds", help="one row of bounds at one angle")
    _add_scenario_flags(p_bounds)
    _add_bound_flags(p_bounds)
    p_bounds.add_argument("--out", metavar="PATH")

    p_sweep = sub.add_parser("sweep", help="bounds over an angle grid")
    _add_scenario_flags(p_sweep)
    _add_bound_flags(p_sweep)
    p_sweep.add_argument("--out", metavar="PATH")
    p_sweep.add_argument("--svg", metavar="PATH", help="also render a line chart")

    p_bench = sub.add_parser("benchmark", help="compare families on random instances")
    p_bench.add_argument("--dim", type=int, default=2)
    p_bench.add_argument("--count", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--p", type=float, default=0.5)
    p_bench.add_argument("--out", metavar="PATH")

    p_rep = sub.add_parser("reproduce", help="re-derive a built-in scenario and assert")
    p_rep.add_argument("--example", type=int, required=True, metavar="N")
    p_rep.add_argument("--out", metavar="DIR", default=".", help="directory for CSV/SVG output")
    p_rep.add_argument("--steps", type=int, default=REPRODUCE_STEPS)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--q", type=float, default=0.0)
    return parser


def _resolve_scenario(args) -> Scenario:
    if getattr(args, "input", None) and getattr(args, "example", None) is not None:
        raise _UsageError("give either --input or --example, not both")
    if getattr(args, "input", None):
        scenario = load_scenario(args.input)
    elif getattr(args, "example", None) is not None:
        scenario = builtin_example(args.example)
    else:
        raise _UsageError("a scenario is required: --input PATH or --example N")
    if args.p is not None:
        scenario = dataclasses.replace(scenario, p=as_metric_param(args.p))
    return scenario


def _parse_bound_list(args, scenario: Scenario) -> list[str]:
    if getattr(args, "bounds", None):
        return [b.strip() for b in args.bounds.split(",") if b.strip()]
    return default_bounds(scenario)


def _parse_kmix(args) -> tuple[float, ...] | None:
    raw = getattr(args, "kmix", None)
    if raw is None:
        return None
    try:
        return tuple(float(v) for v in raw.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --kmix value {raw!r}: {exc}") from None


def _strategy(args) -> SearchStrategy | None:
    if getattr(args, "perm", None) is None:
        return None
    return SearchStrategy(kind=args.perm, seed=getattr(args, "seed", 0))


def _write(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _theta_of(args, scenario: Scenario) -> float:
    return scenario.theta_range[0] if args.theta_start is None else float(args.theta_start)


def _maybe_dump(args, scenario: Scenario) -> bool:
    if getattr(args, "dump_scenario", None):
        theta = _theta_of(args, scenario)
        _write(dump_scenario(scenario, theta), args.dump_scenario)
        return True
    return False


def cmd_compute(args) -> int:
    scenario = _resolve_scenario(args)
    if _maybe_dump(args, scenario):
        return EXIT_OK
    theta = _theta_of(args, scenario)
    rho = scenario.state_at(theta)
    gf = gamma_matrix(rho, scenario.p, cross_check=not args.no_cross_check)
    lines = [
        f"scenario {scenario.label}  dim={scenario.dim}  p={format_value(scenario.p.p)}  theta={format_value(theta)}"
    ]
    infos = []
    for obs in scenario.observables:
        info = skew_info_quadratic(gf, obs)
        infos.append(info)
        lines.append(
            f"I[{obs.name}] = {format_value(info)}    var[{obs.name}] = {format_value(variance(rho, obs))}"
        )
    lines.append(f"sum_I = {format_value(sum(infos))}")
    for i in range(len(scenario.observables)):
        for j in range(i + 1, len(scenario.observables)):
            a, b = scenario.observables[i], scenario.observables[j]
            corr = correlation(rho, a, b, scenario.p)
            comm_diag = 0.25 * abs(complex(np.trace(rho.matrix @ (a.matrix @ b.matrix - b.matrix @ a.matrix)))) ** 2
            lines.append(
                f"pair {a.name},{b.name}: corr_sq = {format_value(abs(corr) ** 2)}"
                f"    product = {format_value(infos[i] * infos[j])}"
                f"    quarter_comm_sq = {format_value(comm_diag)}"
            )
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    scenario = _resolve_scenario(args)
    if _maybe_dump(args, scenario):
        return EXIT_OK
    theta = _theta_of(args, scenario)
    wanted = _parse_bound_list(args, scenario)
    point = evaluate_point(
        scenario,
        theta,
        wanted,
        q=args.q,
        strategy=_strategy(args),
        kmix=_parse_kmix(args),
        cross_check=not args.no_cross_check,
    )
    columns = {name: [value] for name, value in point.values.items()}
    _write(emit_csv(columns), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = _resolve_scenario(args)
    if _maybe_dump(args, scenario):
        return EXIT_OK
    result = run_sweep(
        scenario,
        theta_start=args.theta_start,
        theta_end=args.theta_end,
        steps=args.steps if args.steps is not None else 200,
        bounds=_parse_bound_list(args, scenario),
        q=args.q,
        strategy=_strategy(args),
        kmix=_parse_kmix(args),
        cross_check=not args.no_cross_check,
    )
    footer = [f"scenario {result.scenario_label}  points {result.thetas.shape[0]}"]
    _write(emit_csv(result.columns, footer), args.out)
    if args.svg:
        chart_cols = {n: v for n, v in result.columns.items() if n != "theta"}
        _write(render_line_chart(result.columns["theta"], chart_cols, f"sweep {result.scenario_label}"), args.svg)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    if args.dim < 2:
        raise ValueError(f"--dim must be at least 2, got {args.dim}")
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    strategy = SearchStrategy(kind="hybrid", seed=args.seed)
    names = ("I_2", "K_best", "I_2_perm")
    rows: dict[str, list[float]] = {
        "instance": [],
        "product": [],
        "corr_sq": [],
        "corr_abs_sq": [],
        **{n: [] for n in names},
        "winner": [],
    }
    wins = {n: 0 for n in names}
    for i in range(args.count):
        scenario = random_instance(args.dim, 2, seed=args.seed + i, p=args.p)
        rho = scenario.state_at(0.0)
        gf = gamma_matrix(rho, scenario.p)
        pair = BoundInputPair.from_observables(gf, scenario.observables[0], scenario.observables[1])
        n = pair.n
        k_best = max(
            (best_k(pair, k).best.value for k in range(1, n)),
            default=pair.product,
        )
        values = {
            "I_2": bound_ik(pair, 2).value,
            "K_best": k_best,
            "I_2_perm": best_ik(pair, 2, strategy).best.value,
        }
        winner = max(names, key=lambda name: values[name])  # first max wins ties
        wins[winner] += 1
        rows["instance"].append(float(i))
        rows["product"].append(pair.product)
        rows["corr_sq"].append(pair.corr_sq)
        rows["corr_abs_sq"].append(pair.corr_abs_sq)
        for name in names:
            rows[name].append(values[name])
        rows["winner"].append(float(names.index(winner) + 1))
    footer = [
        f"instances {args.count}  dim {args.dim}  p {format_value(args.p)}  seed {args.seed}",
        "winner index: " + ", ".join(f"{i + 1}={n}" for i, n in enumerate(names)),
    ]
    for name in names:
        footer.append(f"win_rate {name} = {format_value(wins[name] / args.count)}")
    _write(emit_csv(rows, footer), args.out)
    return EXIT_OK


def _assert_close(label: str, theta: float, a: float, b: float, tol: float) -> None:
    if abs(a - b) > tol:
        raise ExampleAssertionError(
            f"{label} at theta={format_value(theta)}: {format_value(a)} vs {format_value(b)} "
            f"(gap {abs(a - b):.3e}, tol {tol:.1e})"
        )


def _reproduce_example1(steps: int) -> tuple[dict, list[str]]:
    scenario = builtin_example(1)
    wanted = ["I_1", "I_2", "I_3", "I_4", "S_2_1", "S_3_1", "S_3_2", "S_4_1", "S_4_2", "S_4_3", "K_2", "corr_abs_sq"]
    sweep = run_sweep(scenario, steps=steps, bounds=wanted)
    cols = sweep.columns
    thetas = cols["theta"]
    scale = 1.0 + float(np.max(np.abs(cols["product"])))
    tol = 1e-8 * scale
    for i, theta in enumerate(thetas):
        for name in ("I_1", "K_2"):
            _assert_close(f"{name} = product", theta, cols[name][i], cols["product"][i], tol)
        for name in ("I_2", "I_3", "I_4", "S_2_1", "S_3_1", "S_3_2", "S_4_1", "S_4_2", "S_4_3"):
            _assert_close(f"{name} = corr_abs_sq", theta, cols[name][i], cols["corr_abs_sq"][i], tol)
        if cols["corr_sq"][i] > cols["corr_abs_sq"][i] + tol:
            raise ExampleAssertionError(
                f"corr_sq exceeds corr_abs_sq at theta={format_value(theta)}"
            )
    footer = [
        "asserted: product = I_1 = K_2 and corr_abs_sq = I_2 = I_3 = I_4 = all S chain members",
        "corr_sq <= corr_abs_sq throughout; the two coincide only where coordinate phases align",
    ]
    return cols, footer


def _reproduce_example2(steps: int) -> tuple[dict, list[str]]:
    scenario = builtin_example(2)
    sweep = run_sweep(scenario, steps=steps, bounds=["I_2", "S_3_1"])
    cols = sweep.columns
    mix_name = kmix_label(scenario.kmix_weights)
    scale = 1.0 + float(np.max(np.abs(cols["product"])))
    tol = 1e-9 * scale
    for i, theta in enumerate(cols["theta"]):
        for name in ("I_2", "S_3_1", mix_name):
            if cols[name][i] > cols["product"][i] + tol:
                raise ExampleAssertionError(
                    f"{name} exceeds product at theta={format_value(theta)}"
                )
            if cols[name][i] < cols["corr_sq"][i] - tol:
                raise ExampleAssertionError(
                    f"{name} falls below corr_sq at theta={format_value(theta)}"
                )
    footer = [f"asserted: product >= each of I_2, S_3_1, {mix_name} >= corr_sq pointwise"]
    return cols, footer


def _reproduce_sum_example(number: int, steps: int, named_cells) -> tuple[dict, list[str]]:
    scenario = builtin_example(number)
    sweep = run_sweep(scenario, steps=steps, bounds=["total", "LMa"])
    # B2, the named two-cell bounds and the true argmax at each point of the
    # sweep, from one bound_b2_max call per point
    b2_series = []
    named_series = {cells: [] for cells in named_cells}
    argmax_counts: dict = {}
    for samples in sweep.samples:
        for cells in named_cells:
            named_series[cells].append(bound_b2_cell(samples, *cells).value)
        best = bound_b2_max(samples)
        b2_series.append(best.value)
        argmax_counts[best.params["cells"]] = argmax_counts.get(best.params["cells"], 0) + 1
    cols = {}
    for name, column in sweep.columns.items():
        cols[name] = column
        if name == "total":  # the column order of bounds=["total", "B2", "LMa"]
            cols["B2"] = np.array(b2_series)
    for cells, series in named_series.items():
        label = f"B2_{cells[0]}{cells[1]}".replace(" ", "")
        cols[label] = np.array(series)
    scale = 1.0 + float(np.max(np.abs(cols["total"])))
    tol = 1e-9 * scale
    margins = cols["B2"] - cols["LMa"]
    bad = np.where(margins < -tol)[0]
    if bad.size:
        i = int(bad[0])
        raise ExampleAssertionError(
            f"B2 falls below LMa at theta={format_value(cols['theta'][i])} "
            f"(gap {margins[i]:.3e})"
        )
    positive_share = float(np.mean(margins > 0.0))
    if positive_share < 0.9:
        raise ExampleAssertionError(
            f"B2 - LMa margin positive at only {positive_share:.1%} of grid points (need 90%)"
        )
    top = sorted(argmax_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    footer = [
        f"asserted: B2 >= LMa pointwise; margin positive at {positive_share:.1%} of points",
        "B2 argmax cells (top): " + "; ".join(f"{cells} x{count}" for cells, count in top),
    ]
    return cols, footer


def cmd_reproduce(args) -> int:
    number = args.example
    steps = args.steps
    if number == 1:
        cols, footer = _reproduce_example1(steps)
    elif number == 2:
        cols, footer = _reproduce_example2(steps)
    elif number == 3:
        cols, footer = _reproduce_sum_example(3, steps, (((3, 1), (4, 1)), ((3, 1), (1, 1))))
    elif number == 4:
        cols, footer = _reproduce_sum_example(4, steps, (((2, 3), (3, 3)), ((3, 2), (4, 3))))
    else:
        scenario = builtin_example(number)  # raises UnknownExampleError
        raise AssertionError(f"unreachable for {scenario.label}")
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, f"example{number}.csv")
    svg_path = os.path.join(args.out, f"example{number}.svg")
    _write(emit_csv(cols, footer), csv_path)
    chart_cols = {n: v for n, v in cols.items() if n != "theta"}
    _write(render_line_chart(cols["theta"], chart_cols, f"reproduce example{number}"), svg_path)
    sys.stdout.write(f"example {number}: PASS ({len(cols['theta'])} grid points)\n")
    for line in footer:
        sys.stdout.write(f"  {line}\n")
    sys.stdout.write(f"  wrote {csv_path} and {svg_path}\n")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handlers = {
            "compute": cmd_compute,
            "bounds": cmd_bounds,
            "sweep": cmd_sweep,
            "benchmark": cmd_benchmark,
            "reproduce": cmd_reproduce,
        }
        return handlers[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (ExampleAssertionError, ChainViolationError, CrossCheckError) as exc:
        sys.stderr.write(f"assertion failure: {exc}\n")
        return EXIT_ASSERTION
    except (SkewboundsError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
