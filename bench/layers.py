"""Per-layer metrics of skewbounds, computed from the spans of one batch.

Layers are the package's own modules.  Counts and times come from spans
recorded by tracing.Tracer; a few counts (eigenproblem size, search
evaluations, emitted bytes) are read by probes from the arguments and
results of the traced calls.  "Outermost" spans of a group are those with no
ancestor in the same group, so nested calls are not counted twice.

Every metric is reported on every workload; a layer that a workload does
not call reports 0.
"""

from __future__ import annotations

import numpy as np

from tracing import Span, self_times

NS = 1e-9

# name -> unit, in the order of BENCHMARK.json; README.md defines each.
PER_LAYER = {
    "numerics.eig_calls": "count",
    "numerics.eig_s": "s",
    "numerics.eig_n3": "count",
    "metric.gamma_builds": "count",
    "metric.gamma_builds_per_point": "count/point",
    "metric.gamma_s": "s",
    "metric.gamma_self_s": "s",
    "metric.coords_s": "s",
    "metric.oracle_rel_err_max": "ratio",
    "bounds_product.chain_report_calls": "count",
    "bounds_product.chain_report_s": "s",
    "bounds_product.bound_calls": "count",
    "bounds_product.bound_calls_per_point": "count/point",
    "bounds_product.bound_s": "s",
    "search.calls": "count",
    "search.s": "s",
    "search.evaluations": "count",
    "search.evals_per_s": "1/s",
    "search.exact_ratio": "ratio",
    "search.failures": "count",
    "bounds_sum.calls": "count",
    "bounds_sum.s": "s",
    "scenarios.self_s": "s",
    "reports.emit_s": "s",
    "reports.bytes": "bytes",
    "svgchart.render_s": "s",
    "svgchart.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

_GROUPS = {
    "eig": lambda n: n == "numerics.herm_eig",
    "gamma": lambda n: n == "metric.gamma_matrix",
    "coords": lambda n: n == "metric.sampled_coords",
    "chain": lambda n: n == "bounds_product.chain_report",
    "bound": lambda n: n.startswith("bounds_product.bound_"),
    "search": lambda n: n.startswith("search."),
    "bounds_sum": lambda n: n.startswith("bounds_sum."),
    "reports": lambda n: n.startswith("reports."),
    "svgchart": lambda n: n.startswith("svgchart."),
}
_BIT = {g: 1 << i for i, g in enumerate(_GROUPS)}


def oracle_rel_err(sum_sq: float, ref: float, obs_matrix: np.ndarray) -> float:
    """Relative gap of sum x^2 to the reference skew information.

    The denominator has a floor of 1e-6 ||A||_F^2, so a skew information
    that is zero up to rounding is compared at rounding level instead of
    dividing by noise.
    """
    floor = 1e-6 * float(np.sum(np.abs(obs_matrix) ** 2))
    return abs(sum_sq - ref) / max(abs(ref), floor, 1e-300)


class LayerProbes:
    """Probe callbacks for the Tracer plus the state they collect in a batch."""

    def __init__(self, package) -> None:
        metric = package.metric
        self._skew_info_direct = getattr(metric.skew_info_direct, "__wrapped__", metric.skew_info_direct)
        self._gamma_inputs: dict[int, tuple] = {}
        self._coords: list[tuple] = []

    def probes(self) -> dict:
        return {
            "numerics.herm_eig": self._eig,
            "metric.gamma_matrix": self._gamma,
            "metric.sampled_coords": self._sampled,
            **{f"search.{n}": self._search for n in ("best_ik", "best_spq", "best_k", "best_over_family")},
            "reports.emit_csv": self._text,
            "svgchart.render_line_chart": self._text,
        }

    @staticmethod
    def _eig(span: Span, args, kwargs, result) -> None:
        span.attrs = {"n": result.dim}

    def _gamma(self, span: Span, args, kwargs, result) -> None:
        rho = args[0] if args else kwargs["rho"]
        p = args[1] if len(args) > 1 else kwargs["p"]
        self._gamma_inputs[id(result)] = (result, rho, p)

    def _sampled(self, span: Span, args, kwargs, result) -> None:
        gf = args[0] if args else kwargs["gf"]
        obs = args[1] if len(args) > 1 else kwargs["obs"]
        self._coords.append((gf, obs, result))

    @staticmethod
    def _search(span: Span, args, kwargs, result) -> None:
        span.attrs = {"evaluations": result.evaluations, "exact": result.certified_exact}

    @staticmethod
    def _text(span: Span, args, kwargs, result) -> None:
        span.attrs = {"bytes": len(result.encode("utf-8"))}

    def oracle_rel_err_max(self) -> float:
        """Check every sampled_coords result of the batch against the oracle, then forget them.

        Coordinates whose factorization did not come from a traced
        gamma_matrix call (no state is known for them) are skipped.
        """
        worst = 0.0
        for gf, obs, x in self._coords:
            inputs = self._gamma_inputs.get(id(gf))
            if inputs is None or inputs[0] is not gf:
                continue
            _, rho, p = inputs
            ref = self._skew_info_direct(rho, obs, p)
            worst = max(worst, oracle_rel_err(float(np.sum(x * x)), ref, obs.matrix))
        self._gamma_inputs.clear()
        self._coords.clear()
        return worst


def batch_layers(spans: list[Span]) -> dict[str, float]:
    """Per-layer values for the spans of one batch.

    Root spans are the benchmark's operations; each carries in its attrs the
    number of points (states at one angle) the operation evaluates.
    """
    points = sum(s.attrs["points"] for s in spans if s.parent < 0)
    selfs = self_times(spans)
    masks: dict[str, int] = {}
    anc = [0] * len(spans)
    calls = dict.fromkeys(_GROUPS, 0)
    incl = dict.fromkeys(_GROUPS, 0)
    gamma_self = eig_n3 = scen_self = cli_self = 0
    evals = exact = search_ok = search_err = 0
    out_bytes = {"reports": 0, "svgchart": 0}

    def mask_of(name: str) -> int:
        if name not in masks:
            masks[name] = sum(_BIT[g] for g, pred in _GROUPS.items() if pred(name))
        return masks[name]

    for i, s in enumerate(spans):
        if s.parent >= 0:
            anc[i] = anc[s.parent] | mask_of(spans[s.parent].name)
        outer = mask_of(s.name) & ~anc[i]
        for g, bit in _BIT.items():
            if outer & bit:
                calls[g] += 1
                incl[g] += s.duration
        module = s.name.partition(".")[0]
        if module == "scenarios":
            scen_self += selfs[i]
        elif module == "cli":
            cli_self += selfs[i]
        if s.name == "metric.gamma_matrix":
            gamma_self += selfs[i]
        elif s.name == "numerics.herm_eig" and s.attrs:
            eig_n3 += s.attrs["n"] ** 3
        if outer & _BIT["search"]:
            if s.error is not None:
                search_err += 1
            elif s.attrs:
                search_ok += 1
                evals += s.attrs["evaluations"]
                exact += int(s.attrs["exact"])
        for g in out_bytes:
            if outer & _BIT[g] and s.attrs:
                out_bytes[g] += s.attrs["bytes"]

    search_s = incl["search"] * NS
    return {
        "numerics.eig_calls": calls["eig"],
        "numerics.eig_s": incl["eig"] * NS,
        "numerics.eig_n3": eig_n3,
        "metric.gamma_builds": calls["gamma"],
        "metric.gamma_builds_per_point": calls["gamma"] / points,
        "metric.gamma_s": incl["gamma"] * NS,
        "metric.gamma_self_s": gamma_self * NS,
        "metric.coords_s": incl["coords"] * NS,
        "bounds_product.chain_report_calls": calls["chain"],
        "bounds_product.chain_report_s": incl["chain"] * NS,
        "bounds_product.bound_calls": calls["bound"],
        "bounds_product.bound_calls_per_point": calls["bound"] / points,
        "bounds_product.bound_s": incl["bound"] * NS,
        "search.calls": calls["search"],
        "search.s": search_s,
        "search.evaluations": evals,
        "search.evals_per_s": evals / search_s if search_s > 0 else 0.0,
        "search.exact_ratio": exact / search_ok if search_ok else 0.0,
        "search.failures": search_err,
        "bounds_sum.calls": calls["bounds_sum"],
        "bounds_sum.s": incl["bounds_sum"] * NS,
        "scenarios.self_s": scen_self * NS,
        "reports.emit_s": incl["reports"] * NS,
        "reports.bytes": out_bytes["reports"],
        "svgchart.render_s": incl["svgchart"] * NS,
        "svgchart.bytes": out_bytes["svgchart"],
        "cli.self_s": cli_self * NS,
    }


def gamma_builds_by_kind(spans: list[Span]) -> dict[str, list[int]]:
    """[gamma builds, points] per operation kind, keyed by the op span name."""
    root = [0] * len(spans)
    out: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent < 0:
            root[i] = i
            out.setdefault(s.name, [0, 0])[1] += s.attrs["points"]
        else:
            root[i] = root[s.parent]
            if s.name == "metric.gamma_matrix":
                out[spans[root[i]].name][0] += 1
    return out
