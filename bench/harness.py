"""Measurement loop, metrics and result output for bench/run.py.

Import this module only after the BLAS thread count is pinned: it imports
numpy and skewbounds.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import layers
import skewbounds
import speed
import workloads
from tracing import Tracer, self_times

# set-ups per run, each in a fresh interpreter: this process plus SETUP_REPS - 1 children
SETUP_REPS = 7
# candidate tail percentiles; op_ms_tail takes the highest with at least
# TAIL_MIN_BEYOND samples above it
TAIL_LADDER = (0.5, 0.9, 0.99, 0.999)
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


@dataclass
class Record:
    """Outcome of one operation; inputs and results are not kept, so memory
    does not grow with the number of batches.  `seconds` is wall time,
    `scaled` the same time in reference seconds (speed.py)."""

    kind: str
    batch: int
    seconds: float
    scaled: float = math.nan
    error: str | None = None
    refused: bool = False
    check_error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.check_error is None


@dataclass
class Phase:
    """Outcomes of whole batches; the last three fields are filled only when traced."""

    records: list[Record] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    layer_rows: list[dict] = field(default_factory=list)
    functions: dict[str, list[int]] = field(default_factory=dict)
    first_spans: list | None = None


def run_op(op: workloads.Op, batch: int, tracer: Tracer | None) -> tuple[Record, Any]:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            with tracer.span(f"op.{op.kind}") as span:
                span.attrs = {"points": op.points}
                result = op.run()
    except Exception as exc:  # the op failed: counted, and a refusal does not make the run incorrect
        elapsed = time.perf_counter() - t0
        return Record(op.kind, batch, elapsed, error=f"{type(exc).__name__}: {exc}", refused=isinstance(exc, workloads.REFUSALS)), None
    return Record(op.kind, batch, time.perf_counter() - t0), result


def check_result(op: workloads.Op, record: Record, result: Any) -> None:
    if record.error is not None:
        return
    try:
        op.check(result)
    except workloads.CheckFailed as exc:
        record.check_error = str(exc)
    except Exception as exc:  # a check that crashes on an output rejects that output
        record.check_error = f"check raised {type(exc).__name__}: {exc}"


def run_batch(
    workload: workloads.Workload,
    seed: int,
    index: int,
    phase: Phase,
    tracer: Tracer | None = None,
    probes: layers.LayerProbes | None = None,
) -> None:
    """Run batch `index` and add its outcome to `phase`.

    Inputs are generated before the batch's clock starts; results are
    checked, then dropped, after it stops.  The speed probe runs before each
    operation and after the last, outside the operations' clocks; the batch's
    wall time is the sum of its operations' times.  A tracer is installed
    only while the batch's operations run, and its spans become one row of
    layer values.
    """
    ops = workload.batch(seed, index)
    probe_times = [speed.probe_s()]
    outcomes = []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            outcomes.append(run_op(op, index, tracer))
            probe_times.append(speed.probe_s())
    finally:
        if tracer is not None:
            tracer.uninstall()
    factor = speed.scale(probe_times)
    phase.walls.append(sum(record.seconds for record, _ in outcomes))
    phase.scales.append(factor)
    for op, (record, result) in zip(ops, outcomes):
        record.scaled = record.seconds * factor
        check_result(op, record, result)
        phase.records.append(record)
    del ops, outcomes
    if tracer is not None:
        row = layers.batch_layers(tracer.spans)
        row["metric.oracle_rel_err_max"] = probes.oracle_rel_err_max()
        row["gamma_builds_by_kind"] = layers.gamma_builds_by_kind(tracer.spans)
        phase.layer_rows.append(row)
        _add_function_totals(phase.functions, tracer.spans)
        if phase.first_spans is None:
            phase.first_spans = [[s.name, s.start, s.end, s.parent, s.error] for s in tracer.spans]
        tracer.clear()


def run_phase(workload: workloads.Workload, seed: int, seconds: float) -> Phase:
    """Untraced batches until their summed wall time reaches `seconds`, at least one.

    Only operation time counts, not input generation, probes or checks: on
    gamma_large_d these add about a third, and counting them would leave
    some runs under the 1,000 operations op_ms_tail needs for p99 there.
    """
    phase = Phase()
    index = 0
    while sum(phase.walls) < seconds or not phase.walls:
        run_batch(workload, seed, index, phase)
        index += 1
    return phase


def run_traced(workload: workloads.Workload, seed: int, seconds: float) -> tuple[Phase, Phase]:
    """Each batch run untraced and then traced, until `seconds` have been spent.

    Alternating keeps both sides on the same inputs and the same machine
    speed, so the difference of their batch times is the tracing overhead.
    """
    probes = layers.LayerProbes(skewbounds)
    tracer = Tracer(skewbounds, probes.probes())
    untraced, traced = Phase(), Phase()
    index = 0
    while sum(untraced.walls) + sum(traced.walls) < seconds or not traced.walls:
        run_batch(workload, seed, index, untraced)
        run_batch(workload, seed, index, traced, tracer, probes)
        index += 1
    return untraced, traced


def _add_function_totals(totals: dict[str, list[int]], spans) -> None:
    """Accumulate [calls, inclusive ns, self ns] per traced name."""
    for s, own in zip(spans, self_times(spans)):
        t = totals.setdefault(s.name, [0, 0, 0])
        t[0] += 1
        t[1] += s.duration
        t[2] += own


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder percentile
    with at least TAIL_MIN_BEYOND samples above it; the median if none has."""
    s = sorted(values)
    best = (TAIL_LADDER[0], nearest_rank(s, TAIL_LADDER[0]), len(s) - math.ceil(TAIL_LADDER[0] * len(s)))
    for q in TAIL_LADDER[1:]:
        beyond = len(s) - math.ceil(q * len(s))
        if beyond >= TAIL_MIN_BEYOND:
            best = (q, nearest_rank(s, q), beyond)
    return best


def _median_op(ok: list[Record], time_of) -> float:
    """Median over the successful operations, each taken at its kind's median time.

    Every batch has the same mix of kinds, so this is a batch's median
    operation at the run's typical speed for each kind.  The pooled median
    would sit on the boundary between two kinds when, as in paper_reproduce,
    four kinds are equally common, and jump with noise there.
    """
    by_kind: dict[str, list[float]] = {}
    for r in ok:
        by_kind.setdefault(r.kind, []).append(time_of(r))
    return statistics.median(statistics.median(v) for v in by_kind.values() for _ in v) if ok else math.nan


def end_to_end(phase: Phase, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced phase, and details that go with them.

    Times are in reference seconds (speed.py); `details` gives the wall-clock
    run_s and op_ms_p50 beside them.
    """
    ok = [r for r in phase.records if r.ok]
    scaled_walls = [w * f for w, f in zip(phase.walls, phase.scales)]
    q, tail_value, beyond = tail([r.scaled for r in ok]) if ok else (math.nan, math.nan, 0)
    values = {
        "setup_s": setup_s,
        "run_s": statistics.fmean(scaled_walls),
        "ops_per_s": len(ok) / sum(scaled_walls),
        "op_ms_p50": _median_op(ok, lambda r: r.scaled) * 1e3,
        "op_ms_tail": tail_value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": len(ok) / len(phase.records),
    }
    by_kind: dict[str, list[float]] = {}
    for r in ok:
        by_kind.setdefault(r.kind, []).append(r.scaled)
    details = {
        "wall_run_s": statistics.fmean(phase.walls),
        "wall_op_ms_p50": _median_op(ok, lambda r: r.seconds) * 1e3,
        "probe_ms_by_batch_median": speed.REFERENCE_S / statistics.median(phase.scales) * 1e3,
        "op_ms_p50_by_kind": {k: statistics.median(v) * 1e3 for k, v in sorted(by_kind.items())},
        "op_ms_tail_percentile": q * 100,
        "op_ms_tail_samples": len(ok),
        "op_ms_tail_beyond": beyond,
        "fail_ratio": 1.0 - values["ok_ratio"],
    }
    return values, details


def per_layer(untraced: Phase, traced: Phase) -> tuple[dict, dict]:
    rows = traced.layer_rows
    values = {}
    for name in layers.PER_LAYER:
        if name == "trace.overhead_s":
            values[name] = statistics.fmean(traced.walls) - statistics.fmean(untraced.walls)
        elif name == "metric.oracle_rel_err_max":
            values[name] = max(r[name] for r in rows)
        else:
            values[name] = statistics.median(r[name] for r in rows)
    by_kind: dict[str, list[int]] = {}
    for r in rows:
        for kind, (builds, points) in r["gamma_builds_by_kind"].items():
            acc = by_kind.setdefault(kind, [0, 0])
            acc[0] += builds
            acc[1] += points
    details = {
        "gamma_builds_per_point_by_kind": {k: b / p for k, (b, p) in sorted(by_kind.items())},
        "traced_batches": len(rows),
        "untraced_run_s": statistics.fmean(untraced.walls),
        "traced_run_s": statistics.fmean(traced.walls),
    }
    return values, details


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path, blas_threads: int, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
        "seed": seed,
    }


def _metric_block(values: dict, units: dict) -> dict:
    """Metrics as {"value", "unit"}; a value with no successful op to measure is null."""
    return {
        name: {"value": values[name] if math.isfinite(values[name]) else None, "unit": units[name]}
        for name in units
    }


def child_setup(run_py: Path, args) -> tuple[float, float]:
    """(wall, reference) seconds of set-up in a fresh interpreter running run.py --setup-only."""
    argv = [sys.executable, str(run_py), "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    wall, scaled = done.stdout.split()[-2:]
    return float(wall), float(scaled)


def main(args, root: Path, started: float, blas_threads: int) -> int:
    """Set up, measure, check and print; `started` is perf_counter() before numpy was imported."""
    tmp_parent = root / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_parent)
    try:
        workload = workloads.WORKLOADS[args.workload](tmp_root)
        # set-up: import, input generation and warm-up, from a cold interpreter
        workload.batch(args.seed, 0)
        for op in workload.warm_up_ops(args.seed):
            run_op(op, -1, None)  # a failure here shows again, and is counted, in the timed phase
        wall = time.perf_counter() - started
        setups = [(wall, wall * speed.setup_scale())]
        if args.setup_only:
            print(*setups[0])
            return 0
        setups += [child_setup(root / "bench" / "run.py", args) for _ in range(SETUP_REPS - 1)]
        setup_s = statistics.median(scaled for _, scaled in setups)

        if args.trace:
            untraced, measured = run_traced(workload, args.seed, args.seconds)
            records = untraced.records + measured.records
            values, details = per_layer(untraced, measured)
            units = layers.PER_LAYER
        else:
            measured = run_phase(workload, args.seed, args.seconds)
            records = measured.records
            values, details = end_to_end(measured, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_parent.rmdir()  # only once no other run is using it

    failures = [r for r in records if not r.ok]
    correct = all(r.check_error is None and (r.error is None or r.refused) for r in records)
    kinds: dict[str, list[int]] = {}
    for r in records:
        k = kinds.setdefault(r.kind, [0, 0])
        k[0] += 1
        k[1] += 0 if r.ok else 1
    details.update(
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        batches=len(measured.walls),
        setup_reps_wall_s=[wall for wall, _ in setups],
        setup_reps_s=[scaled for _, scaled in setups],
        ops_by_kind={k: {"attempted": a, "failed": f} for k, (a, f) in sorted(kinds.items())},
        failure_examples=sorted({r.check_error or r.error for r in failures})[:5],
    )
    env = environment(root, blas_threads, args.seed)
    result = {"correct": correct, "attempted": len(records), "failed": len(failures), "metrics": _metric_block(values, units)}

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"env": env, "details": details, **result}
    if args.trace:
        record["functions"] = {n: {"calls": c, "incl_s": i * 1e-9, "self_s": s * 1e-9} for n, (c, i, s) in sorted(measured.functions.items())}
        record["first_batch_spans"] = measured.first_spans
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    print("details " + json.dumps(details))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0
