"""Wall-clock benchmark of the repro engine with a per-layer ledger.

    python3 perfbench/run.py --workload hard_parse --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
Workloads (see ``BENCHMARK.json`` and ``workloads.py``): ``hard_parse``,
``cached_mix``, ``server_rw``.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
is timed ``SETUPS_BEFORE`` times before and ``SETUPS_AFTER`` times after
the timed phase (the median is ``setup_s``).  The closed-loop phase of
``--seconds`` runs in ``SLICES`` slices, with the oracle's work for the
statements seen so far done between them.  The timings of the in-process
workloads are scaled to a reference host speed measured by a probe run
alongside them (see ``hostspeed.py``); the raw wall-clock figures are on
the report line as ``raw_*``.

``--trace 1`` sets up once and splits ``--seconds`` between two phases:
an untraced base phase and a phase with every layer's entry point
wrapped in a span (see ``spans.py``); it reports the per-layer metrics,
the tracing overhead against the base phase, and writes the spans to
``.perfbench/spans-<workload>-<seed>.jsonl``.

Every read is checked against the reference evaluator outside the timed
phases.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (``{"report": ...}``) carries the full figures: configuration,
sample counts, and the metrics ``BENCHMARK.json`` does not gate
(``latency_p95_ms``, ``fail_ratio``, and the write latencies of
``server_rw``; see ``EXTRA_UNITS``).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import re
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from hostspeed import probe_ms, speed_factor

#: environment knobs the library reads; cleared so the benchmark always
#: measures the defaults (vector engine, memo on, no paranoid checks,
#: fallback on)
PINNED_ENV = (
    "REPRO_EXEC", "REPRO_EXEC_WORKERS", "REPRO_MEMO", "REPRO_DEBUG_CHECKS",
    "REPRO_FALLBACK",
)
#: set-ups timed before and after the timed phase; ``setup_s`` is their
#: median
SETUPS_BEFORE = 2
SETUPS_AFTER = 1
#: probes (see ``hostspeed.py``) right before and right after each set-up
SETUP_PROBES = 5
#: the timed phase is cut into this many slices with untimed oracle work
#: between them.  The shared host's speed swings by up to 20% over 5-10
#: second periods; spreading the measurement over the run's whole wall
#: time samples several of those periods instead of one or two.
SLICES = 4
ROOT = Path(__file__).resolve().parent.parent

#: units of the reported figures that BENCHMARK.json does not gate.
#: ``fail_ratio`` is 0 on a correct run (the gate is ``correct``); only
#: ``server_rw`` writes; p95 latency follows the host's speed drift
#: (interquartile range up to 0.24 of the median over ten runs on a
#: shared 2-vCPU host), too close to the largest bound allowed
EXTRA_UNITS = {
    "fail_ratio": "ratio",
    "latency_p95_ms": "ms",
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny tables and statement sets (self-test only)",
    )
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """The kernel's peak-RSS mark of this process (``VmHWM``)."""
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0


def reset_peak_rss() -> None:
    """Restart the peak-RSS mark at the current RSS (Linux 4.0+)."""
    Path("/proc/self/clear_refs").write_text("5")


def ms(seconds: float) -> float:
    return seconds * 1000.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, *q* in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def deciles_1_5_9(values: list[float]) -> tuple[float, float, float]:
    """p10 / p50 / p90 of *values*."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[0], deciles[4], deciles[8]


def end_to_end(workload, phase, setup_times, wu_per_stmt, peak_rss) -> dict:
    reads = workload.latencies(phase)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_stmt_s": workload.throughput(phase),
        "latency_p50_ms": ms(percentile(reads, 0.50)),
        "latency_p95_ms": ms(percentile(reads, 0.95)),
        "work_units_per_stmt": wu_per_stmt,
        "peak_rss_mb": peak_rss,
    }
    if phase.writes:
        metrics["write_p50_ms"] = ms(percentile(phase.writes, 0.50))
        metrics["write_p95_ms"] = ms(percentile(phase.writes, 0.95))
    return metrics


def unscaled_figures(workload, phase, raw_setup_times) -> dict:
    """The raw wall-clock figures behind the scaled ones, and the probe
    times that scaled them (in-process workloads)."""
    if not workload.host_scaled:
        return {}
    return {
        "raw_setup_s": statistics.median(raw_setup_times),
        "raw_throughput_stmt_s": phase.statements / phase.busy,
        "raw_latency_p50_ms": ms(percentile(phase.reads, 0.50)),
        "raw_latency_p95_ms": ms(percentile(phase.reads, 0.95)),
        "probe_ms_p10_p50_p90": deciles_1_5_9(phase.probes),
        "probe_samples": len(phase.probes),
    }


def work_units_per_statement(samples: list[tuple[float, float]]) -> float:
    """Geometric mean of the executor work units per read.  Plan costs
    span four orders of magnitude, so the arithmetic mean follows the few
    costliest statements a seed happens to draw; the geometric mean moves
    with a plan-quality change that scales every statement alike."""
    return statistics.geometric_mean([max(wu, 1.0) for _ms, wu in samples])


class ExecSampler:
    """Records (execute ms, work units) per executed plan for the
    work-unit calibration figures; costs one call frame per statement."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def __enter__(self):
        from repro.database import Database

        self._original = original = Database.execute_plan
        samples = self.samples

        def sampled(*args, **kwargs):
            result = original(*args, **kwargs)
            samples.append(
                (ms(result.execute_seconds), result.exec_stats.work_units)
            )
            return result

        Database.execute_plan = sampled
        return self

    def __exit__(self, *exc):
        from repro.database import Database

        Database.execute_plan = self._original


def timed_setup(workload_cls, args, workdir):
    """Set up a fresh workload; returns it, the seconds set-up took, and
    those seconds scaled to the reference host speed (probes right before
    and after set-up) when the workload's timings are scaled."""
    gc.collect()
    workload = workload_cls(args.seed, args.tiny, str(workdir))
    probes = [probe_ms() for _ in range(SETUP_PROBES)]
    started = time.perf_counter()
    workload.setup()
    seconds = time.perf_counter() - started
    probes += [probe_ms() for _ in range(SETUP_PROBES)]
    scale = speed_factor(probes) if workload.host_scaled else 1.0
    return workload, seconds, seconds * scale


def release_freed_memory() -> None:
    """Collect garbage and hand the heap memory freed by the oracle back to
    the OS (glibc keeps it otherwise: 230 MB after the ``cached_mix``
    oracle, 94 MB after the trim), so the next slice's peak-RSS mark
    starts from the program's own memory."""
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)


def run_untraced(workload_cls, args, workdir):
    from workloads import Phase

    # set-ups before and after the timed phase, so that the median spans
    # the run's wall time like the slices do
    setup_times, raw_setup_times = [], []
    for _ in range(SETUPS_BEFORE - 1):
        workload, seconds, scaled = timed_setup(workload_cls, args, workdir)
        raw_setup_times.append(seconds)
        setup_times.append(scaled)
        workload.close()
    workload, seconds, scaled = timed_setup(workload_cls, args, workdir)
    raw_setup_times.append(seconds)
    setup_times.append(scaled)
    try:
        phase = Phase()
        oracle_s = 0.0
        # peak memory of set-up and the timed slices; the oracle's
        # memory between slices is left out
        peak_rss = peak_rss_mb()
        with ExecSampler() as sampler:
            for _ in range(SLICES):
                release_freed_memory()
                reset_peak_rss()
                workload.run(phase, args.seconds / SLICES)
                peak_rss = max(peak_rss, peak_rss_mb())
                checked = time.perf_counter()
                workload.expect(phase.observed)
                oracle_s += time.perf_counter() - checked
        checked = time.perf_counter()
        failures = phase.errors + workload.verify([phase])
        oracle_s += time.perf_counter() - checked
        description = workload.describe()
    finally:
        workload.close()
    for _ in range(SETUPS_AFTER):
        extra, seconds, scaled = timed_setup(workload_cls, args, workdir)
        raw_setup_times.append(seconds)
        setup_times.append(scaled)
        extra.close()

    wu = work_units_per_statement(sampler.samples)
    metrics = end_to_end(workload, phase, setup_times, wu, peak_rss)
    report = {
        "oracle_s": oracle_s,
        "slices": SLICES,
        "host_scaled": workload.host_scaled,
        **unscaled_figures(workload, phase, raw_setup_times),
        "setup_samples": len(setup_times),
        "setup_s_max": max(setup_times),
        "latency_samples": len(phase.reads),
        "work_units_mean": statistics.fmean(wu for _ms, wu in sampler.samples),
        "write_samples": len(phase.writes),
        "phase_elapsed_s": phase.elapsed,
        "workload": description,
    }
    return metrics, report, phase.statements, failures


def counts(db) -> Counter:
    """The program's own counters the per-layer metrics are deltas of."""
    memo = db.plan_memo.snapshot()
    snap = db.snapshot()
    out = Counter({
        k: memo[k]
        for k in ("hits", "misses", "join_hits", "join_misses", "invalidations")
    })
    out["vector_fallbacks"] = snap.get("counters", {}).get(
        "executor.vector_fallbacks", 0
    )
    server = snap.get("server", {})
    out["rejects"] = sum(
        server.get(k, 0) for k in ("rejected_global", "rejected_session")
    )
    durability = snap.get("durability", {})
    out["wal_bytes"] = durability.get("wal_bytes_appended", 0)
    out["wal_fsyncs"] = durability.get("wal_fsyncs", 0)
    return out


def run_traced(workload_cls, args, workdir):
    from spans import (
        Instrumentation,
        SpanRecorder,
        coverage_failures,
        layer_metrics,
        spearman,
    )
    from workloads import Phase

    workload = workload_cls(args.seed, args.tiny, str(workdir))
    workload.setup()
    try:
        db = workload.db
        # base and traced slices alternate, so the host's speed swings
        # fall on both sides of the overhead figure alike
        base, traced = Phase(), Phase()
        sampler = ExecSampler()
        recorder = SpanRecorder()
        instrumentation = Instrumentation(recorder)
        delta = Counter()
        for _ in range(SLICES):
            with sampler:
                workload.run(base, args.seconds / (2 * SLICES))
            before = counts(db)
            instrumentation.install()
            try:
                workload.run(traced, args.seconds / (2 * SLICES), recorder)
            finally:
                instrumentation.uninstall()
            delta.update(counts(db))
            delta.subtract(before)

        metrics = layer_metrics(recorder, traced.statements, workload.clients > 1)
        lookups = sum(
            delta[k] for k in ("hits", "misses", "join_hits", "join_misses")
        )
        hits = delta["hits"] + delta["join_hits"]
        metrics["optimizer.memo_hit_ratio"] = hits / lookups if lookups else 0.0
        metrics["optimizer.memo_entries"] = float(
            db.plan_memo.snapshot()["entries"]
        )
        metrics["optimizer.memo_invalidations"] = float(delta["invalidations"])
        metrics["engine.vector_fallbacks"] = float(delta["vector_fallbacks"])
        metrics["server.admission_rejects"] = float(delta["rejects"])
        writes = len(traced.writes)
        metrics["durability.wal_bytes_per_row"] = 0.0
        metrics["durability.fsyncs_per_write"] = 0.0
        if writes:
            metrics["durability.wal_bytes_per_row"] = (
                delta["wal_bytes"] / (writes * workload.WRITE_ROWS)
            )
            metrics["durability.fsyncs_per_write"] = delta["wal_fsyncs"] / writes

        calibrated = [(t, wu) for t, wu in sampler.samples if wu > 0]
        per_kwu = [t / (wu / 1000.0) for t, wu in calibrated]
        p10, p50, p90 = deciles_1_5_9(per_kwu)
        metrics["engine.ms_per_kwu_p10"] = p10
        metrics["engine.ms_per_kwu_p50"] = p50
        metrics["engine.ms_per_kwu_p90"] = p90
        metrics["engine.wu_wall_spearman"] = spearman(
            [wu for _t, wu in calibrated], [t for t, _wu in calibrated]
        )
        metrics["engine.wu_wall_statements"] = float(len(calibrated))

        base_rate = workload.throughput(base)
        traced_rate = workload.throughput(traced)
        metrics["trace.base_throughput_stmt_s"] = base_rate
        metrics["trace.traced_throughput_stmt_s"] = traced_rate
        metrics["trace.overhead_pct"] = (base_rate / traced_rate - 1.0) * 100.0
        metrics["trace.statements"] = float(traced.statements)

        failures = base.errors + traced.errors + workload.verify([base, traced])
        guard = coverage_failures(recorder, workload.name)
        spans_path = workdir / f"spans-{workload.name}-{args.seed}.jsonl"
        recorder.dump(str(spans_path))
        report = {
            "base_statements": base.statements,
            "traced_statements": traced.statements,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "workload": workload.describe(),
        }
        return metrics, report, base.statements + traced.statements, failures, guard
    finally:
        workload.close()


def declared_metrics(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)

    config = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "pinned_env_cleared": list(PINNED_ENV),
    }
    guard: list[str] = []
    if args.trace:
        metrics, report, attempted, failures, guard = run_traced(
            workload_cls, args, workdir
        )
        declared = declared_metrics("per_layer")
    else:
        metrics, report, attempted, failures = run_untraced(
            workload_cls, args, workdir
        )
        declared = declared_metrics("end_to_end")
    metrics["fail_ratio"] = len(failures) / max(attempted, 1)
    units = {**EXTRA_UNITS, **dict(declared)}
    unknown = sorted(set(metrics) - set(units))
    missing = [name for name, _unit in declared if name not in metrics]
    if unknown or missing:
        print(f"perfbench: metrics produced but not declared: {unknown}; "
              f"declared but not produced: {missing}", file=sys.stderr)
        return 3

    for name, value in sorted(metrics.items()):
        print(f"{args.workload:>10} {name:<34} {value:14.4f} {units[name]}")
    for message in failures[:20]:
        print(f"FAILED: {message}")
    for message in guard:
        print(f"COVERAGE: {message}")
    print(json.dumps({"report": {
        "config": config,
        **report,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }}))
    if guard:
        print("perfbench: layer-coverage guard failed", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
