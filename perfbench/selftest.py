"""Fast self-test of the benchmark: runs every workload tiny, traced and
untraced, and checks that each declared metric appears with its unit.

    python3 perfbench/selftest.py

Also checks that the benchmark refuses to run (non-zero exit, no result
line) in a directory holding only ``BENCHMARK.json`` and ``perfbench/``.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-400:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']} "
                        f"attempted={result['attempted']}")
    declared = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        problems.append(f"{where}: metrics/units {got} != declared {declared}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    extras = report["metrics"]
    if extras["fail_ratio"]["value"] != 0:
        problems.append(f"{where}: fail_ratio {extras['fail_ratio']}")
    reported = ["latency_p95_ms"] if not trace else []
    if workload == "server_rw" and not trace:
        reported += ["write_p50_ms", "write_p95_ms"]
    for name in reported:
        if name not in extras:
            problems.append(f"{where}: {name} missing from the report")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run(bare, "hard_parse", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["benchmark ran without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
            print(f"checked {workload} --trace {trace}", flush=True)
    for problem in problems:
        print(f"SELFTEST: {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
