"""Self-test of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py [SEED]

1. BENCHMARK.json names exactly the metrics run.py reports, with the same
   units and directions, and keeps within the documented limits.
2. For every workload, two traced runs with one seed report correct
   output and identical exact counts.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads

BENCHMARK = run.ROOT / "BENCHMARK.json"


def check_manifest() -> list[str]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if any(len(w["why"]) > 200 for w in spec["workloads"]):
        problems.append("a workload 'why' is longer than 200 characters")
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    if e2e != list(run.END_TO_END):
        problems.append("end_to_end metrics differ from run.END_TO_END")
    if any(not 0 < m["bound"] <= 0.25 for m in spec["end_to_end"]):
        problems.append("an end_to_end bound is outside (0, 0.25]")
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layers != [row[:3] for row in run.PER_LAYER]:
        problems.append("per_layer metrics differ from run.PER_LAYER")
    return problems


def traced_result(workload: str, seed: int, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def check_exact_counts(seed: int) -> list[str]:
    problems = []
    exact = [name for name, *_, is_exact in run.PER_LAYER if is_exact]
    for workload in workloads.WORKLOADS:
        results = [traced_result(workload, seed) for _ in range(2)]
        for code, result in results:
            if code != 0 or not result or not result["correct"]:
                problems.append(f"{workload}: traced run failed ({code})")
        if problems:
            continue
        counts = [{name: result["metrics"][name]["value"] for name in exact}
                  for _, result in results]
        if counts[0] != counts[1]:
            problems.append(f"{workload}: exact counts differ: {counts}")
        else:
            print(f"selftest: {workload} counts {counts[0]}", file=sys.stderr)
    return problems


def check_bare_directory() -> list[str]:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCHMARK, bare / "BENCHMARK.json")
        code, result = traced_result("rank-ties", 1, cwd=bare)
    finally:
        run.remove_workdir(bare)
    if code == 0 or result is not None:
        return [f"bare directory: exit {code}, result {result}"]
    return []


def main(argv: list[str]) -> int:
    seed = int(argv[0]) if argv else 1
    problems = check_manifest() + check_bare_directory() \
        + check_exact_counts(seed)
    for problem in problems:
        print(f"selftest: FAIL {problem}", file=sys.stderr)
    print("selftest: " + ("ok" if not problems else "failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
