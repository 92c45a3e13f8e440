"""End-to-end benchmark of the impactz CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes seeded inputs under ``.perfbench-work/``, then runs the workload's
CLI calls as fresh ``python3 -m impactz.cli`` processes (``src/`` on
PYTHONPATH), one after another: a closed loop with one client.  Every call
is checked: exit code, stdout digest (against the digest recorded for the
same input on the seed commit, when there is one, and against the first
run of the same call) and an independent Fraction oracle.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced iterations with iterations run
under ``tracer.py`` and reports per-layer self times and exact counts.
The second-to-last stdout line is a JSON record of the run environment,
input sizes and per-metric samples; the last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True  # leave no generated files in perfbench/
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

SETUP_REPS = 11  # fewest set-up samples; one more is taken per iteration

# The host of the reference box switches between a fast and a slow state
# (about 1.6x apart, in CPU time as well as wall time) for seconds to
# minutes at a time, so whole runs land in one state or the other.  A fixed
# pure-Python job that does not touch impactz runs as a fresh process
# after every timed sample; each sample is scaled by REFERENCE_S over the
# mean of the reference times taken just before and just after it.  Scaled
# times read as seconds on the reference box in its fast state, where the
# reference takes about REFERENCE_S.
REFERENCE_CODE = """
from fractions import Fraction
total = Fraction(0)
cells = {}
for i in range(1, 12000):
    f = Fraction(i % 97 + 1, i % 89 + 1)
    total += f
    cells[str(i)] = f"{f.numerator}/{f.denominator}"
"""
REFERENCE_S = 0.08
DEADLINE_S = 170  # the whole run, so it ends well inside 180 s

END_TO_END = (
    ("run_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# (name, unit, better, exact): exact metrics are counts that repeat
# exactly for one seed and program.
PER_LAYER = (
    ("cli.self_s", "s", "lower", False),
    ("corpus.load_corpus.self_s", "s", "lower", False),
    ("corpus.rank.self_s", "s", "lower", False),
    ("corpus.rank.calls", "count", "lower", True),
    ("corpus.sensitivity_report.self_s", "s", "lower", False),
    ("rank.tied_entries", "count", "lower", True),
    ("core.JournalData.self_s", "s", "lower", False),
    ("core.JournalData.calls", "count", "lower", True),
    ("core.compute.self_s", "s", "lower", False),
    ("core.compute.calls", "count", "lower", True),
    ("core.apply_injection.self_s", "s", "lower", False),
    ("core.apply_injection.calls", "count", "lower", True),
    ("consistency.min_reversal_k.self_s", "s", "lower", False),
    ("consistency.min_reversal_k.calls", "count", "lower", True),
    ("sensitivity.k_steps", "count", "lower", True),
    ("sensitivity.reversal_ratio", "ratio", "higher", True),
    ("consistency.check_z_consistency.self_s", "s", "lower", False),
    ("consistency.check_z_consistency.calls", "count", "lower", True),
    ("mine.sync-roa.enum_s", "s", "lower", False),
    ("mine.diachronous.enum_s", "s", "lower", False),
    ("mine.sync-aor.enum_s", "s", "lower", False),
    ("mine.witnesses", "count", "higher", True),
    ("ratio.to_decimal.self_s", "s", "lower", False),
    ("ratio.to_decimal.calls", "count", "lower", True),
    ("ratio.format_exact.self_s", "s", "lower", False),
    ("ratio.format_exact.calls", "count", "lower", True),
    ("trace.overhead_s", "s", "lower", False),
)


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def _stats(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def _environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version()}


def remove_workdir(workdir: Path) -> None:
    """Delete a run's scratch directory, and WORK once it is empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


class Bench:
    """Runs and checks CLI calls, counting attempts and failures."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        # Children get no PYTHON* settings from the caller's environment
        # (such as PYTHONUNBUFFERED or PYTHONDONTWRITEBYTECODE), so the
        # same code measures the same wherever the benchmark is started.
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(SRC)
        with open(DIGESTS, encoding="utf-8") as fh:
            self.recorded = json.load(fh)
        self.first: dict[str, tuple[str, dict]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, argv: list[str]) -> tuple[int, float, float, bytes, bytes]:
        """Run one process; return exit code, wall s, peak RSS MB, out, err."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss / 1024,
                out_path.read_bytes(), err_path.read_bytes())

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)
            print(f"perfbench: {problem}", file=sys.stderr)

    def reference_time(self) -> float:
        code, wall, _, _, err = self.spawn(
            [sys.executable, "-c", REFERENCE_CODE])
        if code != 0:
            raise RuntimeError(f"reference job exited {code}: {err!r}")
        return wall

    def setup_time(self) -> float:
        """Wall seconds for a fresh process to import impactz and build
        the CLI parser."""
        self.attempted += 1
        code, wall, _, out, _ = self.spawn(
            [sys.executable, "-m", "impactz.cli", "--help"])
        if code != 0 or not out.startswith(b"usage: impactz"):
            self.fail(f"impactz --help exited {code}")
        return wall

    def call(self, call: workloads.Call, spans: Path | None):
        """Run and check one call; return wall, RSS and output counts."""
        self.attempted += 1
        if spans is None:
            argv = [sys.executable, "-m", "impactz.cli", *call.args]
        else:
            argv = [sys.executable, str(TRACER), str(spans), *call.args]
        code, wall, rss, out, err = self.spawn(argv)
        digest = hashlib.sha256(out).hexdigest()
        problem, counts = None, {}
        if code != 0:
            problem = f"{call.label} exited {code}: {err[-300:]!r}"
        elif call.label in self.first:
            if digest != self.first[call.label][0]:
                problem = f"{call.label} stdout differs from its first run"
            counts = self.first[call.label][1]
        elif self.recorded.get(call.input_key, digest) != digest:
            problem = (f"{call.label} stdout differs from the digest "
                       f"recorded on the seed commit")
        else:
            problem, counts = call.check(out, err)
            if problem is None:
                self.first[call.label] = (digest, counts)
        if problem:
            self.fail(problem)
        return wall, rss, counts


def _iteration(bench: Bench, plan: workloads.Plan, traced: bool):
    wall, peak, counts, layer = 0.0, 0.0, Counter(), Counter()
    for call in plan.calls:
        spans = bench.workdir / "spans" if traced else None
        call_wall, rss, call_counts = bench.call(call, spans)
        wall += call_wall
        peak = max(peak, rss)
        counts.update(call_counts)
        if traced and spans.exists():
            self_s, calls, counters = tracer.summarize(str(spans))
            spans.unlink()
            for name in tracer.SPAN_NAMES:
                layer[f"{name}.self_s"] += self_s[name]
                layer[f"{name}.calls"] += calls[name]
            if call.mine_kind:
                layer[f"mine.{call.mine_kind}.enum_s"] += \
                    self_s["consistency.mine_counterexamples"]
            layer.update(counters)
    return wall, peak, counts, layer


def _loop(seconds: float, step) -> None:
    """Call ``step`` until the next call would end after ``seconds``."""
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - before) > seconds:
            return


def measure(bench: Bench, plan: workloads.Plan, seconds: float
            ) -> tuple[dict, dict, dict]:
    bench.setup_time()  # warm-up: the first start may compile bytecode
    refs = [bench.reference_time()]
    samples = {name: [] for name in ("run_s", "items_per_s", "peak_rss_mb",
                                     "setup_s", "run_wall_s", "setup_wall_s")}

    def scale() -> float:
        refs.append(bench.reference_time())
        return REFERENCE_S / ((refs[-2] + refs[-1]) / 2)

    def step():
        wall, peak, counts, _ = _iteration(bench, plan, traced=False)
        setup = bench.setup_time()
        factor = scale()
        samples["run_s"].append(wall * factor)
        samples["items_per_s"].append(counts["items"] / (wall * factor))
        samples["peak_rss_mb"].append(peak)
        samples["setup_s"].append(setup * factor)
        samples["run_wall_s"].append(wall)
        samples["setup_wall_s"].append(setup)

    _loop(seconds, step)
    while len(samples["setup_s"]) < SETUP_REPS:
        setup = bench.setup_time()
        samples["setup_s"].append(setup * scale())
        samples["setup_wall_s"].append(setup)
    samples["reference_s"] = refs
    metrics = {name: statistics.median(samples[name])
               for name, _, _ in END_TO_END}
    return metrics, samples, {}


def measure_traced(bench: Bench, plan: workloads.Plan, seconds: float
                   ) -> tuple[dict, dict, dict]:
    plain, traced, layers, counts_seen = [], [], [], []

    def step():
        plain.append(_iteration(bench, plan, traced=False)[0])
        wall, _, counts, layer = _iteration(bench, plan, traced=True)
        traced.append(wall)
        layers.append(layer)
        counts_seen.append((counts, {name: layer[name] for name, _, _, exact
                                     in PER_LAYER if exact}))

    _loop(seconds, step)
    if any(seen != counts_seen[0] for seen in counts_seen):
        bench.fail("exact counts differ between traced iterations")
    counts = counts_seen[0][0]
    audited = counts["items"] if "k_steps" in counts else 0
    for layer, traced_wall, plain_wall in zip(layers, traced, plain):
        layer["sensitivity.k_steps"] = counts["k_steps"]
        layer["sensitivity.reversal_ratio"] = (counts["found"] / audited
                                               if audited else 0.0)
        layer["mine.witnesses"] = counts["witnesses"]
        layer["trace.overhead_s"] = traced_wall - plain_wall
    samples = {name: [layer[name] for layer in layers]
               for name, _, _, _ in PER_LAYER}
    metrics = {name: statistics.median(values)
               for name, values in samples.items()}
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    samples.update(untraced_run_s=plain, traced_run_s=traced)
    return metrics, samples, {"reversal_ratio_base": audited}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "impactz" / "cli.py").is_file():
        print(f"perfbench: no impactz sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        environment = _environment()
        environment["loadavg_before"] = os.getloadavg()
        plan = workloads.build(args.workload, args.seed, str(workdir))
        bench = Bench(workdir)
        if args.trace:
            metrics, samples, extra = measure_traced(bench, plan, args.seconds)
            table = PER_LAYER
        else:
            metrics, samples, extra = measure(bench, plan, args.seconds)
            table = END_TO_END
        environment["loadavg_after"] = os.getloadavg()
    except Deadline as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        remove_workdir(workdir)

    recorded = sum(call.input_key in bench.recorded for call in plan.calls)
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment, "inputs": plan.sizes,
        "error_rate": bench.failed / bench.attempted,
        "digests_recorded": f"{recorded}/{len(plan.calls)} calls",
        "samples": {name: _stats(values) for name, values in samples.items()},
        "exact": [name for name, *_, exact in PER_LAYER if exact]
        if args.trace else [],
        "problems": bench.problems,
        **extra,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, *_ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
