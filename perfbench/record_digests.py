"""Record stdout digests of every workload call for a range of seeds.

Usage (from the repository root): python3 perfbench/record_digests.py FIRST LAST

Runs each call of each workload once per seed in FIRST..LAST, checks it
with the oracle, and stores sha256(stdout) under the digest of the call's
flags and input bytes in perfbench/digests.json.  Run it on a commit
whose output is known to be right; later runs of the benchmark then
require byte-identical output for the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    with open(run.DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    workdir = run.WORK / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = run.Bench(workdir)
        for seed in range(first, last + 1):
            for name in workloads.WORKLOADS:
                plan = workloads.build(name, seed, str(workdir))
                for call in plan.calls:
                    code, _, _, out, err = bench.spawn(
                        [sys.executable, "-m", "impactz.cli", *call.args])
                    problem, _ = call.check(out, err)
                    if code != 0 or problem:
                        print(f"seed {seed} {call.label}: exit {code}, "
                              f"{problem}", file=sys.stderr)
                        return 1
                    digests[call.input_key] = hashlib.sha256(out).hexdigest()
            print(f"seed {seed}: {len(digests)} digests", file=sys.stderr)
    finally:
        run.remove_workdir(workdir)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
