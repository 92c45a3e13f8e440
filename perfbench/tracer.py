"""Traced CLI run: time the calls between impactz's layers.

Usage: python3 perfbench/tracer.py SPANS_FILE CLI_ARG...

Runs ``impactz.cli.run(CLI_ARG...)`` in this process after replacing, in
the namespaces of ``impactz.cli``, ``impactz.corpus``,
``impactz.consistency`` and ``impactz.core``, every name bound to one of
the traced public functions with a timing wrapper; ``JournalData``
construction is timed through its ``__init__``.  Spans (name, start,
end, parent) are kept in flat arrays and written to SPANS_FILE when the
command returns; all spans of one file belong to one run.  Stdout is the
command's own, so it can be compared with an untraced run.

``summarize`` turns a spans file into per-name self times and call counts;
a span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

SPAN_NAMES = (
    "cli",
    "corpus.load_corpus",
    "corpus.rank",
    "corpus.sensitivity_report",
    "consistency.min_reversal_k",
    "consistency.check_z_consistency",
    "consistency.mine_counterexamples",
    "core.JournalData",
    "core.compute",
    "core.apply_injection",
    "ratio.to_decimal",
    "ratio.format_exact",
)


class Tracer:
    def __init__(self):
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {"rank.tied_entries": 0}

    def wrap(self, fn, span_name: str, after=None):
        index = SPAN_NAMES.index(span_name)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(names)
            names.append(index)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            starts[span] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def count_ties(self, ranking) -> None:
        self.counters["rank.tied_entries"] += sum(
            1 for entry in ranking.entries if entry.tied_with)

    def install(self) -> None:
        from impactz import cli, consistency, core, corpus, ratio
        wrappers = {}
        for fn, span_name in (
                (corpus.load_corpus, "corpus.load_corpus"),
                (corpus.sensitivity_report, "corpus.sensitivity_report"),
                (consistency.min_reversal_k, "consistency.min_reversal_k"),
                (consistency.check_z_consistency,
                 "consistency.check_z_consistency"),
                (consistency.mine_counterexamples,
                 "consistency.mine_counterexamples"),
                (core.compute, "core.compute"),
                (core.apply_injection, "core.apply_injection"),
                (ratio.to_decimal, "ratio.to_decimal"),
                (ratio.format_exact, "ratio.format_exact")):
            wrappers[fn] = self.wrap(fn, span_name)
        wrappers[corpus.rank] = self.wrap(corpus.rank, "corpus.rank",
                                          after=self.count_ties)
        for module in (cli, corpus, consistency, core):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        core.JournalData.__init__ = self.wrap(core.JournalData.__init__,
                                              "core.JournalData")

    def dump(self, path: str, run_id: str) -> None:
        header = {"run": run_id, "names": SPAN_NAMES, "spans": len(self.name),
                  "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)


def summarize(path: str) -> tuple[dict, dict, dict]:
    """Self seconds and call count per span name, plus the counters."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["spans"]
        columns = []
        for code in ("H", "i", "d", "d"):
            column = array(code)
            column.fromfile(fh, count)
            columns.append(column)
    names, parents, starts, ends = columns
    durations = [e - s for s, e in zip(starts, ends)]
    child = [0.0] * count
    for span, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += durations[span]
    self_s = dict.fromkeys(header["names"], 0.0)
    calls = dict.fromkeys(header["names"], 0)
    for span, index in enumerate(names):
        name = header["names"][index]
        self_s[name] += durations[span] - child[span]
        calls[name] += 1
    return self_s, calls, header["counters"]


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from impactz import cli
    tracer = Tracer()
    tracer.install()
    code = tracer.wrap(cli.run, "cli")(cli_args)
    sys.stdout.flush()
    tracer.dump(spans_path, run_id=" ".join(cli_args))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
