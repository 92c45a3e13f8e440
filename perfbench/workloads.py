"""The four benchmark workloads: their inputs, CLI calls and output checks.

``build(name, seed, directory)`` writes the seeded inputs into
``directory`` and returns a Plan.  A workload iteration is every call of
the plan, run one after another as fresh ``impactz`` processes.  Each
call's check compares stdout (and stderr warnings) with the independent
oracle and returns the counts the benchmark reports.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable

import inputs
import oracle

Y = inputs.TARGET_YEAR


@dataclass
class Call:
    label: str
    args: list[str]
    # (stdout, stderr) -> (problem or None, counts)
    check: Callable[[bytes, bytes], tuple[str | None, dict]]
    mine_kind: str | None = None
    input_key: str = ""


@dataclass
class Plan:
    calls: list[Call]
    sizes: dict = field(default_factory=dict)


def _first_difference(got: bytes, want: bytes) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for number, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"line {number}: got {g[:120]!r}, want {w[:120]!r}"
    return f"got {len(got_lines)} lines, want {len(want_lines)}"


def _input_key(args: list[str]) -> str:
    """Digest of the flags and of the bytes of every input file."""
    h = hashlib.sha256()
    for flag, arg in zip([""] + args, args):
        if flag in ("--pubs", "--cits"):
            with open(arg, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
        else:
            h.update(arg.encode())
        h.update(b"\0")
    return h.hexdigest()


def _corpus_args(pubs: str, cits: str, kind: str, n: int, year: int
                 ) -> list[str]:
    return ["--pubs", pubs, "--cits", cits, "--kind", kind, "-n", str(n),
            "--year", str(year)]


def ingest_compute(rng, directory: str, seed: int) -> Plan:
    journals = inputs.ingest_corpus(rng)
    pubs, cits, sizes = inputs.write_corpus(directory, "ingest", journals)
    calls = []
    for kind, n, year in (("sync-roa", 2, Y), ("sync-aor", 2, Y),
                          ("diachronous", 2, Y - 2)):
        want = oracle.compute_stdout(journals, kind, n, year)

        def check(out, err, want=want):
            if out != want:
                return "compute output differs: " + _first_difference(out, want), {}
            return None, {"items": len(journals)}

        calls.append(Call(f"compute {kind}",
                          ["compute"] + _corpus_args(pubs, cits, kind, n, year),
                          check))
    return Plan(calls, {"corpus": sizes, "calls": 3})


def rank_ties(rng, directory: str, seed: int) -> Plan:
    journals = inputs.rank_corpus(rng)
    pubs, cits, sizes = inputs.write_corpus(directory, "rank", journals)
    want, skipped, tied = oracle.rank_stdout(journals, "sync-roa", 2, Y)
    want_err = [f"warning: skipped {jid}:".encode() for jid in skipped]

    def check(out, err):
        if out != want:
            return "rank output differs: " + _first_difference(out, want), {}
        warnings = err.splitlines()
        if len(warnings) != len(want_err) or not all(
                line.startswith(prefix)
                for line, prefix in zip(warnings, want_err)):
            return "rank skip warnings differ from the uncomputable journals", {}
        return None, {"items": len(journals)}

    sizes.update(uncomputable=len(skipped), tied_entries=tied)
    return Plan([Call("rank sync-roa",
                      ["rank"] + _corpus_args(pubs, cits, "sync-roa", 2, Y),
                      check)],
                {"corpus": sizes, "calls": 1})


def sensitivity_scan(rng, directory: str, seed: int) -> Plan:
    calls, sizes, n = [], {}, inputs.SENS_N
    for kind in ("sync-roa", "sync-aor"):
        journals, rows = inputs.sensitivity_corpus(rng, kind)
        pubs, cits, sizes[kind] = inputs.write_corpus(directory, kind, journals)
        want = oracle.sensitivity_stdout(rows)
        spot = rng.sample([r for r in rows if r[3] is not None], 8)

        def check(out, err, journals=journals, rows=rows, want=want,
                  spot=spot, kind=kind):
            if out != want:
                return ("sensitivity output differs: "
                        + _first_difference(out, want)), {}
            for upper, lower, year, k in spot:
                pair = (journals[upper], journals[lower])
                if not oracle.reverses(kind, n, Y, 0, *pair, year, k) or (
                        k > 1 and oracle.reverses(kind, n, Y, 0, *pair,
                                                  year, k - 1)):
                    return (f"min_k {k} for {upper}>{lower} at {year} "
                            f"is not minimal and reversing"), {}
            found = [k for *_, k in rows if k is not None]
            return None, {
                "items": len(rows), "found": len(found),
                "k_steps": sum(found)
                + inputs.SENS_K_MAX * (len(rows) - len(found))}

        calls.append(Call(f"sensitivity {kind}",
                          ["sensitivity"] + _corpus_args(pubs, cits, kind, n, Y)
                          + ["--k-max", str(inputs.SENS_K_MAX)], check))
    return Plan(calls, {"corpora": sizes, "k_max": inputs.SENS_K_MAX,
                        "calls": 2})


def mine_exhaust(rng, directory: str, seed: int) -> Plan:
    year = inputs.MINE_FIRST_YEAR + seed % inputs.MINE_YEARS
    calls, boxes = [], []
    for kind, n, pub_max, cit_max, k_max, witnesses in inputs.MINE_BOXES:
        def check(out, err, kind=kind, n=n, pub_max=pub_max,
                  cit_max=cit_max, k_max=k_max, witnesses=witnesses,
                  pick=random.Random(rng.getrandbits(64))):
            lines = out.decode().splitlines()
            if len(lines) != witnesses:
                return (f"mine {kind} emitted {len(lines)} witnesses, "
                        f"want {witnesses}"), {}
            for line in pick.sample(lines, 30):
                problem = oracle.check_witness(line, kind, n, year, 0,
                                               pub_max, cit_max, k_max)
                if problem:
                    return f"mine {kind}: {problem}: {line[:160]}", {}
            return None, {"items": len(lines), "witnesses": len(lines)}

        calls.append(Call(f"mine {kind}",
                          ["mine", "--kind", kind, "-n", str(n),
                           "--year", str(year), "--pub-max", str(pub_max),
                           "--cit-max", str(cit_max), "--k-max", str(k_max),
                           "--limit", str(inputs.MINE_LIMIT)],
                          check, mine_kind=kind))
        boxes.append({"kind": kind, "n": n, "pub_max": pub_max,
                      "cit_max": cit_max, "k_max": k_max,
                      "witnesses": witnesses})
    return Plan(calls, {"boxes": boxes, "year": year, "calls": 3})


WORKLOADS = {
    "ingest-compute": ingest_compute,
    "rank-ties": rank_ties,
    "sensitivity-scan": sensitivity_scan,
    "mine-exhaust": mine_exhaust,
}


def build(name: str, seed: int, directory: str) -> Plan:
    plan = WORKLOADS[name](random.Random(f"{name}:{seed}"), directory, seed)
    for call in plan.calls:
        call.input_key = _input_key(call.args)
    return plan
