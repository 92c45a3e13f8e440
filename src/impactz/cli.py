"""Command-line surface: compute indicators, rank corpora, audit ranking
sensitivity, mine reversal counterexamples, and verify the built-in
reference tables.

Exit codes: 0 success, 1 data/validation errors, 2 usage errors.  A
reader that closes stdout early (``impactz mine ... | head -1``) ends the
run with exit 1 and nothing on stderr.
All output is byte-deterministic for a given input and flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from itertools import islice

from .consistency import SearchBounds, iter_counterexamples
from .core import IndicatorKind, IndicatorSpec
from .corpus import _sensitivity_rows, _values, load_corpus, rank
from .ratio import _long_str, format_exact, to_decimal

_KINDS = {kind.value: kind for kind in IndicatorKind}


def _int_in_range(low: int, high: int | None = None):
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_positive = _int_in_range(1)
_MAX_WINDOW = 100  # each of a sensitivity pair's n checks reads all n years
_window = _int_in_range(1, _MAX_WINDOW)
_MAX_PLACES = 1000  # bounds the digits that each printed value can take
_places = _int_in_range(0, _MAX_PLACES)


def _build_parser() -> argparse.ArgumentParser:
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--pubs", required=True,
                        help="publications CSV (journal,year,pubs)")
    corpus.add_argument("--cits", required=True,
                        help="citations CSV (journal,citing_year,cited_year,count)")

    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--kind", required=True, choices=sorted(_KINDS))
    spec.add_argument("-n", type=_window, required=True, dest="n",
                      help=f"window length in years (1 to {_MAX_WINDOW})")
    spec.add_argument("--year", type=int, required=True, help="target year")
    spec.add_argument("-s", type=int, default=0, choices=(0, 1),
                      help="include the publication year (diachronous only)")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("tsv", "json"), default="tsv")
    output.add_argument("--places", type=_places, default=2,
                        help="decimal places for display values "
                             f"(0 to {_MAX_PLACES})")

    sensitivity = argparse.ArgumentParser(add_help=False)
    sensitivity.add_argument("--k-max", type=_positive, default=100,
                             help="largest injection size to report")

    mine = argparse.ArgumentParser(add_help=False)
    mine.add_argument("--pub-max", type=_positive, required=True)
    mine.add_argument("--cit-max", type=_positive, required=True)
    mine.add_argument("--k-max", type=_positive, required=True)
    mine.add_argument("--limit", type=_positive, default=10)

    parser = argparse.ArgumentParser(
        prog="impactz",
        description="Exact impact-factor indicators and Z-consistency audits")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help, parents in (
            ("compute", partial(_cmd_table, _compute_table),
             "indicator value per journal", (corpus, spec, output)),
            ("rank", partial(_cmd_table, _rank_table),
             "competition-ranked journal table", (corpus, spec, output)),
            ("sensitivity", partial(_cmd_table, _sensitivity_table),
             "minimal uncited injections that flip adjacent ranks",
             (corpus, spec, output, sensitivity)),
            ("mine", _cmd_mine,
             "exhaustively search bounded data for reversals",
             (spec, output, mine)),
            ("verify-paper", _cmd_verify_paper,
             "check the built-in reference tables end to end", ())):
        sub.add_parser(name, help=help,
                       parents=parents).set_defaults(func=func)
    return parser


def _cell(value, places: int) -> dict[str, str]:
    return {"exact": format_exact(value), "decimal": to_decimal(value, places)}


def _emit(rows, fmt: str, out) -> None:
    """Write each row of the iterable as soon as it arrives, its columns
    in the row dict's order.  JSON output is byte-identical to
    ``json.dump(list(rows), out, indent=2)`` and a newline; the array
    framing is written here, one row at a time."""
    if fmt == "json":
        import json
        sep = "[\n  "
        for row in rows:
            out.write(sep + json.dumps(row, indent=2).replace("\n", "\n  "))
            sep = ",\n  "
        out.write("[]\n" if sep == "[\n  " else "\n]\n")
    else:
        for row in rows:
            out.write("\t".join(map(str, row.values())) + "\n")


def _cmd_table(table, args, out) -> int:
    """Load the two CSVs, write ``table``'s rows, then warn on stderr
    about each journal that it skipped."""
    with open(args.pubs, encoding="utf-8") as pubs_fh, \
            open(args.cits, encoding="utf-8") as cits_fh:
        corpus = load_corpus(pubs_fh, cits_fh)
    spec = IndicatorSpec(_KINDS[args.kind], args.n, args.year, args.s)
    rows, skipped = table(corpus, spec, args)
    _emit(rows, args.format, out)
    for journal_id, reason in skipped:
        print(f"warning: skipped {journal_id}: {reason}", file=sys.stderr)
    return 0


def _compute_table(corpus, spec, args):
    values, skipped = _values(corpus, spec)
    return [{"journal": journal_id, **_cell(value, args.places)}
            for journal_id, value in values], skipped


def _rank_table(corpus, spec, args):
    ranking = rank(corpus, spec)
    return [{"rank": entry.rank, "journal": entry.journal_id,
             **_cell(entry.value, args.places)}
            for entry in ranking.entries], ranking.skipped


def _sensitivity_table(corpus, spec, args):
    ranking = rank(corpus, spec)
    return [{"upper": row.upper_id, "lower": row.lower_id, "year": year,
             "min_k": "-" if (k := row.per_year_min_k[year]) is None else k}
            for row in _sensitivity_rows(corpus, spec, ranking, args.k_max)
            for year in sorted(row.per_year_min_k)], ranking.skipped


def _cmd_mine(args, out) -> int:
    bounds = SearchBounds(n=args.n, pub_max=args.pub_max,
                          cit_max=args.cit_max, k_max=args.k_max,
                          target_year=args.year, s=args.s)
    witnesses = islice(iter_counterexamples(_KINDS[args.kind], bounds),
                       args.limit)
    _emit(_mine_rows(witnesses), args.format, out)
    return 0


def _mine_rows(witnesses):
    """One row per witness.  Each journal's pubs and cits columns are
    formatted once per ``JournalData`` object, which the miner shares
    across every pair of its box that holds that vector; the "before"
    column is formatted once per (left, right) pair, and "after" once
    per witness."""
    import json
    # id(data) -> (data, columns); holding data keeps its id from reuse
    held = {}

    def columns(data):
        entry = held.get(id(data))
        if entry is None:
            # _long_str prints a year past the int-to-str digit limit too
            entry = held[id(data)] = data, (
                json.dumps({_long_str(y): v
                            for y, v in sorted(data.pubs.items())}),
                json.dumps({f"{_long_str(c)},{_long_str(d)}": v
                            for (c, d), v in sorted(data.cits.items())}))
        return entry[1]

    left = right = journals = before = None
    for witness in witnesses:
        scenario, verdict = witness.scenario, witness.verdict
        if scenario.left is not left or scenario.right is not right:
            left, right = scenario.left, scenario.right
            (left_pubs, left_cits), (right_pubs, right_cits) = (
                columns(left), columns(right))
            journals = {"left_pubs": left_pubs, "left_cits": left_cits,
                        "right_pubs": right_pubs, "right_cits": right_cits}
            before = (f"{format_exact(verdict.before[0])} vs "
                      f"{format_exact(verdict.before[1])}")
        (year, k), = scenario.injection.additions
        yield {**journals, "inject_year": year, "k": k, "before": before,
               "after": f"{format_exact(verdict.after[0])} vs "
                        f"{format_exact(verdict.after[1])}"}


def _cmd_verify_paper(args, out) -> int:
    from . import reference
    results = reference.run_checks()
    failures = 0
    for label, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        out.write(f"{status}  {label}: {detail}\n")
        if not ok:
            failures += 1
    out.write(f"{len(results) - failures}/{len(results)} checks passed\n")
    return 0 if failures == 0 else 1


def run(argv: list[str], out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args, out)
        if out is sys.stdout:
            out.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # as the SIGPIPE note in the Python docs advises: send the rest to
        # devnull, so the flush at exit cannot fail again, and say nothing
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 1
    except (OSError, ValueError) as exc:  # every data error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
