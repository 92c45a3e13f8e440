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
from itertools import islice

from .consistency import SearchBounds, iter_counterexamples
from .core import IndicatorKind, IndicatorSpec
from .corpus import _sensitivity_rows, _values, load_corpus, rank
from .ratio import format_exact, to_decimal

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
_MAX_PLACES = 1000  # bounds the digits that each printed value can take
_places = _int_in_range(0, _MAX_PLACES)


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pubs", required=True,
                        help="publications CSV (journal,year,pubs)")
    parser.add_argument("--cits", required=True,
                        help="citations CSV (journal,citing_year,cited_year,count)")


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, choices=sorted(_KINDS))
    parser.add_argument("-n", type=_positive, required=True, dest="n",
                        help="window length in years")
    parser.add_argument("--year", type=int, required=True,
                        help="target year")
    parser.add_argument("-s", type=int, default=0, choices=(0, 1),
                        help="include the publication year (diachronous only)")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    parser.add_argument("--places", type=_places, default=2,
                        help="decimal places for display values "
                             f"(0 to {_MAX_PLACES})")


def _add_command(sub, name: str, func, help: str,
                 *arg_groups) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(func=func)
    for add_args in arg_groups:
        add_args(parser)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impactz",
        description="Exact impact-factor indicators and Z-consistency audits")
    sub = parser.add_subparsers(dest="command", required=True)
    corpus_args = (_add_corpus_args, _add_spec_args, _add_output_args)

    _add_command(sub, "compute", _cmd_compute,
                 "indicator value per journal", *corpus_args)
    _add_command(sub, "rank", _cmd_rank,
                 "competition-ranked journal table", *corpus_args)
    p = _add_command(sub, "sensitivity", _cmd_sensitivity,
                     "minimal uncited injections that flip adjacent ranks",
                     *corpus_args)
    p.add_argument("--k-max", type=_positive, default=100,
                   help="largest injection size to report")

    p = _add_command(sub, "mine", _cmd_mine,
                     "exhaustively search bounded data for reversals",
                     _add_spec_args, _add_output_args)
    p.add_argument("--pub-max", type=_positive, required=True)
    p.add_argument("--cit-max", type=_positive, required=True)
    p.add_argument("--k-max", type=_positive, required=True)
    p.add_argument("--limit", type=_positive, default=10)

    _add_command(sub, "verify-paper", _cmd_verify_paper,
                 "check the built-in reference tables end to end")
    return parser


def _spec_from_args(args: argparse.Namespace) -> IndicatorSpec:
    return IndicatorSpec(_KINDS[args.kind], args.n, args.year, args.s)


def _cell(value, places: int) -> dict[str, str]:
    return {"exact": format_exact(value), "decimal": to_decimal(value, places)}


def _emit(rows, columns: list[str], fmt: str, out) -> None:
    """Write each row of the iterable as soon as it arrives.  JSON output
    is byte-identical to ``json.dump(list(rows), out, indent=2)`` and a
    newline; the array framing is written here, one row at a time."""
    if fmt == "json":
        import json
        sep = "[\n  "
        for row in rows:
            out.write(sep + json.dumps(row, indent=2).replace("\n", "\n  "))
            sep = ",\n  "
        out.write("[]\n" if sep == "[\n  " else "\n]\n")
    else:
        for row in rows:
            out.write("\t".join(str(row[col]) for col in columns) + "\n")


def _load(args):
    with open(args.pubs, encoding="utf-8") as pubs_fh, \
            open(args.cits, encoding="utf-8") as cits_fh:
        return load_corpus(pubs_fh, cits_fh)


def _warn_skipped(skipped) -> None:
    for journal_id, reason in skipped:
        print(f"warning: skipped {journal_id}: {reason}", file=sys.stderr)


def _cmd_compute(args, out) -> int:
    values, skipped = _values(_load(args), _spec_from_args(args))
    rows = [{"journal": journal_id, **_cell(value, args.places)}
            for journal_id, value in values]
    _emit(rows, ["journal", "exact", "decimal"], args.format, out)
    _warn_skipped(skipped)
    return 0


def _cmd_rank(args, out) -> int:
    ranking = rank(_load(args), _spec_from_args(args))
    rows = [{"rank": entry.rank, "journal": entry.journal_id,
             **_cell(entry.value, args.places)} for entry in ranking.entries]
    _emit(rows, ["rank", "journal", "exact", "decimal"], args.format, out)
    _warn_skipped(ranking.skipped)
    return 0


def _cmd_sensitivity(args, out) -> int:
    corpus = _load(args)
    spec = _spec_from_args(args)
    ranking = rank(corpus, spec)
    report = _sensitivity_rows(corpus, spec, ranking, args.k_max)
    rows = []
    for row in report:
        for year in sorted(row.per_year_min_k):
            k = row.per_year_min_k[year]
            rows.append({"upper": row.upper_id, "lower": row.lower_id,
                         "year": year,
                         "min_k": "-" if k is None else k})
    _emit(rows, ["upper", "lower", "year", "min_k"], args.format, out)
    _warn_skipped(ranking.skipped)
    return 0


def _cmd_mine(args, out) -> int:
    bounds = SearchBounds(n=args.n, pub_max=args.pub_max,
                          cit_max=args.cit_max, k_max=args.k_max,
                          target_year=args.year, s=args.s)
    witnesses = islice(iter_counterexamples(_KINDS[args.kind], bounds),
                       args.limit)
    _emit(_mine_rows(witnesses), ["left_pubs", "left_cits", "right_pubs",
                                  "right_cits", "inject_year", "k", "before",
                                  "after"], args.format, out)
    return 0


def _mine_rows(witnesses):
    """One row per witness; the journal columns are formatted once per
    (left, right) pair, which the miner shares across its witnesses."""
    import json
    left = right = journals = None
    for witness in witnesses:
        scenario, verdict = witness.scenario, witness.verdict
        if scenario.left is not left or scenario.right is not right:
            left, right = scenario.left, scenario.right
            journals = {}
            for side, data in (("left", left), ("right", right)):
                journals[f"{side}_pubs"] = json.dumps(data.pubs,
                                                      sort_keys=True)
                journals[f"{side}_cits"] = json.dumps(
                    {f"{c},{d}": v for (c, d), v in sorted(data.cits.items())})
        (year, k), = scenario.injection.additions
        yield {**journals, "inject_year": year, "k": k,
               "before": f"{format_exact(verdict.before[0])} vs "
                         f"{format_exact(verdict.before[1])}",
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
