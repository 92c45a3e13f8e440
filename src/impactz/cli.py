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
from functools import cache, partial

from .consistency import SearchBounds, _first, _witnesses
from .core import _MAX_WINDOW, IndicatorKind, IndicatorSpec
from .corpus import _groups, _sensitivity_rows, _values, load_corpus
from .ratio import _MAX_PLACES, _decimal_text, _fraction_text, _long_str

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
_window = _int_in_range(1, _MAX_WINDOW)
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


def _emit(rows, fmt: str, out) -> None:
    """Write each row of the iterable as soon as it arrives: a TSV line as
    it is, or a flat dict of str and int values as ``json.dump(list(rows),
    out, indent=2)`` and a newline write it, but with each int in full past
    the int-to-str digit limit, for which ``json`` has no hook."""
    if fmt == "json":
        from json import dumps
        sep = "[\n  "
        for row in rows:
            out.write(sep + "{\n    " + ",\n    ".join(
                f"{dumps(k)}: {_long_str(v) if type(v) is int else dumps(v)}"
                for k, v in row.items()) + "\n  }")
            sep = ",\n  "
        out.write("[]\n" if sep == "[\n  " else "\n]\n")
    else:
        out.writelines(rows)


def _cmd_table(table, args, out) -> int:
    """Load the two CSVs, write ``table``'s rows of its column ``names`` as
    TSV lines, each int in full past the int-to-str digit limit, or as JSON
    dicts, then warn on stderr about each journal that it skipped."""
    with open(args.pubs, encoding="utf-8") as pubs_fh, \
            open(args.cits, encoding="utf-8") as cits_fh:
        corpus = load_corpus(pubs_fh, cits_fh)
    spec = IndicatorSpec(_KINDS[args.kind], args.n, args.year, args.s)
    names, rows, skipped = table(corpus, spec, args)
    _emit((dict(zip(names, row)) for row in rows) if args.format == "json"
          else ("\t".join(map(_long_str, row)) + "\n" for row in rows),
          args.format, out)
    for journal_id, reason in skipped:
        print(f"warning: skipped {journal_id}: {reason}", file=sys.stderr)
    return 0


def _compute_table(corpus, spec, args):
    values, skipped = _values(corpus, spec)
    return ("journal", "exact", "decimal"), (
        (journal_id, _fraction_text(*value),
         _decimal_text(*value, args.places))
        for journal_id, value in values), skipped


def _rank_table(corpus, spec, args):
    groups, skipped = _groups(corpus, spec)
    return ("rank", "journal", "exact", "decimal"), (
        (group_rank, journal_id, *cell)
        for group_rank, value, ids in groups
        for cell in ((_fraction_text(*value),
                      _decimal_text(*value, args.places)),)
        for journal_id in ids), skipped


def _sensitivity_table(corpus, spec, args):
    rows, skipped = _sensitivity_rows(corpus, spec, args.k_max)
    # each row's per_year_min_k is in window order: ascending years
    return ("upper", "lower", "year", "min_k"), (
        (row.upper_id, row.lower_id, year, "-" if k is None else k)
        for row in rows for year, k in row.per_year_min_k.items()), skipped


def _cmd_mine(args, out) -> int:
    bounds = SearchBounds(n=args.n, pub_max=args.pub_max,
                          cit_max=args.cit_max, k_max=args.k_max,
                          target_year=args.year, s=args.s)
    _emit(_mine_rows(_first(_witnesses(_KINDS[args.kind], bounds, False),
                            args.limit), args.format), args.format, out)
    return 0


def _json_counts(items) -> str:
    """``json.dumps(dict(items))`` for ``items`` of str keys that JSON
    writes as they are (digits, "-" and "," only) and int values, each
    int in full past the int-to-str digit limit, without ``json``."""
    return "{" + ", ".join(f'"{key}": {_long_str(value)}'
                           for key, value in items) + "}"


def _mine_rows(witnesses, fmt: str):
    """One TSV line, or JSON row dict, per ``(left, right, injection,
    checked)`` of :func:`consistency._witnesses`, the miner generator,
    each verified there as it is taken.  ``checked`` is the verifier's
    ``(tag, before, after)``, each value a reduced ``(num, den)`` pair
    written by :func:`~impactz.ratio._fraction_text`, so no ``Ratio`` is
    built.  Each journal's pubs and cits columns are formatted once per
    ``JournalData`` object, which the miner shares across every pair of
    its box that holds that vector; the TSV prefix and JSON dict of those
    four columns, and "before", once per (left, right) pair; only
    inject_year, k and "after" per witness."""
    # id(data) -> (data, columns); holding data keeps its id from reuse
    held = {}

    def columns(data):
        entry = held.get(id(data))
        if entry is None:
            # _long_str prints a year past the int-to-str digit limit too
            entry = held[id(data)] = data, (
                _json_counts((_long_str(y), v)
                             for y, v in sorted(data.pubs.items())),
                _json_counts((f"{_long_str(c)},{_long_str(d)}", v)
                             for (c, d), v in sorted(data.cits.items())))
        return entry[1]

    tsv = fmt == "tsv"
    year_text = cache(_long_str)  # each inject_year's TSV text, once
    left = right = None
    for pair_left, pair_right, injection, checked in witnesses:
        _, befores, (after_l, after_r) = checked
        if pair_left is not left or pair_right is not right:
            left, right = pair_left, pair_right
            journals = dict(zip(
                ("left_pubs", "left_cits", "right_pubs", "right_cits"),
                (*columns(left), *columns(right))))
            prefix = "\t".join(journals.values())
            before = (f"{_fraction_text(*befores[0])} vs "
                      f"{_fraction_text(*befores[1])}")
        (year, k), = injection.additions
        after = f"{_fraction_text(*after_l)} vs {_fraction_text(*after_r)}"
        yield (f"{prefix}\t{year_text(year)}\t{k}\t{before}\t{after}\n"
               if tsv else {**journals, "inject_year": year, "k": k,
                            "before": before, "after": after})


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
