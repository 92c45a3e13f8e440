"""Corpus ingestion, ranking, and uncited-item sensitivity reports.

Input format is two CSV files mirroring the publication/citation split:

* publications: header ``journal,year,pubs``
* citations:    header ``journal,citing_year,cited_year,count``

Duplicate keys are hard errors, not summed: bibliometric extracts
commonly double-count, and failing loudly beats silent aggregation.
"""

from __future__ import annotations

import csv
import io
import os
import re
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from itertools import chain, groupby
from math import gcd

from .consistency import VerdictTag, _thresholds, _verifier
from .core import (
    IndicatorSpec,
    Injection,
    JournalData,
    Record,
    ValidationError,
    ZeroDenominator,
    _direction_fault,
    _evaluate,
    _key_text,
    _positive_fault,
    _sign_fault,
    _window_counts,
    window,
)
from .ratio import Ratio


class ParseError(ValueError):
    """Unreadable input text; ``line`` is None where the reader gives no
    position."""

    def __init__(self, line: int | None, reason: str):
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.line = line
        self.reason = reason


def _id_fault(journal_id: str) -> str | None:
    """A journal id is non-empty and holds no tab and no character that
    ``str.splitlines()`` breaks at, so each journal's TSV row and warning
    line stay one line with their columns."""
    if not journal_id:
        return "empty journal id"
    if "\t" in journal_id or journal_id.splitlines() != [journal_id]:
        return f"journal id {journal_id!r} holds a tab or line break"
    return None


class Corpus(Record):
    """Journals by id, each id following :func:`_id_fault`."""

    __match_args__ = ("journals",)

    def __init__(self, journals: dict[str, JournalData]):
        for journal_id in journals:
            if fault := _id_fault(journal_id):
                raise ValidationError(fault)
        self.__dict__["journals"] = journals

    @classmethod
    def _checked(cls, journals: dict[str, JournalData]) -> Corpus:
        """A Corpus over ids that the caller has already held to
        :func:`_id_fault`, as ``JournalData._checked`` is over counts
        already checked.

        Its one caller is :func:`load_corpus`, which checks each id at
        the first CSV row that names it, with that row's line number.
        Every other route, :func:`corpus_from_json` too, goes through
        ``Corpus(...)``.
        """
        self = cls.__new__(cls)
        self.__dict__["journals"] = journals
        return self


class RankingEntry(Record):
    __match_args__ = ("journal_id", "value", "rank", "tied_with")

    def __init__(self, journal_id: str, value: Ratio, rank: int,
                 tied_with: tuple[str, ...] = ()):
        fields = self.__dict__
        fields["journal_id"] = journal_id
        fields["value"] = value
        fields["rank"] = rank
        fields["tied_with"] = tied_with


class Ranking(Record):
    """Ranked entries plus the journals that could not be evaluated."""

    __match_args__ = ("entries", "skipped")

    def __init__(self, entries: tuple[RankingEntry, ...],
                 skipped: tuple[tuple[str, str], ...] = ()):
        fields = self.__dict__
        fields["entries"] = entries
        fields["skipped"] = skipped  # (journal_id, reason)


class SensitivityRow(Record):
    """How fragile an adjacent strict pair is to uncited additions.

    ``per_year_min_k`` maps each denominator year to the smallest common
    uncited injection that flips the pair, solved exactly; None when no
    k <= k_max flips it.
    """

    __match_args__ = ("upper_id", "lower_id", "per_year_min_k", "k_max")

    def __init__(self, upper_id: str, lower_id: str,
                 per_year_min_k: dict[int, int | None], k_max: int):
        fields = self.__dict__
        fields["upper_id"] = upper_id
        fields["lower_id"] = lower_id
        fields["per_year_min_k"] = per_year_min_k
        fields["k_max"] = k_max


_PUBS_HEADER = ["journal", "year", "pubs"]
_CITS_HEADER = ["journal", "citing_year", "cited_year", "count"]


def _decode_error(exc: UnicodeDecodeError) -> ParseError:
    """A ParseError at the CSV record, counted as :func:`load_corpus`
    counts them, that holds the first byte a whole-file read could not
    decode; ``exc.object`` is the file's bytes and ``exc.start`` that
    byte's offset.  The records are counted with each quoted part of a
    field, and each unquoted run, cut to ``x``: that keeps every record
    break and leaves no field over ``csv.field_size_limit()``."""
    # a stand-in for the bad byte ends the text inside its record
    prefix = exc.object[:exc.start].decode(exc.encoding) + "?"
    fields = re.sub(r'"[^"]*(?:""[^"]*)*"?|[^,"\r\n][^,\r\n]*', "x", prefix)
    line = sum(1 for _ in csv.reader(io.StringIO(fields, newline=None)))
    return ParseError(line, f"{exc.encoding} cannot decode byte "
                            f"0x{exc.object[exc.start]:02x}: {exc.reason}")


@contextmanager
def _csv_body(source, header: list[str]):
    """A ``csv.reader`` past the checked header of a text file object, an
    ``os.PathLike`` path, opened as UTF-8 text, or a ``str`` of CSV text
    (a ``str`` is never a path); any other source is a TypeError.  A
    leading UTF-8 byte-order mark, as spreadsheet programs write, is
    dropped from the first line.

    A file is read line by line and not held.  The one exception is a
    file that cannot seek back, such as a pipe: it is read whole first.
    Bytes that do not decode are a ParseError at their record, before
    any other fault in the same file: when the block raises a
    ValueError, a streamed file is decoded again from where the reader
    started, and a byte that does not decode is raised in its place."""
    with (open(source, encoding="utf-8") if isinstance(source, os.PathLike)
          else nullcontext(source)) as source:
        start = None  # where a streamed file began, to decode it again
        if isinstance(source, str):
            lines = io.StringIO(source)
        elif hasattr(source, "read") and isinstance(source.read(0), str):
            lines = source
            try:
                start = source.tell() if source.seekable() else None
            except (AttributeError, OSError):
                pass
            if start is None:  # cannot seek back: decoded whole, up front
                try:
                    lines = io.StringIO(source.read())
                except UnicodeDecodeError as exc:
                    raise _decode_error(exc) from None
        else:
            raise TypeError("a CSV source is a text file object, an "
                            "os.PathLike path or a str of CSV text, not "
                            f"{type(source).__name__}")
        try:
            first = next(lines, "").removeprefix("\ufeff")
            reader = csv.reader(chain((first,) if first else (), lines))
            try:
                got = next(reader, None)
            except csv.Error as exc:
                raise ParseError(1, str(exc)) from None
            if got is not None and [cell.strip() for cell in got] != header:
                raise ParseError(1, f"expected header {','.join(header)}, "
                                    f"got {','.join(got)}")
            yield reader
        except ValueError:
            if start is not None:
                source.seek(start)
                try:
                    source.read()
                except UnicodeDecodeError as exc:
                    raise _decode_error(exc) from None
            raise


def _slow_row(line: int, row: list[str], header: list[str]
              ) -> list | None:
    """A row that did not unpack or convert as it stands, read cell by
    stripped cell: None for a blank row (no cells, or only whitespace),
    else its journal id and integers, or a ParseError for a wrong field
    count or the first field that is not an integer.  A row can get here
    and still be valid: ``str.strip`` strips U+001C..U+001F, ``int`` does
    not."""
    cells = [cell.strip() for cell in row]
    if not any(cells):
        return None
    if len(cells) != len(header):
        raise ParseError(line, f"expected {len(header)} fields, "
                               f"got {len(cells)}")
    values: list = [cells[0]]
    for name, raw in zip(header[1:], cells[1:]):
        try:
            values.append(int(raw))
        except ValueError:
            raise ParseError(line, f"{name} must be an integer, got {raw!r}") \
                from None
    return values


def load_corpus(pubs_source, cits_source) -> Corpus:
    """Build a validated Corpus from publication and citation CSVs.

    Each source is a text file object, an ``os.PathLike`` path, or a
    ``str`` of CSV text, as :func:`_csv_body` reads them: a ``str`` is
    never opened as a path, a leading byte-order mark is dropped, and a
    file is read line by line, not held.  Journals present in only one
    file get zero counts for the other side.  A journal id follows the
    :func:`_id_fault` rule, checked at the first row that names it.

    Every cell is read stripped of surrounding whitespace, and blank or
    whitespace-only rows are skipped.  ``line N`` in an error counts CSV
    records, with the header as line 1, so a quoted line break does not
    advance it.  A row with a wrong field count is reported as such;
    otherwise the first field that is not an integer is the one reported.

    Each number is read as ``int`` reads its text.  Within a file, a
    text is remembered only once it has passed every rule, so a row
    whose journal text and key text, the year or the (citing, cited)
    pair, were seen before, and whose count text is "0" to "999" as
    written, costs one dict lookup per field and a duplicate test.  A
    journal's first row in a file costs one strip and one id lookup
    more, and the id rule runs once per stripped id per file.  A row of
    remembered texts whose count text is off that table costs one
    ``int()`` and the sign check more.  Any other row goes through
    ``int()``, or, where ``int()`` refuses a field or the row does not
    have its fields, is read cell by stripped cell; it is then held to
    the sign and direction rules, and its key text is remembered.  Zero
    rows are dropped after both files are read, in one pass over the
    dicts that hold a zero.  What is held here grows with the distinct
    journal, year and pair texts, not with the rows or the distinct
    counts.

    The loaded corpus holds each count once: the per-journal dicts built
    here become the journals' own, and every journal shares one object
    per distinct year and per distinct (citing, cited) cell.
    """
    keys: dict = {}  # each distinct year and cell, first object seen
    # the common count texts; any other count text goes through int()
    common_counts = {str(count): count for count in range(1000)}

    years: dict[str, int] = {}  # each distinct year text, its year in keys
    pubs: dict[str, dict[int, int]] = {}
    known: dict[str, dict] = {}  # each raw journal text, its checked dict
    with _csv_body(pubs_source, _PUBS_HEADER) as reader:
        line = 1  # the header; a csv.Error is at the record after line
        try:
            for line, row in enumerate(reader, start=2):
                # a memo holds only texts that passed every rule, so a row
                # of remembered texts is not checked again
                try:
                    journal, year, count = row
                    year = years[year]
                    count = common_counts[count]
                except (KeyError, ValueError) as exc:
                    # a year from the memo, and a KeyError, leave only the
                    # count off the table
                    new_year = type(exc) is not KeyError or type(year) is str
                    try:
                        if new_year:
                            journal, year, count = row
                            year = int(year)
                        count = int(count)
                    except ValueError:
                        values = _slow_row(line, row, _PUBS_HEADER)
                        if values is None:
                            continue
                        journal, year, count = values
                        new_year = True
                    if count < 0:
                        fault = _sign_fault(count, "publication")
                        raise ValidationError(f"line {line}: {fault}")
                    if new_year:
                        year = years[row[1]] = keys.setdefault(year, year)
                per_journal = known.get(journal)
                if per_journal is None:
                    journal_id = journal.strip()
                    if journal_id not in pubs and (
                            fault := _id_fault(journal_id)):
                        raise ValidationError(f"line {line}: {fault}")
                    per_journal = known[journal] = pubs.setdefault(
                        journal_id, {})
                if year in per_journal:
                    raise ValidationError(
                        f"line {line}: duplicate publication row for "
                        f"({journal.strip()}, {year})")
                per_journal[year] = count
        except csv.Error as exc:
            raise ParseError(line + 1, str(exc)) from None

    # each distinct (citing, cited) text pair, its checked cell in keys
    cells: dict[tuple[str, str], tuple[int, int]] = {}
    cits: dict[str, dict[tuple[int, int], int]] = {}
    known = {}
    with _csv_body(cits_source, _CITS_HEADER) as reader:
        line = 1  # the header; a csv.Error is at the record after line
        try:
            for line, row in enumerate(reader, start=2):
                try:
                    journal, citing, cited, count = row
                    cell = cells[citing, cited]
                    count = common_counts[count]
                except (KeyError, ValueError) as exc:
                    # a KeyError on the count text, not on the (citing,
                    # cited) pair, leaves only the count off the table
                    new_cell = type(exc) is not KeyError or (
                        exc.args[0] is not count)
                    try:
                        if new_cell:
                            journal, citing, cited, count = row
                            cell = int(citing), int(cited)
                        count = int(count)
                    except ValueError:
                        values = _slow_row(line, row, _CITS_HEADER)
                        if values is None:
                            continue
                        journal, *cell, count = values
                        new_cell = True
                    citing, cited = cell
                    if count < 0 or citing < cited:
                        fault = (_sign_fault(count, "citation")
                                 or _direction_fault(citing, cited))
                        raise ValidationError(f"line {line}: {fault}")
                    if new_cell:
                        cell = (keys.setdefault(citing, citing),
                                keys.setdefault(cited, cited))
                        cells[row[1], row[2]] = cell = keys.setdefault(
                            cell, cell)
                per_journal = known.get(journal)
                if per_journal is None:
                    journal_id = journal.strip()
                    if journal_id not in cits and (
                            fault := _id_fault(journal_id)):
                        raise ValidationError(f"line {line}: {fault}")
                    per_journal = known[journal] = cits.setdefault(
                        journal_id, {})
                if cell in per_journal:
                    raise ValidationError(
                        f"line {line}: duplicate citation row for "
                        f"({journal.strip()}, {cell[0]}, {cell[1]})")
                per_journal[cell] = count
        except csv.Error as exc:
            raise ParseError(line + 1, str(exc)) from None

    # zero rows are dropped only now, so that a later row for the same
    # key is still a duplicate at its line
    for counts in [*pubs.values(), *cits.values()]:
        if 0 in counts.values():
            for key in [key for key, count in counts.items() if not count]:
                del counts[key]
    # every count and id above has passed the rules that JournalData and
    # Corpus apply, and each dict is handed over, zero-free, to one journal
    journals = {
        journal_id: JournalData._checked(journal_id, pubs.get(journal_id, {}),
                                         cits.get(journal_id, {}))
        for journal_id in sorted(set(pubs) | set(cits))
    }
    return Corpus._checked(journals)


def corpus_to_json(corpus: Corpus) -> str:
    """Canonical JSON: sorted keys, stable layout, byte-stable round-trip.

    A year or count past the int-to-str digit limit, which ``json``
    cannot write and :func:`corpus_from_json` would not read back, is a
    ValidationError naming the first such journal and key."""
    import json
    doc = {"journals": {}}
    for journal_id in sorted(corpus.journals):
        data = corpus.journals[journal_id]
        doc["journals"][journal_id] = {
            # json writes each int key as str() does
            "pubs": {year: data.pubs[year] for year in sorted(data.pubs)},
            "cits": [{"citing": citing, "cited": cited,
                      "count": data.cits[(citing, cited)]}
                     for citing, cited in sorted(data.cits)],
        }
    try:
        return json.dumps(doc, indent=2) + "\n"
    except ValueError:  # past the digit limit: name the first such key
        for journal_id, data in sorted(corpus.journals.items()):
            for key, count in (*sorted(data.pubs.items()),
                               *sorted(data.cits.items())):
                try:
                    str((key, count))
                except ValueError as exc:
                    where = (f"pubs[{_key_text(key)}]" if type(key) is int
                             else f"cits[({_key_text(key[0])}, "
                                  f"{_key_text(key[1])})]")
                    raise ValidationError(
                        f"journal {journal_id!r}, {where}: {exc}") from None
        raise


class _JsonObject(dict):
    """A decoded JSON object that keeps its pairs, repeated keys too."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs


def _unique(pairs, where: str, what: str) -> dict:
    """``dict(pairs)``, with a repeated key a ValidationError."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValidationError(f"{where}: duplicate {what} {key!r}")
        out[key] = value
    return out


def corpus_from_json(text: str) -> Corpus:
    """Build a validated Corpus from :func:`corpus_to_json`'s layout;
    as in the CSV input, a repeated key is a hard error and a journal id
    follows the :class:`Corpus` rule."""
    import json
    try:
        doc = json.loads(text, object_pairs_hook=_JsonObject)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from None
    except RecursionError:
        raise ParseError(None, "JSON nested too deeply") from None
    except ValueError as exc:  # an integer over sys.get_int_max_str_digits()
        raise ParseError(None, str(exc)) from None
    entries = doc.get("journals") if isinstance(doc, dict) else None
    if not isinstance(entries, dict):
        raise ValidationError('expected {"journals": {...}} at the top level')
    journals = {}
    for journal_id, entry in _unique(entries.pairs, "journals",
                                     "journal id").items():
        where = f"journal {journal_id!r}"
        try:
            # a year key is as corpus_to_json writes it: digits after
            # at most one "-"
            pubs = _unique([(int(year) if year.removeprefix("-").isdecimal()
                             else year, count)
                            for year, count in entry["pubs"].pairs],
                           where, "publication year")
            cits = _unique([((c["citing"], c["cited"]), c["count"])
                            for c in entry["cits"]], where, "citation")
        except KeyError as exc:
            raise ValidationError(
                f"{where}: missing key {exc.args[0]!r}") from None
        except (AttributeError, TypeError):
            raise ValidationError(
                f'{where}: expected {{"pubs": {{}}, "cits": []}}') from None
        except ValidationError:
            raise
        except ValueError as exc:  # a year over sys.get_int_max_str_digits()
            raise ValidationError(f"{where}: {exc}") from None
        journals[journal_id] = JournalData(journal_id, pubs, cits)
    return Corpus(journals)


def _values(corpus: Corpus, spec: IndicatorSpec) -> tuple[
        list[tuple[str, tuple[int, int]]], list[tuple[str, str]]]:
    """The one skip rule: in id order, the (id, (num, den)) of each
    journal the indicator can evaluate and the (id, reason) of each it
    cannot.  Each value is :func:`~impactz.core.compute`'s, over one read
    of the window, reduced but not built as a :class:`Ratio`."""
    years, cells = window(spec)
    values, skipped = [], []
    for journal_id, data in sorted(corpus.journals.items()):
        try:
            num, den = _evaluate(data.journal_id, spec, years,
                                 *_window_counts(data, years, cells))
        except ZeroDenominator as exc:
            skipped.append((journal_id, str(exc)))
            continue
        values.append((journal_id, (num // (g := gcd(num, den)), den // g)))
    return values, skipped


def _groups(corpus: Corpus, spec: IndicatorSpec) -> tuple[
        list[tuple[int, tuple[int, int], tuple[str, ...]]],
        list[tuple[str, str]]]:
    """The one tie rule: the (rank, (num, den), ids) groups of equal
    value, descending, competition ranked (1, 1, 3), with ids in id order;
    and the (id, reason) of each journal that :func:`_values` skips.

    The sort and the grouping use one exact integer key per value,
    ``num * D**2 // den`` with D the largest denominator: two distinct
    reduced fractions with denominators <= D differ by at least 1/D**2,
    so distinct values get distinct keys in the same order, and equal
    keys mean equal values.  The cost is O(N log N) time, O(N) memory.
    """
    values, skipped = _values(corpus, spec)
    scale = max((den for _, (_, den) in values), default=1) ** 2
    keys = [-(num * scale // den) for _, (num, den) in values]
    # descending by value; the sort is stable, so ties stay in id order
    order = sorted(range(len(values)), key=keys.__getitem__)
    groups, position = [], 1
    for _, group in groupby(order, key=keys.__getitem__):
        ids, group_values = zip(*map(values.__getitem__, group))
        groups.append((position, group_values[0], ids))
        position += len(ids)
    return groups, skipped


def rank(corpus: Corpus, spec: IndicatorSpec) -> Ranking:
    """Rank journals by indicator value, descending, competition style.

    Equal values share a rank (1, 1, 3); within a tie, display order is
    lexicographic by journal id.  An uncomputable journal is skipped and
    reported with its reason.  Each entry is ``tied_with`` the other ids
    of its :func:`_groups` group, in display order; that output, the sum
    of squared group sizes, is all ``rank`` adds to the O(N log N) groups.
    """
    groups, skipped = _groups(corpus, spec)
    return Ranking(tuple(
        RankingEntry(journal_id, value, group_rank, ids[:i] + ids[i + 1:])
        for group_rank, (num, den), ids in groups
        for value in (Ratio(num, den),)  # one per group
        for i, journal_id in enumerate(ids)), tuple(skipped))


def sensitivity_report(corpus: Corpus, spec: IndicatorSpec, k_max: int
                       ) -> list[SensitivityRow]:
    """Per adjacent strictly-ordered pair of :func:`rank`, the minimal
    common uncited injection (by denominator year) that would flip the
    ranking.  Journals that rank skips are not covered.

    Every reported minimum k is re-verified as an actual reversal, and
    k - 1 as not one.
    """
    if fault := _positive_fault(k_max, "k_max"):
        raise ValidationError(fault)
    return list(_sensitivity_rows(corpus, spec, k_max)[0])


def _sensitivity_rows(corpus: Corpus, spec: IndicatorSpec, k_max: int
                      ) -> tuple[Iterator[SensitivityRow],
                                 list[tuple[str, str]]]:
    """:func:`sensitivity_report`'s rows, yielded one at a time, each
    pair the last id of a :func:`_groups` group and the first of the
    next, and the skipped journals, known before the first row.

    Each pair's minima come from one :func:`_thresholds` call, checked by
    a :func:`_verifier` of that pair alone, so each journal's "before"
    value is evaluated once per pair it takes part in, and what the
    verifier holds is dropped with the pair: a caller that takes the rows
    one at a time keeps no values, and no rows, of the pairs it has
    passed."""
    groups, skipped = _groups(corpus, spec)

    def rows():
        for (_, _, upper), (_, _, lower) in zip(groups, groups[1:]):
            left = corpus.journals[upper[-1]]
            right = corpus.journals[lower[0]]
            per_year = {year: k if k is not None and k <= k_max else None
                        for year, k in _thresholds(left, right, spec).items()}
            verify = _verifier(spec)
            for year, k in per_year.items():
                if k is not None:
                    # k reverses the pair and k - 1 does not
                    *below, at = (
                        verify(left, right, Injection.single(year, j))[0]
                        is VerdictTag.REVERSED
                        for j in range(max(k - 1, 1), k + 1))
                    if not at or any(below):
                        raise AssertionError
            yield SensitivityRow(upper[-1], lower[0], per_year, k_max)

    return rows(), skipped
