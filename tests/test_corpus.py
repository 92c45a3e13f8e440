import ast
import csv
import gc
import io
import json
import os
import random
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import groupby
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from impactz import (
    Corpus,
    IndicatorKind,
    IndicatorSpec,
    Injection,
    JournalData,
    ParseError,
    Ratio,
    ValidationError,
    corpus_from_json,
    corpus_to_json,
    load_corpus,
    rank,
    sensitivity_report,
    sync_if_roa,
)
from impactz import cli, consistency, core
from impactz import corpus as corpus_module

from conftest import Y

ROA2 = IndicatorSpec(IndicatorKind.SYNC_ROA, 2, Y)
AOR2 = IndicatorSpec(IndicatorKind.SYNC_AOR, 2, Y)

PUBS_1A = (
    "journal,year,pubs\n"
    f"J,{Y - 1},10\nJ,{Y - 2},10\nJ',{Y - 1},30\nJ',{Y - 2},30\n")
CITS_1A = (
    "journal,citing_year,cited_year,count\n"
    f"J,{Y},{Y - 1},30\nJ,{Y},{Y - 2},30\n"
    f"J',{Y},{Y - 1},60\nJ',{Y},{Y - 2},60\n")

PUBS_2 = (
    "journal,year,pubs\n"
    f"J,{Y - 1},30\nJ,{Y - 2},20\nJ',{Y - 1},30\nJ',{Y - 2},20\n")
CITS_2 = (
    "journal,citing_year,cited_year,count\n"
    f"J,{Y},{Y - 1},10\nJ,{Y},{Y - 2},80\n"
    f"J',{Y},{Y - 1},120\nJ',{Y},{Y - 2},10\n")


# --- loading ---------------------------------------------------------------

def test_load_published_example():
    corpus = load_corpus(PUBS_1A, CITS_1A)
    assert sync_if_roa(corpus.journals["J"], Y, 2) == Ratio(3)
    assert sync_if_roa(corpus.journals["J'"], Y, 2) == Ratio(2)


def test_load_empty_files():
    corpus = load_corpus("", "")
    assert corpus.journals == {}


def test_load_accepts_file_paths(tmp_path):
    pubs_path = tmp_path / "pubs.csv"
    cits_path = tmp_path / "cits.csv"
    pubs_path.write_text(PUBS_1A)
    cits_path.write_text(CITS_1A)
    corpus = load_corpus(pubs_path, cits_path)
    assert set(corpus.journals) == {"J", "J'"}


@pytest.mark.parametrize("text", [".", "typo.csv"])
def test_load_str_is_always_csv_text(text):
    # a str is never opened as a path, even one that exists: "." is the
    # current directory, and "typo.csv" reads as a one-cell header
    with pytest.raises(ParseError) as exc_info:
        load_corpus(text, "")
    assert exc_info.value.line == 1
    assert f"got {text}" in str(exc_info.value)


def test_journal_in_one_file_gets_zero_other_side():
    corpus = load_corpus("journal,year,pubs\nX,1999,5\n",
                         "journal,citing_year,cited_year,count\n")
    assert sync_if_roa(corpus.journals["X"], Y, 2) == Ratio(0)


def test_duplicate_pub_row_rejected():
    pubs = "journal,year,pubs\nJ,1999,10\nJ,1999,10\n"
    with pytest.raises(ValidationError, match="duplicate"):
        load_corpus(pubs, "journal,citing_year,cited_year,count\n")


def test_duplicate_cit_row_rejected():
    cits = ("journal,citing_year,cited_year,count\n"
            "J,2000,1999,5\nJ,2000,1999,7\n")
    with pytest.raises(ValidationError, match="duplicate"):
        load_corpus("journal,year,pubs\n", cits)


def test_negative_counts_rejected():
    with pytest.raises(ValidationError, match="negative"):
        load_corpus("journal,year,pubs\nJ,1999,-1\n",
                    "journal,citing_year,cited_year,count\n")


def test_backward_citation_rejected():
    cits = "journal,citing_year,cited_year,count\nJ,1998,1999,5\n"
    with pytest.raises(ValidationError, match="precedes"):
        load_corpus("journal,year,pubs\n", cits)


def test_malformed_rows_raise_parse_error():
    with pytest.raises(ParseError, match="line 2"):
        load_corpus("journal,year,pubs\nJ,notayear,10\n",
                    "journal,citing_year,cited_year,count\n")
    with pytest.raises(ParseError, match="fields"):
        load_corpus("journal,year,pubs\nJ,1999\n",
                    "journal,citing_year,cited_year,count\n")
    with pytest.raises(ParseError, match="header"):
        load_corpus("journal,pubs\n", "journal,citing_year,cited_year,count\n")
    with pytest.raises(ParseError, match="line 3: field larger"):
        load_corpus("journal,year,pubs\nJ,1999,10\nJ," + "1" * 131_073
                    + ",3\n", "journal,citing_year,cited_year,count\n")
    # the header is line 1 however many physical lines it spans
    with pytest.raises(ParseError, match="^line 1: field larger"):
        load_corpus('"jour\nnal",year,' + "1" * 131_073 + "\n", "")


@pytest.mark.parametrize("journal_id", [
    "J\tK", "L\nM", "J\r\nK", "J\rK", "J\x0bK", "J\x0cK", "J\x1cK",
    "J\x1eK", "J\x85K", "J\u2028K", "J\u2029K"])
def test_journal_id_with_tab_or_line_break_is_refused(journal_id):
    # one rule for CSV, JSON and direct construction: each id must stay
    # one TSV cell on one line
    doc = json.dumps({"journals": {journal_id: {"pubs": {}, "cits": []}}})
    routes = {
        "csv": lambda: load_corpus(f'journal,year,pubs\n"{journal_id}",1,1\n',
                                   ""),
        "json": lambda: corpus_from_json(doc),
        "direct": lambda: Corpus({journal_id: JournalData(journal_id)}),
    }
    for route, load in routes.items():
        with pytest.raises(ValidationError) as exc_info:
            load()
        line = "line 2: " if route == "csv" else ""
        assert str(exc_info.value) == (f"{line}journal id {journal_id!r} "
                                       "holds a tab or line break"), route


def test_journal_id_may_hold_other_separators():
    ids = ["J K", "J\x1fK", "J\u3000K", "a,b"]
    assert list(Corpus({i: JournalData(i) for i in ids}).journals) == ids


def test_byte_order_mark_is_dropped(tmp_path):
    plain = load_corpus(PUBS_1A, CITS_1A)
    pubs, cits = "\ufeff" + PUBS_1A, "\ufeff" + CITS_1A
    pubs_path, cits_path = tmp_path / "pubs.csv", tmp_path / "cits.csv"
    pubs_path.write_text(pubs, encoding="utf-8")
    cits_path.write_text(cits, encoding="utf-8")
    assert load_corpus(pubs_path, cits_path) == plain
    assert load_corpus(io.StringIO(pubs), io.StringIO(cits)) == plain
    assert load_corpus(pubs, cits) == plain
    with pytest.raises(ParseError, match="line 1: expected header"):
        load_corpus("\ufeff" + pubs, cits)  # only a single mark is dropped



@pytest.mark.parametrize("make_source", [
    lambda path: None,
    lambda path: 5,
    lambda path: PUBS_1A.encode(),
    lambda path: io.BytesIO(PUBS_1A.encode()),
    lambda path: open(path, "rb"),
    lambda path: open(path, "rb", buffering=0),
], ids=["None", "int", "bytes", "BytesIO", "binary-file", "raw-file"])
def test_source_of_another_kind_is_a_type_error(tmp_path, make_source):
    # only a text file object, an os.PathLike path or a str is read; a
    # binary file is not parsed as though it were text
    path = tmp_path / "pubs.csv"
    path.write_text(PUBS_1A)
    for position in range(2):
        source = make_source(path)
        sources = [PUBS_1A, CITS_1A]
        sources[position] = source
        try:
            with pytest.raises(TypeError) as exc_info:
                load_corpus(*sources)
        finally:
            if hasattr(source, "close"):
                source.close()
        assert str(exc_info.value) == (
            "a CSV source is a text file object, an os.PathLike path or a "
            f"str of CSV text, not {type(source).__name__}")


def test_streamed_load_peaks_near_what_the_corpus_keeps(tmp_path):
    # each open file is read a line at a time and not held, so the load
    # peaks little above the corpus it keeps: about 1.15 times it, where
    # a whole-text read and its StringIO copy peaked at about 2.3 times
    pubs, cits, rows = _seeded_csv(5, 300)
    assert rows > 20_000
    paths = tmp_path / "pubs.csv", tmp_path / "cits.csv"
    for path, text in zip(paths, (pubs, cits)):
        path.write_text(text, encoding="utf-8")
    with open(paths[0], encoding="utf-8") as pubs_fh, \
            open(paths[1], encoding="utf-8") as cits_fh:
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            corpus = load_corpus(pubs_fh, cits_fh)
            kept, peak = (size - start
                          for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
    assert len(corpus.journals) == 300
    assert peak <= 1.5 * kept, peak / kept

# --- JSON round-trip --------------------------------------------------------

def test_json_round_trip_identical():
    corpus = load_corpus(PUBS_1A, CITS_1A)
    text = corpus_to_json(corpus)
    reloaded = corpus_from_json(text)
    assert reloaded.journals == corpus.journals
    assert corpus_to_json(reloaded) == text  # byte-stable


def test_json_round_trip_negative_year():
    # corpus_to_json writes a year of -5 as the key "-5"
    corpus = load_corpus(f"{_PUBS_HEADER}\nJ,-5,3\nJ,1999,2\n",
                         f"{_CITS_HEADER}\nJ,2000,-5,4\n")
    text = corpus_to_json(corpus)
    assert '"-5": 3' in text
    reloaded = corpus_from_json(text)
    assert reloaded == corpus
    assert corpus_to_json(reloaded) == text


def test_json_empty_corpus_round_trip():
    text = corpus_to_json(Corpus({}))
    assert json.loads(text) == {"journals": {}}
    assert corpus_from_json(text).journals == {}


def test_json_keys_sorted():
    corpus = Corpus({
        "B": JournalData("B", {1999: 1, 1995: 2}, {}),
        "A": JournalData("A", {1998: 3}, {(2000, 1998): 1, (1999, 1998): 2}),
    })
    text = corpus_to_json(corpus)
    assert text.index('"A"') < text.index('"B"')
    assert text.index('"1995"') < text.index('"1999"')
    assert text.index('"citing": 1999') < text.index('"citing": 2000')


@pytest.mark.parametrize("path, key", [
    (("J",), "pubs"), (("J",), "cits"), (("J", "cits", 0), "citing"),
    (("J", "cits", 0), "cited"), (("J", "cits", 0), "count")])
def test_json_missing_key_is_validation_error(path, key):
    doc = json.loads(corpus_to_json(load_corpus(PUBS_1A, CITS_1A)))
    node = doc["journals"]
    for step in path:
        node = node[step]
    del node[key]
    with pytest.raises(ValidationError, match=f"'J'.*'{key}'"):
        corpus_from_json(json.dumps(doc))


_J = '{"journals": {"J": %s}}'


@pytest.mark.parametrize("text, error, match", [
    ("[]", ValidationError, "top level"),
    ("{}", ValidationError, "top level"),
    ('{"journal": {"J": {"pubs": {}, "cits": []}}}', ValidationError,
     "top level"),
    pytest.param("[" * 100_000, ParseError, "nested too deeply",
                 id="deep-nesting"),
    pytest.param("1" * 5_000, ParseError, "integer", id="long-integer"),
    ('{"journals": []}', ValidationError, "top level"),
    (_J % "7", ValidationError, "'J'"),
    (_J % '{"pubs": [], "cits": []}', ValidationError, "'J'"),
    (_J % '{"pubs": {}, "cits": [5]}', ValidationError, "'J'"),
    (_J % '{"pubs": {}, "cits": 5}', ValidationError, "'J'"),
    (_J % '{"pubs": {"1999": "3"}, "cits": []}', ValidationError, "'J'"),
    (_J % '{"pubs": {"1999": 2.5}, "cits": []}', ValidationError, "'J'"),
    (_J % '{"pubs": {"199x": 3}, "cits": []}', ValidationError, "'J'"),
    (_J % '{"pubs": {"--5": 3}, "cits": []}', ValidationError,
     "year must be an integer, got '--5'"),
    (_J % '{"pubs": {"-": 3}, "cits": []}', ValidationError,
     "year must be an integer, got '-'"),
    (_J % '{"pubs": {}, "cits": [{"citing": 2000, "cited": "1999", '
          '"count": 1}]}', ValidationError, "'J'"),
    (_J % '{"pubs": {}, "cits": [{"citing": 2000, "cited": 1999, '
          '"count": true}]}', ValidationError, "'J'"),
    (_J % '{"pubs": {"1999": -3}, "cits": []}', ValidationError, "negative"),
    (_J % '{"pubs": {}, "cits": [{"citing": 1998, "cited": 1999, '
          '"count": 1}]}', ValidationError, "precedes"),
    ('{"journals": {\n  "J": }', ParseError, "line 2"),
    (_J % '{"pubs": {"1999": 3, "1999": 5}, "cits": []}', ValidationError,
     "'J': duplicate publication year 1999"),
    (_J % '{"pubs": {}, "cits": [{"citing": 2000, "cited": 1999, '
          '"count": 1}, {"citing": 2000, "cited": 1999, "count": 5}]}',
     ValidationError, r"'J': duplicate citation \(2000, 1999\)"),
    ('{"journals": {"J": {"pubs": {}, "cits": []}, '
     '"J": {"pubs": {}, "cits": []}}}', ValidationError,
     "duplicate journal id 'J'"),
    pytest.param(_J % ('{"pubs": {"%s": 1}, "cits": []}' % ("1" * 5_000)),
                 ValidationError, "'J'.*digits", id="long-year-key"),
])
def test_json_wrong_shape_is_rejected(text, error, match):
    with pytest.raises(error, match=match):
        corpus_from_json(text)


def _csv_text(header: str) -> st.SearchStrategy[str]:
    """Any text, or the header then rows of integers, ids, quotes, commas
    and line breaks."""
    cell = st.one_of(st.integers(-3, 3000).map(str),
                     st.text(alphabet="J\"', \r\n-0", max_size=4))
    row = st.lists(cell, max_size=5).map(",".join)
    body = st.lists(row, max_size=6).map("\n".join)
    return st.one_of(st.text(), body.map(lambda b: f"{header}\n{b}"))


_PUBS_HEADER = "journal,year,pubs"
_CITS_HEADER = "journal,citing_year,cited_year,count"


@settings(max_examples=300, deadline=None)
@given(_csv_text(_PUBS_HEADER), _csv_text(_CITS_HEADER))
@example(f"{_PUBS_HEADER}\nJ," + "1" * 131_073 + ",3\n", "")
@example("", f"{_CITS_HEADER}\nJ,2000,1999," + "9" * 5_000 + "\n")
def test_load_corpus_fuzz_raises_only_input_errors(pubs, cits):
    try:
        corpus = load_corpus(io.StringIO(pubs), io.StringIO(cits))
    except (ParseError, ValidationError):
        return
    assert isinstance(corpus, Corpus)


_PUBS_FIELDS = _PUBS_HEADER.split(",")
_CITS_FIELDS = _CITS_HEADER.split(",")


# a tab and the characters that str.splitlines() breaks at
_BREAKS = set("\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def _reference_load(pubs: str, cits: str) -> Corpus:
    """A slow, plain loader: strip every cell, one ``int`` per field,
    the same checks and messages as :func:`load_corpus`, in the same
    order."""
    tables = []
    for text, fields, what in ((pubs, _PUBS_FIELDS, "publication"),
                               (cits, _CITS_FIELDS, "citation")):
        table: dict[tuple, int] = {}
        reader = csv.reader(io.StringIO(text))
        line = 0
        try:
            for line, record in enumerate(reader, start=1):
                cells = [cell.strip() for cell in record]
                if line == 1:
                    if cells != fields:
                        raise ParseError(1, f"expected header "
                                            f"{','.join(fields)}, "
                                            f"got {','.join(record)}")
                    continue
                if not any(cells):
                    continue
                if len(cells) != len(fields):
                    raise ParseError(line, f"expected {len(fields)} fields, "
                                           f"got {len(cells)}")
                values = []
                for name, cell in zip(fields[1:], cells[1:]):
                    try:
                        values.append(int(cell))
                    except ValueError:
                        raise ParseError(line, f"{name} must be an integer, "
                                               f"got {cell!r}") from None
                *key, count = values
                if count < 0:
                    raise ValidationError(
                        f"line {line}: negative {what} count {count}")
                if len(key) == 2 and key[0] < key[1]:
                    raise ValidationError(
                        f"line {line}: citing year {key[0]} precedes cited "
                        f"year {key[1]}")
                if not cells[0]:
                    raise ValidationError(f"line {line}: empty journal id")
                if not _BREAKS.isdisjoint(cells[0]):
                    raise ValidationError(
                        f"line {line}: journal id {cells[0]!r} holds a tab "
                        f"or line break")
                row_key = (cells[0], *key)
                if row_key in table:
                    raise ValidationError(
                        f"line {line}: duplicate {what} row for "
                        f"({', '.join(map(str, row_key))})")
                table[row_key] = count
        except csv.Error as exc:  # in the record after the last one read
            raise ParseError(line + 1, str(exc)) from None
        tables.append(table)
    pub_table, cit_table = tables
    per_journal = {journal: ({}, {}) for journal, *_ in (*pub_table,
                                                          *cit_table)}
    for (journal, year), count in pub_table.items():
        per_journal[journal][0][year] = count
    for (journal, citing, cited), count in cit_table.items():
        per_journal[journal][1][(citing, cited)] = count
    return Corpus({journal: JournalData(journal, *per_journal[journal])
                   for journal in sorted(per_journal)})


def _outcome(load, pubs: str, cits: str):
    try:
        return load(pubs, cits)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


_PAD = st.sampled_from(["", " ", "\t", " \t ", "\u3000", "\x1c"])
_ID = st.sampled_from(["J", "K", "", "a,b", "a\nb", 'q"t', "J\r\nK"])
_ODD_INT = st.sampled_from(["+5", "-0", "1_0", "\u0663", "-1", "x", "",
                            "1.0", "1 0", "_1", "\u00a0"])
_BLANK_ROW = st.sampled_from(["", " ", "\t", ",,", " , \t,", ",,,,"])


def _padded(cell: st.SearchStrategy) -> st.SearchStrategy[str]:
    """The cell with whitespace around it, quoted where it holds a
    comma, a quote or a line break."""
    def render(parts):
        value = "".join(map(str, parts))
        if any(ch in value for ch in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    return st.tuples(_PAD, cell, _PAD).map(render)


def _spelled(numbers: st.SearchStrategy[int]) -> st.SearchStrategy[str]:
    """An integer's text, plain or with a sign or leading zeros."""
    return st.tuples(st.sampled_from(["", "", "+", "0", "00"]),
                     numbers).map(lambda t: f"{t[0]}{t[1]}")


# count texts on both sides of load_corpus's table of "0".."999", and
# spellings that int() reads but the table does not hold
_COUNT = st.one_of(_spelled(st.integers(0, 1200)),
                   st.sampled_from(["007", "+5", "\u0663", "999", "1000"]))


def _loader_text(fields: list[str]) -> st.SearchStrategy[str]:
    """A header, then well-formed and blank rows with at most one odd
    row among them: odd integer spellings, or any number of fields.
    Both files draw years from 1995..2001, each spelled several ways."""
    header = st.sampled_from([",".join(fields), " , ".join(fields) + "\t"])
    years = [st.integers(2000, 2001), st.integers(1995, 2000)]
    good = st.tuples(_padded(_ID),
                     *(_padded(_spelled(year))
                       for year in years[4 - len(fields):]),
                     _padded(_COUNT)).map(",".join)
    odd_int = _padded(st.one_of(_ODD_INT, *years))
    odd = st.one_of(
        st.tuples(_padded(_ID), *[odd_int] * (len(fields) - 1)),
        st.lists(odd_int, min_size=1, max_size=len(fields) + 1)).map(
        ",".join)
    rows = st.tuples(st.lists(st.one_of(good, good, _BLANK_ROW),
                              max_size=5),
                     st.lists(odd, max_size=1), st.integers(0, 5)).map(
        lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:])
    return st.tuples(header, rows, st.sampled_from(["\n", "\r\n"])).map(
        lambda t: t[2].join([t[0], *t[1]]) + t[2])


@settings(max_examples=400, deadline=None)
@given(_loader_text(_PUBS_FIELDS), _loader_text(_CITS_FIELDS))
@example(f"{_PUBS_HEADER}\n J\t, 1999 ,+5\n \t\n,,\nK,\u0663,1_0\n",
         f"{_CITS_HEADER}\n\"J\nX\",2000,1999,-0\n")
@example(f"{_PUBS_HEADER}\nJ,19x9,10\n", "")
@example(f"{_PUBS_HEADER}\nJ,1999,\n", "")
@example("", f"{_CITS_HEADER}\nJ,x,1999,5\n")
@example("", f"{_CITS_HEADER}\nJ,2000,x,5\n")
@example("", f"{_CITS_HEADER}\nJ,2000,1999,five\n")
@example(f"{_PUBS_HEADER}\nJ,1999\n", "")
@example("", f"{_CITS_HEADER}\nJ,2000,1999,5,\n")
@example(f"{_PUBS_HEADER}\nJ,1999,-1\n", "")
@example("", f"{_CITS_HEADER}\nJ,2000,1999,-1\n")
@example("", f"{_CITS_HEADER}\nJ,1998,1999,5\n")
@example(f"{_PUBS_HEADER}\nJ,1999,1\n J ,1999,2\n", "")
@example("", f"{_CITS_HEADER}\nJ,2000,1999,1\nJ,2000,1999,1\n")
# a zero row is a key too: the row after it is the duplicate
@example(f"{_PUBS_HEADER}\nJ,1999,0\nJ,1999,5\n",
         f"{_CITS_HEADER}\nJ,2000,1999,0\nJ,2000,1999,5\n")
@example("journal,pubs\n", "")
@example("", "journal,citing_year,count\n")
@example(f"{_PUBS_HEADER}\n ,1999,1\n", "")
@example(f"{_PUBS_HEADER}\nJ,1," + "1" * 131_073 + "\n", "")
# str.strip() strips the separators \x1c..\x1f, int() does not
@example(f"{_PUBS_HEADER}\nJ,\x1c1999,5\x1f\n",
         f"{_CITS_HEADER}\nJ,\x1d2000,1999\x1e,x\n")
# a quoted line break: line N counts CSV records, not physical lines
@example(f'{_PUBS_HEADER}\n"J\n\nK",1999,1\nJ,x,1\n', "")
# count texts at the table's edge and off it, in a corpus that loads
@example(f"{_PUBS_HEADER}\nJ,1998,999\nJ,1999,1000\nK,1999,007\n",
         f"{_CITS_HEADER}\nJ,2000,1999,+5\nK,2000,1999,\u0663\n")
# two spellings of one year are one key
@example(f"{_PUBS_HEADER}\nJ,1999,1\nJ, 1999 ,2\n",
         f"{_CITS_HEADER}\nJ,2000,1999,1\nJ,+2000,01999,2\n")
# "-5" read as a valid year, then as a negative count
@example(f"{_PUBS_HEADER}\nJ,-5,1\nJ,1999,-5\n", "")
# a backwards cell whose year texts were each read in valid rows
@example(f"{_PUBS_HEADER}\nJ,1999,1\nJ,2000,1\n",
         f"{_CITS_HEADER}\nJ,2000,1999,1\nJ,1999,2000,1\n")
# a csv.Error after a quoted line break is at its record, not its
# physical line: a field over csv.field_size_limit(), and a bare \r
@example(f'{_PUBS_HEADER}\nJ,1999,"1\n"\nK,1999,' + "1" * 131_073 + "\n", "")
@example("", f'{_CITS_HEADER}\nJ,2000,1999,"1\n"\nK,2000,1999,1\rK\n')
def test_load_corpus_matches_reference_loader(pubs, cits):
    assert _outcome(load_corpus, pubs, cits) == _outcome(_reference_load,
                                                          pubs, cits)


# rows that load_corpus answers wholly or partly from its memos: a
# journal text, a year text or (citing, cited) text pair, or a count text
# seen before in the same file or in its table; the error each load ends
# in, or None
_MEMO_CASES = {
    "swapped-pair": (
        "", "J,2000,1999,5\nJ,1999,2000,5\n",
        "line 3: citing year 1999 precedes cited year 2000"),
    "respelled-year": (
        "", "J,2000,1999,5\nJ,+2000,1999,3\n",
        "line 3: duplicate citation row for (J, 2000, 1999)"),
    "respelled-year-on-a-hit": (
        "J,1999,1\nK,+1999,2\nJ,+1999,3\n", "",
        "line 4: duplicate publication row for (J, 1999)"),
    "respelled-cell-on-a-hit": (
        "", "J,2000,1999,5\nK,+2000,1999,3\nJ,+2000,1999,4\n",
        "line 4: duplicate citation row for (J, 2000, 1999)"),
    "padded-id": (
        "", "J,2000,1999,5\n J,2000,1999,3\n",
        "line 3: duplicate citation row for (J, 2000, 1999)"),
    "padded-id-on-a-hit": (
        "", "J,2000,1999,5\n J,2001,1999,1\n J,2000,1999,3\n",
        "line 4: duplicate citation row for (J, 2000, 1999)"),
    "negative-publication-count": (
        "J,1998,1\nK,1999,2\nJ,1999,-1\n", "",
        "line 4: negative publication count -1"),
    "negative-citation-count": (
        "", "J,2000,1999,5\nK,2001,1999,1\nK,2000,1999,-1\n",
        "line 4: negative citation count -1"),
    "counts-off-the-table": (
        "J,1998,1\nK,1999,2\nJ,1999,1000\nK,1998,007\n",
        "J,2000,1999,5\nK,2001,1999,1\nK,2000,1999,1000\n"
        "J,2001,1999,007\n",
        None),
    "blank-then-short-publication-row": (
        "J,1998,1\nJ,1999,2\n,,\n\nJ,1997\n", "",
        "line 6: expected 3 fields, got 2"),
    "blank-then-short-citation-row": (
        "", "J,2000,1999,5\nJ,2001,1999,1\n,,,\n\nJ,2000,1998\n",
        "line 6: expected 4 fields, got 3"),
    # a new journal text on a row of remembered key and count texts
    "new-id-on-remembered-publication-texts": (
        "J,1999,1\n,1999,1\n", "", "line 3: empty journal id"),
    "new-id-on-remembered-citation-texts": (
        "", "J,2000,1999,1\n,2000,1999,1\n", "line 3: empty journal id"),
    # the count's faults come before the new journal's
    "negative-count-before-new-id": (
        "J,1999,1\n,1999,-1\n", "", "line 3: negative publication count -1"),
    "bad-count-before-new-id": (
        "J,1999,1\n,1999,x\n", "",
        "line 3: pubs must be an integer, got 'x'"),
    "swapped-pair-off-the-table": (
        "", "J,2000,1999,5\nK,1999,2000,1000\n",
        "line 3: citing year 1999 precedes cited year 2000"),
    "counts-int-reads": (
        "J,1999,1\nK,1999,1_000\nL,1999,+1000\nM,1999,00\n", "", None),
    # a remembered key with a count off the table, then that key again
    "off-table-count-on-a-remembered-year": (
        "J,1999,1\nK,1999,1000\nK,1999,5\n", "",
        "line 4: duplicate publication row for (K, 1999)"),
    "off-table-count-on-a-remembered-cell": (
        "", "J,2000,1999,5\nK,2000,1999,007\nK,2000,1999,1\n",
        "line 4: duplicate citation row for (K, 2000, 1999)"),
    # int() refuses the count, a stripped cell reads it
    "unstripped-count-on-a-remembered-year": (
        "J,1999,1\nK,1999,\x1c5\nK,1999,5\n", "",
        "line 4: duplicate publication row for (K, 1999)"),
    "unstripped-count-on-a-remembered-cell": (
        "", "J,2000,1999,5\nK,2000,1999,\x1c5\nK,2000,1999,1\n",
        "line 4: duplicate citation row for (K, 2000, 1999)"),
}


@pytest.mark.parametrize("pubs, cits, error", _MEMO_CASES.values(),
                         ids=_MEMO_CASES)
def test_memo_hits_match_reference_loader(pubs, cits, error):
    pubs, cits = f"{_PUBS_HEADER}\n{pubs}", f"{_CITS_HEADER}\n{cits}"
    got = _outcome(load_corpus, pubs, cits)
    assert got == _outcome(_reference_load, pubs, cits)
    if error is None:
        assert isinstance(got, Corpus)
    else:
        assert got[1] == error


def test_memo_hit_holds_the_interned_cell():
    # K's row respells the cell, and L's row is answered from the memo
    corpus = load_corpus("", f"{_CITS_HEADER}\nJ,2000,1999,5\n"
                             f"K,+2000,1999,3\nL,2001,2000,1\n"
                             f"L,+2000,1999,4\n")
    held = [cell for data in corpus.journals.values() for cell in data.cits
            if cell == (2000, 1999)]
    assert len(held) == 3 and all(cell is held[0] for cell in held)


def test_padded_id_is_one_journal_checked_once(monkeypatch):
    calls = Counter()
    id_fault = corpus_module._id_fault

    def counted(journal_id):
        calls[journal_id] += 1
        return id_fault(journal_id)

    monkeypatch.setattr(corpus_module, "_id_fault", counted)
    corpus = load_corpus("", f"{_CITS_HEADER}\nJ,2000,1999,5\n"
                             f" J,2001,1999,1\n J,2002,1999,3\n")
    assert calls == {"J": 1}
    assert corpus.journals == {"J": JournalData(
        "J", {}, {(2000, 1999): 5, (2001, 1999): 1, (2002, 1999): 3})}


def _count_loaders(pubs: dict, cits: dict) -> dict:
    """Ways to hand the same entries to the count rules: as JournalData,
    as corpus_from_json's layout, as CSV rows, and as an Injection."""
    doc = json.dumps({"journals": {"J": {
        "pubs": {str(year): count for year, count in pubs.items()},
        "cits": [{"citing": citing, "cited": cited, "count": count}
                 for (citing, cited), count in cits.items()]}}})
    pub_rows = "".join(f"J,{year},{count}\n" for year, count in pubs.items())
    cit_rows = "".join(f"J,{citing},{cited},{count}\n"
                       for (citing, cited), count in cits.items())
    return {
        "data": lambda: JournalData("J", pubs, cits),
        "json": lambda: corpus_from_json(doc).journals["J"],
        "csv": lambda: load_corpus(f"{_PUBS_HEADER}\n{pub_rows}",
                                   f"{_CITS_HEADER}\n{cit_rows}"
                                   ).journals["J"],
        "injection": lambda: Injection(pubs.items()),
    }


@pytest.mark.parametrize("pubs, cits, via, reason", [
    ({1999: -3}, {}, "data json csv", "negative publication count -3"),
    ({}, {(2000, 1999): -1}, "data json csv", "negative citation count -1"),
    ({}, {(1998, 1999): 5}, "data json csv",
     "citing year 1998 precedes cited year 1999"),
    ({1999.5: 3}, {}, "data injection", "year must be an integer, got 1999.5"),
    ({}, {(2000.5, 1999): 1}, "data json",
     "citing year must be an integer, got 2000.5"),
    ({1999: 2.5}, {}, "data json injection",
     "count must be an integer, got 2.5"),
    ({1999: True}, {}, "data json injection",
     "count must be an integer, got True"),
    ({}, {(2000, 1999): True}, "data json",
     "count must be an integer, got True"),
    ({}, {(2000, 1999.5): 1}, "data json",
     "cited year must be an integer, got 1999.5"),
    ({}, {(2000, 1999): 1.5}, "data json", "count must be an integer, got 1.5"),
    ({"x": 3}, {}, "data json injection", "year must be an integer, got 'x'"),
    ({True: 3}, {}, "data injection", "year must be an integer, got True"),
    ({}, {(2000, 1999): -2, (2000, 1998): 1}, "data json csv",
     "negative citation count -2"),
    # a zero count is checked before it is dropped
    ({1999: 4}, {(1999, 2000): 0}, "data json csv",
     "citing year 1999 precedes cited year 2000"),
    # accepted: a same-year citation; zero counts are dropped
    ({1998: 0, 1999: 4}, {(1999, 1999): 2, (2000, 1999): 0},
     "data json csv", None),
    # accepted: a year before year 0
    ({-5: 3}, {}, "data json csv", None),
])
def test_count_rules_agree(pubs, cits, via, reason):
    loaders = _count_loaders(pubs, cits)
    prefix = {"data": "journal 'J', ", "json": "journal 'J', ",
              "csv": "line 2", "injection": "injection "}
    for name in via.split():
        if reason is None:
            data = loaders[name]()
            assert data.pubs == {year: n for year, n in pubs.items() if n}
            assert data.cits == {cell: n for cell, n in cits.items() if n}
            continue
        with pytest.raises(ValidationError) as exc_info:
            loaders[name]()
        location, got = str(exc_info.value).split(": ", 1)
        assert location.startswith(prefix[name]), name
        assert got == reason, name


def test_load_corpus_checks_each_count_once(monkeypatch):
    # load_corpus holds each CSV row to the count contract, with its line
    # number; the JournalData it builds does not check the counts again
    calls = Counter()
    integer_fault = core._integer_fault

    def counted(value, what):
        calls[what] += 1
        return integer_fault(value, what)

    monkeypatch.setattr(core, "_integer_fault", counted)
    pubs = PUBS_1A + f"K,{Y - 1},0\nK,{Y - 2},7\n"
    cits = CITS_1A + f"K,{Y},{Y},0\nL,{Y},{Y - 1},3\n"
    corpus = load_corpus(pubs, cits)
    assert calls == {}
    # the same counts through the public constructor are each checked
    for data in corpus.journals.values():
        assert JournalData(data.journal_id, data.pubs, data.cits) == data
    assert calls == {"year": 5, "count": 10, "citing year": 5,
                     "cited year": 5}
    assert corpus.journals["K"] == JournalData("K", {Y - 2: 7})


_ZERO_ROWS = {
    # (header, row with its key, and the id and key in the duplicate error)
    "pubs": (_PUBS_HEADER, "J,1999,{}", "publication row for (J, 1999)"),
    "cits": (_CITS_HEADER, "J,2000,1999,{}",
             "citation row for (J, 2000, 1999)"),
}


def _load_one(which: str, body: str) -> Corpus:
    """load_corpus with ``body`` under the header of the ``which`` file
    and an empty other file."""
    text = f"{_ZERO_ROWS[which][0]}\n{body}"
    return load_corpus(text, "") if which == "pubs" else load_corpus("", text)


@pytest.mark.parametrize("which", ["pubs", "cits"])
@pytest.mark.parametrize("first, second", [(0, 5), (5, 0), (0, 0)])
def test_duplicate_with_a_zero_row_is_rejected(which, first, second):
    # zero rows are dropped only after every row is read, so a zero row
    # and a row for the same key are still a duplicate at the second
    _, row, key = _ZERO_ROWS[which]
    body = "K,1999,3\n" if which == "pubs" else "K,2000,1999,3\n"
    body += f"{row.format(first)}\n \n{row.format(second)}\n"
    with pytest.raises(ValidationError) as exc_info:
        _load_one(which, body)
    assert str(exc_info.value) == f"line 5: duplicate {key}"


@pytest.mark.parametrize("which", ["pubs", "cits"])
def test_journal_of_zero_rows_loads_empty(which):
    _, row, _ = _ZERO_ROWS[which]
    other = row.format(0).replace("1999", "1998")
    corpus = _load_one(which, f"{row.format(0)}\n{other}\n")
    assert corpus.journals == {"J": JournalData("J", {}, {})}


def _seeded_csv(seed: int, journals: int) -> tuple[str, str, int]:
    """A publications and a citations CSV over ``journals`` journals, each
    publishing from a seeded first year to 2012 and cited for up to five
    years, with about one count in 20 zero; and the row count."""
    rng = random.Random(seed)
    pub_rows, cit_rows = [], []
    for number in range(journals):
        journal = f"J{number:04d}"
        for year in range(2012 - rng.randint(0, 25), 2013):
            count = rng.randint(0, 20) and rng.randint(1, 400)
            pub_rows.append(f"{journal},{year},{count}")
            for citing in range(year, min(year + 5, 2013)):
                count = rng.randint(0, 20) and rng.randint(1, 1200)
                cit_rows.append(f"{journal},{citing},{year},{count}")
    return (f"{_PUBS_HEADER}\n" + "\n".join(pub_rows) + "\n",
            f"{_CITS_HEADER}\n" + "\n".join(cit_rows) + "\n",
            len(pub_rows) + len(cit_rows))


def test_loaded_journals_hold_no_zero_entry():
    pubs, cits, _ = _seeded_csv(18, 60)
    corpus = load_corpus(pubs, cits)
    assert ",0\n" in pubs and ",0\n" in cits
    for data in corpus.journals.values():
        assert all(data.pubs.values()) and all(data.cits.values())
    assert corpus == _reference_load(pubs, cits)


def test_loaded_corpus_holds_each_key_once():
    # every journal shares one object per distinct year and cell
    pubs, cits, rows = _seeded_csv(7, 400)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        corpus = load_corpus(pubs, cits)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # about 65 bytes a row, most of it dict slots and counts over 256; a
    # year int, or a cell tuple and its two ints, of each row's own make
    # it over 150
    assert kept < 100 * rows, kept / rows
    years, cells = {}, {}
    for data in corpus.journals.values():
        for year in data.pubs:
            assert years.setdefault(year, year) is year
        for cell in data.cits:
            assert cells.setdefault(cell, cell) is cell
    assert len(years) == 26 and len(cells) == 26 * 5 - 10
    # spellings of one year, in both files and on the row path that
    # reads a cell int() refuses (\x1c), are one object in every journal
    corpus = load_corpus(
        f"{_PUBS_HEADER}\nJ,1999,1\nK, 1999,2\nL,+1999,3\nM,\x1c1999,4\n",
        f"{_CITS_HEADER}\nJ,+1999,1999,1\nK,2000, 1999,2\n"
        f"L,\x1c2001,+1999,3\nM,2002,\x1c1999,4\nN,2000,+1999,5\n")
    held = {id(year) for data in corpus.journals.values()
            for year in (*data.pubs, *(y for cell in data.cits for y in cell))
            if year == 1999}
    assert len(held) == 1 and len(corpus.journals) == 5


def test_load_corpus_checks_each_journal_id_once(monkeypatch):
    # load_corpus checks an id at the first row that names it in each
    # file; the Corpus it builds does not check the ids again
    calls = Counter()
    id_fault = corpus_module._id_fault

    def counted(journal_id):
        calls[journal_id] += 1
        return id_fault(journal_id)

    monkeypatch.setattr(corpus_module, "_id_fault", counted)
    pubs = PUBS_1A + f"K,{Y - 1},0\nK,{Y - 2},7\n"
    cits = CITS_1A + f"K,{Y},{Y},0\nL,{Y},{Y - 1},3\n L,{Y},{Y},2\n"
    corpus = load_corpus(pubs, cits)
    # J, J' and K first seen in the publications, J, J', K and L in the
    # citations; " L" strips to an id already checked in that file
    assert calls == {"J": 2, "J'": 2, "K": 2, "L": 1}
    calls.clear()
    assert Corpus(corpus.journals) == corpus
    assert calls == {"J": 1, "J'": 1, "K": 1, "L": 1}


_OVERLONG = b"1" * 131_073  # one over the default csv.field_size_limit()
_BAD_BYTES = {
    # id: (publications file, line of its first byte that is not UTF-8)
    "header": (b"journ\xe9l,year,pubs\nJ,1998,10\n", 1),
    "record-4": (b"journal,year,pubs\nJ,1998,10\nJ,1999,10\nK\xe9,1998,30\n",
                 4),
    "quoted-break": (b'journal,year,pubs\n"J\nK",1998,10\r\n\nL,1998,1\xff\n',
                     4),
    # fields over the limit before the bad byte
    "overlong": (b"journal,year,pubs\nJ,1998," + _OVERLONG
                 + b"\nJ,1999,10\nK\xe9,1998,30\n", 4),
    "overlong-quoted": (b'journal,year,pubs\n"J\n' + _OVERLONG
                        + b'",1998,10\nK\xe9,1998,30\n', 3),
    "overlong-commas": (b'journal,year,pubs\n"' + b"1," * 70_000
                        + b'",1998,10\nK\xe9,1998,30\n', 3),
    "overlong-quotes": (b"journal,year,pubs\n" + b'1"' * 70_000
                        + b",1998,10\nK\xe9,1998,30\n", 3),
}


@pytest.mark.parametrize("raw, line", _BAD_BYTES.values(), ids=_BAD_BYTES)
def test_non_utf8_csv_is_parse_error_at_its_line(tmp_path, raw, line):
    # lines count CSV records, header as line 1, as every load error does
    path = tmp_path / "pubs.csv"
    path.write_bytes(raw)
    with open(path, encoding="utf-8") as fh:
        sources = {"file object": fh, "path": path}
        for route, source in sources.items():
            with pytest.raises(ParseError) as exc_info:
                load_corpus(source, "")
            assert exc_info.value.line == line, route
            assert str(exc_info.value).startswith(f"line {line}: utf-8 "
                                                  "cannot decode byte 0x")


_FAULT_FIRST = {
    # id: (the file that holds a fault, its lines 1 to 3, the fault)
    "duplicate-row": (
        "pubs", b"journal,year,pubs\nJ,1998,1\nJ,1998,2\n",
        "line 3: duplicate publication row for (J, 1998)"),
    "bad-count": (
        "pubs", b"journal,year,pubs\nJ,1998,1\nJ,1999,x\n",
        "line 3: pubs must be an integer, got 'x'"),
    "field-over-the-limit": (
        "pubs", b"journal,year,pubs\nJ,1998,1\nJ,1999," + _OVERLONG + b"\n",
        "line 3: field larger than field limit (131072)"),
    "header": (
        "pubs", b"journal,yr,pubs\nJ,1998,1\nJ,1999,1\n",
        "line 1: expected header journal,year,pubs, got journal,yr,pubs"),
    "backward-citation": (
        "cits", b"journal,citing_year,cited_year,count\n"
                b"J,2000,1999,1\nJ,1998,1999,5\n",
        "line 3: citing year 1998 precedes cited year 1999"),
}


def _pipe(raw: bytes):
    """A text file object that reads ``raw`` from a pipe, which cannot
    seek back."""
    read_end, write_end = os.pipe()

    def write():
        try:
            with open(write_end, "wb") as writer:
                writer.write(raw)
        except BrokenPipeError:  # the reader was closed before the end
            pass

    threading.Thread(target=write, daemon=True).start()
    return open(read_end, encoding="utf-8")


@pytest.mark.parametrize("bad_byte", [True, False],
                         ids=["bad-byte", "no-bad-byte"])
@pytest.mark.parametrize("which, head, fault", _FAULT_FIRST.values(),
                         ids=_FAULT_FIRST)
def test_bad_byte_comes_before_an_earlier_row_fault(tmp_path, which, head,
                                                    fault, bad_byte):
    # a file is read line by line, but a byte of it that does not decode
    # is still reported before any fault in its rows, as when the file
    # was read whole first; 3,000 rows put that byte past the first 8 KiB
    # that a streamed read decodes
    row = b"%s,1998,1\n" if which == "pubs" else b"%s,2000,1999,1\n"
    rows = b"".join(row % b"K%d" % number for number in range(3000))
    raw = head + rows + row % (b"L\xe9" if bad_byte else b"L")
    assert raw.find(b"\xe9") > 8192 or not bad_byte
    files = {"pubs": b"journal,year,pubs\n",
             "cits": b"journal,citing_year,cited_year,count\n", which: raw}
    paths = [tmp_path / f"{name}.csv" for name in files]
    for path, data in zip(paths, files.values()):
        path.write_bytes(data)
    routes = {
        "path": lambda: paths,
        "file object": lambda: [open(path, encoding="utf-8")
                                for path in paths],
        "pipe": lambda: [_pipe(data) for data in files.values()],
    }
    want = ("line 3004: utf-8 cannot decode byte 0xe9: invalid continuation "
            "byte" if bad_byte else fault)
    for route, open_sources in routes.items():
        sources = open_sources()
        try:
            with pytest.raises((ParseError, ValidationError)) as exc_info:
                load_corpus(*sources)
        finally:
            for source in sources:
                if route != "path":
                    source.close()
        assert str(exc_info.value) == want, route


def test_only_checked_routes_skip_the_count_rules():
    # JournalData._checked stores counts unchecked; only the CSV loader
    # and the miner, which check or construct every count, may call it
    callers = set()
    for path in Path(core.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                callers.update(
                    (path.stem, function.name) for node in ast.walk(function)
                    if isinstance(node, ast.Attribute)
                    and node.attr == "_checked")
    assert callers == {("corpus", "load_corpus"), ("consistency", "_journal")}


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 3000) | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12)
_json_entries = st.fixed_dictionaries({
    "pubs": st.dictionaries(st.sampled_from(["1998", "1999", "x"]),
                            _json_values, max_size=2),
    "cits": st.lists(st.fixed_dictionaries(
        {"citing": _json_values, "cited": _json_values,
         "count": _json_values}), max_size=2)}) | _json_values
_json_text = st.one_of(
    st.text(),
    _json_values.map(json.dumps),
    st.dictionaries(st.text(max_size=3), _json_entries, max_size=3).map(
        lambda journals: json.dumps({"journals": journals})))


@settings(max_examples=300, deadline=None)
@given(_json_text)
@example("[" * 100_000)
@example("1" * 5_000)
@example("{}")
@example(_J % ('{"pubs": {"%s": 1}, "cits": []}' % ("1" * 5_000)))
def test_corpus_from_json_fuzz_raises_only_input_errors(text):
    try:
        corpus = corpus_from_json(text)
    except (ParseError, ValidationError):
        return
    assert isinstance(corpus, Corpus)


# --- ranking ----------------------------------------------------------------

def test_rank_published_example():
    ranking = rank(load_corpus(PUBS_1A, CITS_1A), ROA2)
    assert [(e.journal_id, e.value, e.rank) for e in ranking.entries] \
        == [("J", Ratio(3), 1), ("J'", Ratio(2), 2)]


def test_rank_single_journal():
    corpus = load_corpus("journal,year,pubs\nX,1999,5\nX,1998,5\n",
                         "journal,citing_year,cited_year,count\n")
    ranking = rank(corpus, ROA2)
    assert len(ranking.entries) == 1
    assert ranking.entries[0].rank == 1


def test_competition_ranking_for_ties():
    pubs = ("journal,year,pubs\n"
            "A,1999,10\nA,1998,10\nB,1999,10\nB,1998,10\nC,1999,10\nC,1998,10\n")
    cits = ("journal,citing_year,cited_year,count\n"
            "A,2000,1999,20\nB,2000,1999,20\nC,2000,1999,10\n")
    ranking = rank(load_corpus(pubs, cits), ROA2)
    assert [(e.journal_id, e.rank) for e in ranking.entries] \
        == [("A", 1), ("B", 1), ("C", 3)]
    assert ranking.entries[0].tied_with == ("B",)
    assert ranking.entries[1].tied_with == ("A",)


def test_rank_skips_uncomputable_journals():
    pubs = "journal,year,pubs\nA,1999,10\nB,1997,3\n"
    cits = "journal,citing_year,cited_year,count\n"
    corpus = load_corpus(pubs, cits)
    ranking = rank(corpus, AOR2)
    assert [e.journal_id for e in ranking.entries] == []
    assert {journal for journal, _ in ranking.skipped} == {"A", "B"}


def test_rank_permutation_invariance():
    rng = random.Random(42)
    base = rank(load_corpus(PUBS_1A, CITS_1A), ROA2)
    pub_rows = PUBS_1A.strip().split("\n")
    cit_rows = CITS_1A.strip().split("\n")
    for _ in range(25):
        shuffled_pubs = [pub_rows[0]] + rng.sample(pub_rows[1:], 4)
        shuffled_cits = [cit_rows[0]] + rng.sample(cit_rows[1:], 4)
        shuffled = rank(load_corpus("\n".join(shuffled_pubs),
                                    "\n".join(shuffled_cits)), ROA2)
        assert shuffled == base


def _rank_oracle(corpus: Corpus):
    """``rank`` for ROA2 from the definitions, with plain Fractions:
    (id, value, 1 + number of strictly greater values, other ids with an
    equal value) in display order, and the skipped ids."""
    values, skipped = {}, []
    for journal_id, data in sorted(corpus.journals.items()):
        p = data.pubs.get(Y - 1, 0) + data.pubs.get(Y - 2, 0)
        c = data.cits.get((Y, Y - 1), 0) + data.cits.get((Y, Y - 2), 0)
        if p:
            values[journal_id] = Fraction(c, p)
        else:
            skipped.append(journal_id)
    order = sorted(values, key=lambda j: (-values[j], j))
    entries = [(j, values[j], 1 + sum(v > values[j] for v in values.values()),
                tuple(o for o in order if o != j and values[o] == values[j]))
               for j in order]
    return entries, skipped


def test_rank_matches_definition_oracle():
    # values c / (p1 + p2) from a handful of small integers, so tie groups
    # are common; p1 = p2 = 0 makes a journal uncomputable
    largest_group = []
    any_skipped = []

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.text(alphabet="ABab'", min_size=1, max_size=3),
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 4)),
        max_size=25))
    def check(cells):
        corpus = Corpus({
            j: JournalData(j, {Y - 1: p1, Y - 2: p2}, {(Y, Y - 1): c})
            for j, (p1, p2, c) in cells.items()})
        ranking = rank(corpus, ROA2)
        entries, skipped = _rank_oracle(corpus)
        assert [(e.journal_id, e.value, e.rank, e.tied_with)
                for e in ranking.entries] == entries
        assert [j for j, _ in ranking.skipped] == skipped
        # the CLI's path: tie groups are the oracle's runs of equal value,
        # and sensitivity pairs the neighbours across each run's edge
        groups, group_skipped = corpus_module._groups(corpus, ROA2)
        runs = [list(run) for _, run in groupby(entries, key=lambda e: e[1])]
        # each group's value is the reduced (num, den) pair
        assert groups == [(run[0][2], (run[0][1].numerator,
                                       run[0][1].denominator),
                           tuple(j for j, *_ in run)) for run in runs]
        assert [j for j, _ in group_skipped] == skipped
        assert [(row.upper_id, row.lower_id)
                for row in sensitivity_report(corpus, ROA2, 1)] == [
            (upper[0], lower[0]) for upper, lower in zip(entries, entries[1:])
            if upper[1] > lower[1]]
        largest_group.append(max(
            Counter(v for _, v, _, _ in entries).values(), default=0))
        any_skipped.append(bool(skipped))

    check()
    assert max(largest_group) >= 3
    assert any(any_skipped)


def _farey_neighbour(a: int, b: int, bound: int) -> tuple[int, int]:
    """c/d, the fraction just above the reduced a/b among those with
    denominators <= ``bound`` (b <= bound): b*c - a*d = 1 with the
    largest such d, so c/d - a/b = 1/(b*d), close to 1/bound**2."""
    d = -pow(a, -1, b) % b if b > 1 else 0  # a*d = -1 (mod b)
    d += (bound - d) // b * b
    return (1 + a * d) // b, d


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10**6), st.lists(
    st.tuples(st.integers(0, 10**7), st.integers(1, 10**6),
              st.sampled_from([1, 1, 2, 3])), min_size=1, max_size=12))
@example(10**6, [(999_999, 10**6, 1), (1, 1, 1)])
def test_rank_key_keeps_fraction_order_and_ties(bound, draws):
    # rank sorts and groups on an integer key, num * D**2 // den; against
    # plain Fractions, near neighbours stay apart in the same order and
    # equal values tie.  Each drawn value c/p is joined by its Farey
    # neighbour at the bound, and a multiplier m > 1 adds the same value
    # unreduced, m*c/(m*p), so it ties.
    values = []
    for num, den, m in draws:
        value = Fraction(num, min(den, bound))
        c, p = value.numerator, value.denominator
        values += [(c, p), _farey_neighbour(c, p, bound)]
        if m > 1:
            values.append((m * c, m * p))
    corpus = Corpus({f"j{i:02}": JournalData(f"j{i:02}", {Y - 1: p},
                                             {(Y, Y - 1): c})
                     for i, (c, p) in enumerate(values)})
    ranking = rank(corpus, ROA2)
    entries, skipped = _rank_oracle(corpus)
    assert [(e.journal_id, e.value, e.rank, e.tied_with)
            for e in ranking.entries] == entries
    assert ranking.skipped == () and skipped == []


# --- sensitivity ------------------------------------------------------------

def test_sensitivity_published_roa_pair():
    rows = sensitivity_report(load_corpus(PUBS_1A, CITS_1A), ROA2, 100)
    assert len(rows) == 1
    row = rows[0]
    assert (row.upper_id, row.lower_id) == ("J", "J'")
    assert row.per_year_min_k == {Y - 2: 21, Y - 1: 21}
    # a minimum above k_max is reported as None
    for k_max, k in ((21, 21), (20, None)):
        row, = sensitivity_report(load_corpus(PUBS_1A, CITS_1A), ROA2, k_max)
        assert row.per_year_min_k == {Y - 2: k, Y - 1: k}


def test_sensitivity_single_journal_empty():
    corpus = load_corpus("journal,year,pubs\nX,1999,5\nX,1998,5\n",
                         "journal,citing_year,cited_year,count\n")
    assert sensitivity_report(corpus, ROA2, 50) == []


def test_sensitivity_published_aor_pair():
    rows = sensitivity_report(load_corpus(PUBS_2, CITS_2), AOR2, 100)
    assert len(rows) == 1
    row = rows[0]
    assert (row.upper_id, row.lower_id) == ("J'", "J")

    # independent oracle: scan the AoR formulas directly
    from fractions import Fraction

    def aor(c1, p1, c2, p2):
        return (Fraction(c1, p1) + Fraction(c2, p2)) / 2

    def first_flip(inject_recent):
        for k in range(1, 101):
            dp = k if inject_recent else 0
            do = 0 if inject_recent else k
            j = aor(10, 30 + dp, 80, 20 + do)
            jp = aor(120, 30 + dp, 10, 20 + do)
            if j > jp:
                return k
        return None

    assert row.per_year_min_k == {Y - 1: first_flip(True),
                                  Y - 2: first_flip(False)}
    assert row.per_year_min_k[Y - 1] == 2
    assert row.per_year_min_k[Y - 2] is None


def test_sensitivity_tied_pairs_skipped():
    pubs = ("journal,year,pubs\n"
            "A,1999,10\nA,1998,10\nB,1999,10\nB,1998,10\n")
    cits = ("journal,citing_year,cited_year,count\n"
            "A,2000,1999,20\nB,2000,1999,20\n")
    assert sensitivity_report(load_corpus(pubs, cits), ROA2, 50) == []


@pytest.mark.parametrize("kind", [IndicatorKind.SYNC_ROA,
                                  IndicatorKind.SYNC_AOR])
def test_sensitivity_solves_each_pair_in_one_pass(monkeypatch, kind):
    # one _terms call per side of each strict pair, however many years
    years = range(Y - 50, Y)

    def journal(name, p, c, last_c):
        return JournalData(name, {y: p for y in years},
                           {**{(Y, y): c for y in years}, (Y, Y - 1): last_c})

    # B > A > C under both kinds; sync-roa reverses (A, C) at k = 139 in
    # every year, sync-aor (B, A) at k = 2 in Y - 1
    corpus = Corpus({"A": journal("A", 1, 2, 0), "B": journal("B", 1, 1, 100),
                     "C": journal("C", 3, 3, 3)})
    real, calls = consistency._terms, []
    monkeypatch.setattr(consistency, "_terms",
                        lambda *args: calls.append(args) or real(*args))
    rows = sensitivity_report(corpus, IndicatorSpec(kind, 50, Y), 1000)
    assert [(row.upper_id, row.lower_id) for row in rows] \
        == [("B", "A"), ("A", "C")]
    assert [len(row.per_year_min_k) for row in rows] == [50, 50]
    assert any(k is not None for row in rows
               for k in row.per_year_min_k.values())
    assert len(calls) == 4


def _distinct_aor_peaks(*calls):
    """Each ``call(corpus, spec)``'s tracemalloc peak on 1,000 sync-aor
    journals at n = 5 whose values are all distinct, and the last call's
    result."""
    rng = random.Random(5)
    years = range(Y - 5, Y)
    corpus = Corpus({f"J{j:04}": JournalData(
        f"J{j:04}", {y: rng.randint(1, 50) for y in years},
        {(Y, y): rng.randint(0, 10**6) for y in years}) for j in range(1000)})
    spec = IndicatorSpec(IndicatorKind.SYNC_AOR, 5, Y)
    peaks = []
    for call in calls:
        gc.collect()
        tracemalloc.start()
        try:
            result = call(corpus, spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks, result


def test_sensitivity_report_drops_each_pair_s_values():
    # each pair's verifier, and the values it holds, goes with the pair;
    # one verifier for the whole report held every journal's window,
    # "before" and checked "after" values to its end: about 8 times
    # the peak of the report's own groups here, against about 2
    peaks, result = _distinct_aor_peaks(
        corpus_module._groups,
        lambda corpus, spec: sensitivity_report(corpus, spec, 100))
    assert sum(k is not None for row in result
               for k in row.per_year_min_k.values()) > 2000
    groups, report = peaks
    assert report < 4 * groups, (groups, report)


def test_sensitivity_table_streams_its_rows():
    # the CLI's table takes each row as it is yielded and keeps none:
    # about 1.4 times the peak of the groups here; listing the 999
    # SensitivityRows before the first line is written reads about 2.6
    def table(corpus, spec):
        _, rows, skipped = cli._sensitivity_table(
            corpus, spec, SimpleNamespace(k_max=100))
        return sum(1 for _ in rows), skipped

    (groups, streamed), (lines, skipped) = _distinct_aor_peaks(
        corpus_module._groups, table)
    assert (lines, skipped) == (5 * 999, [])
    assert streamed < 2 * groups, (groups, streamed)
