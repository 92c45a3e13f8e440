import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from decimal import ROUND_HALF_UP, Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import impactz
from impactz import (
    IndicatorKind,
    IndicatorSpec,
    Injection,
    JournalData,
    Ratio,
    SearchBounds,
    VerdictTag,
    cli,
    consistency,
    format_exact,
    load_corpus,
    mine_counterexamples,
    rank,
)
from impactz.cli import run
from impactz.ratio import _long_str

from conftest import Y
from test_corpus import CITS_1A, CITS_2, PUBS_1A, PUBS_2


@pytest.fixture
def table_1a_files(tmp_path):
    pubs = tmp_path / "pubs.csv"
    cits = tmp_path / "cits.csv"
    pubs.write_text(PUBS_1A)
    cits.write_text(CITS_1A)
    return str(pubs), str(cits)


@pytest.fixture
def table_2_files(tmp_path):
    pubs = tmp_path / "pubs.csv"
    cits = tmp_path / "cits.csv"
    pubs.write_text(PUBS_2)
    cits.write_text(CITS_2)
    return str(pubs), str(cits)


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


def test_compute_tsv(table_1a_files):
    pubs, cits = table_1a_files
    code, out = invoke(["compute", "--pubs", pubs, "--cits", cits,
                        "--kind", "sync-roa", "-n", "2", "--year", str(Y)])
    assert code == 0
    assert out == "J\t3/1\t3.00\nJ'\t2/1\t2.00\n"


def test_compute_json(table_2_files):
    pubs, cits = table_2_files
    code, out = invoke(["compute", "--pubs", pubs, "--cits", cits,
                        "--kind", "sync-aor", "-n", "2", "--year", str(Y),
                        "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {"journal": "J", "exact": "13/6", "decimal": "2.17"},
        {"journal": "J'", "exact": "9/4", "decimal": "2.25"},
    ]


def test_compute_places_flag(table_1a_files):
    pubs, cits = table_1a_files
    code, out = invoke(["compute", "--pubs", pubs, "--cits", cits,
                        "--kind", "sync-roa", "-n", "2", "--year", str(Y),
                        "--places", "3"])
    assert code == 0
    assert "3.000" in out


def test_compute_prints_values_past_the_int_digit_limit(tmp_path):
    # 4300 nines is the longest count int() reads by default; two of them
    # over 7 publications give a 4301-digit numerator, and a 4300-digit
    # integer part that --places 2 scales to 4302 digits
    nines = "9" * 4300
    pubs, cits = tmp_path / "pubs.csv", tmp_path / "cits.csv"
    pubs.write_text(f"journal,year,pubs\nJ,{Y - 1},3\nJ,{Y - 2},4\n")
    cits.write_text("journal,citing_year,cited_year,count\n"
                    f"J,{Y},{Y - 1},{nines}\nJ,{Y},{Y - 2},{nines}\n")
    code, out = invoke(["compute", "--pubs", str(pubs), "--cits", str(cits),
                        "--kind", "sync-roa", "-n", "2", "--year", str(Y)])
    assert code == 0
    num = "1" + "9" * 4299 + "8"  # 2 * (10**4300 - 1), as digits
    with localcontext() as ctx:
        ctx.prec = 5000
        decimal = (Decimal(num) / 7).quantize(Decimal("0.01"),
                                              rounding=ROUND_HALF_UP)
    assert out == f"J\t{num}/7\t{decimal}\n"


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_mine_prints_window_years_past_the_int_digit_limit(fmt):
    # 4300 nines is the longest --year int() reads by default; the
    # diachronous window's citing year Y + 1 has 4301 digits, and the row
    # is the Y = 2000 row with each year printed in full
    nines, citing = "9" * 4300, "1" + "0" * 4300
    argv = ["mine", "--kind", "diachronous", "-n", "2", "--pub-max", "2",
            "--cit-max", "2", "--k-max", "2", "--limit", "1",
            "--format", fmt, "--year"]
    code, out = invoke(argv + [nines])
    assert code == 0
    code, plain = invoke(argv + ["2000"])
    assert code == 0 and "2001,2000" in plain
    assert out == plain.replace("2000", nines).replace("2001", citing)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_mine_prints_inject_years_past_the_int_digit_limit(fmt):
    # at Y = -<4300 nines> the sync-roa denominator years Y - 2 and Y - 1,
    # one of which every witness injects into, have 4301 digits; the row
    # is the Y = -2000 row with each year in full, and a JSON inject_year
    # is still an integer literal
    nines = "9" * 4300
    argv = ["mine", "--kind", "sync-roa", "-n", "2", "--pub-max", "2",
            "--cit-max", "2", "--k-max", "2", "--limit", "1",
            "--format", fmt]
    code, out = invoke(argv + [f"--year=-{nines}"])
    assert code == 0
    code, plain = invoke(argv + ["--year=-2000"])
    inject_year = {"tsv": "\t-2002\t", "json": '"inject_year": -2002,'}[fmt]
    assert code == 0 and inject_year in plain
    assert out == (plain.replace("-2000", f"-{nines}")
                   .replace("-2001", f"-1{'0' * 4300}")
                   .replace("-2002", f"-1{'0' * 4299}1"))


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("command", ["compute", "rank", "sensitivity"])
@pytest.mark.parametrize("kind", ["sync-roa", "sync-aor"])
def test_skip_warnings_print_window_years_past_the_int_digit_limit(
        tmp_path, capsys, fmt, command, kind):
    # Y - 2 and Y - 1 at Y = -<4300 nines>, each 4301 digits
    before, last = f"-1{'0' * 4299}1", f"-1{'0' * 4300}"
    reason = {"sync-roa": f"no publications in window {before}..{last}",
              "sync-aor": f"no publications in year {last}"}[kind]
    pubs, cits = tmp_path / "pubs.csv", tmp_path / "cits.csv"
    pubs.write_text("journal,year,pubs\nJ,1998,10\n")
    cits.write_text("journal,citing_year,cited_year,count\n")
    code, out = invoke([command, "--pubs", str(pubs), "--cits", str(cits),
                        "--kind", kind, "-n", "2", f"--year=-{'9' * 4300}",
                        "--format", fmt])
    assert (code, out) == (0, {"tsv": "", "json": "[]\n"}[fmt])
    assert capsys.readouterr().err == f"warning: skipped J: J: {reason}\n"


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_sensitivity_prints_window_years_past_the_int_digit_limit(tmp_path,
                                                                  fmt):
    # at Y = 50 - <4300 nines> and -n 100, the window's last year Y - 1
    # has 4300 digits, so a CSV can hold it, and its first year Y - 100
    # has 4301; each row is the Y = 2000 row with its year shifted
    def rows(year):
        pubs, cits = tmp_path / "pubs.csv", tmp_path / "cits.csv"
        pubs.write_text(f"journal,year,pubs\nJ,{year - 1},10\n"
                        f"K,{year - 1},30\n")
        cits.write_text("journal,citing_year,cited_year,count\n"
                        f"J,{year},{year - 1},30\nK,{year},{year - 1},60\n")
        code, out = invoke(["sensitivity", "--pubs", str(pubs),
                            "--cits", str(cits), "--kind", "sync-roa",
                            "-n", "100", f"--year={year}", "--k-max", "5",
                            "--format", fmt])
        assert code == 0
        if fmt == "json":  # Decimal reads an integer of any length
            return [list(row.values())
                    for row in json.loads(out, parse_int=Decimal)]
        return [[upper, lower, Decimal(year), k] for upper, lower, year, k
                in (line.split("\t") for line in out.splitlines())]

    year = 50 - int("9" * 4300)
    plain = rows(2000)
    assert len(plain) == 100
    assert rows(year) == [[upper, lower, Decimal(int(y) - 2000 + year), k]
                          for upper, lower, y, k in plain]


def _parts(witnesses):
    """Each witness record as the (left, right, injection, checked) that
    ``cli._mine_rows`` reads, ``checked`` its verdict as the verifier's
    (tag, before, after) of (num, den) pairs."""
    def pairs(values):
        return tuple((r.numerator, r.denominator) for r in values)

    return ((w.scenario.left, w.scenario.right, w.scenario.injection,
             (w.verdict.tag, pairs(w.verdict.before), pairs(w.verdict.after)))
            for w in witnesses)


def test_mine_rows_print_pubs_years_past_the_int_digit_limit():
    # at Y = -<4300 nines> the sync-roa denominator years Y - 2 and Y - 1
    # have 4301 digits; the journal columns are read from the row dict
    nines = "9" * 4300

    def columns(year):
        bounds = SearchBounds(n=2, pub_max=2, cit_max=2, k_max=2,
                              target_year=year)
        row, = cli._mine_rows(_parts(mine_counterexamples(
            IndicatorKind.SYNC_ROA, bounds, 1)), "json")
        return "\t".join(v for k, v in row.items()
                         if k.endswith(("_pubs", "_cits")))

    plain = columns(-2000)
    assert "-2002" in plain and "-2001" in plain
    assert columns(-int(nines)) == (
        plain.replace("-2000", f"-{nines}")
        .replace("-2001", f"-1{'0' * 4300}")
        .replace("-2002", f"-1{'0' * 4299}1"))


def test_places_bound_is_inclusive_and_documented(table_1a_files, capsys):
    pubs, cits = table_1a_files
    code, out = invoke(["compute", "--pubs", pubs, "--cits", cits,
                        "--kind", "sync-roa", "-n", "2", "--year", str(Y),
                        "--places", "1000"])
    assert code == 0
    assert f"\t3.{'0' * 1000}\n" in out
    assert invoke(["compute", "--help"]) == (0, "")
    assert "(0 to 1000)" in " ".join(capsys.readouterr().out.split())


def test_rank(table_1a_files):
    pubs, cits = table_1a_files
    code, out = invoke(["rank", "--pubs", pubs, "--cits", cits,
                        "--kind", "sync-roa", "-n", "2", "--year", str(Y)])
    assert code == 0
    assert out == "1\tJ\t3/1\t3.00\n2\tJ'\t2/1\t2.00\n"


def test_sensitivity(table_1a_files):
    pubs, cits = table_1a_files
    code, out = invoke(["sensitivity", "--pubs", pubs, "--cits", cits,
                        "--kind", "sync-roa", "-n", "2", "--year", str(Y),
                        "--k-max", "100"])
    assert code == 0
    assert out == (f"J\tJ'\t{Y - 2}\t21\n"
                   f"J\tJ'\t{Y - 1}\t21\n")


def test_mine_deterministic_output():
    argv = ["mine", "--kind", "sync-aor", "-n", "2", "--year", str(Y),
            "--pub-max", "4", "--cit-max", "8", "--k-max", "4",
            "--limit", "5"]
    code1, out1 = invoke(argv)
    code2, out2 = invoke(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().split("\n")) == 5


_VERIFY_PAPER = """\
PASS  sync-roa n=2: before left: 3/1 = 3.00 (expected 3/1 = 3.00)
PASS  sync-roa n=2: before right: 2/1 = 2.00 (expected 2/1 = 2.00)
PASS  sync-roa n=2: after left: 4/3 = 1.33 (expected 4/3 = 1.33)
PASS  sync-roa n=2: after right: 24/17 = 1.41 (expected 24/17 = 1.41)
PASS  sync-roa n=2: verdict: reversed (expected reversed)
PASS  diachronous n=3 s=0: before left: 3/1 = 3.00 (expected 3/1 = 3.00)
PASS  diachronous n=3 s=0: before right: 2/1 = 2.00 (expected 2/1 = 2.00)
PASS  diachronous n=3 s=0: after left: 4/3 = 1.33 (expected 4/3 = 1.33)
PASS  diachronous n=3 s=0: after right: 24/17 = 1.41 (expected 24/17 = 1.41)
PASS  diachronous n=3 s=0: verdict: reversed (expected reversed)
PASS  sync-aor n=2: before left: 13/6 = 2.17 (expected 13/6 = 2.17)
PASS  sync-aor n=2: before right: 9/4 = 2.25 (expected 9/4 = 2.25)
PASS  sync-aor n=2: after left: 17/8 = 2.13 (expected 17/8 = 2.13)
PASS  sync-aor n=2: after right: 7/4 = 1.75 (expected 7/4 = 1.75)
PASS  sync-aor n=2: verdict: reversed (expected reversed)
15/15 checks passed
"""


def test_verify_paper_exits_zero():
    code, out = invoke(["verify-paper"])
    assert code == 0
    assert out == _VERIFY_PAPER


_USAGE = ("usage: impactz {} [-h] --pubs PUBS --cits CITS "
          "--kind {{diachronous,sync-aor,sync-roa}} -n N --year YEAR "
          "[-s {{0,1}}] [--format {{tsv,json}}] [--places PLACES]")
_SPEC_HELP = """\
  --kind {diachronous,sync-aor,sync-roa}
  -n N                  window length in years (1 to 100)
  --year YEAR           target year
  -s {0,1}              include the publication year (diachronous only)
  --format {tsv,json}
  --places PLACES       decimal places for display values (0 to 1000)
"""
_CORPUS_HELP = """\

options:
  -h, --help            show this help message and exit
  --pubs PUBS           publications CSV (journal,year,pubs)
  --cits CITS           citations CSV (journal,citing_year,cited_year,count)
""" + _SPEC_HELP
_HELP = {
    (): """\
usage: impactz [-h] {compute,rank,sensitivity,mine,verify-paper} ...

Exact impact-factor indicators and Z-consistency audits

positional arguments:
  {compute,rank,sensitivity,mine,verify-paper}
    compute             indicator value per journal
    rank                competition-ranked journal table
    sensitivity         minimal uncited injections that flip adjacent ranks
    mine                exhaustively search bounded data for reversals
    verify-paper        check the built-in reference tables end to end

options:
  -h, --help            show this help message and exit
""",
    ("compute",): _USAGE.format("compute") + "\n" + _CORPUS_HELP,
    ("rank",): _USAGE.format("rank") + "\n" + _CORPUS_HELP,
    ("sensitivity",): _USAGE.format("sensitivity") + " [--k-max K_MAX]\n"
    + _CORPUS_HELP
    + "  --k-max K_MAX         largest injection size to report\n",
    ("mine",): """\
usage: impactz mine [-h] --kind {diachronous,sync-aor,sync-roa} -n N \
--year YEAR [-s {0,1}] [--format {tsv,json}] [--places PLACES] \
--pub-max PUB_MAX --cit-max CIT_MAX --k-max K_MAX [--limit LIMIT]

options:
  -h, --help            show this help message and exit
""" + _SPEC_HELP + """\
  --pub-max PUB_MAX
  --cit-max CIT_MAX
  --k-max K_MAX
  --limit LIMIT
""",
    ("verify-paper",): """\
usage: impactz verify-paper [-h]

options:
  -h, --help  show this help message and exit
""",
}


def test_help_text_is_pinned(monkeypatch, capsys):
    # at this width every usage line is one line on Python 3.10 to 3.13
    monkeypatch.setenv("COLUMNS", "200")
    for command, expected in _HELP.items():
        assert invoke([*command, "--help"]) == (0, "")
        assert capsys.readouterr() == (expected, "")
    assert invoke(["compute"]) == (2, "")
    assert capsys.readouterr() == ("", _USAGE.format("compute") + "\n"
                                   "impactz compute: error: the following "
                                   "arguments are required: --pubs, --cits, "
                                   "--kind, -n, --year\n")


def test_unknown_flag_is_usage_error(capsys):
    code, _ = invoke(["compute", "--bogus"])
    assert code == 2


def test_unknown_command_is_usage_error():
    code, _ = invoke(["frobnicate"])
    assert code == 2


@pytest.mark.parametrize("command, flag, value", [
    ("sensitivity", "--k-max", "0"),
    ("sensitivity", "--k-max", "-5"),
    ("mine", "--k-max", "0"),
    ("mine", "--limit", "0"),
    ("mine", "--limit", "-1"),
    ("compute", "--places", "-1"),
    ("compute", "--places", "1001"),
    ("compute", "--places", "5000"),
    ("sensitivity", "--places", "-1"),
    ("rank", "-n", "0"),
    ("mine", "-n", "0"),
    ("mine", "--pub-max", "0"),
    ("mine", "--cit-max", "0"),
    ("compute", "-n", "101"),
    ("mine", "-n", "101"),
])
def test_out_of_range_flag_is_usage_error(table_1a_files, command, flag,
                                          value):
    pubs, cits = table_1a_files
    argv = [command, "--kind", "sync-roa", "-n", "2", "--year", str(Y)]
    if command == "mine":
        argv += ["--pub-max", "2", "--cit-max", "2", "--k-max", "2"]
    else:
        argv += ["--pubs", pubs, "--cits", cits]
    code, out = invoke(argv + [flag, value])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("kind, year, reason", [
    ("sync-roa", Y, f"no publications in window {Y - 2}..{Y - 1}"),
    ("sync-aor", Y, f"no publications in year {Y - 1}"),
    ("diachronous", Y - 1, f"no publications in year {Y - 1}"),
])
def test_uncomputable_journal_is_skipped_alike(tmp_path, capsys, kind, year,
                                               reason):
    # C has publications only outside the 1998..1999 window
    pubs = tmp_path / "pubs.csv"
    cits = tmp_path / "cits.csv"
    pubs.write_text(PUBS_1A + f"C,{Y - 5},10\n")
    cits.write_text(CITS_1A)
    for command in ("compute", "rank", "sensitivity"):
        code, out = invoke([command, "--pubs", str(pubs), "--cits",
                            str(cits), "--kind", kind, "-n", "2",
                            "--year", str(year)])
        assert code == 0, command
        assert "C" not in out.split(), command
        assert capsys.readouterr().err == (
            f"warning: skipped C: C: {reason}\n"), command


def test_sensitivity_ranks_once(table_1a_files, monkeypatch):
    calls = []
    groups = impactz.corpus._groups

    def counting_groups(corpus, spec):
        calls.append(spec)
        return groups(corpus, spec)

    monkeypatch.setattr(impactz.corpus, "_groups", counting_groups)
    pubs, cits = table_1a_files
    code, out = invoke(["sensitivity", "--pubs", pubs, "--cits", cits,
                        "--kind", "sync-roa", "-n", "2", "--year", str(Y)])
    assert code == 0 and out
    assert len(calls) == 1


def _seeded_corpus(tmp_path):
    """CSV paths of 30 journals with small counts, so that values tie, a
    few of them with no publications in some window year, so skipped."""
    rng = random.Random(28)
    pubs, cits = tmp_path / "pubs.csv", tmp_path / "cits.csv"
    with open(pubs, "w") as pubs_fh, open(cits, "w") as cits_fh:
        pubs_fh.write("journal,year,pubs\n")
        cits_fh.write("journal,citing_year,cited_year,count\n")
        for j in range(30):
            for year in range(Y - 4, Y + 1):
                if rng.random() < 0.85:
                    pubs_fh.write(f"J{j:02},{year},{rng.randint(1, 3)}\n")
            for citing in range(Y - 3, Y + 2):
                for cited in range(Y - 4, citing + 1):
                    cits_fh.write(f"J{j:02},{citing},{cited},"
                                  f"{rng.randint(0, 4)}\n")
    return str(pubs), str(cits)


_TABLE_SPECS = [["--kind", "sync-roa", "-n", "2", "--year", str(Y)],
                ["--kind", "sync-aor", "-n", "2", "--year", str(Y)],
                ["--kind", "diachronous", "-n", "2", "--year", str(Y - 2)]]


@pytest.mark.parametrize("command", ["compute", "rank", "sensitivity"])
def test_tables_print_the_same_rows_in_tsv_and_json(tmp_path, capsys,
                                                    command):
    # the two formats take separate writers; each TSV line must be its
    # JSON row's values, in order, and both warn about the same journals
    pubs, cits = _seeded_corpus(tmp_path)
    cells = []
    for spec in _TABLE_SPECS:
        for places in ("0", "7"):
            argv = [command, "--pubs", pubs, "--cits", cits, *spec,
                    "--places", places]
            if command == "sensitivity":
                argv += ["--k-max", "3"]
            code, tsv = invoke(argv)
            warnings = capsys.readouterr().err
            assert code == 0 and "warning: skipped" in warnings
            code, text = invoke(argv + ["--format", "json"])
            assert code == 0 and capsys.readouterr().err == warnings
            lines, rows = tsv.splitlines(), json.loads(text)
            assert rows and len(lines) == len(rows)
            for line, row in zip(lines, rows):
                assert line.split("\t") == [str(value)
                                            for value in row.values()]
            cells += [row.get("exact", row.get("min_k")) for row in rows]
    # some values tie, and some pairs do not reverse by k = 3
    assert len(set(cells)) < len(cells)
    assert command != "sensitivity" or "-" in cells


def test_compute_and_rank_build_no_ratio(tmp_path, monkeypatch):
    # the CLI formats each value from its reduced integers; the public
    # rank() still builds a Ratio, one per tie group
    built = []
    new = Ratio.__new__

    def counting_new(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(Ratio, "__new__", counting_new)
    pubs, cits = _seeded_corpus(tmp_path)
    for command in ("compute", "rank"):
        for spec in _TABLE_SPECS:
            for fmt in ("tsv", "json"):
                code, out = invoke([command, "--pubs", pubs, "--cits", cits,
                                    *spec, "--format", fmt])
                assert code == 0 and out
    assert built == []
    ranking = rank(load_corpus(Path(pubs), Path(cits)),
                   IndicatorSpec(IndicatorKind.SYNC_ROA, 2, Y))
    assert len(built) == len({entry.rank for entry in ranking.entries}) > 1


@given(st.lists(st.dictionaries(st.text(), st.text() | st.integers(),
                                min_size=1), max_size=3))
def test_json_rows_are_written_as_json_dump_writes_them(rows):
    out, want = io.StringIO(), io.StringIO()
    cli._emit(iter(rows), "json", out)
    json.dump(rows, want, indent=2)
    assert out.getvalue() == want.getvalue() + "\n"


def test_oversized_csv_field_is_exit_one(tmp_path, capsys):
    pubs = tmp_path / "pubs.csv"
    cits = tmp_path / "cits.csv"
    pubs.write_text("journal,year,pubs\nJ,1999," + "1" * 131_073 + "\n")
    cits.write_text("journal,citing_year,cited_year,count\n")
    code, _ = invoke(["rank", "--pubs", str(pubs), "--cits", str(cits),
                      "--kind", "sync-roa", "-n", "2", "--year", str(Y)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: line 2: field larger")


def test_bad_data_is_exit_one(tmp_path):
    pubs = tmp_path / "pubs.csv"
    cits = tmp_path / "cits.csv"
    pubs.write_text("journal,year,pubs\nJ,1999,10\nJ,1999,10\n")
    cits.write_text("journal,citing_year,cited_year,count\n")
    code, _ = invoke(["compute", "--pubs", str(pubs), "--cits", str(cits),
                      "--kind", "sync-roa", "-n", "2", "--year", str(Y)])
    assert code == 1


@pytest.mark.parametrize("journal_id", ["J\tK", "L\nM"])
def test_journal_id_that_breaks_a_row_is_exit_one(tmp_path, capsys,
                                                  journal_id):
    pubs = tmp_path / "pubs.csv"
    cits = tmp_path / "cits.csv"
    pubs.write_text(f'journal,year,pubs\nJ,1999,1\n"{journal_id}",1999,1\n')
    cits.write_text("journal,citing_year,cited_year,count\n")
    code, out = invoke(["compute", "--pubs", str(pubs), "--cits", str(cits),
                        "--kind", "sync-roa", "-n", "2", "--year", str(Y)])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        f"error: line 3: journal id {journal_id!r} holds a tab or line "
        f"break\n")


def test_byte_order_mark_prints_the_same(tmp_path, table_1a_files):
    pubs = tmp_path / "bom_pubs.csv"
    cits = tmp_path / "bom_cits.csv"
    pubs.write_text("\ufeff" + PUBS_1A, encoding="utf-8")
    cits.write_text("\ufeff" + CITS_1A, encoding="utf-8")
    spec = ["--kind", "sync-roa", "-n", "2", "--year", str(Y)]
    plain_pubs, plain_cits = table_1a_files
    assert invoke(["compute", "--pubs", str(pubs), "--cits", str(cits),
                   *spec]) == invoke(["compute", "--pubs", plain_pubs,
                                      "--cits", plain_cits, *spec])



def test_line_ends_and_byte_order_mark_print_the_same(tmp_path):
    # LF, CRLF and bare-CR files, each with and without a byte-order
    # mark, read as one corpus; the citations span more than one 8 KiB
    # chunk of a streamed read
    texts = [Path(path).read_text() for path in _seeded_corpus(tmp_path)]
    assert len(texts[1]) > 8192
    printed = {}
    for end in ("\n", "\r\n", "\r"):
        for mark in ("", "\ufeff"):
            paths = [tmp_path / f"{name}.csv" for name in ("pubs", "cits")]
            for path, text in zip(paths, texts):
                path.write_bytes((mark + text.replace("\n", end)).encode())
            printed[end, mark] = [
                invoke(["compute", "--pubs", str(paths[0]), "--cits",
                        str(paths[1]), *spec]) for spec in _TABLE_SPECS]
    plain = printed["\n", ""]
    assert all(code == 0 and out for code, out in plain)
    assert all(outputs == plain for outputs in printed.values())


@pytest.mark.parametrize("raw", [
    b'journal,year,pubs\r\n"J\r\nK",1999,1\r\n',
    b'journal,year,pubs\r"J\rK",1999,1\r',
], ids=["CRLF", "CR"])
def test_quoted_line_break_in_an_id_reads_as_newline(tmp_path, capsys, raw):
    # a file is read with universal newlines, so a quoted break in an id
    # is refused as "\n", whichever line end the file uses
    (tmp_path / "pubs.csv").write_bytes(raw)
    (tmp_path / "cits.csv").write_text(_GOOD_CITS)
    code, out = invoke(["compute", "--pubs", str(tmp_path / "pubs.csv"),
                        "--cits", str(tmp_path / "cits.csv"),
                        "--kind", "sync-roa", "-n", "2", "--year", str(Y)])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: line 2: journal id 'J\\nK' holds a tab or line break\n")

def test_missing_file_is_exit_one(tmp_path):
    code, _ = invoke(["compute", "--pubs", str(tmp_path / "nope.csv"),
                      "--cits", str(tmp_path / "nope2.csv"),
                      "--kind", "sync-roa", "-n", "2", "--year", str(Y)])
    assert code == 1



def test_missing_file_comes_before_a_faulty_one(tmp_path, capsys):
    # both files are opened before either one is read
    pubs, cits = tmp_path / "pubs.csv", tmp_path / "nope.csv"
    pubs.write_text("journal,year,pubs\nJ,1998,1\nJ,1998,2\n")
    code, out = invoke(["compute", "--pubs", str(pubs), "--cits", str(cits),
                        "--kind", "sync-roa", "-n", "2", "--year", str(Y)])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {str(cits)!r}\n")

def test_error_diagnostics_have_stable_prefix(tmp_path, capsys):
    invoke(["compute", "--pubs", str(tmp_path / "nope.csv"),
            "--cits", str(tmp_path / "nope2.csv"),
            "--kind", "sync-roa", "-n", "2", "--year", str(Y)])
    assert capsys.readouterr().err.startswith("error:")


_GOOD_PUBS = "journal,year,pubs\nJ,1999,10\n"
_GOOD_CITS = "journal,citing_year,cited_year,count\nJ,2000,1999,5\n"


def _then(good: str, row: str) -> str:
    """``good``, a whitespace-only line 3 (skipped, still counted), then
    ``row`` on line 4."""
    return f"{good} \t \n{row}\n"


@pytest.mark.parametrize("which, text, message", [
    ("pubs", _then(_GOOD_PUBS, "J,19x9,10"),
     "line 4: year must be an integer, got '19x9'"),
    ("pubs", _then(_GOOD_PUBS, " J , 1998 , ten "),
     "line 4: pubs must be an integer, got 'ten'"),
    ("pubs", _then(_GOOD_PUBS, "J,x,y"),
     "line 4: year must be an integer, got 'x'"),
    ("pubs", _then(_GOOD_PUBS, "J,1998"), "line 4: expected 3 fields, got 2"),
    ("pubs", _then(_GOOD_PUBS, "J,1998,-1"),
     "line 4: negative publication count -1"),
    ("pubs", _then(_GOOD_PUBS, "J,1999,7"),
     "line 4: duplicate publication row for (J, 1999)"),
    ("pubs", "journal,yr,pubs\n",
     "line 1: expected header journal,year,pubs, got journal,yr,pubs"),
    ("cits", _then(_GOOD_CITS, "J,2OOO,1999,5"),
     "line 4: citing_year must be an integer, got '2OOO'"),
    ("cits", _then(_GOOD_CITS, "J,2000,1999.0,5"),
     "line 4: cited_year must be an integer, got '1999.0'"),
    ("cits", _then(_GOOD_CITS, "J,2000,1998,"),
     "line 4: count must be an integer, got ''"),
    ("cits", _then(_GOOD_CITS, "J,2000,1998,5,5"),
     "line 4: expected 4 fields, got 5"),
    ("cits", _then(_GOOD_CITS, "J,2000,1998,-3"),
     "line 4: negative citation count -3"),
    ("cits", _then(_GOOD_CITS, "J,1998,1999,5"),
     "line 4: citing year 1998 precedes cited year 1999"),
    ("cits", _then(_GOOD_CITS, "J,2000,1999,6"),
     "line 4: duplicate citation row for (J, 2000, 1999)"),
    ("cits", "journal,citing,cited,count\n",
     "line 1: expected header journal,citing_year,cited_year,count, "
     "got journal,citing,cited,count"),
    ("pubs", _then(_GOOD_PUBS, " ,1999,5"), "line 4: empty journal id"),
    ("cits", _then(_GOOD_CITS, '"K\tL",2000,1999,5'),
     "line 4: journal id 'K\\tL' holds a tab or line break"),
    # a zero citation row and a later row for its cell are a duplicate
    ("cits", "journal,citing_year,cited_year,count\nJ,2000,1999,0\n"
     "J,2000,1999,5\n", "line 3: duplicate citation row for (J, 2000, 1999)"),
    # a padded journal id and a respelled year are one key
    ("cits", "journal,citing_year,cited_year,count\nJ,2000,1999,5\n"
     " J,+2000,1999,3\n", "line 3: duplicate citation row for (J, 2000, 1999)"),
    # an overlong field after a quoted line break names its record
    pytest.param(
        "pubs",
        'journal,year,pubs\nJ,1999,"1\n"\nK,1999,' + "1" * 131073 + "\n",
        "line 3: field larger than field limit (131072)",
        id="pubs-overlong-field-after-quoted-line-break"),
])
def test_bad_row_error_line_is_pinned(tmp_path, capsys, which, text,
                                      message):
    texts = {"pubs": _GOOD_PUBS, "cits": _GOOD_CITS, which: text}
    for name in texts:
        (tmp_path / f"{name}.csv").write_text(texts[name])
    code, out = invoke(["compute", "--pubs", str(tmp_path / "pubs.csv"),
                        "--cits", str(tmp_path / "cits.csv"),
                        "--kind", "sync-roa", "-n", "2", "--year", str(Y)])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("raw, message", [
    (b"journal,year,p\xfcbs\n",
     "line 1: utf-8 cannot decode byte 0xfc: invalid start byte"),
    (b"journal,year,pubs\nJ,1998,10\nJ,1999,10\nK\xe9,1998,30\n",
     "line 4: utf-8 cannot decode byte 0xe9: invalid continuation byte"),
    (b'journal,year,pubs\n"J\nK",1998,10\nL,1998,\xc3\n',
     "line 3: utf-8 cannot decode byte 0xc3: invalid continuation byte"),
    # a duplicate row comes first, but the bad byte is reported, as when
    # the file was read whole before its rows; it sits past the first
    # 8 KiB that a streamed read decodes
    pytest.param(
        b"journal,year,pubs\nJ,1998,1\nJ,1998,2\n"
        + b"".join(b"K%d,1998,1\n" % number for number in range(3000))
        + b"L\xe9,1998,1\n",
        "line 3004: utf-8 cannot decode byte 0xe9: invalid continuation "
        "byte", id="bad-byte-past-8-KiB-after-a-duplicate-row"),
])
def test_non_utf8_csv_error_names_its_line(tmp_path, capsys, raw, message):
    (tmp_path / "pubs.csv").write_bytes(raw)
    (tmp_path / "cits.csv").write_text(_GOOD_CITS)
    code, out = invoke(["compute", "--pubs", str(tmp_path / "pubs.csv"),
                        "--cits", str(tmp_path / "cits.csv"),
                        "--kind", "sync-roa", "-n", "2", "--year", str(Y)])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


# --- streamed mine output ----------------------------------------------------

_MINE_COLUMNS = ["left_pubs", "left_cits", "right_pubs", "right_cits",
                 "inject_year", "k", "before", "after"]


def _mine_argv(kind, n, pub_max, cit_max, k_max, limit, fmt):
    return ["mine", "--kind", kind, "-n", str(n), "--year", str(Y),
            "--pub-max", str(pub_max), "--cit-max", str(cit_max),
            "--k-max", str(k_max), "--limit", str(limit), "--format", fmt]


def _listed_mine_output(witnesses, fmt):
    """The output built the unstreamed way: every row dict first, then
    one ``json.dump`` of the whole list."""
    rows = []
    for witness in witnesses:
        left, right = witness.scenario.left, witness.scenario.right
        before, after = witness.verdict.before, witness.verdict.after
        (year, k), = witness.scenario.injection.additions
        rows.append({
            "left_pubs": json.dumps(left.pubs, sort_keys=True),
            "left_cits": json.dumps(
                {f"{c},{d}": v for (c, d), v in sorted(left.cits.items())}),
            "right_pubs": json.dumps(right.pubs, sort_keys=True),
            "right_cits": json.dumps(
                {f"{c},{d}": v for (c, d), v in sorted(right.cits.items())}),
            "inject_year": year,
            "k": k,
            "before": f"{format_exact(before[0])} vs "
                      f"{format_exact(before[1])}",
            "after": f"{format_exact(after[0])} vs {format_exact(after[1])}",
        })
    out = io.StringIO()
    if fmt == "json":
        json.dump(rows, out, indent=2)
        out.write("\n")
    else:
        for row in rows:
            out.write("\t".join(str(row[col]) for col in _MINE_COLUMNS)
                      + "\n")
    return out.getvalue()


def _same_pair(a, b):
    return (a.scenario.left is b.scenario.left
            and a.scenario.right is b.scenario.right)


@pytest.mark.parametrize("kind, n, pub_max, cit_max, k_max", [
    # the benchmark's mine boxes, and one without any witness
    ("sync-roa", 2, 2, 5, 6),
    ("diachronous", 2, 4, 6, 4),
    ("sync-aor", 2, 2, 4, 4),
    ("sync-roa", 2, 1, 3, 3),
])
def test_mine_stream_matches_listed_output(kind, n, pub_max, cit_max, k_max):
    bounds = SearchBounds(n=n, pub_max=pub_max, cit_max=cit_max,
                          k_max=k_max, target_year=Y)
    witnesses = mine_counterexamples(IndicatorKind(kind), bounds, 10**6)
    # the smallest limit that cuts a pair's (year, k) run in two
    cut = next((i for i in range(1, len(witnesses))
                if _same_pair(witnesses[i - 1], witnesses[i])), None)
    assert cut is not None or not witnesses
    limits = [10**6] if cut is None else [10**6, cut]
    for limit in limits:
        for fmt in ("tsv", "json"):
            code, out = invoke(_mine_argv(kind, n, pub_max, cit_max, k_max,
                                          limit, fmt))
            assert code == 0
            want = _listed_mine_output(witnesses[:limit], fmt)
            # equal exactly when the strings are, and a mismatch is
            # reported at its first differing row, not by a string diff
            assert out.splitlines(keepends=True) \
                == want.splitlines(keepends=True), (limit, fmt)
    if not witnesses:
        assert invoke(_mine_argv(kind, n, pub_max, cit_max, k_max, 10,
                                 "json")) == (0, "[]\n")


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_mine_rows_hold_what_they_memoise(fmt):
    # each witness is a fresh deep copy, dropped once its row is built, so
    # its journals' ids are free for the next copy's journals to take
    bounds = SearchBounds(n=2, pub_max=2, cit_max=4, k_max=4, target_year=Y)
    witnesses = mine_counterexamples(IndicatorKind.SYNC_AOR, bounds, 500)
    out = io.StringIO()
    rows = cli._mine_rows(_parts(copy.deepcopy(w) for w in witnesses), fmt)
    if fmt == "json":
        cli._emit(rows, fmt, out)
    else:
        out.writelines(rows)
    assert (out.getvalue().splitlines()
            == _listed_mine_output(witnesses, fmt).splitlines())


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_mine_rows_build_no_witness_records(monkeypatch, fmt):
    # the benchmark's sync-aor box: every row is written from the miner's
    # (left, right, injection, checked), so building a record fails it
    def refuse(*args):
        raise AssertionError("mine built a witness record")

    with monkeypatch.context() as patch:
        patch.setattr(consistency, "PairScenario", refuse)
        patch.setattr(consistency, "ReversalWitness", refuse)
        code, out = invoke(_mine_argv("sync-aor", 2, 2, 4, 4, 10**6, fmt))
    assert code == 0
    bounds = SearchBounds(n=2, pub_max=2, cit_max=4, k_max=4, target_year=Y)
    witnesses = list(consistency.iter_counterexamples(IndicatorKind.SYNC_AOR,
                                                      bounds))
    assert len(witnesses) == 3804
    assert all(witness.verify() for witness in witnesses)
    assert out.splitlines(keepends=True) \
        == _listed_mine_output(witnesses, fmt).splitlines(keepends=True)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_mine_builds_no_ratio_or_verdict(monkeypatch, fmt):
    # the benchmark's sync-aor box: the verifier holds reduced integer
    # pairs, and the rows are written from them
    def refuse(*args):
        raise AssertionError("mine built a Ratio or a Verdict")

    with monkeypatch.context() as patch:
        patch.setattr(consistency, "Verdict", refuse)
        patch.setattr(Ratio, "__new__", refuse)
        code, out = invoke(_mine_argv("sync-aor", 2, 2, 4, 4, 10**6, fmt))
    assert code == 0
    bounds = SearchBounds(n=2, pub_max=2, cit_max=4, k_max=4, target_year=Y)
    witnesses = mine_counterexamples(IndicatorKind.SYNC_AOR, bounds, 10**6)
    assert len(witnesses) == 3804
    assert out.splitlines(keepends=True) \
        == _listed_mine_output(witnesses, fmt).splitlines(keepends=True)


def _dumped_columns(data):
    """A journal's pubs and cits columns by the ``json.dumps`` rule."""
    return (json.dumps({_long_str(y): v for y, v in sorted(data.pubs.items())}),
            json.dumps({f"{_long_str(c)},{_long_str(d)}": v
                        for (c, d), v in sorted(data.cits.items())}))


def _journal_columns(witnesses):
    """The four journal columns of each row that ``cli._mine_rows``
    writes for ``witnesses``, as JSON row dicts."""
    return [[row[column] for column in _MINE_COLUMNS[:4]]
            for row in cli._mine_rows(witnesses, "json")]


@pytest.mark.parametrize("kind, pub_max, cit_max, k_max", [
    ("sync-roa", 2, 5, 6), ("diachronous", 4, 6, 4), ("sync-aor", 2, 4, 4)])
def test_mine_columns_match_json_dumps_on_the_bench_boxes(kind, pub_max,
                                                          cit_max, k_max):
    bounds = SearchBounds(n=2, pub_max=pub_max, cit_max=cit_max,
                          k_max=k_max, target_year=Y)
    witnesses = list(consistency._witnesses(IndicatorKind(kind), bounds,
                                            False))
    assert _journal_columns(iter(witnesses)) == [
        [*_dumped_columns(left), *_dumped_columns(right)]
        for left, right, _, _ in witnesses]


# a year of 4301 digits, either sign, is drawn as its sign: hypothesis
# cannot print a strategy that holds an int past the digit limit
_years = st.one_of(st.integers(-3000, 3000),
                   st.sampled_from([1, -1]).map(lambda sign: sign * 10**4300))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_years, st.integers(0, 10**6), max_size=4),
       st.dictionaries(st.tuples(_years, st.integers(0, 3)),
                       st.integers(0, 10**6), max_size=4))
def test_mine_columns_match_json_dumps(pubs, cits):
    # cited years are citing years minus 0..3, so citing >= cited
    data = JournalData("L", pubs, {(citing, citing - back): count
                                   for (citing, back), count in cits.items()})
    checked = (VerdictTag.REVERSED, ((1, 1), (1, 1)), ((1, 1), (1, 1)))
    assert _journal_columns([(data, data, Injection.single(Y, 1), checked)]) \
        == [[*_dumped_columns(data)] * 2]


def test_mine_builds_few_journals_in_a_large_box(monkeypatch):
    # 90,000 publication and 90,601 citation vectors; the first 10
    # witnesses build only the journals of their own pairs
    calls = []
    build = consistency._journal

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(consistency, "_journal", counted)
    code, out = invoke(_mine_argv("sync-roa", 2, 300, 300, 3, 10, "tsv"))
    assert code == 0
    assert out.count("\n") == 10
    assert len(calls) <= 20


# sha256 of the whole stdout for the benchmark's mine boxes, recorded from
# the miner that verified each witness with its own check_z_consistency call
@pytest.mark.parametrize("kind, pub_max, cit_max, k_max, fmt, digest", [
    ("sync-roa", 2, 5, 6, "tsv",
     "48a20865b69ad1209728322a15445bd929dcc9f4b5a3322e643879a4db8efe51"),
    ("sync-roa", 2, 5, 6, "json",
     "ef223c7c1dad5328f3a2702d950c2edc1cc12d3c1c921275c17be64e2e86cfa3"),
    ("diachronous", 4, 6, 4, "tsv",
     "60e24cbb4ffc5c83517e714fc2471a982135f20233c700e254a11934bb6a6adc"),
    ("diachronous", 4, 6, 4, "json",
     "b447583ebcb11b3dd72b65a045ac04a4e6cfd84db5df7d161aac00b0fd933489"),
    ("sync-aor", 2, 4, 4, "tsv",
     "88414f10674131340d2305f29f9ba65aefb6bbd677f0a33a610eeac40086734f"),
    ("sync-aor", 2, 4, 4, "json",
     "593cc70e0eb7ec96854299a5aafcd48a1f1eb637e270f9178ca82c16627659d9"),
])
def test_mine_output_is_pinned(kind, pub_max, cit_max, k_max, fmt, digest):
    code, out = invoke(_mine_argv(kind, 2, pub_max, cit_max, k_max, 10**6,
                                  fmt))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _Sink(io.TextIOBase):
    """A write-only text output that keeps nothing but a byte count."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


def _traced_peak(argv):
    sink = _Sink()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert run(argv, sink) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak, sink.size


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_mine_memory_does_not_grow_with_limit(fmt):
    # 5540 witnesses: held as a list they take about 11 MB; streamed, the
    # peaks differ by a few hundred KB of first-call and cyclic garbage
    box = ("diachronous", 2, 4, 6, 4)
    small, small_size = _traced_peak(_mine_argv(*box, 10, fmt))
    large, large_size = _traced_peak(_mine_argv(*box, 10**6, fmt))
    assert large_size > 100 * small_size
    assert large - small < 1024 * 1024, (small, large)


# --- fresh processes ---------------------------------------------------------

def _cli_env():
    """The environment of a fresh ``python`` process: this impactz on its
    path, and no PYTHONOPTIMIZE or PYTHONUNBUFFERED, so stdout is
    block-buffered, as usual."""
    env = {name: value for name, value in os.environ.items()
           if name not in ("PYTHONOPTIMIZE", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(Path(impactz.__file__).resolve().parents[1])
    return env


def _run_with_closed_stdout(argv, lines_read):
    """Run the CLI in a fresh process whose stdout reader reads
    ``lines_read`` lines and then closes the pipe, as ``| head`` does."""
    read_end, write_end = os.pipe()
    reader = open(read_end, "rb")
    if not lines_read:
        reader.close()  # before the process starts, so no write can land
    with subprocess.Popen([sys.executable, "-m", "impactz.cli", *argv],
                          stdout=write_end, stderr=subprocess.PIPE,
                          env=_cli_env()) as proc:
        os.close(write_end)
        for _ in range(lines_read):
            reader.readline()
        reader.close()
        stderr = proc.stderr.read()
    return proc.returncode, stderr


@pytest.mark.parametrize("argv, lines_read", [
    # | head -1 on a run that writes far more than a pipe buffer holds
    (_mine_argv("sync-aor", 2, 4, 8, 4, 5000, "tsv"), 1),
    # a reader gone before the first byte: the flush itself fails
    (["verify-paper"], 0),
])
def test_closed_stdout_is_exit_one_and_silent(argv, lines_read):
    assert _run_with_closed_stdout(argv, lines_read) == (1, b"")


# --- extremes: every capped run ----------------------------------------------

def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.fixture(scope="module")
def tied_corpus(tmp_path_factory):
    """A directory holding pubs.csv and cits.csv: 20,000 journals, each
    with one publication in Y - 1 and no citations, all tied at 0."""
    path = tmp_path_factory.mktemp("tied")
    (path / "pubs.csv").write_text("journal,year,pubs\n" + "".join(
        f"J{i:05},{Y - 1},1\n" for i in range(20_000)))
    (path / "cits.csv").write_text("journal,citing_year,cited_year,count\n")
    return path


_TIED = ["--pubs", "pubs.csv", "--cits", "cits.csv", "--kind", "sync-roa",
         "-n", "2", "--year", str(Y)]
# a strict sync-roa pair that reverses at k = 21 in either year
_PAIR = ("from impactz import *\n"
         "spec = IndicatorSpec(IndicatorKind.SYNC_ROA, 2, 2000)\n"
         "L = JournalData('L', {1998: 10, 1999: 10}, {(2000, 1999): 30})\n"
         "R = JournalData('R', {1998: 30, 1999: 30}, {(2000, 1998): 60})\n")

# One entry point at an extreme input per row: its CLI argv, or a ``-c``
# script as a str; its exit code; its stdout, or stdout's line count; its
# stderr (at exit 2, the line after argparse's usage); and a timeout.  Each
# run gets 1 GiB of address space, and must end within half its timeout,
# so a bound that gave way fails fast.  Sizes whose row waits on an open
# ROADMAP item: `sensitivity`'s time and row list on 10**5 distinct-valued
# journals (item 3), the public rank() on 10**5 tied journals (item 4),
# counts of a thousand digits and more (item 5), and mine's pairs visited
# and its memory at a huge --k-max and --limit (item 6).
_EXTREMES = [
    # a miner that began to list these boxes' vectors would run out of
    # memory; a count of 400,000 digits is named by the limit, never itself
    *(pytest.param(_mine_argv(kind, n, pub_max, cit_max, 2, 10, "tsv"), 1,
                   "", f"error: the box holds more than 100000 {what}\n", 60,
                   id=f"mine-box-{kind}-n{n}")
      for kind, n, pub_max, cit_max, what in [
          ("sync-roa", 100, 2, 2, "publication vectors, pub_max ** 100"),
          ("sync-aor", 2, 2, 10**6, "citation vectors, (cit_max + 1) ** 2"),
          ("diachronous", 1, 10**5 + 1, 1,
           "publication vectors, pub_max ** 1"),
          ("diachronous", 100, 1, int("9" * 4000),
           "citation vectors, (cit_max + 1) ** 100")]),
    # the first pair reverses in both years for every k from 2 to 10**7
    pytest.param(_mine_argv("sync-roa", 2, 2, 5, 10**7, 1, "tsv"), 0, 1, "",
                 20, id="mine-limit-1-k-max-10**7"),
    # bounds the CLI cannot reach: neither the power nor the window is built
    *(pytest.param(
        "from impactz.consistency import SearchBounds, iter_counterexamples\n"
        "from impactz.core import IndicatorKind, ValidationError\n"
        f"bounds = SearchBounds({n}, {pub_max}, {cit_max}, 2)\n"
        "try:\n"
        f"    next(iter_counterexamples(IndicatorKind({kind!r}), bounds))\n"
        "except ValidationError as exc:\n"
        "    print(exc)\n", 0, message + "\n", "", 60,
        id=f"api-box-{kind}-n{n}")
      for kind, n, pub_max, cit_max, message in [
          ("diachronous", "1000", "1", "10**100000",
           "window length must be <= 100, got 1000"),
          ("sync-roa", "3", "10**100000", "1",
           "the box holds more than 100000 publication vectors, pub_max ** 3"),
          ("sync-aor", "10**9", "1", "1",
           "window length must be <= 100, got 1000000000"),
          # the longest window: 2 ** 100 citation vectors
          ("diachronous", "100", "1", "1", "the box holds more than 100000 "
           "citation vectors, (cit_max + 1) ** 100")]),
    # window() would build 10**9 years and cells
    pytest.param(
        "from impactz.core import (IndicatorKind, IndicatorSpec, JournalData,\n"
        "                          ValidationError, compute)\n"
        "try:\n"
        "    compute(JournalData('J', {1999: 1}),\n"
        "            IndicatorSpec(IndicatorKind.SYNC_ROA, 10**9, 2000))\n"
        "except ValidationError as exc:\n"
        "    print(exc)\n", 0, "window length must be <= 100, got 1000000000\n",
        "", 10, id="api-compute-n-10**9"),
    # a tie list per journal would hold 4 * 10**8 ids
    pytest.param(["rank", *_TIED], 0, "".join(
        f"1\tJ{i:05}\t0/1\t0.00\n" for i in range(20_000)), "", 60,
        id="rank-20000-tied"),
    pytest.param(["sensitivity", *_TIED], 0, "", "", 60,
                 id="sensitivity-20000-tied"),
    # a limit past sys.maxsize takes every witness: this box holds 104
    pytest.param(_mine_argv("sync-aor", 2, 2, 2, 2, 10**20, "tsv"), 0, 104,
                 "", 20, id="mine-limit-10**20"),
    pytest.param(
        "from impactz import *\nprint(len(mine_counterexamples("
        "IndicatorKind.SYNC_AOR, SearchBounds(2, 2, 2, 2), 10**20)))\n",
        0, "104\n", "", 20, id="api-mine-limit-10**20"),
    pytest.param(
        "from impactz import *\nprint(len(mine_counterexamples("
        "IndicatorKind.SYNC_ROA, SearchBounds(2, 2, 5, 10**100), 1)))\n",
        0, "1\n", "", 20, id="api-mine-k-max-10**100"),
    # a count or year past the int-to-str digit limit: JSON can neither
    # write nor read it
    *(pytest.param(
        "from impactz import *\n"
        "try:\n"
        f"    corpus_to_json(Corpus({{'J': JournalData('J', {pubs})}}))\n"
        "except ValidationError as exc:\n"
        "    print(str(exc).partition(': ')[0])\n",
        0, f"journal 'J', pubs[{year}]\n", "", 20,
        id=f"api-corpus_to_json-{name}")
      for name, pubs, year in [("count", "{1999: 10**5000}", 1999),
                               ("year", "{10**5000: 1}", "1" + "0" * 5000)]),
    pytest.param(
        "from impactz import *\n"
        "doc = '{\"journals\": {\"J\": {\"pubs\": {\"1999\": 1%s}, "
        "\"cits\": []}}}' % ('0' * 5000)\n"
        "try:\n"
        "    corpus_from_json(doc)\n"
        "except ParseError as exc:\n"
        "    print(exc.line)\n", 0, "None\n", "", 20,
        id="api-corpus_from_json-count"),
    # thresholds are solved, not scanned up to k_max
    pytest.param(_PAIR + "print(min_reversal_k(L, R, spec, 1998, 10**100))\n",
                 0, "21\n", "", 20, id="api-min_reversal_k-10**100"),
    pytest.param(
        _PAIR + "rows = sensitivity_report(Corpus({'L': L, 'R': R}), spec, "
        "10**100)\nprint([row.per_year_min_k for row in rows])\n",
        0, "[{1998: 21, 1999: 21}]\n", "", 20,
        id="api-sensitivity_report-10**100"),
    pytest.param(
        "from impactz import *\n"
        "try:\n"
        "    to_decimal(Ratio(1, 3), 10**100)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n", 0, "places must be an int from 0 to 1000\n", "",
        20, id="api-to_decimal-places-10**100"),
    # the longest int that argparse reads has 4300 digits
    pytest.param(
        ["sensitivity", *_TIED, "--k-max", "9" * 4301], 2, "",
        "impactz sensitivity: error: argument --k-max: invalid int value: "
        f"'{'9' * 4301}'\n", 20, id="sensitivity-k-max-4301-digits"),
]


@pytest.mark.parametrize("command, code, stdout, stderr, timeout", _EXTREMES)
def test_extreme_input_under_a_memory_cap(tied_corpus, command, code, stdout,
                                          stderr, timeout):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *(["-c", command] if type(command) is str
                           else ["-m", "impactz.cli", *command])],
        capture_output=True, text=True, env=_cli_env(), cwd=tied_corpus,
        timeout=timeout, preexec_fn=_cap_address_space)
    assert time.perf_counter() - start < timeout / 2  # start-up included
    err = proc.stderr
    if code == 2:  # argparse's usage lines come first
        err = err.splitlines(keepends=True)[-1]
    assert (proc.returncode, err) == (code, stderr)
    lines = proc.stdout.splitlines(keepends=True)  # so a mismatch shows its
    if type(stdout) is int:                        # first line, not a diff
        assert len(lines) == stdout
    else:
        assert lines == stdout.splitlines(keepends=True)


# --- python -O ----------------------------------------------------------------

_RUN_EACH = """
import io, json, sys
from impactz.cli import run
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    results.append((run(argv, out), out.getvalue()))
print(json.dumps([sys.flags.optimize, results]))
"""


def test_mine_and_sensitivity_print_the_same_under_python_O(tmp_path):
    # the commands of the two "under python -O" workflow steps, each run
    # once in a plain interpreter and once in an optimized one
    pubs = tmp_path / "pubs.csv"
    cits = tmp_path / "cits.csv"
    pubs.write_text("journal,year,pubs\nJ,1998,10\nJ,1999,10\nK,1998,30\n"
                    "K,1999,30\nL,1998,5\nL,1999,20\n")
    cits.write_text("journal,citing_year,cited_year,count\nJ,2000,1999,30\n"
                    "K,2000,1998,60\nL,2000,1998,4\nL,2000,1999,10\n")
    argvs = [["mine", "--kind", kind, "-n", "2", "--year", "2000",
              "--pub-max", "4", "--cit-max", "8", "--k-max", "4",
              "--limit", "10"]
             for kind in ("sync-roa", "diachronous", "sync-aor")]
    argvs += [["sensitivity", "--pubs", str(pubs), "--cits", str(cits),
               "--kind", kind, "-n", "2", "--year", "2000"]
              for kind in ("sync-roa", "sync-aor")]
    printed = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _RUN_EACH, json.dumps(argvs)],
            capture_output=True, text=True, env=_cli_env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        printed.append(json.loads(proc.stdout))
    (plain_flag, plain), (optimized_flag, optimized) = printed
    assert (plain_flag, optimized_flag) == (0, 1)
    assert all(code == 0 and out for code, out in plain)
    assert optimized == plain


def test_compute_prints_the_same_for_padded_signed_and_zero_led_numbers(
        tmp_path):
    # the workflow step of that name: the same counts written plainly and
    # with padding, signs and leading zeros, each call a fresh process
    forms = {
        "plain": ("journal,year,pubs\nJ,2008,7\nJ,2009,1000\nK,2008,30\n"
                  "K,2009,5\n",
                  "journal,citing_year,cited_year,count\nJ,2010,2009,1000\n"
                  "J,2010,2008,7\nJ,2009,2008,12\nK,2010,2008,60\n"
                  "K,2010,2009,5\nK,2009,2008,3\n"),
        "odd": ("journal,year,pubs\nJ, 2008,+7\nJ,+2009,1000\nK,02008,030\n"
                "K,2009 ,005\n",
                "journal,citing_year,cited_year,count\nJ, 2010,+2009,1000\n"
                "J,2010,02008,007\nJ,2009, 2008,+12\nK,+2010, 2008,060\n"
                "K,2010,2009,+5\nK,02009,2008, 003\n"),
    }
    for form, (pubs, cits) in forms.items():
        (tmp_path / f"{form}-pubs.csv").write_text(pubs)
        (tmp_path / f"{form}-cits.csv").write_text(cits)
    for kind, year in (("sync-roa", "2010"), ("sync-aor", "2010"),
                       ("diachronous", "2008")):
        printed = []
        for form in forms:
            proc = subprocess.run(
                [sys.executable, "-m", "impactz.cli", "compute", "--kind",
                 kind, "--year", year, "-n", "2",
                 "--pubs", str(tmp_path / f"{form}-pubs.csv"),
                 "--cits", str(tmp_path / f"{form}-cits.csv")],
                capture_output=True, text=True, env=_cli_env(), timeout=60)
            assert (proc.returncode, proc.stderr) == (0, ""), kind
            printed.append(proc.stdout)
        plain, odd = printed
        assert plain and odd == plain, kind


def test_sensitivity_at_the_widest_window_prints_the_same_under_python_O(
        tmp_path):
    # the workflow step "sensitivity at -n 100 on 100 journals": 99 pairs
    # by 100 years, printed alike by a plain and an optimized interpreter
    rng = random.Random(100)
    pubs, cits = tmp_path / "pubs.csv", tmp_path / "cits.csv"
    with open(pubs, "w") as pubs_fh, open(cits, "w") as cits_fh:
        pubs_fh.write("journal,year,pubs\n")
        cits_fh.write("journal,citing_year,cited_year,count\n")
        for j in range(100):
            for year in range(1900, 2000):
                pubs_fh.write(f"J{j:03},{year},{rng.randint(1, 50)}\n")
                cits_fh.write(f"J{j:03},2000,{year},{rng.randint(0, 100)}\n")
    for kind in ("sync-roa", "sync-aor"):
        printed = []
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "impactz.cli", "sensitivity",
                 "--pubs", str(pubs), "--cits", str(cits), "--kind", kind,
                 "-n", "100", "--year", "2000", "--k-max", "100"],
                capture_output=True, text=True, env=_cli_env(), timeout=30)
            assert (proc.returncode, proc.stderr) == (0, ""), kind
            printed.append(proc.stdout)
        plain, optimized = printed
        assert len(plain.splitlines()) == 9900, kind
        assert optimized == plain, kind


# --- exit-code fuzz -----------------------------------------------------------

def _csv_file(header, fields):
    row = st.tuples(*fields).map(",".join)
    valid = st.lists(row, max_size=8).map(
        lambda rows: "\n".join([header] + rows) + "\n")
    return st.one_of(valid, st.text(alphabet="J,19\n\r\"-x", max_size=30))


_journal = st.sampled_from(["A", "B", "C", ""])
_year = st.sampled_from(["1997", "1998", "1999", "2000", "2001", "x"])
_count = st.sampled_from(["0", "1", "3", "9", "-1", "x", ""])
_PUBS_FILE = _csv_file("journal,year,pubs", [_journal, _year, _count])
_CITS_FILE = _csv_file("journal,citing_year,cited_year,count",
                       [_journal, _year, _year, _count])


def _value(valid, invalid):
    """A flag value, valid four times in five."""
    return st.sampled_from(valid * (4 * len(invalid)) + invalid * len(valid))


# mine bounds stay tiny, so every drawn run is quick
_SMALL = _value(["1", "2"], ["-1", "0", "x"])
_FLAGS = {
    "--pubs": _value(["PUBS"], ["CITS", "missing.csv"]),
    "--cits": _value(["CITS"], ["PUBS", "missing.csv"]),
    "--kind": _value(["sync-roa", "sync-aor", "diachronous"], ["x"]),
    "-n": _SMALL,
    "--year": _value(["1999", "2000", "2001"], ["x"]),
    "-s": _value(["0", "1"], ["2"]),
    "--format": _value(["tsv", "json"], ["x"]),
    "--places": _value(["0", "3"], ["-1", "5000"]),
    "--k-max": _SMALL,
    "--pub-max": _SMALL,
    "--cit-max": _SMALL,
    "--limit": _SMALL,
}
_CORPUS_FLAGS = ["--pubs", "--cits", "--kind", "-n", "--year", "-s",
                 "--format", "--places"]
_COMMAND_FLAGS = {
    "compute": _CORPUS_FLAGS,
    "rank": _CORPUS_FLAGS,
    "sensitivity": _CORPUS_FLAGS + ["--k-max"],
    "mine": _CORPUS_FLAGS[2:] + ["--pub-max", "--cit-max", "--k-max",
                                 "--limit"],
    "verify-paper": [],
    "x": [],
}


@settings(max_examples=300, deadline=None)
@given(pubs=_PUBS_FILE, cits=_CITS_FILE, data=st.data())
def test_cli_exit_code_fuzz(pubs, cits, data):
    # the command's own flags with at most two left out, and at times one
    # that the command may not take
    command = data.draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    own = _COMMAND_FLAGS[command]
    dropped = data.draw(st.sets(st.sampled_from(own), max_size=2)) \
        if own else set()
    flags = [flag for flag in own if flag not in dropped]
    flags += data.draw(st.lists(st.sampled_from(sorted(_FLAGS)), max_size=1))
    with tempfile.TemporaryDirectory() as tmp:
        files = {"PUBS": Path(tmp, "pubs.csv"), "CITS": Path(tmp, "cits.csv"),
                 "missing.csv": Path(tmp, "missing.csv")}
        files["PUBS"].write_text(pubs)
        files["CITS"].write_text(cits)
        argv = [command]
        for flag in flags:
            value = data.draw(_FLAGS[flag])
            argv += [flag, str(files.get(value, value))]
        assert run(argv, io.StringIO()) in (0, 1, 2)
