import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import ROUND_HALF_UP, Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import impactz
from impactz import (
    IndicatorKind,
    SearchBounds,
    cli,
    consistency,
    format_exact,
    mine_counterexamples,
    rank,
)
from impactz.cli import run

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


def test_mine_rows_print_pubs_years_past_the_int_digit_limit():
    # at Y = -<4300 nines> the sync-roa denominator years Y - 2 and Y - 1
    # have 4301 digits; inject_year is one of them and no format prints it
    # yet, so the journal columns are read from the row before _emit
    nines = "9" * 4300

    def columns(year):
        bounds = SearchBounds(n=2, pub_max=2, cit_max=2, k_max=2,
                              target_year=year)
        row, = cli._mine_rows(mine_counterexamples(IndicatorKind.SYNC_ROA,
                                                   bounds, 1))
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

    def counting_rank(corpus, spec):
        calls.append(spec)
        return rank(corpus, spec)

    monkeypatch.setattr(cli, "rank", counting_rank)
    pubs, cits = table_1a_files
    code, out = invoke(["sensitivity", "--pubs", pubs, "--cits", cits,
                        "--kind", "sync-roa", "-n", "2", "--year", str(Y)])
    assert code == 0 and out
    assert len(calls) == 1


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


def test_missing_file_is_exit_one(tmp_path):
    code, _ = invoke(["compute", "--pubs", str(tmp_path / "nope.csv"),
                      "--cits", str(tmp_path / "nope2.csv"),
                      "--kind", "sync-roa", "-n", "2", "--year", str(Y)])
    assert code == 1


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
    cli._emit(cli._mine_rows(copy.deepcopy(w) for w in witnesses), fmt,
              out)
    assert (out.getvalue().splitlines()
            == _listed_mine_output(witnesses, fmt).splitlines())


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


class _Sink:
    """A write-only output that keeps nothing but a byte count."""

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


# --- closed stdout -------------------------------------------------------------

def _run_with_closed_stdout(argv, lines_read):
    """Run the CLI in a fresh process whose stdout reader reads
    ``lines_read`` lines and then closes the pipe, as ``| head`` does."""
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONUNBUFFERED"}  # stdout block-buffered, as usual
    env["PYTHONPATH"] = str(Path(impactz.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    reader = open(read_end, "rb")
    if not lines_read:
        reader.close()  # before the process starts, so no write can land
    with subprocess.Popen([sys.executable, "-m", "impactz.cli", *argv],
                          stdout=write_end, stderr=subprocess.PIPE,
                          env=env) as proc:
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


# --- oversized mine box ----------------------------------------------------------

def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("kind, n, pub_max, cit_max, what", [
    ("sync-roa", 100, 2, 2, "publication vectors, pub_max ** 100"),
    ("sync-aor", 2, 2, 10**6, "citation vectors, (cit_max + 1) ** 2"),
    ("diachronous", 1, 10**5 + 1, 1, "publication vectors, pub_max ** 1"),
    # 400,000 digits: the message names the limit, never the count
    ("diachronous", 100, 1, int("9" * 4000),
     "citation vectors, (cit_max + 1) ** 100"),
])
def test_oversized_mine_box_is_refused(kind, n, pub_max, cit_max, what):
    # a miner that began to list these boxes' vectors would run out of
    # memory, so the run gets 1 GiB of address space and a time limit
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(impactz.__file__).resolve().parents[1])
    argv = _mine_argv(kind, n, pub_max, cit_max, 2, 10, "tsv")
    proc = subprocess.run([sys.executable, "-m", "impactz.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60, preexec_fn=_cap_address_space)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: the box holds more than 100000 {what}\n"


@pytest.mark.parametrize("kind, n, pub_max, cit_max, what", [
    # bounds the CLI cannot reach: neither the power nor the window is built
    ("diachronous", "1000", "1", "10**100000",
     "citation vectors, (cit_max + 1) ** 1000"),
    ("sync-roa", "3", "10**100000", "1", "publication vectors, pub_max ** 3"),
    ("sync-aor", "10**9", "1", "1",
     "citation vectors, (cit_max + 1) ** 1000000000"),
])
def test_oversized_mine_box_is_refused_through_the_api(kind, n, pub_max,
                                                       cit_max, what):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(impactz.__file__).resolve().parents[1])
    script = (
        "from impactz.consistency import SearchBounds, iter_counterexamples\n"
        "from impactz.core import IndicatorKind, ValidationError\n"
        f"bounds = SearchBounds({n}, {pub_max}, {cit_max}, 2)\n"
        "try:\n"
        f"    next(iter_counterexamples(IndicatorKind({kind!r}), bounds))\n"
        "except ValidationError as exc:\n"
        "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=60, preexec_fn=_cap_address_space)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"the box holds more than 100000 {what}\n"


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
