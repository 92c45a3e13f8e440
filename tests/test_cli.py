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


def test_verify_paper_exits_zero():
    code, out = invoke(["verify-paper"])
    assert code == 0
    assert "FAIL" not in out
    for value in ("3.00", "2.00", "1.33", "1.41", "2.17", "2.25",
                  "2.13", "1.75"):
        assert value in out


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
            assert out == _listed_mine_output(witnesses[:limit], fmt), \
                (limit, fmt)
    if not witnesses:
        assert invoke(_mine_argv(kind, n, pub_max, cit_max, k_max, 10,
                                 "json")) == (0, "[]\n")


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
