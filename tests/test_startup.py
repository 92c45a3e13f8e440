"""Per-process cost guards: each CLI call is a fresh process, so ``import
impactz.cli`` must not load modules that only some commands use, and
``main`` must freeze the collector before the exit, so that teardown's
collections skip what the process loaded.

Each check runs in a fresh ``python -S`` process, with the directory
that holds the ``impactz`` this session imported first on the path:
``src`` in a source checkout, site-packages for an installed package.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import impactz

from conftest import Y
from test_corpus import CITS_1A, PUBS_1A

_IMPORT_ROOT = str(Path(impactz.__file__).resolve().parents[1])
# loaded by no command's import; json and reference only where used
_NOT_AT_IMPORT = ("dataclasses", "inspect", "json", "impactz.reference")


def _loaded_after(statements: str) -> list[set[str]]:
    """Which of ``_NOT_AT_IMPORT`` are loaded after each line of
    ``statements``, run in order in one fresh interpreter."""
    script = (f"import sys\nsys.path.insert(0, {_IMPORT_ROOT!r})\n"
              f"WATCH = {_NOT_AT_IMPORT!r}\n")
    for line in statements.strip().splitlines():
        script += (f"{line}\n"
                   "print(' '.join(m for m in WATCH if m in sys.modules))\n")
    result = subprocess.run([sys.executable, "-S", "-c", script],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return [set(line.split()) for line in result.stdout.splitlines()]


def test_cli_import_loads_nothing_a_command_may_not_need():
    imported, = _loaded_after("import impactz.cli")
    assert imported == set()


def test_json_and_reference_load_only_for_the_commands_that_use_them(
        tmp_path):
    pubs, cits = tmp_path / "pubs.csv", tmp_path / "cits.csv"
    pubs.write_text(PUBS_1A)
    cits.write_text(CITS_1A)
    compute = ["compute", "--pubs", str(pubs), "--cits", str(cits),
               "--kind", "sync-roa", "-n", "2", "--year", str(Y)]
    mine = ["mine", "--kind", "sync-aor", "-n", "2", "--year", str(Y),
            "--pub-max", "2", "--cit-max", "4", "--k-max", "4"]
    steps = _loaded_after(f"""
import io; from impactz import cli
assert cli.run({compute!r}, io.StringIO()) == 0
assert cli.run({mine!r}, io.StringIO()) == 0
assert cli.run({compute + ["--format", "json"]!r}, io.StringIO()) == 0
assert cli.run(["verify-paper"], io.StringIO()) == 0
""")
    assert steps == [set(), set(), set(), {"json"},
                     {"json", "impactz.reference"}]
    # a fresh process, so that json is loaded by mine's own JSON output
    steps = _loaded_after(f"""
import io; from impactz import cli
assert cli.run({mine!r}, io.StringIO()) == 0
assert cli.run({mine + ["--format", "json"]!r}, io.StringIO()) == 0
""")
    assert steps == [set(), set(), {"json"}]


def _frozen_at_exit(argv: list[str], closed_reader: bool, cwd
                    ) -> tuple[int, int, int, str]:
    """Run ``impactz.cli`` as ``__main__`` on ``argv`` in a fresh process,
    its stdout a pipe whose reader is gone when ``closed_reader``.  Return
    the exit code, ``gc.get_freeze_count()`` in an ``atexit`` hook, the
    count again after that hook's own quiet ``cli.run(argv)``, and the
    stderr before the hook's line."""
    script = f"""
import atexit, contextlib, gc, io, runpy, sys
sys.path.insert(0, {_IMPORT_ROOT!r})
def report():
    frozen = gc.get_freeze_count()
    from impactz import cli
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        cli.run({argv!r}, io.StringIO())
    print("frozen", frozen, gc.get_freeze_count(), file=sys.stderr)
atexit.register(report)
sys.argv = ["impactz", *{argv!r}]
runpy.run_module("impactz.cli", run_name="__main__")
"""
    stdout = subprocess.DEVNULL
    if closed_reader:
        read_end, stdout = os.pipe()
        os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-S", "-c", script],
                                stdout=stdout, stderr=subprocess.PIPE,
                                text=True, cwd=cwd, timeout=60)
    finally:
        if closed_reader:
            os.close(stdout)
    *rest, last = result.stderr.splitlines()
    tag, frozen, after_run = last.split()
    assert tag == "frozen", result.stderr
    return result.returncode, int(frozen), int(after_run), "\n".join(rest)


_COMPUTE = ["compute", "--pubs", "pubs.csv", "--cits", "cits.csv",
            "--kind", "sync-roa", "-n", "2", "--year", str(Y)]


@pytest.mark.parametrize("argv, closed_reader, code, stderr", [
    (_COMPUTE, False, 0, ""),
    ([*_COMPUTE[:2], "missing.csv", *_COMPUTE[3:]], False, 1,
     "error: [Errno 2] No such file or directory: 'missing.csv'"),
    (["compute"], False, 2, "impactz compute: error: the following "
     "arguments are required: --pubs, --cits, --kind, -n, --year"),
    (["--help"], False, 0, ""),
    (["verify-paper"], True, 1, ""),
], ids=["success", "data-error", "usage-error", "help", "closed-reader"])
def test_main_freezes_the_collector_before_exit_and_run_does_not(
        tmp_path, argv, closed_reader, code, stderr):
    (tmp_path / "pubs.csv").write_text(PUBS_1A)
    (tmp_path / "cits.csv").write_text(CITS_1A)
    got_code, frozen, after_run, rest = _frozen_at_exit(
        argv, closed_reader, tmp_path)
    assert got_code == code
    # a usage error's stderr ends with argparse's line, after its usage
    assert rest.splitlines()[-1:] == stderr.splitlines()
    assert frozen > 0
    assert after_run == frozen
