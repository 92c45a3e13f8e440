"""Start-up guard: each CLI call is a fresh process, so ``import
impactz.cli`` must not load modules that only some commands use.

Each check runs in a fresh ``python -S`` process, with the directory
that holds the ``impactz`` this session imported first on the path:
``src`` in a source checkout, site-packages for an installed package.
"""

import subprocess
import sys
from pathlib import Path

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
