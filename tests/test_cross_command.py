"""Cross-command oracle: every mined witness, replayed through the CLI.

The miner computes values over its own integer table; ``compute``,
``rank`` and ``sensitivity`` read a CSV corpus through the loader and
the evaluators.  Each drawn witness is written as a two-journal corpus
and the commands must agree with it: the paper's claim, end to end, that
a common uncited addition reverses a strict order.
"""

import io
import tempfile
from itertools import islice
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from impactz import IndicatorKind, SearchBounds, format_exact, to_decimal
from impactz.cli import run
from impactz.consistency import iter_counterexamples

from conftest import Y


@st.composite
def mined_witnesses(draw):
    """A witness of a small box, with whether its k is the first of its
    (pair, year) run: the miner yields each run's k in ascending order."""
    kind = draw(st.sampled_from(list(IndicatorKind)))
    bounds = SearchBounds(n=draw(st.integers(1, 2)),
                          pub_max=draw(st.integers(2, 3)),
                          cit_max=draw(st.integers(2, 4)),
                          k_max=draw(st.integers(1, 4)), target_year=Y,
                          s=draw(st.sampled_from([0, 1])))
    found = list(islice(iter_counterexamples(kind, bounds), 2000))
    assume(found)
    i = draw(st.integers(0, len(found) - 1))
    scenario = found[i].scenario
    (year, k), = scenario.injection.additions
    prev = found[i - 1].scenario if i else None
    first = prev is None or (prev.left, prev.right,
                             prev.injection.additions) != (
        scenario.left, scenario.right, ((year, k - 1),))
    return found[i], first


def _corpus_files(tmp, witness, added):
    """The witness's pair as pubs/cits CSVs, with ``added`` uncited
    publications per year in both journals."""
    scenario = witness.scenario
    pubs = ["journal,year,pubs"]
    cits = ["journal,citing_year,cited_year,count"]
    for data in (scenario.left, scenario.right):
        name = data.journal_id
        for year, count in sorted(data.pubs.items()):
            pubs.append(f"{name},{year},{count + added.get(year, 0)}")
        for (citing, cited), count in sorted(data.cits.items()):
            cits.append(f"{name},{citing},{cited},{count}")
    paths = Path(tmp, "pubs.csv"), Path(tmp, "cits.csv")
    for path, lines in zip(paths, (pubs, cits)):
        path.write_text("\n".join(lines) + "\n")
    return ["--pubs", str(paths[0]), "--cits", str(paths[1])]


def _lines(argv):
    out = io.StringIO()
    assert run(argv, out) == 0
    return [line.split("\t") for line in out.getvalue().splitlines()]


@settings(max_examples=60, deadline=None)
@given(mined_witnesses())
def test_cli_replays_every_mined_witness(drawn):
    witness, first = drawn
    scenario, verdict = witness.scenario, witness.verdict
    spec = scenario.spec
    flags = ["--kind", spec.kind.value, "-n", str(spec.n),
             "--year", str(spec.target_year), "-s", str(spec.s)]
    (year, k), = scenario.injection.additions
    with tempfile.TemporaryDirectory() as tmp:
        for added, values in (({}, verdict.before),
                              ({year: k}, verdict.after)):
            files = _corpus_files(tmp, witness, added)
            assert _lines(["compute", *files, *flags]) == [
                [journal, format_exact(value), to_decimal(value)]
                for journal, value in zip("LR", values)]
        plain = _corpus_files(tmp, witness, {})
        assert [row[1] for row in _lines(["rank", *plain, *flags])] \
            == ["R", "L"]
        rows = _lines(["sensitivity", *plain, *flags, "--k-max", str(k)])
        min_k, = [int(row[3]) for row in rows
                  if row[:3] == ["R", "L", str(year)]]
        assert min_k <= k
        assert min_k == k or not first
