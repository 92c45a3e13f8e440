"""Built-in worked examples: published reference tables showing that all
three impact-factor kinds can reverse a ranking after a common uncited
injection.  Embedded as code so the arithmetic is checkable with zero
setup (the ``verify-paper`` CLI command runs these).

Each row of ``CASES`` is a table's name, its pair and injection, the
expected before-left, before-right, after-left and after-right values,
and the same four values at two decimal places.
"""

from __future__ import annotations

from .consistency import PairScenario, VerdictTag, check_z_consistency
from .core import IndicatorKind, IndicatorSpec, Injection, JournalData
from .ratio import Ratio, format_exact, to_decimal

CASES = [
    # Two-year synchronous RoA: 3 vs 2 flips to 4/3 vs 24/17 after a
    # common 25-publication uncited injection.
    ("sync-roa n=2",
     PairScenario(
         JournalData("J", {1999: 10, 1998: 10},
                     {(2000, 1999): 30, (2000, 1998): 30}),
         JournalData("J'", {1999: 30, 1998: 30},
                     {(2000, 1999): 60, (2000, 1998): 60}),
         IndicatorSpec(IndicatorKind.SYNC_ROA, 2, 2000),
         Injection.single(1999, 25)),
     (Ratio(3), Ratio(2), Ratio(4, 3), Ratio(24, 17)),
     ("3.00", "2.00", "1.33", "1.41")),
    # Three-year diachronous (s=0): 3 vs 2 flips to 4/3 vs 24/17 after
    # 25 uncited publications added to the cohort year.
    ("diachronous n=3 s=0",
     PairScenario(
         JournalData("J", {2000: 20},
                     {(2000, 2000): 10, (2001, 2000): 20,
                      (2002, 2000): 30}),
         JournalData("J'", {2000: 60},
                     {(2000, 2000): 20, (2001, 2000): 40,
                      (2002, 2000): 60}),
         IndicatorSpec(IndicatorKind.DIACHRONOUS, 3, 2000, 0),
         Injection.single(2000, 25)),
     (Ratio(3), Ratio(2), Ratio(4, 3), Ratio(24, 17)),
     ("3.00", "2.00", "1.33", "1.41")),
    # Two-year synchronous AoR: 13/6 vs 9/4 flips to 17/8 vs 7/4 after
    # 10 uncited publications in the most recent window year.
    ("sync-aor n=2",
     PairScenario(
         JournalData("J", {1999: 30, 1998: 20},
                     {(2000, 1999): 10, (2000, 1998): 80}),
         JournalData("J'", {1999: 30, 1998: 20},
                     {(2000, 1999): 120, (2000, 1998): 10}),
         IndicatorSpec(IndicatorKind.SYNC_AOR, 2, 2000),
         Injection.single(1999, 10)),
     (Ratio(13, 6), Ratio(9, 4), Ratio(17, 8), Ratio(7, 4)),
     ("2.17", "2.25", "2.13", "1.75")),
]


def run_checks() -> list[tuple[str, bool, str]]:
    """Evaluate every reference case; return (label, ok, detail) lines."""
    results: list[tuple[str, bool, str]] = []
    for name, scenario, expected, decimals in CASES:
        verdict = check_z_consistency(scenario)
        for label, got, want, want_dec in zip(
                ("before left", "before right", "after left", "after right"),
                (*verdict.before, *verdict.after), expected, decimals):
            got_dec = to_decimal(got, 2)
            results.append((
                f"{name}: {label}", got == want and got_dec == want_dec,
                f"{format_exact(got)} = {got_dec} "
                f"(expected {format_exact(want)} = {want_dec})"))
        results.append((
            f"{name}: verdict", verdict.tag is VerdictTag.REVERSED,
            f"{verdict.tag.value} (expected reversed)"))
    return results
