"""Built-in worked examples: published reference tables showing that all
three impact-factor kinds can reverse a ranking after a common uncited
injection.  Embedded as code so the arithmetic is checkable with zero
setup (the ``verify-paper`` CLI command runs these).
"""

from __future__ import annotations

from .consistency import PairScenario, Verdict, VerdictTag, check_z_consistency
from .core import (IndicatorKind, IndicatorSpec, Injection, JournalData,
                   Record)
from .ratio import Ratio, to_decimal

YEAR = 2000


class ReferenceCase(Record):
    __match_args__ = ("name", "scenario", "expected_before", "expected_after",
                      "expected_decimals")

    def __init__(self, name: str, scenario: PairScenario,
                 expected_before: tuple[Ratio, Ratio],
                 expected_after: tuple[Ratio, Ratio],
                 expected_decimals: tuple[str, str, str, str]):
        fields = self.__dict__
        fields["name"] = name
        fields["scenario"] = scenario
        fields["expected_before"] = expected_before
        fields["expected_after"] = expected_after
        fields["expected_decimals"] = expected_decimals  # before, after pairs


def roa_case(year: int = YEAR) -> ReferenceCase:
    """Two-year synchronous RoA: 3 vs 2 flips to 4/3 vs 24/17 after a
    common 25-publication uncited injection."""
    left = JournalData("J", {year - 1: 10, year - 2: 10},
                       {(year, year - 1): 30, (year, year - 2): 30})
    right = JournalData("J'", {year - 1: 30, year - 2: 30},
                        {(year, year - 1): 60, (year, year - 2): 60})
    scenario = PairScenario(
        left, right, IndicatorSpec(IndicatorKind.SYNC_ROA, 2, year),
        Injection.single(year - 1, 25))
    return ReferenceCase(
        "sync-roa n=2", scenario,
        (Ratio(3), Ratio(2)), (Ratio(4, 3), Ratio(24, 17)),
        ("3.00", "2.00", "1.33", "1.41"))


def diachronous_case(year: int = YEAR) -> ReferenceCase:
    """Three-year diachronous (s=0): 3 vs 2 flips to 4/3 vs 24/17 after
    25 uncited publications added to the cohort year."""
    left = JournalData("J", {year: 20},
                       {(year, year): 10, (year + 1, year): 20,
                        (year + 2, year): 30})
    right = JournalData("J'", {year: 60},
                        {(year, year): 20, (year + 1, year): 40,
                         (year + 2, year): 60})
    scenario = PairScenario(
        left, right, IndicatorSpec(IndicatorKind.DIACHRONOUS, 3, year, 0),
        Injection.single(year, 25))
    return ReferenceCase(
        "diachronous n=3 s=0", scenario,
        (Ratio(3), Ratio(2)), (Ratio(4, 3), Ratio(24, 17)),
        ("3.00", "2.00", "1.33", "1.41"))


def aor_case(year: int = YEAR) -> ReferenceCase:
    """Two-year synchronous AoR: 13/6 vs 9/4 flips to 17/8 vs 7/4 after
    10 uncited publications in the most recent window year."""
    left = JournalData("J", {year - 1: 30, year - 2: 20},
                       {(year, year - 1): 10, (year, year - 2): 80})
    right = JournalData("J'", {year - 1: 30, year - 2: 20},
                        {(year, year - 1): 120, (year, year - 2): 10})
    scenario = PairScenario(
        left, right, IndicatorSpec(IndicatorKind.SYNC_AOR, 2, year),
        Injection.single(year - 1, 10))
    return ReferenceCase(
        "sync-aor n=2", scenario,
        (Ratio(13, 6), Ratio(9, 4)), (Ratio(17, 8), Ratio(7, 4)),
        ("2.17", "2.25", "2.13", "1.75"))


def all_cases(year: int = YEAR) -> list[ReferenceCase]:
    return [roa_case(year), diachronous_case(year), aor_case(year)]


def run_checks(year: int = YEAR) -> list[tuple[str, bool, str]]:
    """Evaluate every reference case; return (label, ok, detail) lines."""
    results: list[tuple[str, bool, str]] = []
    for case in all_cases(year):
        verdict = check_z_consistency(case.scenario)
        values = (*verdict.before, *verdict.after)
        expected = (*case.expected_before, *case.expected_after)
        for label, got, want, want_dec in zip(
                ("before left", "before right", "after left", "after right"),
                values, expected, case.expected_decimals):
            ok = got == want and to_decimal(got, 2) == want_dec
            results.append((
                f"{case.name}: {label}", ok,
                f"{got.num}/{got.den} = {to_decimal(got, 2)} "
                f"(expected {want.num}/{want.den} = {want_dec})"))
        results.append((
            f"{case.name}: verdict", verdict.tag is VerdictTag.REVERSED,
            f"{verdict.tag.value} (expected reversed)"))
    return results
