"""Z-consistency verdicts, minimal reversing injections, and a
counterexample miner.

Z-consistency: if indicator I ranks journal J strictly below J', adding
the same number of uncited publications to both must not reverse the
strict ordering.  All three indicator kinds violate it; this module
decides concrete cases exactly and searches bounded integer spaces for
fresh violations.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import islice, product
from math import isqrt, lcm
from operator import add, gt

from .core import (
    IndicatorKind,
    IndicatorSpec,
    Injection,
    JournalData,
    Record,
    ValidationError,
    ZeroDenominator,
    _evaluate,
    _integer_fault,
    _window_counts,
    denominator_years,
    window,
)
from .ratio import Ratio


class PreconditionViolated(ValueError):
    """The operation's input contract does not hold (e.g. no strict
    ordering, or publication vectors required to be equal differ)."""


class InvalidTargetYear(ValueError):
    """The chosen injection year cannot affect the indicator's
    denominator."""


class VerdictTag(Enum):
    PRESERVED = "preserved"
    REVERSED = "reversed"
    TIE_BEFORE = "tie-before"
    TIE_AFTER = "tie-after"


class PairScenario(Record):
    """Two journals, one indicator, one injection applied to BOTH."""

    __match_args__ = ("left", "right", "spec", "injection")

    def __init__(self, left: JournalData, right: JournalData,
                 spec: IndicatorSpec, injection: Injection):
        fields = self.__dict__
        fields["left"] = left
        fields["right"] = right
        fields["spec"] = spec
        fields["injection"] = injection


class Verdict(Record):
    __match_args__ = ("tag", "before", "after")

    def __init__(self, tag: VerdictTag, before: tuple[Ratio, Ratio],
                 after: tuple[Ratio, Ratio]):
        fields = self.__dict__
        fields["tag"] = tag
        fields["before"] = before
        fields["after"] = after


class ReversalWitness(Record):
    """A concrete Z-consistency violation; self-checking by design."""

    __match_args__ = ("scenario", "verdict")

    def __init__(self, scenario: PairScenario, verdict: Verdict):
        fields = self.__dict__
        fields["scenario"] = scenario
        fields["verdict"] = verdict

    def verify(self) -> bool:
        """Recompute the scenario from raw data and compare verdicts."""
        return check_z_consistency(self.scenario) == self.verdict


class SearchBounds(Record):
    """Finite box for the counterexample miner.

    Publications range over 1..pub_max per denominator year, citations
    over 0..cit_max per window year, injections over single years with
    1..k_max added publications.  ``target_year`` fixes the year layout;
    it only shifts labels, never values.
    """

    __match_args__ = ("n", "pub_max", "cit_max", "k_max", "target_year", "s")

    def __init__(self, n: int, pub_max: int, cit_max: int, k_max: int,
                 target_year: int = 2000, s: int = 0):
        values = (n, pub_max, cit_max, k_max, target_year, s)
        for name, value in zip(self.__match_args__, values):
            if fault := _integer_fault(value, name):
                raise ValidationError(fault)
        if min(n, pub_max, cit_max, k_max) < 1:
            raise ValidationError("all bounds must be >= 1")
        self.__dict__.update(zip(self.__match_args__, values))


def check_z_consistency(scenario: PairScenario) -> Verdict:
    """Decide whether the injection preserves, ties, or reverses the
    pair's ordering.  Comparisons are exact; there is no tolerance.

    Both journals' window counts are read once; "after" evaluates the
    same counts with the injection's publications added per year.
    """
    spec = scenario.spec
    years, cells = window(spec)
    added = scenario.injection.per_year()
    counts = [(data.journal_id, *_window_counts(data, years, cells))
              for data in (scenario.left, scenario.right)]
    values = []
    for phase, extra in (("before", [0] * len(years)),
                         ("after", [added.get(y, 0) for y in years])):
        for journal_id, pubs, cits in counts:
            try:
                values.append(_evaluate(journal_id, spec, years,
                                        list(map(add, pubs, extra)), cits))
            except ZeroDenominator as exc:
                raise ZeroDenominator(
                    f"{exc} ({phase} injection)", year=exc.year,
                    journal=journal_id) from exc
    before, after = (values[0], values[1]), (values[2], values[3])
    if before[0] == before[1]:
        tag = VerdictTag.TIE_BEFORE
    elif after[0] == after[1]:
        tag = VerdictTag.TIE_AFTER
    elif (before[0] < before[1]) != (after[0] < after[1]):
        tag = VerdictTag.REVERSED
    else:
        tag = VerdictTag.PRESERVED
    return Verdict(tag, before, after)


def _reversal_window(a: int, b: int, c: int) -> tuple[int, int | None] | None:
    """Inclusive (lo, hi) of the k >= 1 at which ``a*k*k + b*k + c`` has
    the strict sign opposite to ``c`` (which must be non-zero); hi is None
    when every k >= lo qualifies, and the result is None when no k does.

    Exact: the roots are bracketed with ``math.isqrt`` on the integer
    discriminant, so no float or search is involved.  ``a == 0`` is the
    linear case.
    """
    if c < 0:
        a, b, c = -a, -b, -c
    # now c > 0; find the k >= 1 with a*k*k + b*k + c < 0
    if a == 0:
        return (c // -b + 1, None) if b < 0 else None
    disc = b * b - 4 * a * c
    if a < 0:
        # disc > 0 and the roots straddle 0: negative just past the larger
        # root, i.e. once 2|a|k - b > sqrt(disc)
        return -(-(isqrt(disc) + 1 + b) // (-2 * a)), None
    # a > 0: negative strictly between the roots, i.e. (2ak + b)^2 < disc
    if disc <= 0:
        return None
    m = isqrt(disc)
    if m * m == disc:
        m -= 1
    lo, hi = max(1, -((m + b) // (2 * a))), (m - b) // (2 * a)
    return (lo, hi) if lo <= hi else None


def _coefficients(a: int, b: int, p_l: int, c_l: int,
                  p_r: int, c_r: int) -> tuple[int, int, int]:
    """The coefficients of the polynomial Q of :func:`reversal_threshold`
    for ``other`` = a/b (b > 0) and the counts that k moves; a = 0 gives
    the linear Q of the totals-based kinds."""
    return (a, a * (p_l + p_r) + b * (c_l - c_r),
            a * p_l * p_r + b * (c_l * p_r - c_r * p_l))


def reversal_threshold(left: JournalData, right: JournalData,
                       spec: IndicatorSpec, year: int) -> int | None:
    """Exact smallest k >= 1 whose uncited injection of k publications at
    ``year`` into both journals strictly reverses their ordering; None if
    no k ever does.  An exact tie after injection is not a reversal.

    Multiplying (left - right) after injecting k by its positive common
    denominator gives an integer polynomial Q(k) with Q(0) != 0; the
    answer is the first k >= 1 where Q's sign is strictly opposite to
    Q(0)'s.  For sync-aor, with a/b (b > 0) the share of n*(left - right)
    from the years other than ``year`` and p, c that year's counts, Q is
    the quadratic a*(p_L + k)*(p_R + k) + b*(c_L*(p_R + k) - c_R*(p_L + k)).
    The totals-based kinds (value C/P) are the linear case a/b = 0, with
    p, c the window's total publications and citations.
    """
    years, cells = window(spec)
    if year not in years:
        raise InvalidTargetYear(
            f"year {year} is not a denominator year for "
            f"{spec.kind.value} n={spec.n} at {spec.target_year}")
    counts = [(data.journal_id, *_window_counts(data, years, cells))
              for data in (left, right)]
    before_left, before_right = (_evaluate(journal_id, spec, years, pubs, cits)
                                 for journal_id, pubs, cits in counts)
    if before_left == before_right:
        raise PreconditionViolated(
            f"no strict ordering between {left.journal_id} and "
            f"{right.journal_id} before injection")
    aor = spec.kind is IndicatorKind.SYNC_AOR
    # k moves only the injection year's own rate under sync-aor, whose
    # cells pair one-to-one with the years
    j = years.index(year)
    (p_l, c_l), (p_r, c_r) = ((pubs[j], cits[j]) if aor
                              else (sum(pubs), sum(cits))
                              for _, pubs, cits in counts)
    other = (spec.n * (before_left - before_right)
             - Fraction(c_l, p_l) + Fraction(c_r, p_r)) if aor else 0
    reversing = _reversal_window(*_coefficients(
        other.numerator, other.denominator, p_l, c_l, p_r, c_r))
    return None if reversing is None else reversing[0]


def min_reversal_k(left: JournalData, right: JournalData,
                   spec: IndicatorSpec, target_year: int,
                   k_max: int) -> int | None:
    """Smallest k >= 1 whose injection at ``target_year`` (into both
    journals) reverses the pair's strict ordering, solved exactly by
    :func:`reversal_threshold`; None if that k exceeds ``k_max`` or no
    k reverses the pair."""
    k = reversal_threshold(left, right, spec, target_year)
    return k if k is not None and k <= k_max else None


def equal_pubs_preserved(left: JournalData, right: JournalData,
                         spec: IndicatorSpec, injection: Injection) -> Verdict:
    """Check the equal-publications argument for the ratio-of-averages
    indicator: with identical per-year publication vectors, a common
    uncited injection can never reverse a strict ordering.

    The non-reversal is a checked postcondition: a reversal raises
    AssertionError, under ``python -O`` too.
    """
    if spec.kind is not IndicatorKind.SYNC_ROA:
        raise PreconditionViolated(
            f"equal-pubs preservation applies to {IndicatorKind.SYNC_ROA}, "
            f"got {spec.kind}")
    years = denominator_years(spec)
    pubs_l, pubs_r = (_window_counts(data, years, ())[0]
                      for data in (left, right))
    for year, p_l, p_r in zip(years, pubs_l, pubs_r):
        if p_l != p_r:
            raise PreconditionViolated(
                f"publication vectors differ at year {year}: "
                f"{p_l} vs {p_r}")
    verdict = check_z_consistency(
        PairScenario(left, right, spec, injection))
    if verdict.tag is VerdictTag.TIE_BEFORE:
        raise PreconditionViolated(
            f"no strict ordering between {left.journal_id} and "
            f"{right.journal_id} before injection")
    if verdict.tag is VerdictTag.REVERSED:
        raise AssertionError(
            "equal publication vectors cannot produce a reversal")
    return verdict


# --- bounded exhaustive miner -------------------------------------------

def mine_counterexamples(kind: IndicatorKind, bounds: SearchBounds,
                         limit: int, *,
                         equal_pubs: bool = False) -> list[ReversalWitness]:
    """The first ``limit`` witnesses of :func:`iter_counterexamples`."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return list(islice(iter_counterexamples(kind, bounds,
                                            equal_pubs=equal_pubs), limit))


def iter_counterexamples(kind: IndicatorKind, bounds: SearchBounds, *,
                         equal_pubs: bool = False
                         ) -> Iterator[ReversalWitness]:
    """Exhaustively enumerate integer publication/citation assignments
    within ``bounds`` and yield every reversal witness, one at a time.

    One miner, :func:`_iter_scenarios`, serves all three kinds over one
    integer table.  Output order is canonical: lexicographic over (left
    pubs, left cits, right pubs, right cits, injection year, k), with
    vectors indexed by ascending year.  Mirrored duplicates are pruned by only emitting
    scenarios whose before-ordering is left < right.  Every witness is
    re-verified through :func:`check_z_consistency` before it is yielded.
    The witnesses of one (left, right) pair share the same two
    ``JournalData`` objects.
    """
    for scenario in _iter_scenarios(kind, bounds, equal_pubs):
        verdict = check_z_consistency(scenario)
        if verdict.tag is not VerdictTag.REVERSED:
            raise AssertionError("miner candidate failed self-check")
        yield ReversalWitness(scenario, verdict)


def _journal(name: str, years, pubs_vec, cells, cits_vec) -> JournalData:
    return JournalData(name, dict(zip(years, pubs_vec)),
                       dict(zip(cells, cits_vec)))


def _reversing_ks(den: int, k_max: int, left_term: tuple[int, int, int],
                  right_term: tuple[int, int, int]) -> range:
    """The k in 1..k_max at which injecting k publications in one year
    reverses a pair with left < right, from each side's (other, p, c) for
    that year with ``other`` over ``den``; empty when no k does.

    After k, left - right has the sign of (other_L - other_R)/den
    + c_L/(p_L + k) - c_R/(p_R + k).  With other_L <= other_R a flip
    needs c_L/(p_L + k) > c_R/(p_R + k) although c_L/p_L - c_R/p_R was
    below other_R - other_L; each term keeps p/(p + k) of itself, a
    share that grows with p, so that needs p_L > p_R and then c_L > c_R.
    Other pair-years are dropped before the exact
    :func:`_reversal_window` is solved.
    """
    (other_l, p_l, c_l), (other_r, p_r, c_r) = left_term, right_term
    if other_l <= other_r and not (p_l > p_r and c_l > c_r):
        return range(0)
    reversing = _reversal_window(*_coefficients(
        other_l - other_r, den, p_l, c_l, p_r, c_r))
    if reversing is None:
        return range(0)
    lo, hi = reversing
    return range(lo, (k_max if hi is None else min(hi, k_max)) + 1)


def _iter_scenarios(kind: IndicatorKind, bounds: SearchBounds,
                    equal_pubs: bool) -> Iterator[PairScenario]:
    """The reversing scenarios of the box, in canonical order.

    One integer table serves every kind.  Each (pubs, cits) vector gets
    its value times ``den``, the lcm of every denominator the box can
    produce, and per injection year the (other, p, c) of the polynomial
    of :func:`reversal_threshold`, ``other`` also times ``den``: for
    sync-aor the other years' share of n*value and that year's counts,
    for the totals-based kinds 0 and the window totals.  Each oriented
    pair (left < right) and injection year then yields the k of
    :func:`_reversing_ks`, so no k is tried that does not reverse.

    The table is built one publication vector at a time, on first use.
    As other_R >= 0, by :func:`_reversing_ks` a left whose other shares
    are all 0 needs p_L > p_R in some year, so it skips every right
    publication vector without one before any of its rows is read.
    """
    spec = IndicatorSpec(kind, bounds.n, bounds.target_year, bounds.s)
    years, cells = window(spec)
    aor = kind is IndicatorKind.SYNC_AOR
    # sync-aor divides by one year's count, the other kinds by the total
    den = lcm(*range(1, bounds.pub_max * (1 if aor else len(years)) + 1))
    pub_vecs = list(product(range(1, bounds.pub_max + 1), repeat=len(years)))
    cit_vecs = list(product(range(bounds.cit_max + 1), repeat=len(cells)))
    # the per-year p of each publication vector's (other, p, c)
    p_terms = {p: p if aor else (sum(p),) * len(years) for p in pub_vecs}

    @cache
    def table(p):  # [(cits, value, per-year (other, p, c))] in cits order
        rows = []
        for c in cit_vecs:
            if aor:
                rates = [cj * (den // pj) for pj, cj in zip(p, c)]
                value = sum(rates)
                terms = [(value - rate, pj, cj)
                         for rate, pj, cj in zip(rates, p, c)]
            else:
                value = sum(c) * (den // sum(p))
                terms = [(0, sum(p), sum(c))] * len(years)
            rows.append((c, value, terms))
        return rows

    for lp in pub_vecs:
        rights = [lp] if equal_pubs else pub_vecs
        fewer = [rp for rp in rights if any(map(gt, p_terms[lp], p_terms[rp]))]
        for lc, value_l, terms_l in table(lp):
            shared = any(other for other, _, _ in terms_l)
            for rp in (rights if shared else fewer):
                for rc, value_r, terms_r in table(rp):
                    if not value_l < value_r:
                        continue  # canonical orientation: left < right
                    runs = [(year, ks) for year, term_l, term_r
                            in zip(years, terms_l, terms_r)
                            if (ks := _reversing_ks(den, bounds.k_max,
                                                    term_l, term_r))]
                    if not runs:
                        continue
                    left = _journal("L", years, lp, cells, lc)
                    right = _journal("R", years, rp, cells, rc)
                    for inj_year, ks in runs:
                        for k in ks:
                            yield PairScenario(left, right, spec,
                                               Injection.single(inj_year, k))
