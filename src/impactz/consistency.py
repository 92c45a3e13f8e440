"""Z-consistency verdicts, minimal reversing injections, and a
counterexample miner.

Z-consistency: if indicator I ranks journal J strictly below J', adding
the same number of uncited publications to both must not reverse the
strict ordering.  All three indicator kinds violate it; this module
decides concrete cases exactly and searches bounded integer spaces for
fresh violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from enum import Enum
from itertools import islice, product
from math import isqrt
from operator import add
from typing import Iterator

from .core import (
    IndicatorKind,
    IndicatorSpec,
    Injection,
    JournalData,
    ZeroDenominator,
    _evaluate,
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


@dataclass(frozen=True)
class PairScenario:
    """Two journals, one indicator, one injection applied to BOTH."""

    left: JournalData
    right: JournalData
    spec: IndicatorSpec
    injection: Injection


@dataclass(frozen=True)
class Verdict:
    tag: VerdictTag
    before: tuple[Ratio, Ratio]
    after: tuple[Ratio, Ratio]


@dataclass(frozen=True)
class ReversalWitness:
    """A concrete Z-consistency violation; self-checking by design."""

    scenario: PairScenario
    verdict: Verdict

    def verify(self) -> bool:
        """Recompute the scenario from raw data and compare verdicts."""
        return check_z_consistency(self.scenario) == self.verdict


@dataclass(frozen=True)
class SearchBounds:
    """Finite box for the counterexample miner.

    Publications range over 1..pub_max per denominator year, citations
    over 0..cit_max per window year, injections over single years with
    1..k_max added publications.  ``target_year`` fixes the year layout;
    it only shifts labels, never values.
    """

    n: int
    pub_max: int
    cit_max: int
    k_max: int
    target_year: int = 2000
    s: int = 0

    def __post_init__(self):
        if min(self.n, self.pub_max, self.k_max) < 1 or self.cit_max < 1:
            raise ValueError("all bounds must be >= 1")


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


def _coefficients(other: Fraction, p_l: int, c_l: int,
                  p_r: int, c_r: int) -> tuple[int, int, int]:
    """(a, b, c) of the polynomial Q of :func:`reversal_threshold` for
    ``other`` = a/b and the counts that k moves; ``other`` = 0 gives the
    linear Q of the totals-based kinds."""
    a, b = other.numerator, other.denominator
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
    reversing = _reversal_window(*_coefficients(other, p_l, c_l, p_r, c_r))
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
    for year in denominator_years(spec):
        if left.pubs.get(year, 0) != right.pubs.get(year, 0):
            raise PreconditionViolated(
                f"publication vectors differ at year {year}: "
                f"{left.pubs.get(year, 0)} vs {right.pubs.get(year, 0)}")
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

    Output order is canonical: lexicographic over (left pubs, left cits,
    right pubs, right cits, injection year, k), with vectors indexed by
    ascending year.  Mirrored duplicates are pruned by only emitting
    scenarios whose before-ordering is left < right.  Every witness is
    re-verified through :func:`check_z_consistency` before it is yielded.
    The witnesses of one (left, right) pair share the same two
    ``JournalData`` objects.
    """
    if kind is IndicatorKind.SYNC_AOR:
        scenarios = _iter_aor(bounds, equal_pubs)
    else:
        scenarios = _iter_totals_based(kind, bounds, equal_pubs)
    for scenario in scenarios:
        verdict = check_z_consistency(scenario)
        if verdict.tag is not VerdictTag.REVERSED:
            raise AssertionError("miner candidate failed self-check")
        yield ReversalWitness(scenario, verdict)


def _vectors_with_sum(length: int, cap: int, lo: int, hi: int
                      ) -> Iterator[tuple[int, ...]]:
    """All vectors in [0..cap]^length with component sum in [lo, hi],
    in lexicographic order."""
    def rec(prefix: list[int], remaining: int, total: int):
        if remaining == 0:
            if lo <= total <= hi:
                yield tuple(prefix)
            return
        for v in range(cap + 1):
            t = total + v
            if t > hi:
                break
            if t + cap * (remaining - 1) < lo:
                continue
            prefix.append(v)
            yield from rec(prefix, remaining - 1, t)
            prefix.pop()
    yield from rec([], length, 0)


def _journal(name: str, years, pubs_vec, cells, cits_vec) -> JournalData:
    return JournalData(name, dict(zip(years, pubs_vec)),
                       dict(zip(cells, cits_vec)))


def _iter_totals_based(kind: IndicatorKind, bounds: SearchBounds,
                       equal_pubs: bool) -> Iterator[PairScenario]:
    """Miner for the two totals-driven kinds (sync RoA, diachronous).

    Both indicators equal (total citations) / (total publications), so a
    reversal with before-ordering left < right requires exactly:
    CL*PR < CR*PL (strict before), CL > CR (the flip direction), and the
    crossover k* = floor((CR*PL - CL*PR) / (CL - CR)) + 1 within k_max,
    the lower end of the linear :func:`_reversal_window`.
    Those conditions prune whole subtrees without evaluating indicators.
    """
    spec = IndicatorSpec(kind, bounds.n, bounds.target_year, bounds.s)
    years, cells = window(spec)
    pub_vecs = list(product(range(1, bounds.pub_max + 1), repeat=len(years)))
    for lp in pub_vecs:
        pl = sum(lp)
        for lc in product(range(bounds.cit_max + 1), repeat=len(cells)):
            cl = sum(lc)
            if cl == 0:
                continue  # a zero-citation left can never overtake
            for rp in ([lp] if equal_pubs else pub_vecs):
                pr = sum(rp)
                if pr >= pl:
                    continue  # flip needs the right denominator smaller
                # strict before left < right: cr > cl*pr/pl
                cr_lo = (cl * pr) // pl + 1
                cr_hi = cl - 1  # flip needs cr < cl
                if cr_lo > cr_hi:
                    continue
                for rc in _vectors_with_sum(len(cells), bounds.cit_max,
                                            cr_lo, cr_hi):
                    cr = sum(rc)
                    # never None: the bounds above give CL*PR < CR*PL, CL > CR
                    k_star, _ = _reversal_window(0, cl - cr, cl * pr - cr * pl)
                    if k_star > bounds.k_max:
                        continue
                    left = _journal("L", years, lp, cells, lc)
                    right = _journal("R", years, rp, cells, rc)
                    for inj_year in years:
                        for k in range(k_star, bounds.k_max + 1):
                            yield PairScenario(
                                left, right, spec,
                                Injection.single(inj_year, k))


def _iter_aor(bounds: SearchBounds, equal_pubs: bool
              ) -> Iterator[PairScenario]:
    """Miner for the average-of-ratios kind.

    The value is placement-sensitive, so the search enumerates full
    assignments.  For each oriented pair and injection year the
    reversing k form one interval, the exact :func:`_reversal_window` of
    the pair's quadratic, so no k is tried that does not reverse.
    """
    n, k_max = bounds.n, bounds.k_max
    spec = IndicatorSpec(IndicatorKind.SYNC_AOR, n, bounds.target_year)
    years, cells = window(spec)
    pub_vecs = list(product(range(1, bounds.pub_max + 1), repeat=n))
    cit_vecs = list(product(range(bounds.cit_max + 1), repeat=n))

    # per vector: n*value, and per year j the other years' share of it
    shares = {}
    for p, c in product(pub_vecs, cit_vecs):
        rates = [Fraction(cj, pj) for pj, cj in zip(p, c)]
        total = sum(rates)
        shares[p, c] = total, [total - rate for rate in rates]

    for (lp, lc), (total_l, other_l) in shares.items():
        for rp in ([lp] if equal_pubs else pub_vecs):
            for rc in cit_vecs:
                total_r, other_r = shares[rp, rc]
                if not total_l < total_r:
                    continue  # canonical orientation: left < right
                pair = None
                for j, inj_year in enumerate(years):
                    reversing = _reversal_window(*_coefficients(
                        other_l[j] - other_r[j], lp[j], lc[j], rp[j], rc[j]))
                    if reversing is None or reversing[0] > k_max:
                        continue
                    lo, hi = reversing
                    hi = k_max if hi is None else min(hi, k_max)
                    if pair is None:
                        pair = (_journal("L", years, lp, cells, lc),
                                _journal("R", years, rp, cells, rc))
                    left, right = pair
                    for k in range(lo, hi + 1):
                        yield PairScenario(left, right, spec,
                                           Injection.single(inj_year, k))
