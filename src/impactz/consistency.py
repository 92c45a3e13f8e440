"""Z-consistency verdicts, minimal reversing injections, and a
counterexample miner.

Z-consistency: if indicator I ranks journal J strictly below J', adding
the same number of uncited publications to both must not reverse the
strict ordering.  All three indicator kinds violate it; this module
decides concrete cases exactly and searches bounded integer spaces for
fresh violations.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterator
from enum import Enum
from functools import cache
from itertools import islice, product
from math import gcd, isqrt, lcm
from operator import gt

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
    _positive_fault,
    _window_counts,
    denominator_years,
    window,
)
from .ratio import Ratio, _long_str


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
        """Recompute the scenario from raw data through
        :func:`check_z_consistency`, the one verifier that also checked
        the witness when it was mined, and compare verdicts."""
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
        rules = (_positive_fault,) * 4 + (_integer_fault,) * 2
        for rule, name, value in zip(rules, self.__match_args__, values):
            if fault := rule(value, name):
                raise ValidationError(fault)
        self.__dict__.update(zip(self.__match_args__, values))


def check_z_consistency(scenario: PairScenario) -> Verdict:
    """Decide whether the injection preserves, ties, or reverses the
    pair's ordering.  Comparisons are exact; there is no tolerance.

    This is the one verifier, a fresh :func:`_verifier` for one
    scenario, so every call recomputes the verdict from raw data; its
    integer verdict becomes a :class:`Verdict` of :class:`Ratio` values
    through :func:`_verdict`.  The miner keeps one :func:`_verifier` for
    a whole box instead, and the sensitivity check one for each pair.
    """
    return _verdict(_verifier(scenario.spec)(
        scenario.left, scenario.right, scenario.injection))


def _verdict(checked: tuple, ratio: Callable[[int, int], Ratio] = Ratio
             ) -> Verdict:
    """The :class:`Verdict` of a :func:`_verifier` result ``(tag, before,
    after)``, each value built as ``ratio(num, den)``; a caller that
    shares values across verdicts passes a memoised ``ratio``."""
    tag, (before_l, before_r), (after_l, after_r) = checked
    return Verdict(tag, (ratio(*before_l), ratio(*before_r)),
                   (ratio(*after_l), ratio(*after_r)))


def _verifier(spec: IndicatorSpec
              ) -> Callable[[JournalData, JournalData, Injection], tuple]:
    """``verify(left, right, injection)``: the ``(tag, before, after)`` of
    ``injection`` applied to both journals, under ``spec``, with
    ``before`` and ``after`` each the (left, right) values as ``(num,
    den)`` int pairs, reduced by one ``gcd``; :func:`_verdict` builds the
    public :class:`Verdict` from it.

    Each journal's window counts and "before" value are evaluated once,
    and its "after" value once per distinct injection, for as long as
    the verifier lives; each value is :func:`_evaluate`'s over that
    journal's own counts, and the same tuple object is returned each
    time it is read.  The tag follows the signs of the exact
    cross-multiplied integer gaps before and after.  Values are
    evaluated left ("before", then "after"), then right.  A "before"
    ``ZeroDenominator`` names its phase and is not held.  "After" cannot
    raise one: an ``Injection`` only adds counts > 0, so no window year
    has fewer publications than before, and sync-roa's ``any(pubs)`` and
    the other kinds' ``all(pubs)`` still hold.

    The memo is keyed by ``id(data)`` and holds ``data``, so no id is
    reused while the verifier lives; it never sees a change to a
    journal's counts.  So a verifier serves one miner box, whose
    journals nothing mutates, or one sensitivity pair.
    """
    years, cells = window(spec)
    # id(data) -> (data, pubs, cits, before, {additions: after})
    held = {}

    def values(data, injection):
        entry = held.get(id(data))
        if entry is None:
            pubs, cits = _window_counts(data, years, cells)
            try:
                num, den = _evaluate(data.journal_id, spec, years, pubs, cits)
            except ZeroDenominator as exc:
                raise ZeroDenominator(f"{exc} (before injection)",
                                      year=exc.year,
                                      journal=exc.journal) from exc
            g = gcd(num, den)
            entry = held[id(data)] = (data, pubs, cits,
                                      (num // g, den // g), {})
        _, pubs, cits, before, afters = entry
        after = afters.get(injection.additions)
        if after is None:
            added = injection.per_year()
            num, den = _evaluate(
                data.journal_id, spec, years,
                [p + added.get(y, 0) for y, p in zip(years, pubs)], cits)
            g = gcd(num, den)
            after = afters[injection.additions] = num // g, den // g
        return before, after

    def verify(left, right, injection):
        before_l, after_l = values(left, injection)
        before_r, after_r = values(right, injection)
        before = before_l[0] * before_r[1] - before_r[0] * before_l[1]
        gap = after_l[0] * after_r[1] - after_r[0] * after_l[1]
        if not before:
            tag = VerdictTag.TIE_BEFORE
        elif not gap:
            tag = VerdictTag.TIE_AFTER
        elif (before < 0) != (gap < 0):
            tag = VerdictTag.REVERSED
        else:
            tag = VerdictTag.PRESERVED
        return tag, (before_l, before_r), (after_l, after_r)

    return verify


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


def _thresholds(left: JournalData, right: JournalData, spec: IndicatorSpec
                ) -> dict[int, int | None]:
    """Per denominator year, in :func:`window` order, the exact smallest
    k >= 1 whose uncited injection of k publications at that year into
    both journals strictly reverses their ordering; None if no k ever
    does.  An exact tie after injection is not a reversal.

    The miner's integer form, for one pair, solved for every year in one
    pass: the window is read once, and, oriented so that left < right,
    each journal's window counts become a value and per-year (other, p,
    c) terms through one :func:`_terms` call, over ``den`` the lcm of the
    pair's divisors (each year's publications for sync-aor, the window
    totals otherwise).  Each year's answer is the first k of the window
    that :func:`_reversing_ks` solves from the two terms of that year.
    """
    years, cells = window(spec)
    counts = [_window_counts(data, years, cells) for data in (left, right)]
    (nl, dl), (nr, dr) = (_evaluate(data.journal_id, spec, years, *count)
                          for data, count in zip((left, right), counts))
    if nl * dr == nr * dl:
        raise PreconditionViolated(
            f"no strict ordering between {left.journal_id} and "
            f"{right.journal_id} before injection")
    if nl * dr > nr * dl:
        counts.reverse()
    aor = spec.kind is IndicatorKind.SYNC_AOR
    # sync-aor divides by each year's count, the other kinds by the total
    den = lcm(*(p for pubs, _ in counts
                for p in (pubs if aor else [sum(pubs)])))
    (_, terms_l), (_, terms_r) = (_terms(aor, den, pubs, cits)
                                  for pubs, cits in counts)
    return {year: (ks := _reversing_ks(den, term_l, term_r)) and ks[0]
            for year, term_l, term_r in zip(years, terms_l, terms_r)}


def min_reversal_k(left: JournalData, right: JournalData,
                   spec: IndicatorSpec, target_year: int,
                   k_max: int) -> int | None:
    """Smallest k >= 1 whose injection at ``target_year`` (into both
    journals) reverses the pair's strict ordering, read from the pair's
    :func:`_thresholds`; None if that k exceeds ``k_max`` or no k
    reverses the pair.  A ``target_year`` outside the denominator years
    raises :class:`InvalidTargetYear` before either journal is read."""
    if fault := _positive_fault(k_max, "k_max"):
        raise ValidationError(fault)
    if target_year not in denominator_years(spec):
        raise InvalidTargetYear(
            f"year {_long_str(target_year)} is not a denominator year for "
            f"{spec.kind.value} n={spec.n} at "
            f"{_long_str(spec.target_year)}")
    k = _thresholds(left, right, spec)[target_year]
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
                f"publication vectors differ at year {_long_str(year)}: "
                f"{_long_str(p_l)} vs {_long_str(p_r)}")
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
    if fault := _positive_fault(limit, "limit"):
        raise ValidationError(fault)
    return list(_first(iter_counterexamples(kind, bounds,
                                            equal_pubs=equal_pubs), limit))


def _first(witnesses: Iterator, limit: int) -> Iterator:
    """The first ``limit`` of ``witnesses``, or all of them for a limit
    past ``sys.maxsize``, which ``islice`` refuses: no run that ends
    yields that many."""
    return islice(witnesses, min(limit, sys.maxsize))


def iter_counterexamples(kind: IndicatorKind, bounds: SearchBounds, *,
                         equal_pubs: bool = False
                         ) -> Iterator[ReversalWitness]:
    """Exhaustively enumerate integer publication/citation assignments
    within ``bounds`` and yield every reversal witness, one at a time:
    each ``(left, right, injection, checked)`` of :func:`_witnesses`,
    the one miner generator, which lists, solves and verifies it, as a
    ``ReversalWitness`` of its ``PairScenario`` and the :func:`_verdict`
    of ``checked``.  One :class:`Ratio` is built per distinct value of
    the box, and shared by every verdict that holds it."""
    spec = IndicatorSpec(kind, bounds.n, bounds.target_year, bounds.s)
    ratio = cache(Ratio)
    for left, right, inj, checked in _witnesses(kind, bounds, equal_pubs):
        yield ReversalWitness(PairScenario(left, right, spec, inj),
                              _verdict(checked, ratio))


def _journal(name: str, years, pubs_vec, cells, cits_vec) -> JournalData:
    """A miner vector pair as JournalData; the box keeps the count
    contract by construction, so the counts are not checked again.
    Publication counts are >= 1; zero citation cells are left out, as
    ``JournalData._checked`` takes no zero entry."""
    return JournalData._checked(
        name, dict(zip(years, pubs_vec)),
        {cell: count for cell, count in zip(cells, cits_vec) if count})


def _terms(aor: bool, den: int, pubs, cits
           ) -> tuple[int, list[tuple[int, int, int]]]:
    """One (pubs, cits) vector's value times ``den`` (a multiple of every
    divisor it uses) and, per denominator year, the (other, p, c) that
    :func:`_reversing_ks` reads, ``other`` also times ``den``.

    For sync-aor the value is n times the indicator, ``other`` the other
    years' share of it, and p, c that year's counts; k moves only that
    year's rate.  For the totals-based kinds (value C/P) ``other`` is 0
    and p, c are the window totals.
    """
    if aor:
        rates = [c * (den // p) for p, c in zip(pubs, cits)]
        value = sum(rates)
        return value, [(value - rate, p, c)
                       for rate, p, c in zip(rates, pubs, cits)]
    p, c = sum(pubs), sum(cits)
    return c * (den // p), [(0, p, c)] * len(pubs)


def _reversing_ks(den: int, left_term: tuple[int, int, int],
                  right_term: tuple[int, int, int]
                  ) -> tuple[int, int | None] | None:
    """The :func:`_reversal_window` of the k >= 1 at which injecting k
    publications in one year reverses a pair with left < right, from
    each side's :func:`_terms` for that year; None when no k does.

    After k, the gap between the two :func:`_terms` values (a positive
    multiple of left - right) times (p_L + k)*(p_R + k) is the integer
    polynomial Q(k) = a*(p_L + k)*(p_R + k) + den*(c_L*(p_R + k)
    - c_R*(p_L + k)), with a = other_L - other_R; a = 0 is the linear
    case of the totals-based kinds.  Q(0) < 0, and k reverses the pair
    where Q(k) > 0.

    With a <= 0 a flip needs c_L/(p_L + k) > c_R/(p_R + k) although
    c_L/p_L - c_R/p_R was below -a/den; each term keeps p/(p + k) of
    itself, a share that grows with p, so that needs p_L > p_R and then
    c_L > c_R.  Other pair-years are dropped before Q is solved.
    """
    (other_l, p_l, c_l), (other_r, p_r, c_r) = left_term, right_term
    a = other_l - other_r
    if a <= 0 and not (p_l > p_r and c_l > c_r):
        return None
    return _reversal_window(a, a * (p_l + p_r) + den * (c_l - c_r),
                            a * p_l * p_r + den * (c_l * p_r - c_r * p_l))


# The miner lists a box's publication vectors, pub_max ** |years|, and
# its citation vectors, (cit_max + 1) ** |cells|, before the first row;
# a box with more of either is refused rather than run out of memory.
_MAX_VECTORS = 10**5


def _witnesses(kind: IndicatorKind, bounds: SearchBounds, equal_pubs: bool
               ) -> Iterator[tuple]:
    """Every reversal witness of the box as a ``(left, right, injection,
    checked)`` tuple, not a record, with ``checked`` the box's
    :func:`_verifier` result ``(tag, before, after)`` of reduced int
    pairs, in canonical order: lexicographic over
    (left pubs, left cits, right pubs, right cits, injection year, k),
    vectors by ascending year; each pair once, oriented left < right.  An
    ``equal_pubs`` that is not a ``bool``, or a box over
    :data:`_MAX_VECTORS`, raises ValidationError before anything is built.

    One integer table serves every kind: each (pubs, cits) vector's
    :func:`_terms` over ``den``, the lcm of every divisor the box can
    produce.  Each oriented pair (left < right) and injection year then
    yields the k of the :func:`_reversing_ks` window, clipped to
    ``k_max``, so no k is tried that does not reverse.  Injections are
    built only as they are taken, so taking one witness does not build a
    pair's k_max injections.

    The table is built one publication vector at a time, on first use.
    As other_R >= 0, by :func:`_reversing_ks` a left whose other shares
    are all 0 needs p_L > p_R in some year, so it skips every right
    publication vector without one before any of its rows is read.

    Each candidate is re-verified by one call to the box's
    :func:`_verifier`, the one verifier behind
    :func:`check_z_consistency`, built once after the checks; it
    evaluates each journal's "before" and each (journal, injection)
    "after" once per box, and builds no :class:`Ratio` or
    :class:`Verdict`.  A tag other than REVERSED raises AssertionError,
    under ``python -O`` too.

    Each (side, pubs, cits) vector is one ``JournalData`` object for the
    whole box, and each (year, k) one ``Injection``, both immutable and
    shared by every pair that holds them, so a pair's witnesses share its
    two journals.  Like the table, these caches fill on first use, so
    they grow with the box's vector count and at most |years| * k_max
    injections, not with the number of witnesses taken.
    """
    spec = IndicatorSpec(kind, bounds.n, bounds.target_year, bounds.s)
    if type(equal_pubs) is not bool:
        raise ValidationError(f"equal_pubs must be a bool, got {equal_pubs!r}")
    years, cells = window(spec)
    for what, base, formula, power in (
            ("publication", bounds.pub_max, "pub_max", len(years)),
            ("citation", bounds.cit_max + 1, "(cit_max + 1)", len(cells))):
        # n <= 100 (IndicatorSpec), so the clipped power stays small
        if min(base, _MAX_VECTORS + 1) ** power > _MAX_VECTORS:
            raise ValidationError(
                f"the box holds more than {_MAX_VECTORS} {what} vectors, "
                f"{formula} ** {power}")
    verify = _verifier(spec)
    aor, k_max = kind is IndicatorKind.SYNC_AOR, bounds.k_max
    # sync-aor divides by one year's count, the other kinds by the total
    den = lcm(*range(1, bounds.pub_max * (1 if aor else len(years)) + 1))
    pub_vecs = list(product(range(1, bounds.pub_max + 1), repeat=len(years)))
    cit_vecs = list(product(range(bounds.cit_max + 1), repeat=len(cells)))
    # the per-year p of each publication vector's (other, p, c)
    p_terms = {p: p if aor else (sum(p),) * len(years) for p in pub_vecs}

    @cache
    def table(p):  # [(cits, value, per-year (other, p, c))] in cits order
        return [(c, *_terms(aor, den, p, c)) for c in cit_vecs]

    @cache
    def journal(name, p, c):
        return _journal(name, years, p, cells, c)

    single = cache(Injection.single)

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
                            if (ks := _reversing_ks(den, term_l, term_r))
                            and ks[0] <= k_max]
                    if not runs:
                        continue
                    left, right = journal("L", lp, lc), journal("R", rp, rc)
                    for year, (lo, hi) in runs:
                        for k in range(lo, min(hi or k_max, k_max) + 1):
                            injection = single(year, k)
                            checked = verify(left, right, injection)
                            if checked[0] is not VerdictTag.REVERSED:
                                raise AssertionError(
                                    "miner candidate failed self-check")
                            yield left, right, injection, checked
