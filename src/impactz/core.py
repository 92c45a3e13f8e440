"""Publication-citation data model and exact impact-factor computations.

Three indicator variants over a journal's publication-citation matrix:

* synchronous ratio-of-averages (the classical Garfield impact factor
  when the window is two years),
* synchronous average-of-ratios (per-year citation rates, then averaged),
* diachronous (citations accrued over successive years to one cohort).

All values are exact :class:`~impactz.ratio.Ratio` fractions.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from enum import Enum
from math import prod
from types import MappingProxyType

from .ratio import Ratio

Year = int


class ZeroDenominator(ValueError):
    """An indicator's denominator is zero for the requested window.

    Raised explicitly rather than defaulting to 0 or infinity; a silently
    defaulted value would corrupt rankings.
    """

    def __init__(self, message: str, *, year: Year | None = None,
                 journal: str | None = None):
        super().__init__(message)
        self.year = year
        self.journal = journal


class ValidationError(ValueError):
    """Readable input that breaks a data rule, such as a count rule."""


def _integer_fault(value, what: str) -> str | None:
    """Years and counts are ``int``; a bool or a float is not one.  Like
    each ``_*_fault`` rule, returns why ``value`` breaks it, or None."""
    return (None if type(value) is int
            else f"{what} must be an integer, got {value!r}")


def _positive_fault(value, what: str) -> str | None:
    """A bound or count is an ``int`` (:func:`_integer_fault`) >= 1."""
    return _integer_fault(value, what) or (
        f"{what} must be >= 1, got {value}" if value < 1 else None)


def _sign_fault(count: int, what: str) -> str | None:
    """A ``what`` ("publication" or "citation") count is not negative."""
    return f"negative {what} count {count}" if count < 0 else None


def _direction_fault(citing: Year, cited: Year) -> str | None:
    """Citations do not flow backwards in time; the same year is allowed."""
    return (f"citing year {citing} precedes cited year {cited}"
            if citing < cited else None)


class Record:
    """Base of the immutable value records.

    A subclass lists its fields, in ``__init__`` order, as
    ``__match_args__`` (so ``match`` patterns work, as on a dataclass) and
    stores just those in an explicit ``__init__`` through
    ``self.__dict__``.  The base then gives what a frozen dataclass would:
    ``==`` between records of the same class with equal ``__dict__``,
    ``hash`` of the fields in ``__match_args__`` order (a ``TypeError``
    when one is a dict), the ``Name(field=value, ...)`` repr, and an
    ``AttributeError`` on assigning or deleting an attribute.  Instances
    keep their ``__dict__``, so ``copy``, ``deepcopy`` and ``pickle`` work
    unchanged.  Nothing is generated at import.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(map(self.__dict__.__getitem__, self.__match_args__)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_NO_COUNTS = MappingProxyType({})  # a read-only default; never stored


class JournalData(Record):
    """Per-journal publication and citation counts.

    ``pubs`` maps publication year to article count; ``cits`` maps
    (citing year, cited year) to citation count.  Absent keys mean zero.
    Every entry keeps the count contract: years and counts are ``int``
    (no bool, no float), no count is negative, and citing >= cited
    (equality covers same-year citation).  Zero entries are dropped.  A
    breach raises :class:`ValidationError` naming the journal and key.
    """

    __match_args__ = ("journal_id", "pubs", "cits")

    def __init__(self, journal_id: str,
                 pubs: Mapping[Year, int] = _NO_COUNTS,
                 cits: Mapping[tuple[Year, Year], int] = _NO_COUNTS):
        for year, count in pubs.items():
            if fault := (_integer_fault(year, "year")
                         or _integer_fault(count, "count")
                         or _sign_fault(count, "publication")):
                raise ValidationError(
                    f"journal {journal_id!r}, pubs[{year!r}]: {fault}")
        for (citing, cited), count in cits.items():
            if fault := (_integer_fault(citing, "citing year")
                         or _integer_fault(cited, "cited year")
                         or _integer_fault(count, "count")
                         or _sign_fault(count, "citation")
                         or _direction_fault(citing, cited)):
                raise ValidationError(
                    f"journal {journal_id!r}, "
                    f"cits[{(citing, cited)!r}]: {fault}")
        self._store(journal_id,
                    {year: count for year, count in pubs.items() if count},
                    {cell: count for cell, count in cits.items() if count})

    @classmethod
    def _checked(cls, journal_id: str, pubs: dict[Year, int],
                 cits: dict[tuple[Year, Year], int]) -> JournalData:
        """A JournalData over counts that the caller has already held to
        the count contract, handed over as :meth:`_store` takes them.

        It has two callers, each of which checks no less than
        ``__init__``: ``corpus.load_corpus``, whose every CSV row has
        passed the integer, sign, direction, duplicate and journal-id
        rules with its line number, and the miner's
        ``consistency._journal``, whose vectors hold ``int`` counts that
        are in range by construction (publications >= 1, citations >= 0,
        and :func:`window` cells cite no earlier year than they are
        cited).  Every other route goes through ``JournalData(...)``.
        """
        self = cls.__new__(cls)
        self._store(journal_id, pubs, cits)
        return self

    def _store(self, journal_id: str, pubs: dict, cits: dict) -> None:
        """Set the fields to ``pubs`` and ``cits`` themselves, not to
        copies.  The caller hands over fresh dicts that hold no zero
        entry and never touches them again, so no later change shows;
        ``__init__`` hands over zero-free copies of its caller's
        mappings."""
        fields = self.__dict__
        fields["journal_id"] = journal_id
        fields["pubs"] = pubs
        fields["cits"] = cits


class IndicatorKind(Enum):
    SYNC_ROA = "sync-roa"
    SYNC_AOR = "sync-aor"
    DIACHRONOUS = "diachronous"


class IndicatorSpec(Record):
    """Which indicator to compute: kind, window length n, target year.

    ``s`` selects whether the diachronous window includes the publication
    year (s=0) or starts the year after (s=1); it is normalized to 0 for
    the synchronous kinds.
    """

    __match_args__ = ("kind", "n", "target_year", "s")

    def __init__(self, kind: IndicatorKind, n: int, target_year: Year,
                 s: int = 0):
        if not isinstance(kind, IndicatorKind):
            raise ValidationError(
                f"kind must be an IndicatorKind, got {kind!r}")
        if fault := (_positive_fault(n, "window length")
                     or _integer_fault(target_year, "target year")
                     or _integer_fault(s, "s")):
            raise ValidationError(fault)
        if s not in (0, 1):
            raise ValidationError(f"s must be 0 or 1, got {s}")
        fields = self.__dict__
        fields["kind"] = kind
        fields["n"] = n
        fields["target_year"] = target_year
        fields["s"] = s if kind is IndicatorKind.DIACHRONOUS else 0


class Injection(Record):
    """Uncited publications to add: a list of (year, count) pairs.

    Duplicate years are allowed and sum.  Years and counts are ``int``
    and counts are strictly positive; the additions receive no citations.
    """

    __match_args__ = ("additions",)

    def __init__(self, additions: Iterable[tuple[Year, int]]):
        additions = tuple((y, k) for y, k in additions)
        for year, k in additions:
            if fault := (_integer_fault(year, "year")
                         or _positive_fault(k, "count")):
                raise ValidationError(f"injection {(year, k)!r}: {fault}")
        self.__dict__["additions"] = additions

    @classmethod
    def single(cls, year: Year, k: int) -> "Injection":
        return cls([(year, k)])

    def per_year(self) -> dict[Year, int]:
        totals: dict[Year, int] = {}
        for year, k in self.additions:
            totals[year] = totals.get(year, 0) + k
        return totals


def pub_count(data: JournalData, year: Year) -> int:
    return data.pubs.get(year, 0)


def cit_count(data: JournalData, citing: Year, cited: Year) -> int:
    return data.cits.get((citing, cited), 0)


def window(spec: IndicatorSpec
           ) -> tuple[tuple[Year, ...], tuple[tuple[Year, Year], ...]]:
    """The cells of the publication-citation matrix an indicator reads.

    Returns the denominator years in ascending order and the (citing,
    cited) citation cells: for the synchronous kinds the years Y-n..Y-1,
    each paired with its cell (Y, year); for the diachronous kind the
    single year Y, cited in Y+s..Y+s+n-1.
    """
    year, n = spec.target_year, spec.n
    if spec.kind is IndicatorKind.DIACHRONOUS:
        return (year,), tuple((year + spec.s + i, year) for i in range(n))
    years = tuple(range(year - n, year))
    return years, tuple((year, y) for y in years)


def compute(data: JournalData, spec: IndicatorSpec) -> Ratio:
    """Evaluate the indicator over its :func:`window`."""
    years, cells = window(spec)
    return Ratio(*_evaluate(data.journal_id, spec, years,
                            *_window_counts(data, years, cells)))


def _window_counts(data: JournalData, years, cells) -> tuple[list, list]:
    """The journal's counts for the years and cells of a :func:`window`."""
    return ([data.pubs.get(y, 0) for y in years],
            [data.cits.get(cell, 0) for cell in cells])


def _evaluate(journal_id: str, spec: IndicatorSpec, years: tuple[Year, ...],
              pubs: list[int], cits: list[int]) -> tuple[int, int]:
    """The indicator from the window's counts: ``pubs`` per denominator
    year and ``cits`` per citation cell, both in :func:`window` order.

    The value is an unreduced integer pair (num, den), den > 0.  Sync-aor
    is the mean of the per-year citation rates, summed over one common
    denominator; the other two kinds are total citations over total
    publications.
    """
    if spec.kind is IndicatorKind.SYNC_ROA:
        if not any(pubs):
            raise ZeroDenominator(
                f"{journal_id}: no publications in window "
                f"{years[0]}..{years[-1]}", journal=journal_id)
    elif not all(pubs):
        empty = max(y for y, p in zip(years, pubs) if not p)
        raise ZeroDenominator(
            f"{journal_id}: no publications in year {empty}",
            year=empty, journal=journal_id)
    if spec.kind is IndicatorKind.SYNC_AOR:
        common = prod(pubs)
        return (sum(c * (common // p) for c, p in zip(cits, pubs)),
                spec.n * common)
    return sum(cits), sum(pubs)


def sync_if_roa(data: JournalData, year: Year, n: int) -> Ratio:
    """Synchronous n-year impact factor, ratio-of-averages form.

    Total citations received in ``year`` to the previous n years, divided
    by the total publications of those years.
    """
    return compute(data, IndicatorSpec(IndicatorKind.SYNC_ROA, n, year))


def sync_if_aor(data: JournalData, year: Year, n: int) -> Ratio:
    """Synchronous n-year impact factor, average-of-ratios form.

    Mean of the per-year citation/publication ratios; undefined as soon
    as any single window year has zero publications.
    """
    return compute(data, IndicatorSpec(IndicatorKind.SYNC_AOR, n, year))


def diachronous_imp(data: JournalData, year: Year, n: int, s: int = 0) -> Ratio:
    """Diachronous n-year impact: citations accrued by the ``year`` cohort.

    Sums citations from years year+s .. year+s+n-1 to publications of
    ``year`` and divides by that year's publication count.
    """
    return compute(data, IndicatorSpec(IndicatorKind.DIACHRONOUS, n, year, s))


def apply_injection(data: JournalData, injection: Injection) -> JournalData:
    """Return a copy of ``data`` with uncited publications added.

    Citations are untouched; the input value is not modified.
    """
    pubs = dict(data.pubs)
    for year, k in injection.per_year().items():
        pubs[year] = pubs.get(year, 0) + k
    return JournalData(data.journal_id, pubs, dict(data.cits))


def denominator_years(spec: IndicatorSpec) -> tuple[Year, ...]:
    """The denominator years, ascending: the first half of :func:`window`."""
    return window(spec)[0]
