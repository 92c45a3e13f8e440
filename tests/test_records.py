"""The value contract of every public record class: equality, hashing,
repr text, keyword construction, immutability and copy/pickle
round-trips."""

import copy
import pickle

import pytest

from impactz import (
    Corpus,
    IndicatorKind,
    IndicatorSpec,
    Injection,
    JournalData,
    PairScenario,
    Ranking,
    RankingEntry,
    Ratio,
    ReversalWitness,
    SearchBounds,
    SensitivityRow,
    Verdict,
    VerdictTag,
)

from conftest import Y


def _journal(name="J"):
    return JournalData(name, {Y - 1: 2}, {(Y, Y - 1): 3})


_SPEC = dict(kind=IndicatorKind.SYNC_ROA, n=2, target_year=Y, s=0)
_INJECTION = dict(additions=((Y - 1, 5),))
_VERDICT = dict(tag=VerdictTag.REVERSED,
                before=(Ratio(3), Ratio(2)), after=(Ratio(4, 3), Ratio(1)))


def _scenario():
    return PairScenario(_journal("L"), _journal("R"), IndicatorSpec(**_SPEC),
                        Injection(**_INJECTION))


# (class, fields by keyword in declaration order, repr, hashable)
RECORDS = [
    (JournalData,
     lambda: dict(journal_id="J", pubs={Y - 1: 2}, cits={(Y, Y - 1): 3}),
     "JournalData(journal_id='J', pubs={1999: 2}, cits={(2000, 1999): 3})",
     False),
    (IndicatorSpec, lambda: dict(_SPEC),
     "IndicatorSpec(kind=<IndicatorKind.SYNC_ROA: 'sync-roa'>, n=2, "
     "target_year=2000, s=0)", True),
    (Injection, lambda: dict(_INJECTION),
     "Injection(additions=((1999, 5),))", True),
    (PairScenario,
     lambda: dict(left=_journal("L"), right=_journal("R"),
                  spec=IndicatorSpec(**_SPEC),
                  injection=Injection(**_INJECTION)),
     "PairScenario(left=JournalData(journal_id='L', pubs={1999: 2}, "
     "cits={(2000, 1999): 3}), right=JournalData(journal_id='R', "
     "pubs={1999: 2}, cits={(2000, 1999): 3}), "
     "spec=IndicatorSpec(kind=<IndicatorKind.SYNC_ROA: 'sync-roa'>, n=2, "
     "target_year=2000, s=0), injection=Injection(additions=((1999, 5),)))",
     False),
    (Verdict, lambda: dict(_VERDICT),
     "Verdict(tag=<VerdictTag.REVERSED: 'reversed'>, "
     "before=(Ratio(3, 1), Ratio(2, 1)), after=(Ratio(4, 3), Ratio(1, 1)))",
     True),
    (ReversalWitness,
     lambda: dict(scenario=_scenario(), verdict=Verdict(**_VERDICT)),
     "ReversalWitness(scenario=PairScenario(left=JournalData("
     "journal_id='L', pubs={1999: 2}, cits={(2000, 1999): 3}), "
     "right=JournalData(journal_id='R', pubs={1999: 2}, "
     "cits={(2000, 1999): 3}), spec=IndicatorSpec("
     "kind=<IndicatorKind.SYNC_ROA: 'sync-roa'>, n=2, target_year=2000, "
     "s=0), injection=Injection(additions=((1999, 5),))), "
     "verdict=Verdict(tag=<VerdictTag.REVERSED: 'reversed'>, "
     "before=(Ratio(3, 1), Ratio(2, 1)), after=(Ratio(4, 3), Ratio(1, 1))))",
     False),
    (SearchBounds,
     lambda: dict(n=2, pub_max=3, cit_max=4, k_max=5, target_year=Y, s=1),
     "SearchBounds(n=2, pub_max=3, cit_max=4, k_max=5, target_year=2000, "
     "s=1)", True),
    (Corpus, lambda: dict(journals={"J": _journal()}),
     "Corpus(journals={'J': JournalData(journal_id='J', pubs={1999: 2}, "
     "cits={(2000, 1999): 3})})", False),
    (RankingEntry,
     lambda: dict(journal_id="J", value=Ratio(1, 2), rank=1,
                  tied_with=("K",)),
     "RankingEntry(journal_id='J', value=Ratio(1, 2), rank=1, "
     "tied_with=('K',))", True),
    (Ranking,
     lambda: dict(entries=(RankingEntry("J", Ratio(1, 2), 1),),
                  skipped=(("X", "no publications"),)),
     "Ranking(entries=(RankingEntry(journal_id='J', value=Ratio(1, 2), "
     "rank=1, tied_with=()),), skipped=(('X', 'no publications'),))", True),
    (SensitivityRow,
     lambda: dict(upper_id="A", lower_id="B",
                  per_year_min_k={Y - 2: None, Y - 1: 3}, k_max=10),
     "SensitivityRow(upper_id='A', lower_id='B', "
     "per_year_min_k={1998: None, 1999: 3}, k_max=10)", False),
]
_IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, text, hashable", RECORDS, ids=_IDS)
def test_record_value_contract(cls, fields, text, hashable):
    kwargs = fields()
    record = cls(**kwargs)
    assert record == cls(*fields().values())
    assert record != tuple(kwargs.values())
    assert repr(record) == text
    assert cls.__match_args__ == tuple(kwargs)  # positional match patterns
    for name, value in kwargs.items():
        assert getattr(record, name) == value
    if hashable:
        assert hash(record) == hash(cls(**fields()))
        assert len({record, cls(**fields())}) == 1
    else:  # a dict field makes the record unhashable
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("cls, fields, text, hashable", RECORDS, ids=_IDS)
def test_record_fields_are_read_only(cls, fields, text, hashable):
    record = cls(**fields())
    for name in fields():
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**fields())


@pytest.mark.parametrize("cls, fields, text, hashable", RECORDS, ids=_IDS)
def test_record_copies_are_equal(cls, fields, text, hashable):
    record = cls(**fields())
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls
        assert twin == record
        assert repr(twin) == text


def test_journal_default_dicts_are_not_shared():
    a, b = JournalData("J"), JournalData("J")
    assert a == b == JournalData(journal_id="J", pubs={}, cits={})
    assert a.pubs == {} and a.cits == {}
    assert a.pubs is not b.pubs and a.cits is not b.cits


def test_journal_copies_its_mappings_and_checked_adopts_its_dicts():
    # JournalData(...) stores zero-free copies, so the caller's later
    # changes do not show; _checked takes over the dicts it is handed
    pubs, cits = {Y - 1: 3, Y - 2: 0}, {(Y, Y - 1): 2}
    data = JournalData("J", pubs, cits)
    pubs[Y - 1] = 9
    cits.clear()
    assert (data.pubs, data.cits) == ({Y - 1: 3}, {(Y, Y - 1): 2})
    pubs, cits = {Y - 1: 3}, {(Y, Y - 1): 2}
    data = JournalData._checked("J", pubs, cits)
    assert data.pubs is pubs and data.cits is cits


def test_defaults_match_keyword_construction():
    assert IndicatorSpec(IndicatorKind.SYNC_ROA, 2, Y) == IndicatorSpec(
        **_SPEC)
    assert SearchBounds(2, 3, 4, 5) == SearchBounds(
        n=2, pub_max=3, cit_max=4, k_max=5, target_year=2000, s=0)
    assert RankingEntry("J", Ratio(1), 1) == RankingEntry(
        journal_id="J", value=Ratio(1), rank=1, tied_with=())
    assert Ranking(()) == Ranking(entries=(), skipped=())
