import copy
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from impactz import (
    IndicatorKind,
    IndicatorSpec,
    Injection,
    InvalidTargetYear,
    JournalData,
    PairScenario,
    PreconditionViolated,
    Ratio,
    SearchBounds,
    ValidationError,
    Verdict,
    VerdictTag,
    ZeroDenominator,
    apply_injection,
    check_z_consistency,
    compute,
    denominator_years,
    equal_pubs_preserved,
    mine_counterexamples,
    min_reversal_k,
    sync_if_roa,
)
from impactz import consistency
from impactz.consistency import (
    _reversal_window,
    _thresholds,
    _verifier,
)

from conftest import Y

ROA2 = IndicatorSpec(IndicatorKind.SYNC_ROA, 2, Y)
AOR2 = IndicatorSpec(IndicatorKind.SYNC_AOR, 2, Y)
DIA3 = IndicatorSpec(IndicatorKind.DIACHRONOUS, 3, Y, 0)


# --- verdicts --------------------------------------------------------------

def test_roa_reversal(roa_pair):
    j, jp = roa_pair
    verdict = check_z_consistency(
        PairScenario(j, jp, ROA2, Injection.single(Y - 1, 25)))
    assert verdict.tag is VerdictTag.REVERSED
    assert verdict.before == (Ratio(3), Ratio(2))
    assert verdict.after == (Ratio(4, 3), Ratio(24, 17))


def test_aor_reversal(aor_pair):
    j, jp = aor_pair
    verdict = check_z_consistency(
        PairScenario(j, jp, AOR2, Injection.single(Y - 1, 10)))
    assert verdict.tag is VerdictTag.REVERSED
    assert verdict.before == (Ratio(13, 6), Ratio(9, 4))
    assert verdict.after == (Ratio(17, 8), Ratio(7, 4))


def test_diachronous_reversal(diachronous_pair):
    j, jp = diachronous_pair
    verdict = check_z_consistency(
        PairScenario(j, jp, DIA3, Injection.single(Y, 25)))
    assert verdict.tag is VerdictTag.REVERSED
    assert verdict.before == (Ratio(3), Ratio(2))
    assert verdict.after == (Ratio(4, 3), Ratio(24, 17))


def test_identical_journals_tie_before(roa_pair):
    j, _ = roa_pair
    twin = JournalData("J2", dict(j.pubs), dict(j.cits))
    verdict = check_z_consistency(
        PairScenario(j, twin, ROA2, Injection.single(Y - 1, 5)))
    assert verdict.tag is VerdictTag.TIE_BEFORE


def test_tie_after(roa_pair):
    # at k=20 the diluted values coincide exactly: 60/40 == 120/80
    j, jp = roa_pair
    verdict = check_z_consistency(
        PairScenario(j, jp, ROA2, Injection.single(Y - 1, 20)))
    assert verdict.tag is VerdictTag.TIE_AFTER
    assert verdict.after[0] == verdict.after[1] == Ratio(3, 2)


def test_preserved(roa_pair):
    j, jp = roa_pair
    verdict = check_z_consistency(
        PairScenario(j, jp, ROA2, Injection.single(Y - 1, 1)))
    assert verdict.tag is VerdictTag.PRESERVED


def test_zero_denominator_names_journal_and_phase(roa_pair):
    j, _ = roa_pair
    empty = JournalData("E", {}, {})
    with pytest.raises(Exception) as exc_info:
        check_z_consistency(
            PairScenario(j, empty, ROA2, Injection.single(Y - 1, 1)))
    assert "E" in str(exc_info.value)
    assert "before" in str(exc_info.value)


def _rebuilt_verdict(scenario):
    """Oracle: evaluate both journals, then rebuild each through
    ``apply_injection`` and evaluate the new journals."""
    def evaluate(data, phase):
        try:
            return compute(data, scenario.spec)
        except ZeroDenominator as exc:
            raise ZeroDenominator(f"{exc} ({phase} injection)", year=exc.year,
                                  journal=data.journal_id) from exc

    before = (evaluate(scenario.left, "before"),
              evaluate(scenario.right, "before"))
    after = tuple(evaluate(apply_injection(data, scenario.injection), "after")
                  for data in (scenario.left, scenario.right))
    if before[0] == before[1]:
        tag = VerdictTag.TIE_BEFORE
    elif after[0] == after[1]:
        tag = VerdictTag.TIE_AFTER
    elif (before[0] < before[1]) != (after[0] < after[1]):
        tag = VerdictTag.REVERSED
    else:
        tag = VerdictTag.PRESERVED
    return Verdict(tag, before, after)


# every window of n <= 3, s <= 1 at Y lies in these years and cells
_OVERLAY_YEARS = range(Y - 4, Y + 2)
_OVERLAY_CELLS = ([(Y, y) for y in range(Y - 4, Y)]
                  + [(Y + i, Y) for i in range(5)] + [(Y + 1, Y - 1)])


@st.composite
def overlay_pairs(draw):
    spec = IndicatorSpec(draw(st.sampled_from(list(IndicatorKind))),
                         draw(st.integers(1, 3)), Y,
                         draw(st.sampled_from([0, 1])))

    def journal(name):
        return JournalData(
            name, {y: draw(st.integers(0, 4)) for y in _OVERLAY_YEARS},
            {cell: draw(st.integers(0, 6)) for cell in _OVERLAY_CELLS})

    return journal("L"), journal("R"), spec


# years outside every window, and repeated years, are both drawn
overlay_injections = st.builds(Injection, st.lists(
    st.tuples(st.integers(Y - 6, Y + 2), st.integers(1, 5)), max_size=4))


@st.composite
def overlay_scenarios(draw):
    return PairScenario(*draw(overlay_pairs()), draw(overlay_injections))


@settings(max_examples=400, deadline=None)
@given(overlay_scenarios())
@example(PairScenario(  # a repeated year: 10 + 15 reverses, each alone not
    JournalData("L", {Y - 1: 10, Y - 2: 10}, {(Y, Y - 1): 30, (Y, Y - 2): 30}),
    JournalData("R", {Y - 1: 30, Y - 2: 30}, {(Y, Y - 1): 60, (Y, Y - 2): 60}),
    ROA2, Injection([(Y - 1, 10), (Y - 1, 15), (Y + 7, 1)])))
@example(PairScenario(  # the right journal's window is empty
    JournalData("L", {Y: 2}, {}), JournalData("R", {Y + 1: 3}, {}),
    DIA3, Injection([(Y, 1)])))
def test_check_matches_rebuilt_journals(scenario):
    try:
        want = _rebuilt_verdict(scenario)
    except ZeroDenominator as exc:
        with pytest.raises(ZeroDenominator) as got:
            check_z_consistency(scenario)
        assert (str(got.value), got.value.year, got.value.journal) \
            == (str(exc), exc.year, exc.journal)
        # an injection only adds publications, so "after" never raises
        assert str(got.value).endswith("(before injection)")
        return
    got = check_z_consistency(scenario)
    assert got == want
    assert all(type(v) is Ratio for v in got.before + got.after)


_EMPTY_R = JournalData("R", {Y + 1: 3}, {})


@settings(max_examples=400, deadline=None)
@given(overlay_pairs(), st.lists(overlay_injections, max_size=4))
@example(  # an uncomputable journal, but no injection to verify
    (JournalData("L", {Y: 2}, {}), _EMPTY_R, DIA3), [])
@example(  # an uncomputable journal
    (JournalData("L", {Y: 2}, {}), _EMPTY_R, DIA3),
    [Injection([(Y, 1)]), Injection([(Y + 1, 2)])])
@example(  # repeated and out-of-window years, the same injection twice
    (JournalData("L", {Y - 1: 10, Y - 2: 10},
                 {(Y, Y - 1): 30, (Y, Y - 2): 30}),
     JournalData("R", {Y - 1: 30, Y - 2: 30},
                 {(Y, Y - 1): 60, (Y, Y - 2): 60}), ROA2),
    [Injection([(Y - 1, 10), (Y - 1, 15), (Y + 7, 1)]), Injection([]),
     Injection.single(Y - 1, 20), Injection.single(Y - 1, 20)])
def test_batch_verdicts_match_rebuilt_journals(pair, injections):
    # one verifier for every injection, on the pair and then swapped, so
    # later verdicts read the values that earlier ones held
    left, right, spec = pair
    verify = _verifier(spec)
    for first, second in ((left, right), (right, left)):
        for injection in injections:
            try:
                want = _rebuilt_verdict(
                    PairScenario(first, second, spec, injection))
            except ZeroDenominator as exc:
                with pytest.raises(ZeroDenominator) as got:
                    verify(first, second, injection)
                assert (str(got.value), got.value.year, got.value.journal) \
                    == (str(exc), exc.year, exc.journal)
                assert str(got.value).endswith("(before injection)")
                continue
            got = verify(first, second, injection)
            assert got == want
            assert all(type(v) is Ratio for v in got.before + got.after)


# --- minimal reversing injection -------------------------------------------

def test_min_reversal_k_roa(roa_pair):
    j, jp = roa_pair
    assert min_reversal_k(j, jp, ROA2, Y - 1, 100) == 21
    assert min_reversal_k(j, jp, ROA2, Y - 2, 100) == 21  # placement-blind


def test_min_reversal_k_diachronous(diachronous_pair):
    j, jp = diachronous_pair
    assert min_reversal_k(j, jp, DIA3, Y, 100) == 21


def test_min_reversal_k_none_when_out_of_reach(roa_pair):
    j, jp = roa_pair
    assert min_reversal_k(j, jp, ROA2, Y - 1, 20) is None


def test_min_reversal_k_requires_strict_ordering(roa_pair):
    j, _ = roa_pair
    twin = JournalData("J2", dict(j.pubs), dict(j.cits))
    with pytest.raises(PreconditionViolated):
        min_reversal_k(j, twin, ROA2, Y - 1, 10)


def test_min_reversal_k_rejects_non_denominator_year(roa_pair):
    j, jp = roa_pair
    with pytest.raises(InvalidTargetYear):
        min_reversal_k(j, jp, ROA2, Y, 10)
    with pytest.raises(InvalidTargetYear):
        min_reversal_k(j, jp, DIA3, Y - 1, 10)


def test_min_reversal_k_minimality_scan(roa_pair):
    # independent oracle: full scan confirms 21 is the first flip
    j, jp = roa_pair
    flips = [k for k in range(1, 101)
             if check_z_consistency(PairScenario(
                 j, jp, ROA2, Injection.single(Y - 1, k))).tag
             is VerdictTag.REVERSED]
    assert flips[0] == 21
    assert flips == list(range(21, 101))  # monotone once flipped


def test_reversal_threshold_aor_skips_exact_tie():
    # sync-aor reverses only inside a window of k: exact ties at k = 4
    # and k = 13, reversed strictly between, preserved again beyond
    left = JournalData("L", {Y - 2: 2, Y - 1: 2},
                       {(Y, Y - 2): 1, (Y, Y - 1): 5})
    right = JournalData("R", {Y - 2: 3, Y - 1: 5},
                        {(Y, Y - 2): 1, (Y, Y - 1): 9})
    for first, second in ((left, right), (right, left)):
        assert _thresholds(first, second, AOR2)[Y - 1] == 5
    assert min_reversal_k(left, right, AOR2, Y - 1, 4) is None
    tags = [check_z_consistency(PairScenario(
        left, right, AOR2, Injection.single(Y - 1, k))).tag
        for k in (4, 5, 12, 13, 14)]
    assert tags == [VerdictTag.TIE_AFTER, VerdictTag.REVERSED,
                    VerdictTag.REVERSED, VerdictTag.TIE_AFTER,
                    VerdictTag.PRESERVED]


def test_reversal_window_matches_sign_scan():
    # every small integer quadratic (or line, a = 0): the window is exactly
    # the k in 1..200 where Q(k) has the strict sign opposite to Q(0) = c
    far = 200
    closed = open_ended = square_disc = 0
    for a, b, c in product(range(-6, 7), range(-6, 7),
                           [c for c in range(-6, 7) if c]):
        opposite = [k for k in range(1, far + 1)
                    if (a * k * k + b * k + c) * c < 0]
        window = _reversal_window(a, b, c)
        if window is None:
            assert opposite == []
            continue
        lo, hi = window
        assert opposite == list(range(lo, (far if hi is None else hi) + 1))
        closed += hi is not None
        open_ended += hi is None
        disc = b * b - 4 * a * c
        square_disc += a != 0 and disc > 0 and isqrt(disc) ** 2 == disc
    assert closed and open_ended and square_disc


def _flips(left, right, spec, year, k):
    return check_z_consistency(PairScenario(
        left, right, spec, Injection.single(year, k))).tag \
        is VerdictTag.REVERSED


@st.composite
def strictly_ordered_pairs(draw):
    spec = IndicatorSpec(draw(st.sampled_from(list(IndicatorKind))),
                         draw(st.integers(1, 3)), Y,
                         draw(st.sampled_from([0, 1])))
    if spec.kind is IndicatorKind.DIACHRONOUS:
        cit_keys = [(Y + spec.s + i, Y) for i in range(spec.n)]
    else:
        cit_keys = [(Y, y) for y in denominator_years(spec)]

    def journal(name):
        return JournalData(
            name,
            {y: draw(st.integers(1, 30)) for y in denominator_years(spec)},
            {key: draw(st.integers(0, 60)) for key in cit_keys})

    left, right = journal("L"), journal("R")
    assume(compute(left, spec) != compute(right, spec))
    return left, right, spec


@settings(max_examples=150, deadline=None)
@given(pair=strictly_ordered_pairs())
def test_min_reversal_k_matches_scan_oracle(pair):
    # independent oracle: the plain k = 1..k_max scan, for every year
    left, right, spec = pair
    k_max, far = 30, 200
    gap = compute(left, spec) - compute(right, spec)
    # one pass solves every year, the same in both orientations
    thresholds = _thresholds(left, right, spec)
    assert list(thresholds) == list(denominator_years(spec))
    assert _thresholds(right, left, spec) == thresholds
    for year in denominator_years(spec):
        flips = [k for k in range(1, k_max + 1)
                 if _flips(left, right, spec, year, k)]
        assert min_reversal_k(left, right, spec, year, k_max) \
            == (flips[0] if flips else None)
        k = thresholds[year]
        if k is not None:
            assert _flips(left, right, spec, year, k)
            assert k == 1 or not _flips(left, right, spec, year, k - 1)
        elif spec.kind is IndicatorKind.SYNC_AOR:
            # None means never: the quadratic's leading coefficient (the
            # other years' share of the gap) cannot pull Q across zero
            other = sum(
                Fraction(left.cits.get((Y, y), 0), left.pubs[y])
                - Fraction(right.cits.get((Y, y), 0), right.pubs[y])
                for y in denominator_years(spec) if y != year)
            assert other * gap >= 0
            assert not any(_flips(left, right, spec, year, k)
                           for k in range(k_max + 1, far + 1))
        else:
            # None means never: the citation gap does not oppose the order
            slope = sum(left.cits.values()) - sum(right.cits.values())
            assert slope * gap >= 0


# --- equal-publications preservation ----------------------------------------

def test_equal_pubs_preserved_example():
    j = JournalData("J", {Y - 1: 10, Y - 2: 10},
                    {(Y, Y - 1): 30, (Y, Y - 2): 30})
    jp = JournalData("J'", {Y - 1: 10, Y - 2: 10},
                     {(Y, Y - 1): 20, (Y, Y - 2): 20})
    verdict = equal_pubs_preserved(j, jp, ROA2, Injection.single(Y - 1, 25))
    assert verdict.tag is VerdictTag.PRESERVED
    assert verdict.before == (Ratio(3), Ratio(2))
    assert verdict.after == (Ratio(60, 45), Ratio(40, 45))


def test_equal_pubs_requires_equal_vectors(roa_pair):
    j, jp = roa_pair
    with pytest.raises(PreconditionViolated):
        equal_pubs_preserved(j, jp, ROA2, Injection.single(Y - 1, 5))


def test_equal_pubs_requires_strict_ordering():
    j = JournalData("J", {Y - 1: 5, Y - 2: 5}, {(Y, Y - 1): 7})
    twin = JournalData("J2", dict(j.pubs), dict(j.cits))
    with pytest.raises(PreconditionViolated):
        equal_pubs_preserved(j, twin, ROA2, Injection.single(Y - 1, 3))


def test_equal_pubs_rejects_other_kinds(aor_pair):
    j, jp = aor_pair
    with pytest.raises(PreconditionViolated):
        equal_pubs_preserved(j, jp, AOR2, Injection.single(Y - 1, 10))


def test_equal_pubs_randomized_trials():
    rng = random.Random(20260823)
    checked = 0
    while checked < 2000:
        n = rng.randint(1, 4)
        pubs = {Y - i: rng.randint(1, 50) for i in range(1, n + 1)}
        left = JournalData("L", pubs, {
            (Y, Y - i): rng.randint(0, 200) for i in range(1, n + 1)})
        right = JournalData("R", pubs, {
            (Y, Y - i): rng.randint(0, 200) for i in range(1, n + 1)})
        spec = IndicatorSpec(IndicatorKind.SYNC_ROA, n, Y)
        if compute(left, spec) == compute(right, spec):
            continue
        inj = Injection.single(Y - rng.randint(1, n), rng.randint(1, 50))
        verdict = equal_pubs_preserved(left, right, spec, inj)
        assert verdict.tag is not VerdictTag.REVERSED
        checked += 1


# --- miner -----------------------------------------------------------------

def test_miner_rediscovers_roa_reversal():
    bounds = SearchBounds(n=2, pub_max=30, cit_max=60, k_max=25,
                          target_year=Y)
    witnesses = mine_counterexamples(IndicatorKind.SYNC_ROA, bounds, 5)
    assert witnesses
    for witness in witnesses:
        assert witness.verdict.tag is VerdictTag.REVERSED
        assert witness.verify()


def test_miner_finds_aor_reversals():
    bounds = SearchBounds(n=2, pub_max=4, cit_max=8, k_max=4, target_year=Y)
    witnesses = mine_counterexamples(IndicatorKind.SYNC_AOR, bounds, 10)
    assert witnesses
    assert all(w.verify() for w in witnesses)


def test_miner_finds_diachronous_reversals():
    bounds = SearchBounds(n=2, pub_max=8, cit_max=8, k_max=8, target_year=Y)
    witnesses = mine_counterexamples(IndicatorKind.DIACHRONOUS, bounds, 3)
    assert witnesses
    assert all(w.verify() for w in witnesses)


def test_every_mined_witness_verifies():
    bounds = SearchBounds(n=2, pub_max=2, cit_max=4, k_max=4, target_year=Y)
    witnesses = mine_counterexamples(IndicatorKind.SYNC_AOR, bounds, 10**6)
    assert len(witnesses) == 3804
    assert all(w.verify() for w in witnesses)


@pytest.mark.parametrize("kind, pub_max, cit_max, k_max, journals", [
    # the benchmark's mine boxes: 596 journals for 4,146 pairs
    ("sync-roa", 2, 5, 6, 158),
    ("diachronous", 4, 6, 4, 256),
    ("sync-aor", 2, 4, 4, 182),
])
def test_miner_builds_each_vector_once(monkeypatch, kind, pub_max, cit_max,
                                       k_max, journals):
    calls = []
    build = consistency._journal

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(consistency, "_journal", counted)
    bounds = SearchBounds(n=2, pub_max=pub_max, cit_max=cit_max,
                          k_max=k_max, target_year=Y)
    # the dicts hold every object, so no id is reused while they are read
    by_vector, by_addition = {}, {}
    pairs = set()
    for left, right, injection, _ in consistency._witnesses(
            IndicatorKind(kind), bounds, False):
        pairs.add((id(left), id(right)))
        for data in (left, right):
            key = (data.journal_id, tuple(data.pubs.items()),
                   tuple(data.cits.items()))
            assert by_vector.setdefault(key, data) is data
        assert by_addition.setdefault(injection.additions,
                                      injection) is injection
    assert len(calls) == len(by_vector) == journals < 2 * len(pairs)
    assert len(by_addition) <= 2 * k_max


@pytest.mark.parametrize("kind", ["sync-roa", "diachronous", "sync-aor"])
def test_mined_journals_match_checked_construction(monkeypatch, kind):
    # _journal skips the count rules and hands its dicts over uncopied;
    # each journal it builds equals the checked constructor's and holds
    # no zero entry, though the box's citation vectors hold zeros
    built = []
    build = consistency._journal

    def kept(*args):
        built.append((args, build(*args)))
        return built[-1][1]

    monkeypatch.setattr(consistency, "_journal", kept)
    bounds = SearchBounds(n=2, pub_max=3, cit_max=3, k_max=4, target_year=Y)
    yielded = [data for *pair, _, _ in consistency._witnesses(
                   IndicatorKind(kind), bounds, False)
               for data in pair]
    # both lists hold their objects, so no id is reused
    assert {id(data) for data in yielded} <= {id(data) for _, data in built}
    assert any(0 in cits_vec for (*_, cits_vec), _ in built)
    for (name, years, pubs_vec, cells, cits_vec), data in built:
        assert all(data.pubs.values()) and all(data.cits.values())
        assert data == JournalData(name, dict(zip(years, pubs_vec)),
                                   dict(zip(cells, cits_vec)))


@pytest.mark.parametrize("kind, pub_max, cit_max, k_max, evaluations", [
    # the benchmark's mine boxes: 3,869 values for 15,226 witnesses
    ("sync-roa", 2, 5, 6, 1628),
    ("diachronous", 4, 6, 4, 1121),
    ("sync-aor", 2, 4, 4, 1120),
])
def test_miner_evaluates_each_value_once(monkeypatch, kind, pub_max, cit_max,
                                         k_max, evaluations):
    calls = []
    evaluate = consistency._evaluate

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(consistency, "_evaluate", counted)
    bounds = SearchBounds(n=2, pub_max=pub_max, cit_max=cit_max,
                          k_max=k_max, target_year=Y)
    # the list holds every journal, so their ids are distinct
    witnesses = list(consistency.iter_counterexamples(IndicatorKind(kind),
                                                      bounds))
    journals = {id(data) for w in witnesses
                for data in (w.scenario.left, w.scenario.right)}
    afters = {(id(data), w.scenario.injection.additions) for w in witnesses
              for data in (w.scenario.left, w.scenario.right)}
    # one "before" per journal and one "after" per (journal, injection)
    assert len(calls) == len(journals) + len(afters) == evaluations


@pytest.mark.parametrize("bounds, equal_pubs, witnesses, verifiers", [
    # the exhausted sync-aor bench box: one verifier for every witness
    (SearchBounds(n=2, pub_max=2, cit_max=4, k_max=4, target_year=Y),
     False, 3804, 1),
    # refused before anything is built: a box of 3 ** 12 citation
    # vectors, or an equal_pubs that is not a bool
    (SearchBounds(n=12, pub_max=1, cit_max=2, k_max=2, target_year=Y),
     False, None, 0),
    (SearchBounds(n=2, pub_max=2, cit_max=4, k_max=4, target_year=Y),
     1, None, 0),
], ids=["exhausted-box", "oversized-box", "equal-pubs-not-bool"])
def test_miner_builds_one_verifier_per_box(monkeypatch, bounds, equal_pubs,
                                           witnesses, verifiers):
    calls = []
    build = consistency._verifier

    def counted(spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(consistency, "_verifier", counted)
    if witnesses is None:
        with pytest.raises(ValidationError):
            mine_counterexamples(IndicatorKind.SYNC_AOR, bounds, 10**6,
                                 equal_pubs=equal_pubs)
    else:
        assert len(mine_counterexamples(IndicatorKind.SYNC_AOR, bounds,
                                        10**6, equal_pubs=equal_pubs)) \
            == witnesses
    assert len(calls) == verifiers


def test_verifier_holds_what_it_memoises():
    # each pair is a fresh deep copy, dropped once verified, so its
    # journals' ids are free for the next copy's journals to take
    bounds = SearchBounds(n=2, pub_max=2, cit_max=4, k_max=4, target_year=Y)
    witnesses = mine_counterexamples(IndicatorKind.SYNC_AOR, bounds, 500)
    verify = _verifier(witnesses[0].scenario.spec)
    for witness in witnesses:
        scenario = copy.deepcopy(witness.scenario)
        assert verify(scenario.left, scenario.right, scenario.injection) \
            == check_z_consistency(scenario) == witness.verdict
        del scenario


@pytest.mark.parametrize("kind, bounds, message", [
    # exactly _MAX_VECTORS vectors of each side are mined
    (IndicatorKind.SYNC_AOR, SearchBounds(5, 10, 1, 1), None),
    (IndicatorKind.DIACHRONOUS, SearchBounds(1, 1, 10**5 - 1, 1), None),
    # one more is refused
    (IndicatorKind.DIACHRONOUS, SearchBounds(1, 10**5 + 1, 1, 1),
     "publication vectors, pub_max ** 1"),
    (IndicatorKind.DIACHRONOUS, SearchBounds(1, 1, 10**5, 1),
     "citation vectors, (cit_max + 1) ** 1"),
    # a huge base is clipped before its power is taken
    (IndicatorKind.SYNC_ROA, SearchBounds(3, 10**100000, 1, 1),
     "publication vectors, pub_max ** 3"),
], ids=["pubs-at-limit", "cits-at-limit", "pubs-over", "cits-over",
        "huge-base"])
def test_box_size_boundary(kind, bounds, message):
    witnesses = consistency.iter_counterexamples(kind, bounds)
    if message is None:
        next(witnesses, None)
    else:
        with pytest.raises(ValidationError) as exc_info:
            next(witnesses)
        assert str(exc_info.value) \
            == f"the box holds more than {consistency._MAX_VECTORS} {message}"


def test_first_witness_builds_few_injections(monkeypatch):
    # the box's first pair reverses at both years for every k from 2 to
    # k_max, so a list of its injections would hold 2 * (10**6 - 1)
    built = []
    single = Injection.single

    def counted(year, k):
        built.append((year, k))
        assert len(built) <= 4, "injections built ahead of use"
        return single(year, k)

    monkeypatch.setattr(Injection, "single", staticmethod(counted))
    bounds = SearchBounds(n=2, pub_max=2, cit_max=5, k_max=10**6,
                          target_year=Y)
    witness = next(consistency.iter_counterexamples(IndicatorKind.SYNC_ROA,
                                                    bounds))
    assert witness.verify()
    assert built == [witness.scenario.injection.additions[0]]


def test_miner_deterministic():
    bounds = SearchBounds(n=2, pub_max=4, cit_max=8, k_max=4, target_year=Y)
    first = mine_counterexamples(IndicatorKind.SYNC_AOR, bounds, 8)
    second = mine_counterexamples(IndicatorKind.SYNC_AOR, bounds, 8)
    assert first == second


def test_miner_equal_pubs_roa_is_empty():
    bounds = SearchBounds(n=2, pub_max=5, cit_max=8, k_max=5, target_year=Y)
    assert mine_counterexamples(IndicatorKind.SYNC_ROA, bounds, 100,
                                equal_pubs=True) == []


@pytest.mark.parametrize("flag", ["no", "", 1, 0, None])
def test_miner_equal_pubs_must_be_a_bool(flag):
    # read as a truth value, 'no' would mine only the box's 680
    # equal-publication witnesses, not its 3,804
    bounds = SearchBounds(n=2, pub_max=2, cit_max=4, k_max=4, target_year=Y)
    message = f"equal_pubs must be a bool, got {flag!r}"
    witnesses = consistency.iter_counterexamples(IndicatorKind.SYNC_AOR,
                                                 bounds, equal_pubs=flag)
    for take in (lambda: next(witnesses),
                 lambda: mine_counterexamples(IndicatorKind.SYNC_AOR, bounds,
                                              10**6, equal_pubs=flag)):
        with pytest.raises(ValidationError) as exc_info:
            take()
        assert str(exc_info.value) == message
    assert [len(mine_counterexamples(IndicatorKind.SYNC_AOR, bounds, 10**6,
                                     equal_pubs=equal))
            for equal in (True, False)] == [680, 3804]


def test_miner_canonical_orientation():
    # mirrored duplicates pruned: every witness starts strictly below
    bounds = SearchBounds(n=2, pub_max=4, cit_max=8, k_max=4, target_year=Y)
    for witness in mine_counterexamples(IndicatorKind.SYNC_AOR, bounds, 10):
        assert witness.verdict.before[0] < witness.verdict.before[1]


def _plain_value(kind, pubs_vec, cits_vec):
    # textbook definitions over the window's own entries
    if kind is IndicatorKind.SYNC_AOR:
        return sum(Fraction(c, p) for p, c in zip(pubs_vec, cits_vec)) \
            / len(pubs_vec)
    return Fraction(sum(cits_vec), sum(pubs_vec))


_ROA3 = ((Y - 3, Y - 2, Y - 1), ((Y, Y - 3), (Y, Y - 2), (Y, Y - 1)))


@pytest.mark.parametrize("kind, n, s, pub_years, cit_keys, box, equal_pubs", [
    (IndicatorKind.SYNC_ROA, 2, 0, (Y - 2, Y - 1), ((Y, Y - 2), (Y, Y - 1)),
     (2, 4, 3), False),
    (IndicatorKind.DIACHRONOUS, 2, 0, (Y,), ((Y, Y), (Y + 1, Y)),
     (2, 4, 3), False),
    (IndicatorKind.DIACHRONOUS, 2, 1, (Y,), ((Y + 1, Y), (Y + 2, Y)),
     (2, 4, 3), False),
    # sync-aor reverses inside a window of k; unlike the box above, this
    # one has windows that close before k_max, exercising both roots
    (IndicatorKind.SYNC_AOR, 2, 0, (Y - 2, Y - 1), ((Y, Y - 2), (Y, Y - 1)),
     (3, 4, 5), False),
    (IndicatorKind.SYNC_AOR, 2, 0, (Y - 2, Y - 1), ((Y, Y - 2), (Y, Y - 1)),
     (3, 4, 5), True),
    (IndicatorKind.SYNC_ROA, 3, 0, *_ROA3, (2, 2, 2), False),
    (IndicatorKind.DIACHRONOUS, 3, 0, (Y,), ((Y, Y), (Y + 1, Y), (Y + 2, Y)),
     (2, 2, 2), False),
    (IndicatorKind.SYNC_AOR, 3, 0, *_ROA3, (2, 2, 2), False),
], ids=["sync-roa", "diachronous-s0", "diachronous-s1", "sync-aor",
        "sync-aor-equal-pubs", "sync-roa-n3", "diachronous-n3",
        "sync-aor-n3"])
def test_miner_matches_naive_enumeration(kind, n, s, pub_years, cit_keys,
                                         box, equal_pubs):
    # independent oracle: brute-force the same tiny box with plain
    # Fraction arithmetic and compare
    pub_max, cit_max, k_max = box
    bounds = SearchBounds(n=n, pub_max=pub_max, cit_max=cit_max,
                          k_max=k_max, target_year=Y, s=s)
    spec = IndicatorSpec(kind, n, Y, s)
    ks = range(1, k_max + 1)
    vecs = [(p, c)
            for p in product(range(1, pub_max + 1), repeat=len(pub_years))
            for c in product(range(cit_max + 1), repeat=len(cit_keys))]
    before = {v: _plain_value(kind, *v) for v in vecs}
    after = {(v, j, k): _plain_value(
                 kind, v[0][:j] + (v[0][j] + k,) + v[0][j + 1:], v[1])
             for v in vecs for j in range(len(pub_years)) for k in ks}
    expected = []
    closed_windows = 0  # pair-years whose reversing k stop before k_max
    for lv in vecs:
        for rv in vecs:
            if equal_pubs and rv[0] != lv[0] or not before[lv] < before[rv]:
                continue
            for j, inj_year in enumerate(pub_years):
                flips = [k for k in ks if after[lv, j, k] > after[rv, j, k]]
                closed_windows += bool(flips) and flips[-1] < k_max
                expected += [PairScenario(
                    JournalData("L", dict(zip(pub_years, lv[0])),
                                dict(zip(cit_keys, lv[1]))),
                    JournalData("R", dict(zip(pub_years, rv[0])),
                                dict(zip(cit_keys, rv[1]))),
                    spec, Injection.single(inj_year, k)) for k in flips]
    mined = mine_counterexamples(kind, bounds, 10**6, equal_pubs=equal_pubs)
    assert expected
    assert [w.scenario for w in mined] == expected
    if kind is IndicatorKind.SYNC_AOR and not equal_pubs and n == 2:
        # with equal publications one root is k = -p, so no window closes;
        # in the n = 3 box the counts are too small for one to close
        assert closed_windows


def test_monotone_flip_on_scanned_instances(roa_pair):
    # sign of (left - right) changes at most once as k grows
    rng = random.Random(7)
    for _ in range(200):
        pubs_l = {Y - 1: rng.randint(1, 15), Y - 2: rng.randint(1, 15)}
        pubs_r = {Y - 1: rng.randint(1, 15), Y - 2: rng.randint(1, 15)}
        left = JournalData("L", pubs_l,
                           {(Y, Y - 1): rng.randint(0, 30),
                            (Y, Y - 2): rng.randint(0, 30)})
        right = JournalData("R", pubs_r,
                            {(Y, Y - 1): rng.randint(0, 30),
                             (Y, Y - 2): rng.randint(0, 30)})
        signs = []
        for k in range(0, 31):
            injected_l = apply_injection(left, Injection.single(Y - 1, k)) \
                if k else left
            injected_r = apply_injection(right, Injection.single(Y - 1, k)) \
                if k else right
            diff = sync_if_roa(injected_l, Y, 2) - sync_if_roa(injected_r, Y, 2)
            signs.append(0 if diff == 0 else (1 if diff > 0 else -1))
        strict_signs = [s for s in signs if s != 0]
        changes = sum(1 for a, b in zip(strict_signs, strict_signs[1:])
                      if a != b)
        assert changes <= 1


# --- self-checks under python -O ---------------------------------------------

_SELF_CHECK_PRELUDE = """
import sys
from types import SimpleNamespace
from impactz import *
from impactz import consistency, corpus
J = JournalData("J", {1999: 10, 1998: 10}, {(2000, 1999): 30, (2000, 1998): 30})
K = JournalData("K", {1999: 10, 1998: 10}, {(2000, 1999): 20, (2000, 1998): 20})
L = JournalData("L", {1999: 30, 1998: 30}, {(2000, 1999): 60, (2000, 1998): 60})
ROA2 = IndicatorSpec(IndicatorKind.SYNC_ROA, 2, 2000)
print(f"optimize={sys.flags.optimize}", end=" ")
try:
"""


@pytest.mark.parametrize("fault", [
    # the miner takes every pair-year for one that reverses at k = 1
    "consistency._reversing_ks = lambda den, left, right: (1, 1)\n"
    "next(consistency.iter_counterexamples(IndicatorKind.SYNC_ROA, "
    "SearchBounds(2, 2, 2, 1)))",
    # equal publication vectors come out reversed
    "consistency.check_z_consistency = lambda scenario: "
    "SimpleNamespace(tag=VerdictTag.REVERSED)\n"
    "equal_pubs_preserved(J, K, ROA2, Injection.single(1999, 1))",
    # every threshold is one too high, so k - 1 already reverses
    "real = corpus._thresholds\n"
    "corpus._thresholds = lambda *args: "
    "{y: k and k + 1 for y, k in real(*args).items()}\n"
    "sensitivity_report(Corpus({'J': J, 'L': L}), ROA2, 100)",
], ids=["iter_counterexamples", "equal_pubs_preserved", "sensitivity"])
def test_self_checks_survive_python_O(fault):
    script = (_SELF_CHECK_PRELUDE
              + "".join(f"    {line}\n" for line in fault.splitlines())
              + "except AssertionError:\n    print('raised')\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "optimize=1 raised\n"), \
        result.stderr
