from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from impactz import (
    Corpus,
    IndicatorKind,
    IndicatorSpec,
    Injection,
    InvalidTargetYear,
    JournalData,
    PreconditionViolated,
    Ratio,
    SearchBounds,
    ValidationError,
    ZeroDenominator,
    apply_injection,
    cit_count,
    compute,
    denominator_years,
    diachronous_imp,
    equal_pubs_preserved,
    mine_counterexamples,
    min_reversal_k,
    pub_count,
    sensitivity_report,
    sync_if_aor,
    sync_if_roa,
)
from impactz.core import window

from conftest import Y


# --- lookups -------------------------------------------------------------

def test_pub_count(roa_pair, aor_pair):
    j, _ = roa_pair
    assert pub_count(j, Y - 1) == 10
    assert pub_count(j, 1234) == 0
    _, jp = aor_pair
    assert pub_count(jp, Y - 2) == 20


def test_cit_count(roa_pair, diachronous_pair):
    j, _ = roa_pair
    assert cit_count(j, Y, Y - 1) == 30
    assert cit_count(j, Y, 1234) == 0
    _, jp = diachronous_pair
    assert cit_count(jp, Y + 2, Y) == 60


# --- construction invariants ---------------------------------------------

def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        JournalData("X", {Y: -1}, {})
    with pytest.raises(ValueError):
        JournalData("X", {Y: 1}, {(Y, Y - 1): -2})


def test_backward_citation_rejected():
    with pytest.raises(ValueError):
        JournalData("X", {}, {(Y - 1, Y): 5})


def test_same_year_citation_allowed():
    data = JournalData("X", {Y: 1}, {(Y, Y): 3})
    assert cit_count(data, Y, Y) == 3


# --- synchronous RoA -----------------------------------------------------

def test_sync_roa_published_values(roa_pair):
    j, jp = roa_pair
    assert sync_if_roa(j, Y, 2) == Ratio(3)
    assert sync_if_roa(jp, Y, 2) == Ratio(2)


def test_sync_roa_after_uncited_injection(roa_pair):
    j, _ = roa_pair
    diluted = apply_injection(j, Injection.single(Y - 1, 25))
    assert sync_if_roa(diluted, Y, 2) == Ratio(60, 45) == Ratio(4, 3)


def test_sync_roa_zero_citations():
    data = JournalData("X", {Y - 1: 5, Y - 2: 5}, {})
    assert sync_if_roa(data, Y, 2) == Ratio(0)


def test_sync_roa_empty_window_raises():
    data = JournalData("X", {Y: 5}, {})
    with pytest.raises(ZeroDenominator):
        sync_if_roa(data, Y, 2)


# --- synchronous AoR -----------------------------------------------------

def test_sync_aor_published_values(aor_pair):
    j, jp = aor_pair
    assert sync_if_aor(j, Y, 2) == Ratio(13, 6)
    assert sync_if_aor(jp, Y, 2) == Ratio(9, 4)


def test_sync_aor_after_injection(aor_pair):
    _, jp = aor_pair
    diluted = apply_injection(jp, Injection.single(Y - 1, 10))
    assert sync_if_aor(diluted, Y, 2) == Ratio(7, 4)


def test_sync_aor_zero_citations():
    data = JournalData("X", {Y - 1: 3, Y - 2: 7}, {})
    assert sync_if_aor(data, Y, 2) == Ratio(0)


def test_sync_aor_zero_pub_year_identified():
    data = JournalData("X", {Y - 1: 3}, {(Y, Y - 1): 5})
    with pytest.raises(ZeroDenominator) as exc_info:
        sync_if_aor(data, Y, 2)
    assert exc_info.value.year == Y - 2


# --- diachronous ---------------------------------------------------------

def test_diachronous_published_values(diachronous_pair):
    j, jp = diachronous_pair
    assert diachronous_imp(j, Y, 3, 0) == Ratio(3)
    assert diachronous_imp(jp, Y, 3, 0) == Ratio(2)


def test_diachronous_after_injection(diachronous_pair):
    _, jp = diachronous_pair
    diluted = apply_injection(jp, Injection.single(Y, 25))
    assert diachronous_imp(diluted, Y, 3, 0) == Ratio(120, 85) == Ratio(24, 17)


def test_diachronous_s_shifts_window():
    data = JournalData("X", {Y: 10},
                       {(Y, Y): 5, (Y + 1, Y): 7, (Y + 2, Y): 9})
    assert diachronous_imp(data, Y, 2, 0) == Ratio(12, 10)
    assert diachronous_imp(data, Y, 2, 1) == Ratio(16, 10)


def test_diachronous_trivial_zero():
    data = JournalData("X", {Y: 4}, {})
    assert diachronous_imp(data, Y, 1, 0) == Ratio(0)


def test_diachronous_no_pubs_raises():
    with pytest.raises(ZeroDenominator):
        diachronous_imp(JournalData("X", {}, {}), Y, 3, 0)


# --- injections ----------------------------------------------------------

def test_apply_injection_adds_pubs_only(roa_pair):
    j, _ = roa_pair
    after = apply_injection(j, Injection.single(Y - 1, 25))
    assert after.pubs == {Y - 1: 35, Y - 2: 10}
    assert after.cits == j.cits
    assert j.pubs == {Y - 1: 10, Y - 2: 10}  # input untouched


def test_empty_injection_is_identity(roa_pair):
    j, _ = roa_pair
    assert apply_injection(j, Injection([])) == j


def test_duplicate_injection_years_sum():
    data = JournalData("X", {}, {})
    after = apply_injection(data, Injection([(Y, 3), (Y, 4)]))
    assert pub_count(after, Y) == 7


def test_injection_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        Injection([(Y, 0)])


# --- dispatch ------------------------------------------------------------

def test_compute_dispatch(roa_pair, aor_pair, diachronous_pair):
    j_roa, _ = roa_pair
    _, jp_aor = aor_pair
    j_dia, _ = diachronous_pair
    assert compute(j_roa, IndicatorSpec(IndicatorKind.SYNC_ROA, 2, Y)) \
        == Ratio(3)
    assert compute(jp_aor, IndicatorSpec(IndicatorKind.SYNC_AOR, 2, Y)) \
        == Ratio(9, 4)
    assert compute(j_dia,
                   IndicatorSpec(IndicatorKind.DIACHRONOUS, 3, Y, 0)) \
        == Ratio(3)


def test_spec_normalizes_s_for_synchronous():
    spec = IndicatorSpec(IndicatorKind.SYNC_ROA, 2, Y, 1)
    assert spec.s == 0
    assert IndicatorSpec(IndicatorKind.DIACHRONOUS, 2, Y, 1).s == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        IndicatorSpec(IndicatorKind.SYNC_ROA, 0, Y)
    with pytest.raises(ValueError):
        IndicatorSpec(IndicatorKind.DIACHRONOUS, 2, Y, 2)


def test_spec_takes_the_longest_window():
    data = JournalData("J", {y: 1 for y in range(Y - 100, Y)}, {(Y, Y - 1): 5})
    for kind in IndicatorKind:
        spec = IndicatorSpec(kind, 100, Y)
        assert spec.n == 100
        assert len(window(spec)[1]) == 100
    assert compute(data, IndicatorSpec(IndicatorKind.SYNC_ROA, 100, Y)) \
        == Ratio(5, 100)


_ROA, _DIA = IndicatorKind.SYNC_ROA, IndicatorKind.DIACHRONOUS
_J = JournalData("J", {Y - 1: 2, Y - 2: 2}, {(Y, Y - 1): 1})
_K = JournalData("K", {Y - 1: 1, Y - 2: 1}, {(Y, Y - 1): 3})


@pytest.mark.parametrize("args, message", [
    # every integer field follows the count rule: no float, str or bool
    ((IndicatorSpec, _ROA, 2.0, Y),
     "window length must be an integer, got 2.0"),
    ((IndicatorSpec, _ROA, "2", Y),
     "window length must be an integer, got '2'"),
    ((IndicatorSpec, _ROA, True, Y),
     "window length must be an integer, got True"),
    ((IndicatorSpec, _ROA, 2, float(Y)),
     "target year must be an integer, got 2000.0"),
    ((IndicatorSpec, _DIA, 2, Y, True), "s must be an integer, got True"),
    ((IndicatorSpec, _ROA, 2, Y, 1.0), "s must be an integer, got 1.0"),
    ((SearchBounds, 2.5, 2, 2, 2), "n must be an integer, got 2.5"),
    ((SearchBounds, 2, "2", 2, 2), "pub_max must be an integer, got '2'"),
    ((SearchBounds, 2, 2, True, 2), "cit_max must be an integer, got True"),
    ((SearchBounds, 2, 2, 2, 2.0), "k_max must be an integer, got 2.0"),
    ((SearchBounds, 2, 2, 2, 2, "2000"),
     "target_year must be an integer, got '2000'"),
    ((SearchBounds, 2, 2, 2, 2, Y, False), "s must be an integer, got False"),
    # the range rules keep their messages
    ((IndicatorSpec, _ROA, 0, Y), "window length must be >= 1, got 0"),
    ((IndicatorSpec, _ROA, 101, Y), "window length must be <= 100, got 101"),
    ((IndicatorSpec, _DIA, 2, Y, 2), "s must be 0 or 1, got 2"),
    ((SearchBounds, 2, 2, 0, 2), "cit_max must be >= 1, got 0"),
    ((SearchBounds, 0, 2, 2, 2), "n must be >= 1, got 0"),
    ((SearchBounds, 2, 2, 2, -1), "k_max must be >= 1, got -1"),
    ((Injection.single, Y, 0),
     f"injection ({Y}, 0): count must be >= 1, got 0"),
    # where two fields break a rule, the first field's fault is reported
    ((IndicatorSpec, _ROA, 0, float(Y)), "window length must be >= 1, got 0"),
    ((SearchBounds, 0, 2, 2.5, 2), "n must be >= 1, got 0"),
    # a kind is an IndicatorKind, not its value string
    ((IndicatorSpec, "sync-roa", 2, Y),
     "kind must be an IndicatorKind, got 'sync-roa'"),
    ((IndicatorSpec, None, 2, Y), "kind must be an IndicatorKind, got None"),
    ((mine_counterexamples, "sync-aor", SearchBounds(2, 2, 3, 3), 2),
     "kind must be an IndicatorKind, got 'sync-aor'"),
    # the library's k_max and limit are integers >= 1, like the CLI's
    *(((call, *args, k_max), message)
      for call, args in (
          (min_reversal_k, (_J, _K, IndicatorSpec(_ROA, 2, Y), Y - 1)),
          # one journal, no pair: the report checks k_max itself
          (sensitivity_report, (Corpus({"J": _J}), IndicatorSpec(_ROA, 2, Y))))
      for k_max, message in (
          (0, "k_max must be >= 1, got 0"),
          (-5, "k_max must be >= 1, got -5"),
          (2.5, "k_max must be an integer, got 2.5"),
          (True, "k_max must be an integer, got True"),
          ("7", "k_max must be an integer, got '7'"),
          (None, "k_max must be an integer, got None"))),
    ((mine_counterexamples, IndicatorKind.SYNC_AOR, SearchBounds(2, 2, 3, 3),
      True), "limit must be an integer, got True"),
    ((mine_counterexamples, IndicatorKind.SYNC_AOR, SearchBounds(2, 2, 3, 3),
      2.5), "limit must be an integer, got 2.5"),
    ((mine_counterexamples, IndicatorKind.SYNC_AOR, SearchBounds(2, 2, 3, 3),
      0), "limit must be >= 1, got 0"),
])
def test_spec_and_bounds_integer_rule(args, message):
    cls, *values = args
    with pytest.raises(ValidationError) as exc_info:
        cls(*values)
    assert str(exc_info.value) == message


_BIG = 10**4301  # past CPython's 4300-digit int-to-str limit
_DIGITS = "1" + "0" * 4301


@pytest.mark.parametrize("args, error, message", [
    ((JournalData, "J", {_BIG: -1}), ValidationError,
     f"journal 'J', pubs[{_DIGITS}]: negative publication count -1"),
    ((JournalData, "J", {}, {(_BIG, 5): -1}), ValidationError,
     f"journal 'J', cits[({_DIGITS}, 5)]: negative citation count -1"),
    ((JournalData, "J", {}, {(5, _BIG): 1}), ValidationError,
     f"journal 'J', cits[(5, {_DIGITS})]: "
     f"citing year 5 precedes cited year {_DIGITS}"),
    ((JournalData, "J", {Y: -_BIG}), ValidationError,
     f"journal 'J', pubs[{Y}]: negative publication count -{_DIGITS}"),
    ((Injection, [(_BIG, 0)]), ValidationError,
     f"injection ({_DIGITS}, 0): count must be >= 1, got 0"),
    ((Injection, [(1, -_BIG)]), ValidationError,
     f"injection (1, -{_DIGITS}): count must be >= 1, got -{_DIGITS}"),
    ((IndicatorSpec, _ROA, -_BIG, Y), ValidationError,
     f"window length must be >= 1, got -{_DIGITS}"),
    ((IndicatorSpec, _ROA, _BIG, Y), ValidationError,
     f"window length must be <= 100, got {_DIGITS}"),
    ((IndicatorSpec, _DIA, 2, Y, _BIG), ValidationError,
     f"s must be 0 or 1, got {_DIGITS}"),
    ((SearchBounds, 2, -_BIG, 2, 2), ValidationError,
     f"pub_max must be >= 1, got -{_DIGITS}"),
    ((min_reversal_k, _J, _K, IndicatorSpec(_ROA, 2, Y), _BIG, 5),
     InvalidTargetYear,
     f"year {_DIGITS} is not a denominator year for sync-roa n=2 at {Y}"),
    ((min_reversal_k, _J, _K, IndicatorSpec(_ROA, 2, Y), Y - 1, -_BIG),
     ValidationError, f"k_max must be >= 1, got -{_DIGITS}"),
    ((sensitivity_report, Corpus({"J": _J}), IndicatorSpec(_ROA, 2, Y), -_BIG),
     ValidationError, f"k_max must be >= 1, got -{_DIGITS}"),
    ((mine_counterexamples, IndicatorKind.SYNC_AOR, SearchBounds(2, 2, 3, 3),
      -_BIG), ValidationError, f"limit must be >= 1, got -{_DIGITS}"),
    ((equal_pubs_preserved, _J, JournalData("K", {Y - 2: 2, Y - 1: _BIG}),
      IndicatorSpec(_ROA, 2, Y), Injection.single(Y - 1, 1)),
     PreconditionViolated,
     f"publication vectors differ at year {Y - 1}: 2 vs {_DIGITS}"),
], ids=["pubs-year", "cits-citing", "cits-cited", "pubs-count",
        "injection-year", "injection-count", "spec-n", "spec-n-over", "spec-s",
        "bounds-pub_max", "target-year", "min_reversal_k-k_max",
        "sensitivity-k_max", "mine-limit", "equal-pubs"])
def test_messages_print_ints_past_the_digit_limit(args, error, message):
    # str() refuses these ints with a bare ValueError; each message
    # prints every digit, and keeps its own error class
    call, *values = args
    with pytest.raises(error) as exc_info:
        call(*values)
    assert type(exc_info.value) is error
    assert str(exc_info.value) == message


def test_denominator_years():
    assert denominator_years(IndicatorSpec(IndicatorKind.SYNC_ROA, 2, Y)) \
        == (Y - 2, Y - 1)
    assert denominator_years(
        IndicatorSpec(IndicatorKind.DIACHRONOUS, 3, Y)) == (Y,)


@pytest.mark.parametrize("kind, evaluate, message, year", [
    (IndicatorKind.SYNC_ROA, sync_if_roa,
     f"X: no publications in window {Y - 2}..{Y - 1}", None),
    # both window years are empty: the later one is reported
    (IndicatorKind.SYNC_AOR, sync_if_aor,
     f"X: no publications in year {Y - 1}", Y - 1),
    (IndicatorKind.DIACHRONOUS, diachronous_imp,
     f"X: no publications in year {Y}", Y),
])
def test_indicator_errors_per_kind(kind, evaluate, message, year):
    data = JournalData("X", {Y - 5: 4}, {(Y, Y - 5): 2})
    for call in (lambda: compute(data, IndicatorSpec(kind, 2, Y)),
                 lambda: evaluate(data, Y, 2)):
        with pytest.raises(ZeroDenominator) as exc_info:
            call()
        assert str(exc_info.value) == message
        assert exc_info.value.year == year
        assert exc_info.value.journal == "X"
    with pytest.raises(ValueError, match="window length must be >= 1"):
        evaluate(data, Y, 0)
    if kind is IndicatorKind.DIACHRONOUS:
        with pytest.raises(ValueError, match="s must be 0 or 1"):
            evaluate(data, Y, 2, 2)


# --- properties ----------------------------------------------------------

window_data = st.builds(
    lambda pubs, cits: JournalData(
        "X", {Y - 1: pubs[0], Y - 2: pubs[1]},
        {(Y, Y - 1): cits[0], (Y, Y - 2): cits[1]}),
    pubs=st.tuples(st.integers(1, 100), st.integers(1, 100)),
    cits=st.tuples(st.integers(0, 400), st.integers(0, 400)))


@given(data=window_data)
def test_exactness_against_float_evaluation(data):
    roa = sync_if_roa(data, Y, 2)
    float_roa = (cit_count(data, Y, Y - 1) + cit_count(data, Y, Y - 2)) \
        / (pub_count(data, Y - 1) + pub_count(data, Y - 2))
    assert abs(float(roa) - float_roa) < 1e-12
    aor = sync_if_aor(data, Y, 2)
    float_aor = 0.5 * (cit_count(data, Y, Y - 1) / pub_count(data, Y - 1)
                       + cit_count(data, Y, Y - 2) / pub_count(data, Y - 2))
    assert abs(float(aor) - float_aor) < 1e-12


@given(data=window_data, k=st.integers(1, 60),
       year_offset=st.sampled_from([1, 2]))
def test_roa_denominator_dilution(data, k, year_offset):
    before = sync_if_roa(data, Y, 2)
    after = sync_if_roa(
        apply_injection(data, Injection.single(Y - year_offset, k)), Y, 2)
    if before == 0:
        assert after == 0
    else:
        assert after < before


@given(data=window_data, k=st.integers(1, 60))
def test_roa_placement_indifference(data, k):
    at_recent = sync_if_roa(
        apply_injection(data, Injection.single(Y - 1, k)), Y, 2)
    at_older = sync_if_roa(
        apply_injection(data, Injection.single(Y - 2, k)), Y, 2)
    if k >= 2:
        split_injection = Injection([(Y - 1, k // 2), (Y - 2, k - k // 2)])
    else:
        split_injection = Injection([(Y - 1, k)])
    split = sync_if_roa(apply_injection(data, split_injection), Y, 2)
    assert at_recent == at_older == split


@given(data=window_data, k=st.integers(1, 60))
def test_aor_placement_changes_only_that_term(data, k):
    before_terms = [
        Fraction(cit_count(data, Y, Y - i), pub_count(data, Y - i))
        for i in (1, 2)]
    after = apply_injection(data, Injection.single(Y - 1, k))
    after_terms = [
        Fraction(cit_count(after, Y, Y - i), pub_count(after, Y - i))
        for i in (1, 2)]
    assert after_terms[1] == before_terms[1]
    assert sync_if_aor(after, Y, 2) \
        == Ratio((after_terms[0] + before_terms[1]) / 2)


@given(data=window_data, scale=st.integers(1, 20))
def test_degree_zero_homogeneity(data, scale):
    scaled = JournalData(
        "X", {y: c * scale for y, c in data.pubs.items()},
        {key: c * scale for key, c in data.cits.items()})
    assert sync_if_roa(scaled, Y, 2) == sync_if_roa(data, Y, 2)
    assert sync_if_aor(scaled, Y, 2) == sync_if_aor(data, Y, 2)


@given(p=st.integers(1, 50),
       cits=st.tuples(st.integers(0, 200), st.integers(0, 200)))
def test_roa_equals_aor_for_constant_pubs(p, cits):
    data = JournalData("X", {Y - 1: p, Y - 2: p},
                       {(Y, Y - 1): cits[0], (Y, Y - 2): cits[1]})
    assert sync_if_roa(data, Y, 2) == sync_if_aor(data, Y, 2)


@given(data=window_data, bump=st.integers(1, 50),
       year_offset=st.sampled_from([1, 2]))
def test_citation_monotonicity(data, bump, year_offset):
    key = (Y, Y - year_offset)
    bumped = JournalData(
        "X", dict(data.pubs),
        {**data.cits, key: data.cits.get(key, 0) + bump})
    assert sync_if_roa(bumped, Y, 2) >= sync_if_roa(data, Y, 2)
    assert sync_if_aor(bumped, Y, 2) >= sync_if_aor(data, Y, 2)


@settings(max_examples=50)
@given(p=st.integers(1, 30), cits=st.tuples(
    st.integers(0, 100), st.integers(0, 100), st.integers(0, 100)),
    bump=st.integers(1, 40))
def test_diachronous_citation_monotonicity(p, cits, bump):
    base = {(Y + i, Y): c for i, c in enumerate(cits)}
    data = JournalData("X", {Y: p}, base)
    bumped = JournalData("X", {Y: p},
                         {**base, (Y + 1, Y): base[(Y + 1, Y)] + bump})
    assert diachronous_imp(bumped, Y, 3, 0) >= diachronous_imp(data, Y, 3, 0)
