"""Exact-arithmetic journal impact-factor indicators with a
Z-consistency auditor."""

from .consistency import (
    InvalidTargetYear,
    PairScenario,
    PreconditionViolated,
    ReversalWitness,
    SearchBounds,
    Verdict,
    VerdictTag,
    check_z_consistency,
    equal_pubs_preserved,
    mine_counterexamples,
    min_reversal_k,
)
from .core import (
    IndicatorKind,
    IndicatorSpec,
    Injection,
    JournalData,
    ValidationError,
    ZeroDenominator,
    apply_injection,
    cit_count,
    compute,
    denominator_years,
    diachronous_imp,
    pub_count,
    sync_if_aor,
    sync_if_roa,
)
from .corpus import (
    Corpus,
    ParseError,
    Ranking,
    RankingEntry,
    SensitivityRow,
    corpus_from_json,
    corpus_to_json,
    load_corpus,
    rank,
    sensitivity_report,
)
from .ratio import Ratio, format_exact, to_decimal

__all__ = [
    "Corpus", "IndicatorKind", "IndicatorSpec", "Injection",
    "InvalidTargetYear", "JournalData", "PairScenario",
    "PreconditionViolated", "ParseError", "Ranking", "RankingEntry",
    "Ratio", "ReversalWitness", "SearchBounds", "SensitivityRow",
    "ValidationError", "Verdict", "VerdictTag", "ZeroDenominator",
    "apply_injection", "check_z_consistency", "cit_count", "compute",
    "corpus_from_json", "corpus_to_json", "denominator_years",
    "diachronous_imp", "equal_pubs_preserved", "format_exact",
    "load_corpus", "mine_counterexamples", "min_reversal_k", "pub_count",
    "rank", "sensitivity_report", "sync_if_aor", "sync_if_roa",
    "to_decimal",
]
