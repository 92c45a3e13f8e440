"""Seeded input generators for the four benchmark workloads.

Every generator takes a ``random.Random`` built from the workload name and
the ``--seed`` value, so one seed always yields the same bytes.  Sizes are
fixed per workload and only values move with the seed, so the amount of
work the program does is the same for every seed:

* ingest: a fixed heavy-tailed profile of journal lifetimes is dealt out
  to shuffled journal ids, so the CSV row count never changes;
* rank: fixed counts of tie-prone small journals, large journals and
  uncomputable journals;
* sensitivity: a ranked chain whose adjacent pairs are built, by
  rejection sampling, to reverse at a small k or never within k_max,
  in fixed proportions;
* mine: fixed boxes; the seed only moves the year labels, one of
  MINE_YEARS target years.
"""

from __future__ import annotations

import math
import os
import string
from fractions import Fraction

import oracle

TARGET_YEAR = 2010

# ingest-compute
INGEST_JOURNALS = 3000
INGEST_MIN_YEARS = 5
INGEST_MAX_YEARS = 40
INGEST_CITE_WINDOW = 3

# rank-ties
RANK_JOURNALS = 1200
RANK_SMALL = 780
RANK_UNCOMPUTABLE = 36

# sensitivity-scan
SENS_JOURNALS = 100
SENS_N = 2
SENS_K_MAX = 100
SENS_SMALL_K = 12
SENS_PUB_RANGE = (20, 150)
SENS_START_VALUE = 8

# mine-exhaust: (kind, n, pub_max, cit_max, k_max, witnesses on the seed
# commit).  The witness count does not depend on the target year.
MINE_BOXES = (
    ("sync-roa", 2, 2, 5, 6, 5882),
    ("diachronous", 2, 4, 6, 4, 5540),
    ("sync-aor", 2, 2, 4, 4, 3804),
)
MINE_LIMIT = 1_000_000
MINE_FIRST_YEAR = 1990
MINE_YEARS = 20

_ID_ALPHABET = string.ascii_uppercase + string.digits


def journal_ids(rng, count: int) -> list[str]:
    ids: set[str] = set()
    while len(ids) < count:
        ids.add("J" + "".join(rng.choice(_ID_ALPHABET) for _ in range(7)))
    out = sorted(ids)
    rng.shuffle(out)
    return out


def write_corpus(directory: str, stem: str,
                 journals: dict[str, tuple[dict, dict]]) -> tuple[str, str, dict]:
    """Write ``stem.pubs.csv`` / ``stem.cits.csv``; return paths and sizes."""
    pub_lines = ["journal,year,pubs"]
    cit_lines = ["journal,citing_year,cited_year,count"]
    for jid, (pubs, cits) in journals.items():
        pub_lines.extend(f"{jid},{year},{count}" for year, count in pubs.items())
        cit_lines.extend(f"{jid},{citing},{cited},{count}"
                         for (citing, cited), count in cits.items())
    paths = []
    size = 0
    for suffix, lines in (("pubs", pub_lines), ("cits", cit_lines)):
        path = os.path.join(directory, f"{stem}.{suffix}.csv")
        data = ("\n".join(lines) + "\n").encode()
        with open(path, "wb") as fh:
            fh.write(data)
        size += len(data)
        paths.append(path)
    sizes = {"journals": len(journals),
             "csv_rows": len(pub_lines) + len(cit_lines) - 2,
             "csv_bytes": size}
    return paths[0], paths[1], sizes


def ingest_corpus(rng) -> dict[str, tuple[dict, dict]]:
    """Heavy-tailed journal lifetimes and sizes; every journal publishes in
    each year from its start to TARGET_YEAR + 2, so all three kinds are
    computable for every journal."""
    last = TARGET_YEAR + 2
    count = INGEST_JOURNALS
    lifetimes = [
        min(INGEST_MAX_YEARS,
            INGEST_MIN_YEARS + int(2 * (((r + 0.5) / count) ** -0.7 - 1)))
        for r in range(count)]
    rng.shuffle(lifetimes)
    journals = {}
    for jid, years in zip(journal_ids(rng, count), lifetimes):
        size = min(5000, int(5 * rng.paretovariate(1.3)))
        pubs, cits = {}, {}
        for year in range(last - years + 1, last + 1):
            pubs[year] = max(1, int(size * rng.uniform(0.7, 1.3)))
            for citing in range(year, min(last, year + INGEST_CITE_WINDOW - 1) + 1):
                cits[(citing, year)] = rng.randint(0, 3 * pubs[year])
        journals[jid] = (pubs, cits)
    return journals


def rank_corpus(rng) -> dict[str, tuple[dict, dict]]:
    """Many small journals with few possible sync-roa values (exact ties),
    larger journals with mostly distinct values, and a fixed number of
    journals with no publications in the window (skipped as
    uncomputable)."""
    kinds = (["small"] * RANK_SMALL + ["skip"] * RANK_UNCOMPUTABLE
             + ["large"] * (RANK_JOURNALS - RANK_SMALL - RANK_UNCOMPUTABLE))
    rng.shuffle(kinds)
    journals = {}
    for jid, kind in zip(journal_ids(rng, RANK_JOURNALS), kinds):
        if kind == "skip":
            years = range(TARGET_YEAR - 6, TARGET_YEAR - 2)
        else:
            years = range(TARGET_YEAR - 4, TARGET_YEAR + 1)
        pubs, cits = {}, {}
        for year in years:
            pubs[year] = (rng.randint(1, 2) if kind == "small"
                          else rng.randint(10, 300))
        for year in years:
            if year < TARGET_YEAR:
                top = 3 if kind == "small" else 3 * pubs[year]
                cits[(TARGET_YEAR, year)] = rng.randint(0, top)
        journals[jid] = (pubs, cits)
    return journals


def min_k_scan(kind: str, upper, lower, j: int, k_max: int) -> int | None:
    """Smallest k <= k_max that puts ``upper`` strictly below ``lower``."""
    if kind == "sync-roa":
        # su*(pl + k) < sl*(pu + k), solved for k; it never holds if su >= sl
        (pu, cu), (pl, cl) = upper, lower
        su, sl = sum(cu), sum(cl)
        if su >= sl:
            return None
        k = (su * sum(pl) - sl * sum(pu)) // (sl - su) + 1
        return k if k <= k_max else None
    # sync-aor: the sign of upper - lower after injecting k at year j is
    # that of den*(cu_j*(pl_j+k) - cl_j*(pu_j+k)) + num*(pu_j+k)*(pl_j+k),
    # where num/den is the other years' share of upper - lower.
    (pu, cu), (pl, cl) = upper, lower
    rest = sum(Fraction(cu[o], pu[o]) - Fraction(cl[o], pl[o])
               for o in range(len(pu)) if o != j)
    num, den = rest.numerator, rest.denominator
    for k in range(1, k_max + 1):
        bu, bl = pu[j] + k, pl[j] + k
        if den * (cu[j] * bl - cl[j] * bu) + num * bu * bl < 0:
            return k
    return None


def _propose(rng, kind: str, upper, value: Fraction):
    """Random journal (pubs, cits) vectors with a value below ``value``.

    Half the proposals are free draws with a value just below; free draws
    may exceed the upper journal's size, so a reversing pair can always
    follow.  The other half shrink every window year of the upper journal
    by one factor, not below the range, at no higher citation rate: a pair
    that never reverses under sync-aor.  Under sync-roa a shrunk journal
    can rank higher; the caller rejects such proposals.
    """
    lo, hi = SENS_PUB_RANGE
    if rng.random() < 0.5:
        scale = rng.randint(50, 100)
        pubs = tuple(max(min(p, lo), p * scale // 100) for p in upper[0])
        cits = [c * p // pu for c, p, pu in zip(upper[1], pubs, upper[0])]
        if oracle.vector_value(kind, pubs, cits) == value:
            cits[cits.index(max(cits))] -= 1
        return (pubs, tuple(cits)) if min(cits) >= 0 else None
    pubs = tuple(rng.randint(lo, max(hi, p + 20)) for p in upper[0])
    head = [rng.randint(0, int(value * p * 2)) for p in pubs[:-1]]
    if kind == "sync-roa":
        last = math.ceil(value * sum(pubs)) - sum(head)
    else:
        room = len(pubs) * value - sum(Fraction(c, p)
                                       for c, p in zip(head, pubs))
        last = math.ceil(room * pubs[-1])
    last -= rng.randint(1, 3)
    return (pubs, tuple(head) + (last,)) if last >= 0 else None


def sensitivity_chain(rng, kind: str):
    """A chain of journals, strictly descending in ``kind`` value, whose
    adjacent pairs alternate in fixed proportion between two classes:

    * "reverse": some window year reverses at k <= SENS_SMALL_K; for
      sync-roa every year does, for sync-aor exactly one year does and
      the others never do within SENS_K_MAX;
    * "hold": no window year reverses within SENS_K_MAX.

    Returns the (pubs, cits) vectors in rank order and the expected
    minimal k per adjacent pair and window-year index.
    """
    classes = ["reverse", "hold"] * ((SENS_JOURNALS - 1) // 2)
    classes += ["hold"] * (SENS_JOURNALS - 1 - len(classes))
    rng.shuffle(classes)
    n = SENS_N
    pubs = (sum(SENS_PUB_RANGE) // 2,) * n
    chain = [(pubs, tuple(SENS_START_VALUE * p for p in pubs))]
    expected = []
    for wanted in classes:
        upper = chain[-1]
        value = oracle.vector_value(kind, *upper)
        for _ in range(20000):
            lower = _propose(rng, kind, upper, value)
            if lower is None or not oracle.vector_value(kind, *lower) < value:
                continue
            ks = [min_k_scan(kind, upper, lower, j, SENS_K_MAX)
                  for j in range(n)]
            found = [k for k in ks if k is not None]
            if wanted == "hold":
                ok = not found
            elif kind == "sync-roa":
                ok = len(found) == n and max(found) <= SENS_SMALL_K
            else:
                ok = len(found) == 1 and found[0] <= SENS_SMALL_K
            if ok:
                break
        else:
            raise RuntimeError(f"could not build a {wanted} pair for {kind} "
                               f"below {upper} at step {len(chain)}")
        chain.append(lower)
        expected.append(ks)
    return chain, expected


def sensitivity_corpus(rng, kind: str):
    """Chain journals as a corpus; also returns the expected rows
    (upper id, lower id, year, min_k or None) in output order."""
    chain, expected = sensitivity_chain(rng, kind)
    ids = journal_ids(rng, len(chain))
    years = [TARGET_YEAR - i for i in range(len(chain[0][0]), 0, -1)]
    journals = {}
    for jid, (pubs, cits) in zip(ids, chain):
        journals[jid] = (dict(zip(years, pubs)),
                         {(TARGET_YEAR, y): c for y, c in zip(years, cits)})
    rows = [(ids[i], ids[i + 1], years[j], ks[j])
            for i, ks in enumerate(expected) for j in range(len(years))]
    return journals, rows
