"""Independent exact oracle for checking the CLI's output.

It re-derives the indicator definitions with ``fractions.Fraction`` and
never imports ``impactz``, so a defect in the program cannot hide in a
shared helper.
"""

from __future__ import annotations

import json
from fractions import Fraction


def indicator(kind: str, n: int, year: int, s: int,
              pubs: dict, cits: dict) -> Fraction | None:
    """Indicator value, or None where its denominator is zero."""
    if kind == "diachronous":
        if not pubs.get(year, 0):
            return None
        return Fraction(sum(cits.get((year + i, year), 0)
                            for i in range(s, s + n)), pubs[year])
    window = range(year - n, year)
    if kind == "sync-roa":
        total = sum(pubs.get(y, 0) for y in window)
        if not total:
            return None
        return Fraction(sum(cits.get((year, y), 0) for y in window), total)
    if any(not pubs.get(y, 0) for y in window):
        return None
    return sum(Fraction(cits.get((year, y), 0), pubs[y]) for y in window) / n


def vector_value(kind: str, pubs, cits) -> Fraction:
    """Synchronous value of window vectors (oldest year first)."""
    if kind == "sync-roa":
        return Fraction(sum(cits), sum(pubs))
    return sum(Fraction(c, p) for c, p in zip(cits, pubs)) / len(pubs)


def exact(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def decimal(value: Fraction, places: int = 2) -> str:
    """Half-up rounding of a non-negative fraction."""
    scale = 10 ** places
    q = (2 * value.numerator * scale + value.denominator) \
        // (2 * value.denominator)
    whole, frac = divmod(q, scale)
    return f"{whole}.{frac:0{places}d}" if places else str(whole)


def compute_stdout(journals: dict, kind: str, n: int, year: int) -> bytes:
    lines = []
    for jid in sorted(journals):
        value = indicator(kind, n, year, 0, *journals[jid])
        lines.append(f"{jid}\t{exact(value)}\t{decimal(value)}\n")
    return "".join(lines).encode()


def rank_stdout(journals: dict, kind: str, n: int, year: int
                ) -> tuple[bytes, list[str], int]:
    """Expected rank table, the skipped ids in order, and the number of
    entries that share their value with another entry."""
    values, skipped = [], []
    for jid in sorted(journals):
        value = indicator(kind, n, year, 0, *journals[jid])
        if value is None:
            skipped.append(jid)
        else:
            values.append((value, jid))
    values.sort(key=lambda item: (-item[0], item[1]))
    lines, tied = [], 0
    counts: dict[Fraction, int] = {}
    for value, _ in values:
        counts[value] = counts.get(value, 0) + 1
    position = 0
    for index, (value, jid) in enumerate(values):
        if index == 0 or value != values[index - 1][0]:
            position = index + 1
        tied += counts[value] > 1
        lines.append(f"{position}\t{jid}\t{exact(value)}\t{decimal(value)}\n")
    return "".join(lines).encode(), skipped, tied


def sensitivity_stdout(rows) -> bytes:
    return "".join(f"{u}\t{l}\t{y}\t{'-' if k is None else k}\n"
                   for u, l, y, k in rows).encode()


def reverses(kind: str, n: int, year: int, s: int, upper, lower,
             inject_year: int, k: int) -> bool:
    """Does adding k uncited items at ``inject_year`` to both journals put
    ``upper`` (strictly above before) strictly below ``lower``?"""
    before = (indicator(kind, n, year, s, *upper),
              indicator(kind, n, year, s, *lower))
    if not before[0] > before[1]:
        return False
    after = [indicator(kind, n, year, s, _inject(pubs, inject_year, k), cits)
             for pubs, cits in (upper, lower)]
    return after[0] < after[1]


def _inject(pubs: dict, year: int, k: int) -> dict:
    out = dict(pubs)
    out[year] = out.get(year, 0) + k
    return out


def check_witness(line: str, kind: str, n: int, year: int, s: int,
                  pub_max: int, cit_max: int, k_max: int) -> str | None:
    """Re-derive one mined witness row; return a problem or None."""
    fields = line.split("\t")
    if len(fields) != 8:
        return f"witness row has {len(fields)} fields"
    lp, lc, rp, rc = (json.loads(f) for f in fields[:4])
    left = ({int(y): v for y, v in lp.items()},
            {tuple(map(int, key.split(","))): v for key, v in lc.items()})
    right = ({int(y): v for y, v in rp.items()},
             {tuple(map(int, key.split(","))): v for key, v in rc.items()})
    inject_year, k = int(fields[4]), int(fields[5])
    if not 1 <= k <= k_max:
        return f"witness k={k} outside 1..{k_max}"
    for pubs, cits in (left, right):
        if any(not 1 <= v <= pub_max for v in pubs.values()) or \
                any(not 0 <= v <= cit_max for v in cits.values()):
            return "witness data outside the box"
    values = [indicator(kind, n, year, s, *j) for j in (left, right)]
    after = [indicator(kind, n, year, s, _inject(p, inject_year, k), c)
             for p, c in (left, right)]
    if None in values or None in after:
        return "witness has a zero denominator"
    if fields[6] != f"{exact(values[0])} vs {exact(values[1])}" or \
            fields[7] != f"{exact(after[0])} vs {exact(after[1])}":
        return "witness before/after values disagree with the oracle"
    if not (values[0] < values[1] and after[0] > after[1]):
        return "witness does not reverse"
    return None
