"""Output oracle and input helpers that share no code with the package.

Primes come from the benchmark's own sieve and Legendre symbols from the
binary Jacobi-symbol algorithm, a route independent of the package's
Euler-criterion symbols.  Reports are read by column name, so columns added
later (and columns reordered) do not disturb the checks.
"""

from __future__ import annotations

import csv
import re
from math import isqrt

_SUMMARY = re.compile(r"pairs=(\d+) failures=(\d+)")
REQUIRED_COLUMNS = ("p", "q", "closed_p", "closed_q", "prodL_p", "prodL_q", "all_pass")


def odd_primes_up_to(n: int) -> list[int]:
    if n < 3:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i in range(3, n + 1, 2) if sieve[i]]


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0; equals the Legendre symbol for prime n."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def expected_row(p: int, q: int) -> dict[str, str]:
    """Column values every correct report row for (p, q) must carry."""
    leg_qp, leg_pq = jacobi(q, p), jacobi(p, q)
    s1 = leg_qp * (-1 if (q - 1) // 2 % 2 else 1)
    s2 = leg_pq * (-1 if (p - 1) // 2 % 2 else 1)
    closed_p = 1 if s1 == 1 else p - 1
    closed_q = 1 if s2 == 1 else q - 1
    return {
        "closed_p": str(closed_p),
        "closed_q": str(closed_q),
        "prodL_p": str(closed_p),
        "prodL_q": str(closed_q),
        "leg_qp": str(leg_qp),
        "leg_pq": str(leg_pq),
        "all_pass": "true",
    }


def check_pair_report(path: str, pairs: list[tuple[int, int]]) -> tuple[int, list[str]]:
    """(failed rows, messages) for a verify/sweep CSV report that should cover `pairs`.

    A row fails when it is missing, unexpected, or any column the oracle
    knows differs from the recomputed value.  An unreadable report, a missing
    required column or a summary other than ``pairs=<n> failures=0`` fails
    every expected row.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        return len(pairs), [f"{path}: unreadable ({exc})"]
    summary = [line for line in lines if line.startswith("# summary:")]
    match = _SUMMARY.search(summary[-1]) if summary else None
    if not match or match.groups() != (str(len(pairs)), "0"):
        found = summary[-1] if summary else "no summary line"
        return len(pairs), [f"{path}: {found!r}, expected pairs={len(pairs)} failures=0"]
    reader = csv.DictReader(line for line in lines if not line.startswith("#"))
    missing = [c for c in REQUIRED_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        return len(pairs), [f"{path}: no column {', '.join(missing)}"]

    rows = {(int(row["p"]), int(row["q"])): row for row in reader}
    failed, messages = 0, []
    for p, q in pairs:
        row = rows.pop((p, q), None)
        if row is None:
            problem = "no row"
        else:
            problem = next(
                (f"{col}={row[col]}, expected {want}"
                 for col, want in expected_row(p, q).items()
                 if col in row and row[col] != want),
                None,
            )
        if problem:
            failed += 1
            messages.append(f"{path} ({p}, {q}): {problem}")
    if rows:
        failed += len(rows)
        messages.append(f"{path}: unexpected rows {sorted(rows)[:3]}")
    return failed, messages
