"""Command-line front end and report serialization.

Subcommands: ``verify`` (one pair), ``sweep`` (all pairs p < q <= max),
``lemma-suite`` (seeded randomized suites), ``legendre`` (print one symbol).

Exit codes: 0 all checks passed; 1 at least one verification failed;
2 invalid invocation (bad primes, bad bounds, over budget, unknown suite,
empty --out) or an I/O error on the report file.  Every cap is a fixed
constant of :mod:`recipro.budget`, so the output depends only on argv.

Reports are deterministic byte for byte given the same arguments.  The
metadata, built from the parsed arguments, holds the only timestamp:
'#'-prefixed comment lines in CSV, the "meta" object in JSON.  The report
body (CSV header plus data rows; JSON "rows" and "summary") never varies
between identical runs.  Rows are value tuples in SWEEP_FIELDS order; JSON
rows are dicts keyed in that order.

The argument parser is built once per process and shared.  Parsing keeps no
per-call state: every call gets a fresh namespace, and each subcommand's
function looks up its workers when it runs, so repeated and concurrent
in-process calls to :func:`main` are safe.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import os
import stat
import sys
import threading
from datetime import datetime, timezone
from math import prod
from typing import Iterable, Iterator, Sequence, TextIO

from . import __version__
from .errors import CapacityError, DomainError
from .reciprocity_pipeline import RELATION_EQUAL, PairVerdict, verify_pair, verify_pairs
from .residue_arith import legendre_euler, odd_primes_up_to
from . import budget
from .suites import SUITE_NAMES, SuiteResult, run_suite


SWEEP_FIELDS = (
    "p", "q", "p_mod4", "q_mod4", "rank", "prodL_p", "prodL_q", "closed_p", "closed_q",
    "leg_qp", "leg_pq", "relation", "qr_holds", "all_pass",
)


def _sweep_row(v: PairVerdict) -> tuple:
    """One verified pair, flattened for serialization, in SWEEP_FIELDS order."""
    return (
        v.p, v.q, v.p % 4, v.q % 4, v.rank,
        v.product_L.a, v.product_L.b, v.closed_form.a, v.closed_form.b,
        v.legendre_qp, v.legendre_pq,
        "equal" if v.predicted_relation == RELATION_EQUAL else "opposite",
        v.qr_identity_holds, v.all_pass,
    )


def _summary_text(summary: dict) -> str:
    text = f"pairs={summary['pairs']} failures={summary['failures']}"
    if summary["pairs"] == 0:
        text += " (no pairs)"
    return text


Meta = list[tuple[str, object]]


def render_csv(meta: Meta, rows: list[tuple], summary: dict) -> str:
    text = {True: "true", False: "false"}
    lines = [f"# {key}: {value}" for key, value in meta]
    lines.append(",".join(SWEEP_FIELDS))
    # one f-string per row, its fields in SWEEP_FIELDS order; the two flags are spelled out
    lines += [f"{p},{q},{p4},{q4},{rank},{a},{b},{ca},{cb},{qp},{pq},{rel},{text[qr]},{text[ok]}"
              for p, q, p4, q4, rank, a, b, ca, cb, qp, pq, rel, qr, ok in rows]
    lines.append(f"# summary: {_summary_text(summary)}")
    return "\n".join(lines) + "\n"


def render_json(meta: Meta, rows: list[tuple], summary: dict) -> str:
    doc = {"meta": dict(meta), "rows": [dict(zip(SWEEP_FIELDS, row)) for row in rows],
           "summary": summary}
    return json.dumps(doc, indent=2) + "\n"


@contextlib.contextmanager
def _report_stream(out: str | None) -> Iterator[TextIO]:
    """Stdout, or the file `out` names once symlinks are resolved.

    A regular or new file is written to a temp file beside it, named for
    this process and thread, that replaces it once complete; a device or
    FIFO is written in place, never replaced.  The stream is opened on
    entry, before the caller verifies anything, so a bad destination fails
    fast; on any error the temp file is removed, so no run leaves a partial
    report behind.  Every OSError from the stat to the final replace, the
    caller's writes included, is re-raised naming `out` as given, never the
    temp file.
    """
    if out is None:
        yield sys.stdout
        return
    if not out:
        raise DomainError("--out needs a file path, got ''")
    tmp = None
    try:
        try:
            mode = os.stat(out).st_mode
        except OSError:  # missing or unreachable: opening the temp file says which
            mode = stat.S_IFREG
        if stat.S_ISDIR(mode):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISREG(mode):
            # opened through `out`, so links such as /dev/stdout resolve as the OS does
            with open(out, "w", encoding="utf-8", newline="\n") as handle:
                yield handle
            return
        dest = os.path.realpath(out)
        tmp_name = f"{dest}.{os.getpid()}.{threading.get_ident()}.tmp"
        with open(tmp_name, "x", encoding="utf-8", newline="\n") as handle:
            tmp = handle.name
            yield handle
        os.replace(tmp, dest)
        tmp = None
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from None
    finally:
        if tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def _verify_and_report(args: argparse.Namespace, bounds: Meta,
                       verdicts: Iterable[PairVerdict]) -> int:
    """Draw every verdict and write the report; the exit code is 1 on any failure.

    verdicts is lazy, so no pair is verified before the report stream is
    open.  The metadata is version, command, seed, then `bounds` (p and q,
    or max), then format, and last generated_at, stamped once every pair is
    verified.
    """
    meta = [("version", __version__), ("command", args.command), ("seed", args.seed),
            *bounds, ("format", args.format)]
    with _report_stream(args.out) as handle:
        rows = [_sweep_row(v) for v in verdicts]
        summary = _make_summary(rows)
        meta.append(("generated_at", datetime.now(timezone.utc).isoformat(timespec="seconds")))
        render = render_json if args.format == "json" else render_csv
        handle.write(render(meta, rows, summary))
    if args.out:
        print(f"wrote {args.out}: {_summary_text(summary)}")
    return 0 if summary["failures"] == 0 else 1


def _make_summary(rows: list[tuple]) -> dict:
    failures = sum(1 for row in rows if not row[-1])  # all_pass, the last field
    summary: dict = {"pairs": len(rows), "failures": failures}
    if not rows:
        summary["note"] = "no pairs"
    return summary


def cmd_verify(args: argparse.Namespace) -> int:
    return _verify_and_report(args, [("p", args.p), ("q", args.q)],
                              map(verify_pair, [args.p], [args.q]))


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.max < 0:
        raise DomainError(f"--max must be nonnegative, got {args.max}")
    primes = odd_primes_up_to(args.max)
    # the last two primes are the largest pair: refuse the sweep before any pair is verified
    budget.require_within(prod(primes[-2:]), budget.STREAM_PRODUCT_CAP, "transversal")
    return _verify_and_report(args, [("max", args.max)], verify_pairs(
        [(p, q) for i, p in enumerate(primes) for q in primes[i + 1 :]]))


def cmd_lemma_suite(args: argparse.Namespace) -> int:
    result: SuiteResult = run_suite(args.which, args.n, args.seed)
    print(f"# version: {__version__}")
    print(f"# suite: {args.which}  n: {args.n}  seed: {args.seed}")
    print(f"{result.suite}: {result.n_pass}/{result.total} pass")
    for desc in result.failures:
        print(f"FAIL {desc}")
    return 0 if result.all_pass else 1


def cmd_legendre(args: argparse.Namespace) -> int:
    print(legendre_euler(args.a, args.p))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``recipro`` argument parser, built on first use.

    The same parser is returned for the life of the process; callers must
    not mutate it (add arguments, change defaults, or set attributes).
    """
    parser = argparse.ArgumentParser(
        prog="recipro",
        description="verify quadratic reciprocity through exact group-theoretic identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", metavar="PATH", default=None)
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("verify", help="verify one pair of distinct odd primes")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    add_report_flags(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="verify every pair of odd primes p < q <= max")
    sp.add_argument("--max", type=int, required=True)
    add_report_flags(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("lemma-suite", help="run a seeded randomized suite")
    sp.add_argument("--which", required=True, help=f"one of: {', '.join(SUITE_NAMES)}")
    sp.add_argument("--n", type=int, required=True, help="number of cases")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_lemma_suite)

    sp = sub.add_parser("legendre", help="print the Legendre symbol (a/p)")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=cmd_legendre)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand on `argv` (default ``sys.argv[1:]``); return its exit code.

    0 means every check passed, 1 that at least one verification failed, and
    2 an invalid invocation or an I/O error on the report file, reported as
    one ``error:`` line on stderr.  An argparse usage error (a missing or
    malformed flag) and ``--help`` are not returned: in process they raise
    ``SystemExit(2)`` and ``SystemExit(0)``, and the console script exits
    with that status.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

