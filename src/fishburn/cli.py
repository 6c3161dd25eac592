"""Command-line front end: enumeration, constants, convergence, verification.

The module parses arguments and prints what the library returns.  The
library picks the asymptotic constants and rejects sizes it cannot use;
the checks left here are the series budget and what a command itself
needs (two sizes of one parity for ``converge``, n >= 20 for ``saddle``).

Every command is deterministic: the same invocation produces byte-identical
output (floats are printed through ``mp.nstr`` at the configured number of
significant digits, rows are emitted in a fixed order, and CSV uses ``\\n``
line endings unconditionally).  Exit codes follow the usual convention:

* 0 — success,
* 1 — a verification check failed (``verify`` only),
* 2 — usage error (bad flags, unparsable entry multiset, exceeded budget).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from math import factorial
from typing import Iterable, List, Optional, Sequence, Tuple

import mpmath as mp

from . import saddle
from .asymptotics import AsymptoticForm, _mpf, family_form, ratio_sequence
from .distributions import (
    LimitLaw,
    distribution,
    histogram_rows,
    limit_law_for,
    report_json,
)
from .families import (
    ALL,
    STATS,
    LambdaSpec,
    canonical_family,
    family_series,
    labeled_numbers,
)

_SERIES_BUDGET = 500
_FORMATS = ("table", "csv", "json")


# ---------------------------------------------------------------------------
# Argument types


def _int_between(low: int, high: Optional[int] = None):
    """argparse type: an integer >= ``low`` (and <= ``high`` if given)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports "invalid int value: ..."
    return parse


def _parse_n_list(text: str) -> Tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("empty size list")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"sizes must be positive: {text!r}")
    return values


def _parse_lambda(text: str) -> LambdaSpec:
    # "0-1 matrices" are asked for often enough that both spellings below
    # mean the 01 tag; the multiplicity list (0, 1) stays reachable as 0,1,0.
    if text.strip() in ("0-1", "0,1"):
        return LambdaSpec("01")
    try:
        return LambdaSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_family(text: str) -> str:
    try:
        return canonical_family(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# ---------------------------------------------------------------------------
# Shared formatting


def _fmt(value, digits: int) -> str:
    """Fixed significant-digit rendering (the determinism workhorse)."""
    with mp.workdps(digits + 10):
        return mp.nstr(_mpf(value), digits)


def _align(header: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    table = [header, *rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]


def _emit(text: str, args: argparse.Namespace) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# enumerate


def _run_enumerate(args: argparse.Namespace) -> int:
    n_max = args.n_max
    if n_max > _SERIES_BUDGET:
        raise ValueError(
            f"--n-max {n_max} exceeds the series budget ({_SERIES_BUDGET})"
        )
    series = family_series(args.family, args.entries, n_max)
    counts = [series.coeff(n) for n in range(n_max + 1)]
    if args.fmt == "table":
        text = " ".join(str(c) for c in counts) + "\n"
    elif args.fmt == "csv":
        text = _csv_text(["n", "count"], [[str(n), str(c)] for n, c in enumerate(counts)])
    else:
        text = _json_text({
            "schema": "fishburn.enumerate/1",
            "family": args.family,
            "entries": args.entries.describe(),
            "n_max": n_max,
            "counts": counts,
        })
    _emit(text, args)
    return 0


# ---------------------------------------------------------------------------
# asymptote


def _branch_fields(form: AsymptoticForm, digits: int) -> List[Tuple[str, str]]:
    return [
        ("c", _fmt(form.c, digits)),
        ("rho", _fmt(form.rho, digits)),
        ("beta", _fmt(form.beta, digits)),
        ("n_power", _fmt(form.n_power, digits)),
    ]


def _branch_payload(form: AsymptoticForm, digits: int) -> dict:
    payload = dict(_branch_fields(form, digits))
    payload["shape"] = form.describe()
    return payload


def _run_asymptote(args: argparse.Namespace) -> int:
    form, regime = family_form(args.family, args.entries)
    digits = args.digits
    branches = ([("", form)] if form.parity is None
                else [("even", form.parity[0]), ("odd", form.parity[1])])
    if args.fmt == "table":
        lines = [
            f"family: {args.family}",
            f"entries: {args.entries.describe()}",
            f"regime: {regime}",
            f"shape: {form.describe()}",
        ]
        for name, branch in branches:
            if name:
                lines.append(f"[{name}]")
            lines.extend(f"{key} = {val}" for key, val in _branch_fields(branch, digits))
        text = "\n".join(lines) + "\n"
    elif args.fmt == "csv":
        rows = [
            [name] + [val for _, val in _branch_fields(branch, digits)]
            for name, branch in branches
        ]
        text = _csv_text(["branch", "c", "rho", "beta", "n_power"], rows)
    else:
        payload = {
            "schema": "fishburn.asymptote/1",
            "family": args.family,
            "entries": args.entries.describe(),
            "regime": regime,
            "half_exponent": form.half_exponent,
        }
        if form.parity is None:
            payload.update(_branch_payload(form, digits))
        else:
            payload["parity"] = {
                name: _branch_payload(branch, digits)
                for name, branch in branches
            }
        text = _json_text(payload)
    _emit(text, args)
    return 0


# ---------------------------------------------------------------------------
# converge


def _run_converge(args: argparse.Namespace) -> int:
    ns = sorted(set(args.n_list))
    if len(ns) < 2:
        raise ValueError("--n-list needs at least two distinct sizes")
    if ns[-1] > _SERIES_BUDGET:
        raise ValueError(
            f"size {ns[-1]} exceeds the series budget ({_SERIES_BUDGET})"
        )
    form, regime = family_form(args.family, args.entries)
    if form.parity is not None:
        parities = {n % 2 for n in ns}
        if len(parities) > 1:
            raise ValueError(
                "this multiset has parity-split asymptotics; pass sizes of a "
                "single parity to --n-list"
            )
        form = form.parity[parities.pop()]
    series = family_series(args.family, args.entries, ns[-1])
    counts = [series.coeff(n) for n in range(ns[-1] + 1)]
    report = ratio_sequence(counts, form, ns)
    digits = args.digits
    ratio_rows = [(n, _fmt(r, digits)) for n, r in report.rows()]
    limit = _fmt(report.extrapolated_limit, digits)
    exponent = (None if report.correction_exponent is None
                else _fmt(report.correction_exponent, digits))
    if args.fmt == "table":
        lines = [
            f"family: {args.family}",
            f"entries: {args.entries.describe()}",
            f"regime: {regime}",
        ]
        lines.extend(_align(("n", "ratio"), [(str(n), r) for n, r in ratio_rows]))
        lines.append(f"extrapolated limit = {limit}")
        if exponent is not None:
            lines.append(f"correction exponent = {exponent}")
        text = "\n".join(lines) + "\n"
    elif args.fmt == "csv":
        rows = [[str(n), r] for n, r in ratio_rows]
        rows.append(["extrapolated", limit])
        text = _csv_text(["n", "ratio"], rows)
    else:
        text = _json_text({
            "schema": "fishburn.converge/1",
            "family": args.family,
            "entries": args.entries.describe(),
            "regime": regime,
            "n_values": [n for n, _ in ratio_rows],
            "ratios": [r for _, r in ratio_rows],
            "extrapolated_limit": limit,
            "correction_exponent": exponent,
            "half_exponent": report.half_exponent,
        })
    _emit(text, args)
    return 0


# ---------------------------------------------------------------------------
# distribution


def _describe_law(law: LimitLaw, digits: int) -> str:
    if law.kind == "ztp":
        return (f"{law.variable} -> zero-truncated "
                f"Poisson({_fmt(law.rate, digits)})")
    if law.kind == "poisson":
        return f"{law.variable} -> Poisson({_fmt(law.rate, digits)})"
    if law.kind == "normal":
        return (f"{law.variable} -> N({_fmt(law.center, digits)}, "
                f"{_fmt(law.spread, digits)})")
    if law.kind == "degenerate":
        return f"{law.variable} -> point mass at {law.point}"
    terms = " + ".join(
        f"{step}*Poisson({_fmt(rate, digits)})" for step, rate in law.components
    )
    return f"{law.variable} -> {terms}"


def _run_distribution(args: argparse.Namespace) -> int:
    dist = distribution(args.family, args.stat, args.entries, args.n)
    try:
        law = limit_law_for(args.family, args.stat, args.entries, args.n)
    except ValueError:
        law = None
    if args.fmt == "json":
        _emit(report_json(dist, law=law), args)
        return 0
    digits = args.digits
    rows = [
        (str(value), str(count), str(exact),
         "" if limit is None else _fmt(limit, digits))
        for (value, exact, limit), count in zip(histogram_rows(dist, law), dist.counts)
    ]
    header = ("value", "count", "exact_pmf", "limit_pmf")
    if args.fmt == "csv":
        text = _csv_text(header, rows)
    else:
        lines = [
            f"family: {dist.family}",
            f"stat: {dist.stat}",
            f"entries: {dist.entries}",
            f"n: {dist.n}",
            f"total: {dist.total}",
            f"mean: {dist.mean}",
            f"variance: {dist.variance}",
        ]
        if law is not None:
            lines.append(f"limit law: {_describe_law(law, digits)}")
        lines.extend(_align(header, rows))
        text = "\n".join(lines) + "\n"
    _emit(text, args)
    return 0


# ---------------------------------------------------------------------------
# saddle


def _run_saddle(args: argparse.Namespace) -> int:
    n = args.n
    if n < 20:
        raise ValueError("the saddle window is only resolved for n >= 20")
    if n > _SERIES_BUDGET:
        raise ValueError(f"--n {n} exceeds the series budget ({_SERIES_BUDGET})")
    digits = args.digits
    exact = Fraction(labeled_numbers(n)[n], factorial(n))
    with mp.workdps(digits + 20):
        approx = saddle.an_approx(n)
        rel = approx / _mpf(exact) - 1
    summary = [
        ("n", str(n)),
        ("a_n", _fmt(exact, digits)),
        ("an_approx", _fmt(approx, digits)),
        ("rel_error", _fmt(rel, digits)),
    ]
    profile = None
    if args.profile:
        # The window profile is always printed to 12 digits.
        profile = [(str(k), mp.nstr(exact_log, 12), mp.nstr(approx_log, 12))
                   for k, exact_log, approx_log in saddle.profile_rows(n)]
    columns = ("k", "log_exact", "log_approx")
    if args.fmt == "json":
        payload = {"schema": "fishburn.saddle/1"}
        payload.update((k, v) for k, v in summary if k != "n")
        payload["n"] = n
        if profile is not None:
            payload["profile_columns"] = columns
            payload["profile"] = profile
        text = _json_text(payload)
    elif args.fmt == "csv":
        if profile is not None:
            text = _csv_text(columns, profile)
        else:
            text = _csv_text([k for k, _ in summary], [[v for _, v in summary]])
    else:
        lines = [f"{key} = {val}" for key, val in summary]
        if profile is not None:
            lines.append("")
            lines.extend(_align(columns, profile))
        text = "\n".join(lines) + "\n"
    _emit(text, args)
    return 0


# ---------------------------------------------------------------------------
# verify


def _run_verify(args: argparse.Namespace) -> int:
    # Imported here so that the other commands do not pay for compiling the
    # battery at start-up.
    from . import checks

    battery = checks.BASE + (checks.FULL if args.full else ())
    lines = []
    failures = 0
    for name, fn in battery:
        ok, detail = fn()
        failures += not ok
        lines.append(f"{'ok  ' if ok else 'FAIL'}  {name}: {detail}")
    lines.append(
        f"verify: {len(battery)} checks, {failures} failure"
        f"{'' if failures == 1 else 's'}"
    )
    _emit("\n".join(lines) + "\n", args)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Parser


_LAMBDA_HELP = """\
entry multisets (--lambda):
  named tags:  all    every positive value available once
               01     only 1s (0-1 matrices; '0-1' and '0,1' also accepted)
               012    1s and 2s
               odd    odd values only
               even+  even values only
               no1    every value except 1
  comma list:  'l1,l2,...' makes value i available with multiplicity li,
               e.g. '0,1,1' bars 1s and allows single 2s and 3s
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fishburn",
        description="Exact and asymptotic counting of Fishburn-style matrices.",
        epilog=_LAMBDA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", type=_parse_family, default="fishburn",
                        help="fishburn, row-fishburn or self-dual")
    family.add_argument("--lambda", dest="entries", type=_parse_lambda,
                        default=ALL, metavar="SPEC",
                        help="entry multiset (named tag or comma list)")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--format", dest="fmt", choices=_FORMATS, default="table")
    out.add_argument("--output", metavar="PATH",
                     help="write to this file instead of stdout")
    out.add_argument("--digits", type=_int_between(2, 30), default=12,
                     help="significant digits for floats (default 12)")

    p = sub.add_parser("enumerate", parents=[family, out],
                       help="exact counts for sizes 0..N")
    p.add_argument("--n-max", dest="n_max", type=_int_between(0), required=True)
    p.set_defaults(run=_run_enumerate)

    p = sub.add_parser("asymptote", parents=[family, out],
                       help="leading-order growth constants (c, rho, beta, n_power)")
    p.set_defaults(run=_run_asymptote)

    p = sub.add_parser("converge", parents=[family, out],
                       help="ratios of exact counts to the asymptotic form")
    p.add_argument("--n-list", dest="n_list", type=_parse_n_list,
                   required=True, metavar="N1,N2,...")
    p.set_defaults(run=_run_converge)

    p = sub.add_parser("distribution", parents=[family, out],
                       help="exact statistic distribution at one size")
    p.add_argument("--stat", choices=STATS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_run_distribution)

    p = sub.add_parser("saddle", parents=[out],
                       help="saddle-point approximation versus the exact value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--profile", action="store_true",
                   help="include the per-k window profile")
    p.set_defaults(run=_run_saddle)

    p = sub.add_parser("verify",
                       help="self-contained correctness battery (offline)")
    p.add_argument("--output", metavar="PATH",
                   help="write to this file instead of stdout")
    p.add_argument("--full", action="store_true",
                   help="add the slower asymptotic and trend checks")
    p.set_defaults(run=_run_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
