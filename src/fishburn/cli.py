"""Command-line front end: enumeration, constants, convergence, verification.

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
from dataclasses import dataclass, fields
from fractions import Fraction
from math import factorial
from typing import Callable, List, Optional, Tuple

import mpmath as mp

from . import asymptotics, saddle
from .asymptotics import AsymptoticForm, _mpf, named_form, ratio_sequence
from .distributions import (
    DistributionTable,
    LimitLaw,
    compare,
    distribution,
    histogram_rows,
    limit_law_for,
    report_json,
)
from .families import (
    ALL,
    FAMILIES,
    PRIMITIVE,
    STATS,
    LambdaSpec,
    canonical_family,
    family_series,
    fishburn_numbers,
    labeled_numbers,
    named_sequence,
    stat_profile,
)
from .identities import identity_suite
from .oeis import cross_check, fetch, fixture_ids
from .oracle import enumerate_matrices, histogram

_SERIES_BUDGET = 500
_FORMATS = ("table", "csv", "json")


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class RunConfig:
    """Everything a single invocation needs, validated once up front."""

    command: str
    family: str = "fishburn"
    entries: LambdaSpec = ALL
    stat: Optional[str] = None
    n: Optional[int] = None
    n_max: Optional[int] = None
    n_list: Tuple[int, ...] = ()
    fmt: str = "table"
    output: Optional[str] = None
    digits: int = 12
    full: bool = False
    profile: bool = False

    def __post_init__(self):
        if self.fmt not in _FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}; expected {_FORMATS}")
        if not 2 <= self.digits <= 30:
            raise ValueError("digits must lie between 2 and 30")
        for name in ("n", "n_max"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be nonnegative")
        if any(n < 1 for n in self.n_list):
            raise ValueError("sizes in --n-list must be positive")

    @classmethod
    def from_args(cls, ns: argparse.Namespace) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        picked = {k: v for k, v in vars(ns).items() if k in known and v is not None}
        return cls(**picked)


def _parse_n_list(text: str) -> Tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("empty size list")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")
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


def _align(header: Tuple[str, ...], rows: List[Tuple[str, ...]]) -> List[str]:
    table = [header] + rows
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]


def _emit(text: str, config: RunConfig) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if config.output:
        with open(config.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: List[str], rows: List[List[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Asymptotic-form resolution shared by `asymptote` and `converge`


def _resolve_form(family: str, lam: LambdaSpec) -> Tuple[AsymptoticForm, str]:
    """Leading-order form for the family counts, with a regime label."""
    lam1, lam2 = lam.weight(1), lam.weight(2)
    if lam1 > 0:
        builders = {
            "row-fishburn": asymptotics.constants_row_fishburn,
            "fishburn": asymptotics.constants_fishburn,
            "self-dual": asymptotics.constants_self_dual,
        }
        return builders[family](lam1, lam2), "1s allowed"
    if family != "fishburn":
        raise ValueError(
            f"no catalogued asymptotic form for {family} matrices without 1s"
        )
    if lam2 <= 0:
        raise ValueError(
            "entries of value 2 must be allowed when 1s are barred"
        )
    first_odd = lam.smallest_odd_entry()
    if first_odd is None:
        raise ValueError(
            "every allowed entry value is even, so odd sizes are empty and "
            "even sizes reduce to a smaller family: divide the entries by 2 "
            "and rerun with the halved multiset"
        )
    m = (first_odd - 1) // 2
    form = asymptotics.constants_small2(
        lam2, lam.weight(3), lam.weight(4), lam_odd=lam.weight(first_odd), m=m,
    )
    return form, f"no 1s, smallest odd value {first_odd} (m = {m})"


# ---------------------------------------------------------------------------
# enumerate


def _run_enumerate(config: RunConfig) -> int:
    n_max = config.n_max
    if n_max is None:
        raise ValueError("enumerate requires --n-max")
    if n_max > _SERIES_BUDGET:
        raise ValueError(
            f"--n-max {n_max} exceeds the series budget ({_SERIES_BUDGET})"
        )
    series = family_series(config.family, config.entries, n_max)
    counts = [series.coeff(n) for n in range(n_max + 1)]
    if config.fmt == "table":
        text = " ".join(str(c) for c in counts) + "\n"
    elif config.fmt == "csv":
        text = _csv_text(["n", "count"], [[str(n), str(c)] for n, c in enumerate(counts)])
    else:
        text = _json_text({
            "schema": "fishburn.enumerate/1",
            "family": config.family,
            "entries": config.entries.describe(),
            "n_max": n_max,
            "counts": counts,
        })
    _emit(text, config)
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


def _run_asymptote(config: RunConfig) -> int:
    form, regime = _resolve_form(config.family, config.entries)
    digits = config.digits
    branches = ([("", form)] if form.parity is None
                else [("even", form.parity[0]), ("odd", form.parity[1])])
    if config.fmt == "table":
        lines = [
            f"family: {config.family}",
            f"entries: {config.entries.describe()}",
            f"regime: {regime}",
            f"shape: {form.describe()}",
        ]
        for name, branch in branches:
            if name:
                lines.append(f"[{name}]")
            lines.extend(f"{key} = {val}" for key, val in _branch_fields(branch, digits))
        text = "\n".join(lines) + "\n"
    elif config.fmt == "csv":
        rows = [
            [name] + [val for _, val in _branch_fields(branch, digits)]
            for name, branch in branches
        ]
        text = _csv_text(["branch", "c", "rho", "beta", "n_power"], rows)
    else:
        payload = {
            "schema": "fishburn.asymptote/1",
            "family": config.family,
            "entries": config.entries.describe(),
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
    _emit(text, config)
    return 0


# ---------------------------------------------------------------------------
# converge


def _run_converge(config: RunConfig) -> int:
    ns = sorted(set(config.n_list))
    if len(ns) < 2:
        raise ValueError("--n-list needs at least two distinct sizes")
    if ns[-1] > _SERIES_BUDGET:
        raise ValueError(
            f"size {ns[-1]} exceeds the series budget ({_SERIES_BUDGET})"
        )
    form, regime = _resolve_form(config.family, config.entries)
    if form.parity is not None:
        parities = {n % 2 for n in ns}
        if len(parities) > 1:
            raise ValueError(
                "this multiset has parity-split asymptotics; pass sizes of a "
                "single parity to --n-list"
            )
        form = form.parity[parities.pop()]
    series = family_series(config.family, config.entries, ns[-1])
    counts = [series.coeff(n) for n in range(ns[-1] + 1)]
    report = ratio_sequence(counts, form, ns)
    digits = config.digits
    ratio_rows = [(n, _fmt(r, digits)) for n, r in report.rows()]
    limit = _fmt(report.extrapolated_limit, digits)
    exponent = (None if report.correction_exponent is None
                else _fmt(report.correction_exponent, digits))
    if config.fmt == "table":
        lines = [
            f"family: {config.family}",
            f"entries: {config.entries.describe()}",
            f"regime: {regime}",
        ]
        lines.extend(_align(("n", "ratio"), [(str(n), r) for n, r in ratio_rows]))
        lines.append(f"extrapolated limit = {limit}")
        if exponent is not None:
            lines.append(f"correction exponent = {exponent}")
        text = "\n".join(lines) + "\n"
    elif config.fmt == "csv":
        rows = [[str(n), r] for n, r in ratio_rows]
        rows.append(["extrapolated", limit])
        text = _csv_text(["n", "ratio"], rows)
    else:
        text = _json_text({
            "schema": "fishburn.converge/1",
            "family": config.family,
            "entries": config.entries.describe(),
            "regime": regime,
            "n_values": [n for n, _ in ratio_rows],
            "ratios": [r for _, r in ratio_rows],
            "extrapolated_limit": limit,
            "correction_exponent": exponent,
            "half_exponent": report.half_exponent,
        })
    _emit(text, config)
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


def _run_distribution(config: RunConfig) -> int:
    if config.stat is None:
        raise ValueError("distribution requires --stat")
    if config.n is None:
        raise ValueError("distribution requires --n")
    dist = distribution(config.family, config.stat, config.entries, config.n)
    try:
        law = limit_law_for(config.family, config.stat, config.entries, config.n)
    except ValueError:
        law = None
    if config.fmt == "json":
        _emit(report_json(dist, law=law), config)
        return 0
    digits = config.digits
    rows = []
    by_value = dict(zip(dist.support, dist.counts))
    for value, exact, limit in histogram_rows(dist, law):
        rows.append((
            str(value),
            str(by_value[value]),
            str(exact),
            "" if limit is None else _fmt(limit, digits),
        ))
    header = ("value", "count", "exact_pmf", "limit_pmf")
    if config.fmt == "csv":
        text = _csv_text(list(header), [list(r) for r in rows])
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
    _emit(text, config)
    return 0


# ---------------------------------------------------------------------------
# saddle


def _run_saddle(config: RunConfig) -> int:
    n = config.n
    if n is None:
        raise ValueError("saddle requires --n")
    if n < 20:
        raise ValueError("the saddle window is only resolved for n >= 20")
    if n > _SERIES_BUDGET:
        raise ValueError(f"--n {n} exceeds the series budget ({_SERIES_BUDGET})")
    digits = config.digits
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
    profile_text = saddle.profile_csv(n) if config.profile else None
    if config.fmt == "json":
        payload = {"schema": "fishburn.saddle/1"}
        payload.update((k, v) for k, v in summary if k != "n")
        payload["n"] = n
        if profile_text is not None:
            reader = csv.reader(io.StringIO(profile_text))
            rows = list(reader)
            payload["profile_columns"] = rows[0]
            payload["profile"] = rows[1:]
        text = _json_text(payload)
    elif config.fmt == "csv":
        if profile_text is not None:
            text = profile_text
        else:
            text = _csv_text([k for k, _ in summary], [[v for _, v in summary]])
    else:
        lines = [f"{key} = {val}" for key, val in summary]
        if profile_text is not None:
            reader = csv.reader(io.StringIO(profile_text))
            rows = [tuple(row) for row in reader]
            lines.append("")
            lines.extend(_align(rows[0], rows[1:]))
        text = "\n".join(lines) + "\n"
    _emit(text, config)
    return 0


# ---------------------------------------------------------------------------
# verify


_SERIES_PREFIXES = (
    ("fishburn", ALL, (1, 1, 2, 5, 15, 53, 217)),
    ("row-fishburn", ALL, (1, 1, 3, 12, 61, 380, 2815)),
    ("row-fishburn", PRIMITIVE, (1, 1, 2, 7, 33, 197, 1419)),
    ("self-dual", ALL, (1, 1, 2, 3, 7, 13, 33)),
    ("self-dual", PRIMITIVE, (1, 1, 1, 2, 3, 6, 13)),
)

_NAMED_PREFIXES = (
    ("A186737", (1, 1, 3, 14, 82, 563)),
    ("A224885", (1, 1, 2, 15, 143, 1552)),
)

# (c, rho) of every catalogued form, printed to 12 significant digits.
_PRINTED_CONSTANTS = {
    "A022493": ("6.77875628359", "0.223643882503"),
    "A035378": ("10.3466639274", "0.894575530012"),
    "A138265": ("1.30847139165", "0.223643882503"),
    "A158690": ("2.1550454655", "0.447287765006"),
    "A158691": ("3.25126885713", "0.447287765006"),
    "A179525": ("1.42843337862", "0.447287765006"),
    "A186737": ("3.25126885713", "0.447287765006"),
    "A196194": ("1.52384726242", "0.447287765006"),
    "A207214": ("4.310090931", "0.447287765006"),
    "A207386": ("1.42843337862", "0.447287765006"),
    "A207397": ("0.627577111218", "0.447287765006"),
    "A207433": ("3.25126885713", "0.447287765006"),
    "A207434": ("1.42843337862", "0.447287765006"),
    "A207556": ("2.85686675724", "0.447287765006"),
    "A207557": ("1.25672658334", "0.447287765006"),
    "A207569": ("0.897723361069", "0.894575530012"),
    "A207570": ("0.615706688706", "1.34186329502"),
    "A207571": ("1.3000916313", "1.34186329502"),
    "A207651": ("6.77875628359", "0.223643882503"),
    "A207652": ("1.42843337862", "0.447287765006"),
    "A207653": ("3.25126885713", "0.447287765006"),
    "A209832": ("1.55939360247", "0.894575530012"),
    "A214687": ("2.20531558169", "0.894575530012"),
    "A215066": ("1.10265779084", "0.894575530012"),
    "A224885": ("7.40023954883", "0.447287765006"),
    "A289312": ("2.9782224007", "0.447287765006"),
    "A289313": ("2.1550454655", "0.894575530012"),
    "A289316": ("1.42843337862", "0.447287765006"),
    "A289317": ("1.30847139165", "0.223643882503"),
}

_CENTRAL_DIGITS = {
    "mu": "0.842765913272",
    "xi": "0.822467033424",
    "sigma": "0.319886359071",
}

_FIRST_ROW_TRIANGLE = (
    (1,),
    (1, 1),
    (2, 2, 1),
    (5, 6, 3, 1),
    (15, 21, 12, 4, 1),
    (53, 84, 54, 20, 5, 1),
    (217, 380, 270, 110, 30, 6, 1),
)

_DIAGONAL_ROW_7 = {2: 53, 3: 183, 4: 287, 5: 267, 6: 160, 7: 64}


def _check_series_prefixes() -> Tuple[bool, str]:
    for family, lam, want in _SERIES_PREFIXES:
        series = family_series(family, lam, len(want) - 1)
        got = tuple(series.coeff(n) for n in range(len(want)))
        if got != want:
            return False, f"{family}[{lam.describe()}] prefix {got} != {want}"
    for name, want in _NAMED_PREFIXES:
        got = tuple(named_sequence(name, len(want)))
        if got != want:
            return False, f"{name} prefix {got} != {want}"
    count = len(_SERIES_PREFIXES) + len(_NAMED_PREFIXES)
    return True, f"{count} sequence prefixes exact"


def _check_oracle() -> Tuple[bool, str]:
    cells = 0
    for family in FAMILIES:
        for lam in (ALL, PRIMITIVE):
            gf = family_series(family, lam, 7)
            for n in range(1, 8):
                matrices = enumerate_matrices(family, lam, n)
                if len(matrices) != gf.coeff(n):
                    return False, (
                        f"{family}[{lam.describe()}] count at n={n}: "
                        f"{len(matrices)} != {gf.coeff(n)}"
                    )
                for stat in STATS:
                    if family == "self-dual" and stat == "twos":
                        continue
                    got = histogram(matrices, stat)
                    poly = stat_profile(family, stat, lam, 7).coeff(n)
                    want = {v: c for v, c in enumerate(poly) if c}
                    if got != want:
                        return False, (
                            f"{family}/{stat}[{lam.describe()}] histogram "
                            f"mismatch at n={n}"
                        )
                    cells += 1
    return True, f"{cells} histograms match brute-force enumeration (n <= 7)"


def _check_identities() -> Tuple[bool, str]:
    reports = identity_suite()
    bad = [name for name, report in reports if not report.ok]
    if bad:
        return False, "failed: " + ", ".join(bad)
    return True, f"{len(reports)} series identities exact"


def _check_triangles() -> Tuple[bool, str]:
    totals = fishburn_numbers(7)
    for n, want in enumerate(_FIRST_ROW_TRIANGLE, start=1):
        dist = distribution("fishburn", "first_row", ALL, n)
        if dist.counts != want or dist.support != tuple(range(1, n + 1)):
            return False, f"first-row triangle row {n}: {dist.counts} != {want}"
        if dist.total != totals[n]:
            return False, f"row {n} total {dist.total} != {totals[n]}"
    diag = distribution("fishburn", "diagonal", ALL, 7)
    got = dict(zip(diag.support, diag.counts))
    if got != _DIAGONAL_ROW_7 or diag.total != 1014:
        return False, f"diagonal row 7: {got} != {_DIAGONAL_ROW_7}"
    return True, "both refined triangles exact through n = 7 (row sums 1014)"


def _agree(x, y, tol="1e-12") -> bool:
    x, y = _mpf(x), _mpf(y)
    scale = max(abs(x), abs(y), mp.mpf(1))
    return abs(x - y) <= mp.mpf(tol) * scale


def _check_constants() -> Tuple[bool, str]:
    with mp.workdps(30):
        for name in sorted(_PRINTED_CONSTANTS):
            c_str, rho_str = _PRINTED_CONSTANTS[name]
            form = named_form(name)
            got = (mp.nstr(form.c, 12), mp.nstr(form.rho, 12))
            if got != (c_str, rho_str):
                return False, f"{name}: (c, rho) = {got} != {(c_str, rho_str)}"
        central = saddle.optimum()
        for key, want in _CENTRAL_DIGITS.items():
            got = mp.nstr(getattr(central, key), 12)
            if got != want:
                return False, f"{key} = {got} != {want}"
        # Coherence of the central constants with their defining equations.
        if not _agree(mp.e ** (central.mu * central.xi), 2):
            return False, "exp(mu*xi) != 2"
        if not _agree(saddle.I_func(central.mu * central.xi), central.xi):
            return False, "I(mu*xi) != xi"
        if not _agree(central.sigma ** 2,
                      72 * mp.pi ** -4 * central.tau_aux):
            return False, "sigma^2 != 72 pi^-4 tau_aux"
        sd = asymptotics.constants_self_dual(1, 1)
        closed = (6 / mp.pi ** mp.mpf("1.5")
                  * mp.exp(mp.pi ** 2 / 24 - mp.mpf(1) / 4
                           + 3 * mp.log(2) ** 2 / (2 * mp.pi ** 2)))
        if mp.nstr(sd.c, 12) != "1.36195103905" or not _agree(sd.c, closed):
            return False, f"self-dual c = {mp.nstr(sd.c, 12)}"
        primitive = asymptotics.constants_self_dual(1, 0)
        if mp.nstr(primitive.c, 3) != "0.299":
            return False, f"primitive self-dual c = {mp.nstr(primitive.c, 3)}"
    count = len(_PRINTED_CONSTANTS) + len(_CENTRAL_DIGITS) + 2
    return True, f"{count} printed constants reproduced to their shown digits"


def _check_limit_moments() -> Tuple[bool, str]:
    law = limit_law_for("row-fishburn", "first_row", ALL, 10)
    with mp.workdps(30):
        log2 = mp.log(2)
        checks = (
            ("rate", law.rate, log2),
            ("mean", law.mean(), 2 * log2),
            ("variance", law.variance(), 2 * log2 * (1 - log2)),
        )
        for name, got, want in checks:
            if not _agree(got, want):
                return False, f"first-row {name}: {mp.nstr(_mpf(got), 15)}"
        pmf1 = law.pmf(Fraction(1))
        if abs(pmf1 - log2) > mp.mpf("1e-12"):
            return False, f"P(X = 1) = {mp.nstr(pmf1, 15)} != log 2"
    return True, "zero-truncated Poisson(log 2) moments exact to 12 digits"


def _check_fixtures() -> Tuple[bool, str]:
    ids = fixture_ids()
    for name in ids:
        seq = fetch(name, mode="offline")
        count = min(len(seq.values), 36)
        computed = named_sequence(name, count)
        report = cross_check(computed, seq, start=seq.offset)
        if not report.ok:
            return False, str(report)
    return True, f"{len(ids)} stored sequences match recomputation"


def _check_convergence() -> Tuple[bool, str]:
    counts = fishburn_numbers(200)
    report = ratio_sequence(counts, asymptotics.constants_fishburn(1, 1),
                            [100, 150, 200])
    gap = abs(report.extrapolated_limit - 1)
    ok = gap < mp.mpf("1e-3")
    return ok, f"|extrapolated ratio - 1| = {mp.nstr(gap, 6)}"


def _check_refined_decay() -> Tuple[bool, str]:
    labeled = labeled_numbers(100)

    def err(n: int) -> mp.mpf:
        exact = Fraction(labeled[n], factorial(n))
        return abs(asymptotics.refined_a158690(n, 3) / _mpf(exact) - 1)

    ratio = err(100) / err(50)
    ok = mp.mpf("0.06") <= ratio <= mp.mpf("0.25")
    return ok, f"err(100)/err(50) = {mp.nstr(ratio, 6)}"


def _saddle_clauses() -> List[Tuple[str, bool, str]]:
    """The four saddle-channel clauses of the acceptance battery, with the
    same bounds; residuals are checked over every k that an_approx sums."""
    labeled = labeled_numbers(200)
    rel = {}
    worst = mp.mpf(0)
    for n in (50, 100, 200):
        exact = Fraction(labeled[n], factorial(n))
        rel[n] = abs(saddle.an_approx(n) / _mpf(exact) - 1)
        for k in saddle._summation_range(n):
            state = saddle.solve_saddle(n, k)
            worst = max(worst, abs(state.upsilon[0] - n) / n)
    tail = saddle.window_tail(120)
    return [
        ("|an_approx/a_n - 1| <= 0.05 at n=100",
         rel[100] <= mp.mpf("0.05"), mp.nstr(rel[100], 4)),
        ("relative error at n=200 strictly below n=50",
         rel[200] < rel[50],
         f"rel(50)={mp.nstr(rel[50], 4)}, rel(200)={mp.nstr(rel[200], 4)}"),
        ("window tail mass <= 1e-3 at n=120",
         tail <= Fraction(1, 1000), mp.nstr(_mpf(tail), 4)),
        ("saddle residuals <= 1e-9 * n throughout",
         worst <= mp.mpf("1e-9"), mp.nstr(worst, 4)),
    ]


def _check_saddle_accuracy() -> Tuple[bool, str]:
    clauses = _saddle_clauses()
    failing = sum(not ok for _, ok, _ in clauses)
    lines = [f"{len(clauses) - failing} of {len(clauses)} saddle clauses hold"]
    lines.extend(f"        {'pass' if ok else 'FAIL'}: {name} ({detail})"
                 for name, ok, detail in clauses)
    return not failing, "\n".join(lines)


def _check_local_limit() -> Tuple[bool, str]:
    d60, d120 = saddle.llt_distance(60), saddle.llt_distance(120)
    ok = d120 < d60
    return ok, f"sup gap {mp.nstr(d60, 6)} -> {mp.nstr(d120, 6)}"


_TREND_CELLS = tuple(
    (family, stat, lam)
    for family, stats in (
        ("row-fishburn", ("first_row", "diagonal", "ones")),
        ("fishburn", ("first_row", "diagonal", "ones")),
        ("self-dual", ("first_row", "diagonal", "ones")),
    )
    for stat in stats
    for lam in (ALL,)
) + tuple(
    ("fishburn", stat, LambdaSpec("no1"))
    for stat in ("first_row", "diagonal", "twos")
)


def _check_trends() -> Tuple[bool, str]:
    for family, stat, lam in _TREND_CELLS:
        gaps = []
        for n in (30, 60):
            dist = distribution(family, stat, lam, n)
            law = limit_law_for(family, stat, lam, n)
            gaps.append(compare(dist, law).sup_distance)
        if not gaps[1] < gaps[0]:
            return False, (
                f"{family}/{stat}[{lam.describe()}] sup distance "
                f"{mp.nstr(gaps[0], 4)} -> {mp.nstr(gaps[1], 4)}"
            )
    return True, f"{len(_TREND_CELLS)} limit-law cells tighten from n=30 to n=60"


_BASE_CHECKS: Tuple[Tuple[str, Callable[[], Tuple[bool, str]]], ...] = (
    ("series-prefixes", _check_series_prefixes),
    ("oracle-equivalence", _check_oracle),
    ("identity-suite", _check_identities),
    ("triangle-tables", _check_triangles),
    ("printed-constants", _check_constants),
    ("limit-moments", _check_limit_moments),
    ("sequence-fixtures", _check_fixtures),
)

_FULL_CHECKS: Tuple[Tuple[str, Callable[[], Tuple[bool, str]]], ...] = (
    ("convergence", _check_convergence),
    ("refined-decay", _check_refined_decay),
    ("saddle-accuracy", _check_saddle_accuracy),
    ("local-limit", _check_local_limit),
    ("statistic-trends", _check_trends),
)


def _run_verify(config: RunConfig) -> int:
    checks = _BASE_CHECKS + (_FULL_CHECKS if config.full else ())
    lines = []
    failures = 0
    for name, fn in checks:
        ok, detail = fn()
        failures += not ok
        lines.append(f"{'ok  ' if ok else 'FAIL'}  {name}: {detail}")
    lines.append(
        f"verify: {len(checks)} checks, {failures} failure"
        f"{'' if failures == 1 else 's'}"
    )
    _emit("\n".join(lines) + "\n", config)
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
    out.add_argument("--digits", type=int, default=12,
                     help="significant digits for floats (default 12)")

    p = sub.add_parser("enumerate", parents=[family, out],
                       help="exact counts for sizes 0..N")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)

    sub.add_parser("asymptote", parents=[family, out],
                   help="leading-order growth constants (c, rho, beta, n_power)")

    p = sub.add_parser("converge", parents=[family, out],
                       help="ratios of exact counts to the asymptotic form")
    p.add_argument("--n-list", dest="n_list", type=_parse_n_list,
                   required=True, metavar="N1,N2,...")

    p = sub.add_parser("distribution", parents=[family, out],
                       help="exact statistic distribution at one size")
    p.add_argument("--stat", choices=STATS, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("saddle", parents=[out],
                       help="saddle-point approximation versus the exact value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--profile", action="store_true",
                   help="include the per-k window profile")

    p = sub.add_parser("verify", parents=[out],
                       help="self-contained correctness battery (offline)")
    p.add_argument("--full", action="store_true",
                   help="add the slower asymptotic and trend checks")

    return parser


_RUNNERS = {
    "enumerate": _run_enumerate,
    "asymptote": _run_asymptote,
    "converge": _run_converge,
    "distribution": _run_distribution,
    "saddle": _run_saddle,
    "verify": _run_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = RunConfig.from_args(ns)
        return _RUNNERS[config.command](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
