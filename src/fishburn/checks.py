"""The verification battery: exact counts, printed constants and limit laws.

Each check takes no arguments and returns ``(ok, detail)``, where ``detail``
is one line saying what was compared (or what disagreed).  ``fishburn
verify`` runs ``BASE`` (and ``FULL`` with ``--full``) and prints one line per
check; the acceptance tests call the same functions and assert ``ok``.  The
tables below are the only copy of the values the checks compare against.

Every check that computes floats sets its own mpmath precision (``_DPS``, or
30 digits for the printed constants), so a verdict does not depend on the
caller's global precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, List, Tuple

import mpmath as mp

from . import asymptotics, saddle
from .asymptotics import _mpf, named_form, ratio_sequence
from .distributions import compare, distribution, limit_law_for, stat_mean_variance
from .families import (
    ALL,
    FAMILIES,
    PRIMITIVE,
    STATS,
    LambdaSpec,
    family_series,
    fishburn_numbers,
    labeled_numbers,
    named_sequence,
    stat_profile,
)
from .identities import identity_suite
from .oeis import cross_check, fetch, fixture_ids
from .oracle import enumerate_matrices, histogram

_DPS = 40

Check = Callable[[], Tuple[bool, str]]


def _agree(x, y, tol="1e-12") -> bool:
    x, y = _mpf(x), _mpf(y)
    scale = max(abs(x), abs(y), mp.mpf(1))
    return abs(x - y) <= mp.mpf(tol) * scale


# ---------------------------------------------------------------------------
# Exact counts


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


def check_series_prefixes() -> Tuple[bool, str]:
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


def check_oracle() -> Tuple[bool, str]:
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
                        continue  # no marking series exists for this pair
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


_IDENTITY_NAMES = ("transform[all]", "transform[01]", "transform[even+]",
                   "glaisher", "labeled-forms", "pairing", "quadratic-transform")


def check_identities() -> Tuple[bool, str]:
    reports = identity_suite()
    missing = set(_IDENTITY_NAMES) - {name for name, _ in reports}
    if missing:
        return False, "missing: " + ", ".join(sorted(missing))
    bad = [name for name, report in reports if not report.ok]
    if bad:
        return False, "failed: " + ", ".join(bad)
    return True, f"{len(reports)} series identities exact"


# Row n of each refined triangle of Fishburn matrices: the first-row counts
# for values 1..n, and the diagonal counts by value.
FIRST_ROW_TRIANGLE = (
    (1,),
    (1, 1),
    (2, 2, 1),
    (5, 6, 3, 1),
    (15, 21, 12, 4, 1),
    (53, 84, 54, 20, 5, 1),
    (217, 380, 270, 110, 30, 6, 1),
)

DIAGONAL_TRIANGLE = (
    {1: 1},
    {2: 2},
    {2: 1, 3: 4},
    {2: 2, 3: 5, 4: 8},
    {2: 5, 3: 14, 4: 18, 5: 16},
    {2: 15, 3: 47, 4: 67, 5: 56, 6: 32},
    {2: 53, 3: 183, 4: 287, 5: 267, 6: 160, 7: 64},
)


def check_triangles() -> Tuple[bool, str]:
    totals = fishburn_numbers(7)
    for n, want in enumerate(FIRST_ROW_TRIANGLE, start=1):
        dist = distribution("fishburn", "first_row", ALL, n)
        if dist.counts != want or dist.support != tuple(range(1, n + 1)):
            return False, f"first-row triangle row {n}: {dist.counts} != {want}"
        if dist.total != totals[n]:
            return False, f"row {n} total {dist.total} != {totals[n]}"
    for n, want in enumerate(DIAGONAL_TRIANGLE, start=1):
        dist = distribution("fishburn", "diagonal", ALL, n)
        got = dict(zip(dist.support, dist.counts))
        if got != want:
            return False, f"diagonal triangle row {n}: {got} != {want}"
        if dist.total != totals[n]:
            return False, f"diagonal row {n} total {dist.total} != {totals[n]}"
    if totals[7] != 1014:
        return False, f"row 7 total {totals[7]} != 1014"
    return True, "both refined triangles exact through n = 7 (row sums 1014)"


# ---------------------------------------------------------------------------
# Printed constants


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


def check_constants() -> Tuple[bool, str]:
    with mp.workdps(30):
        central = saddle.optimum()
        zagier = asymptotics.constants_fishburn(1, 1)
        sd = asymptotics.constants_self_dual(1, 1)
        blr = asymptotics.blr_expansion()
        refined = asymptotics.a158690_expansion(3)
        pi2 = mp.pi ** 2
        # (label, value, significant digits, printed digits).  Zagier's
        # constants appear twice: through the catalogue and through the
        # family builder.
        printed = [(key, getattr(central, key), 12, want)
                   for key, want in _CENTRAL_DIGITS.items()]
        for name in sorted(_PRINTED_CONSTANTS):
            form = named_form(name)
            c_str, rho_str = _PRINTED_CONSTANTS[name]
            printed += [(f"{name} c", form.c, 12, c_str),
                        (f"{name} rho", form.rho, 12, rho_str)]
        printed += [
            ("constants_fishburn(1, 1) c", zagier.c, 12, "6.77875628359"),
            ("constants_fishburn(1, 1) rho", zagier.rho, 12, "0.223643882503"),
            ("self-dual c", sd.c, 12, "1.36195103905"),
            ("primitive self-dual c",
             asymptotics.constants_self_dual(1, 0).c, 3, "0.299"),
        ]
        # (label, value, closed form), to 12 digits: the central constants
        # against their defining equations, then the refined expansions.
        closed = [
            ("exp(mu*xi)", mp.e ** (central.mu * central.xi), 2),
            ("I(mu*xi)", saddle.I_func(central.mu * central.xi), central.xi),
            ("sigma^2", central.sigma ** 2, 72 * mp.pi ** -4 * central.tau_aux),
            ("self-dual c", sd.c, 6 / mp.pi ** mp.mpf("1.5") * mp.exp(
                pi2 / 24 - mp.mpf(1) / 4 + 3 * mp.log(2) ** 2 / (2 * pi2))),
            ("constants_fishburn(1, 1) c", zagier.c, named_form("A022493").c),
            ("constants_fishburn(1, 1) rho", zagier.rho, named_form("A022493").rho),
            ("blr c", blr.c, 6 * mp.sqrt(2) / pi2 * mp.exp(-pi2 / 24)),
            ("blr rho", blr.rho, 12 / pi2),
            ("A158690 expansion c", refined.c, 6 * mp.sqrt(2) / pi2),
            ("A158690 expansion rho", refined.rho, 12 / pi2),
        ]
        closed += [(f"A158690 expansion c{j}", cj, (-pi2 / 288) ** j / mp.factorial(j))
                   for j, cj in enumerate(refined.coefficients, start=1)]
        for label, value, digits, want in printed:
            if mp.nstr(value, digits) != want:
                return False, f"{label} = {mp.nstr(value, digits)} != {want}"
        for label, value, want in closed:
            if not _agree(value, want):
                return False, f"{label} = {mp.nstr(value, 15)} misses its closed form"
        # The printed blr coefficients carry five significant digits.
        for j, (cj, want) in enumerate(zip(blr.coefficients,
                                           ("0.43333", "-0.056119", "-0.033780")),
                                       start=1):
            if abs(cj - mp.mpf(want)) >= mp.mpf("1e-5"):
                return False, f"blr c{j} = {mp.nstr(cj, 8)} != {want}"
    count = len(_PRINTED_CONSTANTS) + len(_CENTRAL_DIGITS) + 2
    return True, (f"{count} printed constants reproduced to their shown digits; "
                  "refined-expansion constants match their closed forms")


# ---------------------------------------------------------------------------
# Limit laws and stored sequences


def check_limit_moments() -> Tuple[bool, str]:
    with mp.workdps(_DPS):
        law = limit_law_for("row-fishburn", "first_row", ALL, 10)
        log2 = mp.log(2)
        clauses = (
            ("rate", law.rate, log2),
            ("mean", law.mean(), 2 * log2),
            ("variance", law.variance(), 2 * log2 * (1 - log2)),
        )
        for name, got, want in clauses:
            if not _agree(got, want):
                return False, f"first-row {name}: {mp.nstr(_mpf(got), 15)}"
        pmf1 = law.pmf(Fraction(1))
        if abs(pmf1 - log2) > mp.mpf("1e-12"):
            return False, f"P(X = 1) = {mp.nstr(pmf1, 15)} != log 2"
    return True, "zero-truncated Poisson(log 2) moments exact to 12 digits"


def check_fixtures() -> Tuple[bool, str]:
    ids = fixture_ids()
    for name in ids:
        seq = fetch(name, mode="offline")
        count = min(len(seq.values), 36)
        computed = named_sequence(name, count)
        report = cross_check(computed, seq, start=seq.offset)
        if not report.ok:
            return False, str(report)
    return True, (f"{len(ids)} stored sequences match recomputation "
                  "(a regression snapshot of this package's own series)")


# ---------------------------------------------------------------------------
# Asymptotic accuracy (the --full checks)


def check_convergence() -> Tuple[bool, str]:
    with mp.workdps(_DPS):
        counts = fishburn_numbers(200)
        report = ratio_sequence(counts, asymptotics.constants_fishburn(1, 1),
                                [100, 150, 200])
        gap = abs(report.extrapolated_limit - 1)
        ok = gap < mp.mpf("1e-3")
        return ok, f"|extrapolated ratio - 1| = {mp.nstr(gap, 6)}"


def check_refined_decay() -> Tuple[bool, str]:
    labeled = labeled_numbers(100)

    def err(n: int) -> mp.mpf:
        exact = Fraction(labeled[n], factorial(n))
        return abs(asymptotics.refined_a158690(n, 3) / _mpf(exact) - 1)

    with mp.workdps(_DPS):
        ratio = err(100) / err(50)
        ok = mp.mpf("0.06") <= ratio <= mp.mpf("0.25")
        return ok, f"err(100)/err(50) = {mp.nstr(ratio, 6)}"


def check_saddle_accuracy() -> Tuple[bool, str]:
    """The four saddle-channel clauses; residuals are checked over every k
    that an_approx sums, which contains the per-summand validity window."""
    labeled = labeled_numbers(200)
    rel = {}
    with mp.workdps(_DPS):
        worst = mp.mpf(0)
        for n in (50, 100, 200):
            exact = Fraction(labeled[n], factorial(n))
            rel[n] = abs(saddle.an_approx(n) / _mpf(exact) - 1)
            for k in saddle._summation_range(n):
                state = saddle.solve_saddle(n, k)
                worst = max(worst, abs(state.upsilon[0] - n) / n)
        tail = saddle.window_tail(120)
        clauses = [
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
    failing = sum(not ok for _, ok, _ in clauses)
    lines = [f"{len(clauses) - failing} of {len(clauses)} saddle clauses hold"]
    lines.extend(f"        {'pass' if ok else 'FAIL'}: {name} ({detail})"
                 for name, ok, detail in clauses)
    return not failing, "\n".join(lines)


def check_local_limit() -> Tuple[bool, str]:
    with mp.workdps(_DPS):
        d60, d120 = saddle.llt_distance(60), saddle.llt_distance(120)
        ok = d120 < d60
        return ok, f"sup gap {mp.nstr(d60, 6)} -> {mp.nstr(d120, 6)}"


# Every (family, statistic, entries) cell with a limit law.
TREND_CELLS = (
    ("row-fishburn", "first_row", ALL),
    ("row-fishburn", "diagonal", ALL),
    ("row-fishburn", "ones", ALL),
    ("row-fishburn", "twos", ALL),
    ("fishburn", "first_row", ALL),
    ("fishburn", "diagonal", ALL),
    ("fishburn", "ones", ALL),
    ("fishburn", "twos", ALL),
    ("fishburn", "first_row", LambdaSpec("no1")),
    ("fishburn", "diagonal", LambdaSpec("no1")),
    ("fishburn", "twos", LambdaSpec("no1")),
    ("self-dual", "first_row", ALL),
    ("self-dual", "diagonal", ALL),
    ("self-dual", "ones", ALL),
)


def check_trends() -> Tuple[bool, str]:
    with mp.workdps(_DPS):
        for family, stat, lam in TREND_CELLS:
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
        law = limit_law_for("row-fishburn", "first_row", ALL, 30)
        log2 = mp.log(2)
        if not (_agree(law.mean(), 2 * log2)
                and _agree(law.variance(), 2 * log2 * (1 - log2))):
            return False, ("first-row mean or variance at n=30 misses "
                           "zero-truncated Poisson(log 2)")
        mean, _ = stat_mean_variance("row-fishburn", "ones", ALL, 150)
        observed = _mpf(Fraction(150) - mean) / 2
        gap = abs(observed / (mp.pi**2 / 12) - 1)
        if gap > mp.mpf("0.15"):
            return False, f"ones-mean gap {mp.nstr(gap, 4)} > 0.15 at n=150"
        return True, (
            f"{len(TREND_CELLS)} limit-law cells tighten from n=30 to n=60; "
            f"truncated-Poisson moments exact; ones-mean gap "
            f"{mp.nstr(100 * gap, 3)}% at n=150"
        )


def check_parity_split() -> Tuple[bool, str]:
    lam = LambdaSpec("custom", (0, 1, 0, 1, 1))
    series = family_series("fishburn", lam, 400)
    counts = [series.coeff(n) for n in range(401)]
    with mp.workdps(_DPS):
        form = asymptotics.constants_small2(1, 0, 1, lam_odd=1, m=2)
        gaps = {}
        for label, branch, ns in (("even", form.parity[0], [200, 300, 400]),
                                  ("odd", form.parity[1], [199, 299, 399])):
            report = ratio_sequence(counts, branch, ns)
            gaps[label] = abs(report.extrapolated_limit - 1)
            if gaps[label] > mp.mpf("0.05"):
                return False, (f"{label} ratios extrapolate "
                               f"{mp.nstr(gaps[label], 4)} away from 1")
        tvs = []
        for n in (30, 60):
            dist = distribution("fishburn", "twos", lam, n)
            law = limit_law_for("fishburn", "twos", lam, n)
            if not _agree(law.rate, mp.pi**2 / 6):
                return False, f"twos rate {mp.nstr(law.rate, 15)} != pi^2/6"
            tvs.append(compare(dist, law).total_variation)
        detail = (f"parity ratios extrapolate within "
                  f"{mp.nstr(100 * gaps['even'], 3)}% (even) / "
                  f"{mp.nstr(100 * gaps['odd'], 3)}% (odd); TV to "
                  f"Poisson(pi^2/6) {mp.nstr(tvs[0], 3)} -> {mp.nstr(tvs[1], 3)}")
        return tvs[1] < tvs[0], detail


BASE: Tuple[Tuple[str, Check], ...] = (
    ("series-prefixes", check_series_prefixes),
    ("oracle-equivalence", check_oracle),
    ("identity-suite", check_identities),
    ("triangle-tables", check_triangles),
    ("printed-constants", check_constants),
    ("limit-moments", check_limit_moments),
    ("sequence-fixtures", check_fixtures),
)

FULL: Tuple[Tuple[str, Check], ...] = (
    ("convergence", check_convergence),
    ("refined-decay", check_refined_decay),
    ("saddle-accuracy", check_saddle_accuracy),
    ("local-limit", check_local_limit),
    ("statistic-trends", check_trends),
    ("parity-split", check_parity_split),
)
