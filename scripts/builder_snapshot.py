#!/usr/bin/env python3
"""Snapshot every builder's output and CLI run, to check a refactor changes none.

Two commands:

    python3 scripts/builder_snapshot.py SRC OUT.pkl
    python3 scripts/builder_snapshot.py --compare A.pkl B.pkl

The first imports ``fishburn`` from the source directory SRC (for example
``src`` of a checkout) and pickles, for every builder case, either the value
with the type of each coefficient or the error's type and message, together
with three counts of the case: its ``_mul_into`` calls, its ``_mul_record``
calls (the products that ran as passes), so that a moved choice between
passes and dot products shows by itself, and the record term pairs its
``_combo_mul`` calls multiplied (sum |x| |y|), so that a product that
drags a growing record shows even when the product and pass counts stay.
Every product, a running power's advance included, enters ``_mul_into``,
which is patched in ``series`` and in every ``fishburn`` module that
imported it by name, so the product counts cover every product;
``_mul_record`` is patched in ``series``, where ``_mul_into`` looks it up.
The builder cases make the same builds in both trees of a comparison: the
catalog ids go through ``named_gf``, each route of ``IDENTITY_ROUTES`` is
built from ``fishburn.identities``, and so are the direct forms of the
Fishburn family and its statistics.  The direct cases cover the multisets
the Fishburn family admits (not the empty one) and mark the 1s only where
the value 1 is allowed.  Each multiset of ``MULTISETS`` also records
``LambdaSpec.weight(i)`` for i <= ``WEIGHT_MAX`` with its smallest entry and
smallest odd entry, and both forms of R(q) are recorded at ``R_ORDERS`` as
well.
The ``monomial`` statistic cases record full profiles, unpacked from one
evaluation at v = 2^K as ``stat_profile`` does, for both forms; their value
is (order, rows), rows[n] the v-polynomial of z^n.  The product form's
profiles of ``DEEP_PROFILES`` are recorded as well, at orders where the
kernel's choice between passes and dot products differs from the small
orders'.  The ``jet1`` to ``jet3``
cases record moment jets of depth d = 1..3 for both forms, unpacked from
one build at v = 1 + 2^K modulo 2^{(d+1)K}, K = bits(max count) +
d bits(order) + 2, as ``stat_jet`` does at depth 2; their value is the
d + 1 parts (order, coefficients), part t holding sum_m C(m, t) [v^m z^n]
at z^n, as the moment jets of earlier trees were recorded.
Every cache of ``fishburn.families`` is cleared before each case, so the
counts do not depend on the order of the cases.  The one ``warm`` case then
makes the cached calls of ``WARM_CALLS`` in turn without clearing, so later
calls are served from earlier calls' builds, and records every result.
The CLI cases run
``fishburn.cli.main`` in process and record its exit code, its stdout and,
for ``--output``, the file it wrote; they cover every command in every
format, ``--digits 6``, ``saddle --profile``, distributions with and without
a limit law, and ``verify``.  The analysis cases record ``limit_law_for``
for every family, statistic, size and multiset of ``LAW_SIZES`` and
``LAW_MULTISETS`` (every field, with each mpf exact as its ``_mpf_`` tuple),
``family_form``, ``named_form``, ``constants_small2`` (whose record holds
both parity branches, through ``form.parity``), ``dilog`` and
``I_func``, and the saddle analysis: ``an_approx`` for every n of
``SADDLE_SIZES``, the fields ``SADDLE_FIELDS`` of ``solve_saddle(n, k)``
(n, k, the radius r and the cumulants upsilon) at both ends and the
centre of ``_summation_range(n)``, ``log_product`` at
``LOG_PRODUCT_POINTS`` and ``check_bounds(64)``, and for every n of
``PROFILE_SIZES`` the readers of the exact per-k profile: ``window_tail``
exactly, ``llt_distance`` and ``profile_rows``.  Those constants and
function values are recorded as 50-significant-digit strings, so a change
in the last bits of a 60-digit evaluation does not count as a difference.
The ``compare`` cases, for every family and statistic over every entry value
at each n of ``COMPARE_SIZES``, record ``compare``'s four fields and the
limit column of ``histogram_rows`` exactly, as ``_mpf_`` tuples, so that a
change in the last bit of a bin mass does count; a cell without a covered
law records its error.  The five normal-law cells are the ones whose bins
come from the normal CDF at the bin edges; the CLI's ``distribution`` cases
stop at n = 14 and print 12 digits.

The second loads two snapshots written by this script and prints each case
whose value, coefficient types or error differ, then each case whose product
or pass counts differ, then each case whose record term pairs rose, then a
summary: the number of cases of each kind, the number whose ``_mul_into``
count rose, the number whose ``_mul_record`` count fell, the number whose
record term pairs rose, and each side's three counts summed over its cases.
It exits 1 when a value, a type or an error differs (or a case is missing on
one side) and 0 otherwise; the counts are reported but do not change the
exit status.
"""

import argparse
import collections
import contextlib
import dataclasses
import io
import itertools
import pickle
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath as mp

FAMILY_ORDERS = (0, 1, 2, 20, 60)
STAT_ORDERS = (0, 1, 12, 25)
STAT_MULTISETS = ("all", "012", "even+")
# (family, statistic, multiset, order) of the profiles recorded past STAT_ORDERS.
DEEP_PROFILES = (("fishburn", "first_row", "all", 90),)
VARIANT_ORDERS = (0, 1, 2, 20, 40)
NAMED_COUNTS = (1, 2, 25)
MULTISETS = ("all", "01", "012", "odd", "even+", "no1", "1,0,2", "0,3", "custom")
# The second route of each identity but the direct Fishburn forms, by its
# name in fishburn.identities.
IDENTITY_ROUTES = (
    "_variant_A035378_inverted", "_variant_A035378_paired", "_variant_A207557_rf",
    "_variant_A079144_completed", "_r_at_exp_neg", "_r_at_one_minus", "_r_quotient",
) + tuple(f"_variant_A158690_form{i}" for i in range(2, 6))
TABLE_EGF = ("A196194", "A207214", "A215066", "A209832", "A214687", "A079144")
ORDINARY = ("A207386", "A207397", "A207556", "A207569", "A207570", "A207571")
# Catalog ids built by named_gf at VARIANT_ORDERS, besides TABLE_EGF and ORDINARY.
NAMED_VARIANTS = ("A035378", "A158690", "A207557", "A207651", "A207652", "A207653")
# LambdaSpec.weight(i) is recorded for i up to this value.
WEIGHT_MAX = 60
# Orders of both forms of R(q) recorded besides VARIANT_ORDERS.
R_ORDERS = (30,)
FORMATS = ("table", "csv", "json")
LAW_SIZES = (1, 2, 9, 30, 59, 60)
LAW_MULTISETS = ("all", "01", "012", "even+", "no1",
                 "0,0,1", "0,1", "0,1,1", "0,1,0,1,1", "0,1,0,0,1", "2,3", "3,1,2")
# (lam2, lam3, lam4, lam_odd) for constants_small2, each tried at m = 1, 2, 3.
SMALL2_WEIGHTS = ((1, 1, 1, None), (2, 3, 5, 3), (1, 0, 1, None), (1, 0, 1, 1),
                  (3, 0, 2, 4))
# Points for dilog and I_func; those outside a function's domain record its error.
SPECIAL_POINTS = (0, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(7, 10),
                  Fraction(9, 10), Fraction(999, 1000), 1, 2, 5, -1)
# Sizes n of the saddle cases, up to the series budget.
SADDLE_SIZES = (20, 60, 100, 200, 500)
# The SaddleState fields recorded, named so that a field added later does not
# count as a difference.
SADDLE_FIELDS = ("n", "k", "r", "upsilon")
# Sizes n of the cases that read the exact per-k profile.
PROFILE_SIZES = (20, 60, 120, 200)
# Sizes n of the cases that compare each family and statistic over every entry
# value with its limit law.
COMPARE_SIZES = (30, 60)
# (k, r) points of log_product.
LOG_PRODUCT_POINTS = ((1, 1e-6), (30, 1e-3), (3, 2.9), (499, 1e-4))
# (function, arguments) of the warm case, made in this order on shared caches.
WARM_CALLS = tuple(
    ("distribution", (family, stat, "all", n))
    for n in (45, 12, 60, 30)
    for family, stat in (("fishburn", "first_row"), ("self-dual", "diagonal"))
) + tuple(
    ("stat_mean_variance", ("fishburn", "first_row", "all", n)) for n in (100, 51, 90)
) + tuple(("labeled_numbers", (n,)) for n in (60, 20, 80))
CLI_RUNS = (
    ("enumerate", "--n-max", "30"),
    ("enumerate", "--family", "self-dual", "--lambda", "012", "--n-max", "25"),
    ("asymptote",),
    ("asymptote", "--family", "self-dual"),
    ("asymptote", "--family", "row-fishburn", "--lambda", "1,2"),
    ("asymptote", "--lambda", "no1"),
    ("asymptote", "--lambda", "0,1,0,1,1"),
    ("converge", "--n-list", "30,60,90"),
    ("converge", "--family", "self-dual", "--n-list", "40,80"),
    ("converge", "--lambda", "0,1,0,1,1", "--n-list", "30,60"),
    ("distribution", "--stat", "first_row", "--n", "12"),
    ("distribution", "--family", "row-fishburn", "--stat", "ones", "--n", "9"),
    ("distribution", "--family", "self-dual", "--stat", "diagonal", "--n", "14"),
    ("distribution", "--lambda", "0,0,1,1", "--stat", "first_row", "--n", "9"),
    ("saddle", "--n", "60"),
    ("saddle", "--n", "60", "--profile"),
)


def _describe(obj):
    """A picklable (value, coefficient types) pair for a builder's result."""
    from fishburn.series import TruncatedSeries

    if isinstance(obj, TruncatedSeries):
        return (obj.order, obj.coeffs), tuple(type(c).__name__ for c in obj.coeffs)
    if isinstance(obj, _Profile):
        types = tuple(tuple(type(c).__name__ for c in p) for p in obj.rows)
        return (obj.order, obj.rows), types
    if isinstance(obj, _Jet):
        return (tuple((obj.order, part) for part in obj.parts),
                tuple(tuple(type(c).__name__ for c in part) for part in obj.parts))
    if isinstance(obj, (list, tuple)):
        return tuple(obj), tuple(type(c).__name__ for c in obj)
    raise TypeError(f"no description for {type(obj).__name__}")


_Profile = collections.namedtuple("_Profile", "order rows")
_Jet = collections.namedtuple("_Jet", "order parts")


def _profile(families, series, build, family, stat, lam, order):
    """The full profile that build(family, stat, lam, order, marker) gives,
    unpacked from one evaluation at v = 2^K as ``stat_profile`` does."""
    counts = families.family_series(family, lam, order).coeffs
    bits = max(counts).bit_length()
    packed = build(family, stat, lam, order, series.eval_marker(1 << bits))
    return _Profile(order, families._unpack_rows(packed, counts, bits))


def _jet(families, series, build, family, stat, lam, order, depth):
    """The moment jet of depth `depth` that build(family, stat, lam, order,
    marker) gives, unpacked from one build at v = 1 + 2^K modulo
    2^{(depth+1)K} as ``stat_jet`` does."""
    counts = families.family_series(family, lam, order).coeffs
    bits = max(counts).bit_length() + depth * order.bit_length() + 2
    marker = series.moment_marker(bits, depth)
    packed = build(family, stat, lam, order, marker)
    return _Jet(order, tuple(zip(*families._unpack_moments(packed, counts, marker.mod))))


def _stat_builds(families, identities):
    """{form: (family, stat, lam, order, marker) -> series}: stat_gf, and the
    direct Fishburn form from identities."""
    def direct(family, stat, *rest):
        return identities._direct_stat(stat, *rest)
    return {"product": families.stat_gf, "direct": direct}


def _cases(families, identities, series):
    """(label, thunk) for every builder case, in a fixed order."""
    spec = families.LambdaSpec
    multisets = [
        spec("custom") if text == "custom" else spec.parse(text) for text in MULTISETS
    ]
    for fam in families.FAMILIES:
        for lam in multisets:
            for n in FAMILY_ORDERS:
                yield (f"family_gf {fam} {lam.describe()} {n}",
                       lambda f=fam, l=lam, n=n: families.family_gf(f, l, n))
    for lam in multisets:
        if lam.smallest_entry() is None:
            continue
        for n in FAMILY_ORDERS:
            yield (f"fishburn_gf direct {lam.describe()} {n}",
                   lambda l=lam, n=n: identities._direct_family(l, n))
    builds = [("monomial", lambda *case: _profile(families, series, *case))]
    builds += [(f"jet{d}", lambda stat_build, f, s, l, n, d=d:
                _jet(families, series, stat_build, f, s, l, n, d))
               for d in (1, 2, 3)]
    for fam in families.FAMILIES:
        for stat in families.STATS:
            for form, stat_build in _stat_builds(families, identities).items():
                for name, build in builds:
                    for lam in map(spec.parse, STAT_MULTISETS):
                        if form == "direct" and (fam != "fishburn" or
                                                 stat == "ones" and not lam.weight(1)):
                            continue
                        for n in STAT_ORDERS:
                            yield (f"stat_gf {fam} {stat} {form} {name} "
                                   f"{lam.describe()} {n}",
                                   lambda b=build, sb=stat_build, case=(fam, stat, lam, n):
                                   b(sb, *case))
    for fam, stat, text, n in DEEP_PROFILES:
        yield (f"stat_gf {fam} {stat} product monomial {text} {n}",
               lambda case=(fam, stat, spec.parse(text), n):
               _profile(families, series, families.stat_gf, *case))
    for lam in multisets:
        yield (f"weight {lam.describe()}",
               lambda l=lam: tuple(l.weight(i) for i in range(WEIGHT_MAX + 1))
               + (l.smallest_entry(), l.smallest_odd_entry()))
    routes = [(name, getattr(identities, name)) for name in IDENTITY_ROUTES]
    routes += [(f"table_egf {w}", lambda n, w=w: families.named_gf(w, n))
               for w in TABLE_EGF]
    routes += [(f"ordinary {w}", lambda n, w=w: families.named_gf(w, n))
               for w in ORDINARY]
    routes += [(f"named_gf {w}", lambda n, w=w: families.named_gf(w, n))
               for w in NAMED_VARIANTS]
    routes += [("ramanujan_r alternating", families.ramanujan_r)]
    routes += [(f"recursive_gf {kind}", lambda n, kind=kind: families.recursive_gf(kind, n))
               for kind in ("A186737", "A224885")]
    for name, build in routes:
        r_form = name in ("ramanujan_r alternating", "_r_quotient")
        for n in VARIANT_ORDERS + (R_ORDERS if r_form else ()):
            yield f"{name} {n}", lambda b=build, n=n: b(n)
    for name in families.NAMED_IDS:
        for count in NAMED_COUNTS:
            yield (f"named_sequence {name} {count}",
                   lambda name=name, c=count: families.named_sequence(name, c))


def _record(value, mpf):
    """A picklable record of an analysis result, each mpf rendered by ``mpf``."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _record(getattr(value, f.name), mpf))
                     for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(_record(v, mpf) for v in value)
    return type(value).__name__, mpf(value) if isinstance(value, mp.mpf) else value


def _exact(value):
    return value._mpf_


def _digits(value):
    return mp.nstr(value, 50)


def _analysis_cases(fb, saddle):
    """(label, thunk) for every limit law, constant and special value."""
    multisets = [fb.LambdaSpec.parse(text) for text in LAW_MULTISETS]
    for fam in fb.FAMILIES:
        for stat in fb.STATS:
            for lam in multisets:
                for n in LAW_SIZES:
                    yield (f"limit_law_for {fam} {stat} {lam.describe()} {n}",
                           lambda f=fam, s=stat, l=lam, n=n:
                           _record(fb.limit_law_for(f, s, l, n), _exact))
        for lam in multisets:
            yield (f"family_form {fam} {lam.describe()}",
                   lambda f=fam, l=lam: _record(fb.family_form(f, l), _digits))
    for name in fb.TABLE_IDS:
        yield (f"named_form {name}",
               lambda name=name: _record(fb.named_form(name), _digits))
    for m in (1, 2, 3):
        for lam2, lam3, lam4, odd in SMALL2_WEIGHTS:
            yield (f"constants_small2 {lam2} {lam3} {lam4} {odd} m={m}",
                   lambda w=(lam2, lam3, lam4, odd), m=m:
                   _record(fb.constants_small2(*w, m=m), _digits))
    for func in (saddle.dilog, saddle.I_func):
        for x in SPECIAL_POINTS:
            yield (f"{func.__name__} {x}",
                   lambda func=func, x=x: _record(func(x), _digits))
    for n in SADDLE_SIZES:
        yield f"an_approx {n}", lambda n=n: _record(saddle.an_approx(n), _digits)
        ks = saddle._summation_range(n)
        for k in (ks[0], ks[len(ks) // 2], ks[-1]):
            yield (f"solve_saddle {n} {k}",
                   lambda n=n, k=k: _record(_fields(saddle.solve_saddle(n, k)), _digits))
    for k, r in LOG_PRODUCT_POINTS:
        yield (f"log_product {k} {r}",
               lambda k=k, r=r: _record(saddle.log_product(k, r), _digits))
    yield "check_bounds 64", lambda: _record(saddle.check_bounds(64), _digits)
    for n in PROFILE_SIZES:
        yield f"window_tail {n}", lambda n=n: _record(saddle.window_tail(n), _exact)
        yield f"llt_distance {n}", lambda n=n: _record(saddle.llt_distance(n), _digits)
        yield (f"profile_rows {n}",
               lambda n=n: _record(tuple(saddle.profile_rows(n)), _digits))
    for fam in fb.FAMILIES:
        for stat in fb.STATS:
            for n in COMPARE_SIZES:
                yield (f"compare {fam} {stat} all {n}",
                       lambda f=fam, s=stat, n=n: _limit_columns(fb, f, s, n))


def _limit_columns(fb, family, stat, n):
    """``compare``'s four fields and the limit column of ``histogram_rows``
    for (family, stat) over every entry value at size n, each mpf exact."""
    table = fb.distribution(family, stat, fb.ALL, n)
    law = fb.limit_law_for(family, stat, fb.ALL, n)
    limits = tuple(limit for _, _, limit in fb.histogram_rows(table, law))
    return _record(fb.compare(table, law), _exact), _record(limits, _exact)


def _fields(state):
    """The SADDLE_FIELDS of a solved saddle point, as (name, value) pairs."""
    return tuple((name, getattr(state, name)) for name in SADDLE_FIELDS)


def _warm_case(fb):
    """The results of WARM_CALLS, made one after another on shared caches."""
    out = []
    for func, args in WARM_CALLS:
        args = tuple(fb.LambdaSpec.parse(a) if a == "all" else a for a in args)
        out.append(_record(getattr(fb, func)(*args), _exact))
    return tuple(out)


def _cli_cases(cli, tmp: Path):
    """(label, thunk) for every CLI run, in a fixed order."""
    runs = [list(run) + ["--format", fmt] for run in CLI_RUNS for fmt in FORMATS]
    runs += [list(run) + ["--digits", "6"] for run in CLI_RUNS if run[0] != "enumerate"]
    runs += [["verify"]]
    for argv in runs:
        yield f"cli {' '.join(argv)}", lambda argv=argv: _run_cli(cli, argv)
    for i, argv in enumerate([["enumerate", "--n-max", "12", "--format", "csv"],
                              ["saddle", "--n", "60", "--profile"]]):
        path = str(tmp / f"output{i}")
        yield (f"cli {' '.join(argv)} --output",
               lambda argv=argv, path=path: _run_cli(cli, argv, path))


def _run_cli(cli, argv, output=None):
    """(exit code, stdout, text of the --output file or None) of one run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--output", output] if output else argv)
    text = Path(output).read_text(encoding="utf-8") if output else None
    return code, stdout.getvalue(), text


def snapshot(src: str) -> dict:
    root = Path(src).resolve()
    sys.path.insert(0, str(root))
    import fishburn
    import fishburn.cli as cli
    import fishburn.families as families
    import fishburn.identities as identities
    import fishburn.saddle as saddle
    import fishburn.series as series

    if not Path(families.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"imported {families.__file__}, not the package under {root}")

    counts = Counter()
    kernel, walk = series._mul_into, series._mul_record

    def counting_products(*args):
        counts["_mul_into"] += 1
        return kernel(*args)

    def counting_passes(*args):
        counts["_mul_record"] += 1
        return walk(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fishburn" and getattr(module, "_mul_into", None) is kernel:
            module._mul_into = counting_products
    series._mul_record = counting_passes
    combo_mul = series._combo_mul

    def counting_pairs(x, y):
        counts["_combo_mul"] += len(x) * len(y)
        return combo_mul(x, y)

    series._combo_mul = counting_pairs
    caches = [v for v in vars(families).values() if hasattr(v, "cache_clear")]

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cases = itertools.chain(_cases(families, identities, series),
                                _cli_cases(cli, Path(tmp)),
                                _analysis_cases(fishburn, saddle),
                                [("warm", lambda: _warm_case(fishburn))])
        for label, thunk in cases:
            for cache in caches:
                cache.cache_clear()
            counts.clear()
            try:
                value, types = _describe(thunk())
                result = ("value", value, types)
            except Exception as exc:  # the error is part of the snapshot
                result = ("error", type(exc).__name__, str(exc))
            if label in out:
                raise RuntimeError(f"duplicate case label {label!r}")
            out[label] = (result, counts["_mul_into"], counts["_mul_record"],
                          counts["_combo_mul"])
    return out


def compare(a: dict, b: dict) -> int:
    differ = 0
    for label in sorted(set(a) | set(b)):
        if label not in a or label not in b:
            print(f"missing on one side: {label}")
            differ += 1
        elif a[label][0] != b[label][0]:
            print(f"differs: {label}")
            differ += 1
    both = sorted(set(a) & set(b))
    counts = 0
    for label in both:
        if a[label][1:3] != b[label][1:3]:
            print(f"products (_mul_into, _mul_record) {a[label][1:3]} -> "
                  f"{b[label][1:3]}: {label}")
            counts += 1
    for label in both:
        if b[label][3] > a[label][3]:
            print(f"record term pairs {a[label][3]} -> {b[label][3]}: {label}")
    rose = sum(b[label][1] > a[label][1] for label in both)
    fell = sum(b[label][2] < a[label][2] for label in both)
    pairs_rose = sum(b[label][3] > a[label][3] for label in both)
    a_sums, b_sums = (tuple(sum(c[i] for c in snap.values()) for i in (1, 2, 3))
                      for snap in (a, b))
    print(f"{len(set(a) | set(b))} cases: {differ} differ in value, type or error; "
          f"{counts} differ in product or pass counts, {rose} make more products, "
          f"{fell} take fewer passes, {pairs_rose} multiply more record term pairs; "
          f"summed (_mul_into, _mul_record, record term pairs) {a_sums} -> {b_sums}")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two snapshots instead of writing one")
    parser.add_argument("paths", nargs="*", metavar="SRC OUT",
                        help="source directory to import and snapshot file to write")
    args = parser.parse_args()
    if args.compare:
        if args.paths:
            parser.error("--compare takes no further paths")
        # Only snapshots written by this script are loaded.
        loaded = []
        for path in args.compare:
            with open(path, "rb") as fh:
                loaded.append(pickle.load(fh))
        return compare(*loaded)
    if len(args.paths) != 2:
        parser.error("expected SRC OUT.pkl, or --compare A.pkl B.pkl")
    src, out = args.paths
    data = snapshot(src)
    with open(out, "wb") as fh:
        pickle.dump(data, fh)
    print(f"{len(data)} cases written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
