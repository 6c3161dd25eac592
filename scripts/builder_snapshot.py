#!/usr/bin/env python3
"""Snapshot every builder's output and CLI run, to check a refactor changes none.

Two commands:

    python3 scripts/builder_snapshot.py SRC OUT.pkl
    python3 scripts/builder_snapshot.py --compare A.pkl B.pkl

The first imports ``fishburn`` from the source directory SRC (for example
``src`` of a checkout) and pickles, for every builder case, either the value
with the type of each coefficient or the error's type and message, together
with the number of ``_mul_into`` and ``_bv_mul_into`` calls the case made.
The ``monomial`` statistic cases record full profiles, unpacked from one
evaluation at v = 2^K as ``stat_profile`` does, for both forms; their value
is (order, rows), rows[n] the v-polynomial of z^n.
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
``family_form``, ``named_form``, ``constants_small2``, ``dilog`` and
``I_func``; those constants and function values are recorded as
50-significant-digit strings, so a change in the last bits of a 60-digit
evaluation does not count as a difference.

The second loads two snapshots written by this script and prints each case
whose value, coefficient types or error differ, then each case whose product
counts differ.  It exits 1 when a value, a type or an error differs (or a
case is missing on one side) and 0 otherwise; product counts are reported
but do not change the exit status.
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
VARIANT_ORDERS = (0, 1, 2, 20, 40)
NAMED_COUNTS = (1, 2, 25)
MULTISETS = ("all", "01", "012", "odd", "even+", "no1", "1,0,2", "0,3", "custom")
ALTERNATE_ROUTES = (
    "_variant_A035378_inverted",
    "_variant_A035378_paired",
    "_variant_A207557_rf",
    "_variant_A079144_completed",
    "r_at_exp_neg",
    "r_at_one_minus",
)
TABLE_EGF = ("A196194", "A207214", "A215066", "A209832", "A214687", "A079144")
ORDINARY = ("A207386", "A207397", "A207556", "A207569", "A207570", "A207571")
FORMATS = ("table", "csv", "json")
LAW_SIZES = (1, 2, 9, 30, 59, 60)
LAW_MULTISETS = ("all", "01", "012", "even+", "no1",
                 "0,0,1", "0,1", "0,1,1", "0,1,0,1,1", "0,1,0,0,1")
# (lam2, lam3, lam4, lam_odd) for constants_small2, each tried at m = 1, 2, 3.
SMALL2_WEIGHTS = ((1, 1, 1, None), (2, 3, 5, 3), (1, 0, 1, None), (1, 0, 1, 1),
                  (3, 0, 2, 4))
# Points for dilog and I_func; those outside a function's domain record its error.
SPECIAL_POINTS = (0, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(7, 10),
                  Fraction(9, 10), Fraction(999, 1000), 1, 2, 5, -1)
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
    from fishburn.series import Jet, TruncatedSeries

    if isinstance(obj, TruncatedSeries):
        return (obj.order, obj.coeffs), tuple(type(c).__name__ for c in obj.coeffs)
    if isinstance(obj, _Profile):
        types = tuple(tuple(type(c).__name__ for c in p) for p in obj.rows)
        return (obj.order, obj.rows), types
    if isinstance(obj, Jet):
        parts = [_describe(p) for p in obj.parts]
        return tuple(v for v, _ in parts), tuple(t for _, t in parts)
    if isinstance(obj, (list, tuple)):
        return tuple(obj), tuple(type(c).__name__ for c in obj)
    raise TypeError(f"no description for {type(obj).__name__}")


_Profile = collections.namedtuple("_Profile", "order rows")


def _profile(families, series, family, stat, lam, order, form):
    """The full profile of one statistic in either form, unpacked from one
    evaluation at v = 2^K as ``stat_profile`` does for the product form."""
    counts = families.family_series(family, lam, order).coeffs
    bits = max(counts).bit_length()
    packed = families.stat_gf(family, stat, lam, order, series.eval_marker(1 << bits), form)
    return _Profile(order, families._unpack_rows(packed, counts, bits))


def _cases(families, series):
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
        for n in FAMILY_ORDERS:
            yield (f"fishburn_gf direct {lam.describe()} {n}",
                   lambda l=lam, n=n: families.fishburn_gf(l, n, form="direct"))
    builds = [("monomial", lambda *case: _profile(families, series, *case))] + [
        (f"jet{d}", lambda f, s, l, n, fo, d=d:
         families.stat_gf(f, s, l, n, series.jet_marker(d), fo))
        for d in (1, 2, 3)
    ]
    for fam in families.FAMILIES:
        for stat in families.STATS:
            for form in ("product", "direct"):
                for name, build in builds:
                    for lam in map(spec.parse, STAT_MULTISETS):
                        for n in STAT_ORDERS:
                            yield (f"stat_gf {fam} {stat} {form} {name} "
                                   f"{lam.describe()} {n}",
                                   lambda b=build, case=(fam, stat, lam, n, form): b(*case))
    for kind in sorted(families._VARIANT_BUILDERS):
        for n in VARIANT_ORDERS:
            yield f"variant_gf {kind} {n}", lambda k=kind, n=n: families.variant_gf(k, n)
    routes = [(name, lambda n, name=name: getattr(families, name)(n))
              for name in ALTERNATE_ROUTES]
    routes += [(f"table_egf {w}", lambda n, w=w: families._variant_table_egf(n, w))
               for w in TABLE_EGF]
    routes += [(f"ordinary {w}", lambda n, w=w: families._variant_ordinary(n, w))
               for w in ORDINARY]
    routes += [(f"ramanujan_r {form}", lambda n, form=form: families.ramanujan_r(n, form))
               for form in ("alternating", "quotient")]
    routes += [(f"recursive_gf {kind}", lambda n, kind=kind: families.recursive_gf(kind, n))
               for kind in ("A186737", "A224885")]
    for name, build in routes:
        for n in VARIANT_ORDERS:
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
        for parity in (None, "even", "odd"):
            for lam2, lam3, lam4, odd in SMALL2_WEIGHTS:
                yield (f"constants_small2 {lam2} {lam3} {lam4} {odd} m={m} {parity}",
                       lambda w=(lam2, lam3, lam4, odd), m=m, p=parity:
                       _record(fb.constants_small2(*w, m=m, parity=p), _digits))
    for func in (saddle.dilog, saddle.I_func):
        for x in SPECIAL_POINTS:
            yield (f"{func.__name__} {x}",
                   lambda func=func, x=x: _record(func(x), _digits))


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
    import fishburn.saddle as saddle
    import fishburn.series as series

    if not Path(families.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"imported {families.__file__}, not the package under {root}")

    counts = Counter()
    for name in ("_mul_into", "_bv_mul_into"):
        kernel = getattr(series, name)

        def counting(a, b, order, _name=name, _kernel=kernel):
            counts[_name] += 1
            return _kernel(a, b, order)

        setattr(series, name, counting)
    caches = [v for v in vars(families).values() if hasattr(v, "cache_clear")]

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cases = itertools.chain(_cases(families, series), _cli_cases(cli, Path(tmp)),
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
            out[label] = (result, counts["_mul_into"], counts["_bv_mul_into"])
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
    counts = 0
    for label in sorted(set(a) & set(b)):
        if a[label][1:] != b[label][1:]:
            print(f"products (_mul_into, _bv_mul_into) {a[label][1:]} -> "
                  f"{b[label][1:]}: {label}")
            counts += 1
    print(f"{len(set(a) | set(b))} cases: {differ} differ in value, type or error; "
          f"{counts} differ in product counts")
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
