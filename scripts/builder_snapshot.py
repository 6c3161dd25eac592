#!/usr/bin/env python3
"""Snapshot every series builder's output, to check a refactor changes none.

Two commands:

    python3 scripts/builder_snapshot.py SRC OUT.pkl
    python3 scripts/builder_snapshot.py --compare A.pkl B.pkl

The first imports ``fishburn`` from the source directory SRC (for example
``src`` of a checkout) and pickles, for every builder case, either the value
with the type of each coefficient or the error's type and message, together
with the number of ``_mul_into`` and ``_bv_mul_into`` calls the case made.
Every cache of ``fishburn.families`` is cleared before each case, so the
counts do not depend on the order of the cases.

The second loads two snapshots written by this script and prints each case
whose value, coefficient types or error differ, then each case whose product
counts differ.  It exits 1 when a value, a type or an error differs (or a
case is missing on one side) and 0 otherwise; product counts are reported
but do not change the exit status.
"""

import argparse
import pickle
import sys
from collections import Counter
from pathlib import Path

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


def _describe(obj):
    """A picklable (value, coefficient types) pair for a builder's result."""
    from fishburn.series import BivariateSeries, Jet, TruncatedSeries

    if isinstance(obj, TruncatedSeries):
        return (obj.order, obj.coeffs), tuple(type(c).__name__ for c in obj.coeffs)
    if isinstance(obj, BivariateSeries):
        types = tuple(tuple(type(c).__name__ for c in p) for p in obj.coeffs)
        return (obj.order, obj.coeffs), types
    if isinstance(obj, Jet):
        parts = [_describe(p) for p in obj.parts]
        return tuple(v for v, _ in parts), tuple(t for _, t in parts)
    if isinstance(obj, (list, tuple)):
        return tuple(obj), tuple(type(c).__name__ for c in obj)
    raise TypeError(f"no description for {type(obj).__name__}")


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
    markers = [("monomial", series.monomial_marker)] + [
        (f"jet{d}", lambda d=d: series.jet_marker(d)) for d in (1, 2, 3)
    ]
    for fam in families.FAMILIES:
        for stat in families.STATS:
            for form in ("product", "direct"):
                for name, marker in markers:
                    for lam in map(spec.parse, STAT_MULTISETS):
                        for n in STAT_ORDERS:
                            yield (f"stat_gf {fam} {stat} {form} {name} "
                                   f"{lam.describe()} {n}",
                                   lambda f=fam, s=stat, fo=form, m=marker, l=lam, n=n:
                                   families.stat_gf(f, s, l, n, m(), fo))
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


def snapshot(src: str) -> dict:
    root = Path(src).resolve()
    sys.path.insert(0, str(root))
    import fishburn.families as families
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
    for label, thunk in _cases(families, series):
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
